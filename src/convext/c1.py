"""From qualitative feasibility to a quantitative modulus.

A jet on a dense finite set that satisfies the two qualitative conditions
(value domination and tangency rigidity) admits a differentiable convex
extension, but no modulus is prescribed a priori.  This module manufactures
one from the data:

* ``delta(t)``: the worst tangent-plane crossing rate among witness points
  within distance t.  On finite sets the supremum reduces exactly to
  ``max(0, max_pairs(s_ij - c_ij / t))`` where c is the tangent defect and
  s the gradient gap: the witness direction aligns with the gradient gap
  and the optimal witness distance is t itself.  Each term increases in s
  and decreases in c, so the maximum runs over the Pareto front of the
  pairs (``jet._pareto_pairs``) only, which the verdict builds in its one
  pass over the pairs.
* ``delta1(t) = inf_{0<s<1} delta(s) + (2 L / s) t``: a concave,
  non-decreasing upper envelope of delta.  In u = 1/s,
  ``h(u) = delta(1/u) = max(0, max_k s_k - c_k u)`` is convex and
  piecewise linear, and its breakpoints are the slopes of the upper hull
  of the front points (c_k, s_k) and the origin.  The infimand
  h(u) + 2 L t u is convex, so its infimum over u >= 1 is attained at
  u = 1 or at a hull slope above 1: delta1 is exact, one minimum over
  those vertices for every t at once.  h is the support function of
  those points, so ``delta(t) = h(1/t)`` and every h that delta1 takes
  are read off the hull vertex that ``searchsorted`` finds on the slopes.
* ``Delta = min(2 L, delta1)`` and ``omega = Delta^alpha``, tabulated on a
  log grid and repaired with an upper concave hull so the result is a
  certified concave table.
* ``M = 2 (2 L)^(1-alpha)``: with this constant the jet is feasible for
  the constructed omega, so the extension pipeline applies and delivers a
  C^1 convex interpolant with the sharp Lipschitz constant L = sup |G|.

alpha defaults to 1 (the Euclidean case); smaller values exercise the
norm-smoothness-limited variant together with a user-supplied midpoint
constant K.

The hull of the front and the table's concave repair are both
``envelope._lower_hull`` run on negated ordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .envelope import _lower_hull
from .extension import ConstantTooSmallError, ExtensionConfig, _build, _check_numbers, verify_extension
from .jet import Jet, _verdict, sup_norm_gradients
from .modulus import LinearModulus, Modulus, TableModulus, validate_modulus

__all__ = [
    "ConstructedModulus",
    "delta_many",
    "delta1_value",
    "build_construction",
    "c1_extend",
]

@dataclass
class ConstructedModulus:
    """The tabulated construction delta <= delta1, Delta and omega = Delta^alpha."""

    alpha: float
    L: float
    t_grid: np.ndarray
    delta: np.ndarray
    delta1: np.ndarray
    Delta: np.ndarray
    omega: Optional[Modulus]
    M: float
    degenerate: bool = False

    def to_json(self):
        out = {
            "alpha": self.alpha,
            "L": self.L,
            "M": self.M,
            "degenerate": bool(self.degenerate),
            "t_grid": self.t_grid.tolist(),
            "delta": self.delta.tolist(),
            "delta1": self.delta1.tolist(),
            "Delta": self.Delta.tolist(),
        }
        if isinstance(self.omega, TableModulus):
            out["omega_knots"] = self.omega.knots.tolist()
        return out


def _hull(verdict):
    """Vertices (c, s) and decreasing segment slopes of the upper hull of the
    verdict's front points and the origin; raises its error where (C) fails."""
    if not verdict.condition_C.ok:
        raise verdict.error
    c, s = verdict.front[2:]
    xs, ys = np.concatenate([[0.0], c]), np.concatenate([[0.0], -s])
    order = np.lexsort((ys, xs))
    hx, hy = _lower_hull(xs[order], ys[order])
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = -np.diff(hy) / np.diff(hx)
    return hx, 0.0 - hy, slopes       # not -hy: the origin's s is +0.0


def _h(hull, u, ts=None):
    """h(u) = max(0, max_k s_k - c_k u), or with u = 1 / ts, h(1/t) as s_k - c_k / t.
    Read off the hull vertex that ``searchsorted`` finds and its two neighbours,
    so the larger end wins a slope tie, exact or made by rounding."""
    hc, hs, slopes = hull
    v = np.clip(np.searchsorted(-slopes, -u)[:, None] + np.arange(-1, 2), 0, slopes.size)
    cu = hc[v] * u[:, None] if ts is None else hc[v] / ts[:, None]
    return np.max(hs[v] - cu, axis=1, initial=0.0)


def delta_many(jet: Jet, ts) -> np.ndarray:
    """delta, the worst tangent-plane crossing rate within witness distance t,
    on an array of finite positive distances t (exact finite-set reduction); needs
    condition (C) only."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts) & (ts > 0)):
        raise ValueError(f"ts must be finite and > 0, got {ts}")
    return _h(_hull(_verdict(jet, 1e-9)), 1.0 / ts, ts)


def delta1_value(jet: Jet, L: float, t):
    """inf over s in (0,1) of delta(s) + (2 L / s) t, for a scalar or an array t.

    In u = 1/s the infimand is h(u) + 2 L t u with h convex and piecewise
    linear, so the infimum over u >= 1 is attained at u = 1 or at a
    breakpoint of h above 1.  The breakpoints are the slopes of the upper
    hull of the front points (c_k, s_k) and the origin.  Needs condition
    (C) only, like ``delta_many``.
    """
    if not np.all(np.isfinite(t) & (np.asarray(t) >= 0)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return _delta1(_hull(_verdict(jet, 1e-9)), L, t)


def _delta1(hull, L, t):
    slopes = hull[2]
    u = np.concatenate([[1.0], slopes[np.isfinite(slopes) & (slopes > 1.0)]])
    out = np.min(_h(hull, u) + 2.0 * L * np.asarray(t, dtype=float)[..., None] * u, axis=-1)
    return float(out) if np.ndim(t) == 0 else out


def build_construction(
    jet: Jet,
    alpha: float = 1.0,
    t_grid=None,
    tol: float = 1e-9,
) -> ConstructedModulus:
    """Tabulate delta, delta1, Delta and build the concave table omega.

    The grid defaults to 320 log-spaced points on
    [1e-4 * diam, 10 * diam].  A jet with L = 0 is constant (by value
    domination) and returns a degenerate record handled downstream by a
    constant extension.
    """
    return _construct(jet, alpha, t_grid, tol)[0]


def _construct(jet: Jet, alpha, t_grid, tol):
    """``build_construction``, and the verdict it read (for the extension)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if t_grid is None:
        diam = max(jet.diameter(), 1.0)
        t_grid = np.geomspace(1e-4 * diam, 10.0 * diam, 320)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if not (np.all(np.isfinite(t_grid) & (t_grid > 0)) and np.all(np.diff(t_grid) > 0)):
            raise ValueError("t_grid must be positive and strictly increasing, and finite")
    verdict = _verdict(jet, tol)
    if verdict.error:
        raise verdict.error
    L = sup_norm_gradients(jet)

    if L <= 1e-15 * (1.0 + float(np.max(np.abs(jet.values)))):
        zeros = np.zeros_like(t_grid)
        return ConstructedModulus(
            alpha=alpha, L=L, t_grid=t_grid, delta=zeros, delta1=zeros,
            Delta=zeros, omega=None, M=0.0, degenerate=True,
        ), verdict

    hull = _hull(verdict)
    delta = _h(hull, 1.0 / t_grid, t_grid)
    delta1 = _delta1(hull, L, t_grid)
    Delta = np.minimum(2.0 * L, delta1)

    ts = np.concatenate([[0.0], t_grid])
    ws = np.concatenate([[0.0], np.power(Delta, alpha)])
    hx, hy = _lower_hull(ts, -ws)
    omega = TableModulus(np.column_stack([hx, -hy]))
    report = validate_modulus(omega, ts)
    if not report.ok:
        raise RuntimeError(f"constructed table failed validation: {report.issues[:3]}")

    M = 2.0 * (2.0 * L) ** (1.0 - alpha)
    return ConstructedModulus(
        alpha=alpha, L=L, t_grid=t_grid, delta=delta, delta1=delta1,
        Delta=Delta, omega=omega, M=M,
    ), verdict


def c1_extend(
    jet: Jet,
    alpha: float = 1.0,
    domain=None,
    resolution: Optional[int] = None,
    smoothness_K: Optional[float] = None,
    samples: int = 2000,
    seed: int = 0,
    tol: float = 1e-9,
):
    """Full qualitative-to-quantitative pipeline.

    Builds the modulus construction and hands off to the extension pipeline
    with constant M = 2 (2L)^(1-alpha) and the Lipschitz cap set to L (so
    the delivered extension has the sharp Lipschitz constant).  The pipeline
    certifies M >= A - tol for the constructed modulus; a construction that
    fails it raises RuntimeError.  Returns
    (model, verification report, construction).
    """
    cm, verdict = _construct(jet, alpha, None, tol)
    # a constant jet gets a constant extension
    modulus, M = (LinearModulus(), "auto") if cm.degenerate else (cm.omega, cm.M)
    cfg = ExtensionConfig(
        modulus=modulus, M=M, lipschitz="auto",
        smoothness_K=smoothness_K, domain=domain, resolution=resolution, tol=tol,
    )
    _check_numbers(cfg)
    try:
        model = _build(jet, cfg, verdict)
    except ConstantTooSmallError as exc:
        raise RuntimeError(f"construction failed: {exc}") from exc
    return model, verify_extension(model, samples=samples, seed=seed), cm
