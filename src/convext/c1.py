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
  pairs (``jet._pareto_pairs``) only.
* ``delta1(t) = inf_{0<s<1} delta(s) + (2 L / s) t``: a concave,
  non-decreasing upper envelope of delta.  In u = 1/s,
  ``h(u) = delta(1/u) = max(0, max_k s_k - c_k u)`` is convex and
  piecewise linear, and its breakpoints are the slopes of the upper hull
  of the front points (c_k, s_k) and the origin.  The infimand
  h(u) + 2 L t u is convex, so its infimum over u >= 1 is attained at
  u = 1 or at a hull slope above 1: delta1 is exact, one minimum over
  those vertices for every t at once.
* ``Delta = min(2 L, delta1)`` and ``omega = Delta^alpha``, tabulated on a
  log grid and repaired with an upper concave hull so the result is a
  certified concave table.
* ``M = 2 (2 L)^(1-alpha)``: with this constant the jet is feasible for
  the constructed omega, so the extension pipeline applies and delivers a
  C^1 convex interpolant with the sharp Lipschitz constant L = sup |G|.

alpha defaults to 1 (the Euclidean case); smaller values exercise the
norm-smoothness-limited variant together with a user-supplied midpoint
constant K.

Both upper hulls are ``envelope._lower_hull`` run on negated ordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .envelope import _lower_hull
from .extension import (
    ExtensionConfig,
    ExtensionModel,
    VerificationReport,
    build_extension,
    verify_extension,
)
from .jet import (
    Jet,
    _pareto_pairs,
    _verdict,
    pair_defects,
    seminorm_A_extrinsic,
    sup_norm_gradients,
)
from .modulus import LinearModulus, Modulus, TableModulus, validate_modulus

__all__ = [
    "ConstructedModulus",
    "compute_delta",
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


def _front(jet: Jet):
    """Defects (c, s) of the jet's Pareto-front pairs."""
    C, S, _ = pair_defects(jet)
    return _pareto_pairs(C, S)[2:]


def _delta(c, s, ts):
    return np.max(s[None, :] - c[None, :] / ts[:, None], axis=1, initial=0.0)


def delta_many(jet: Jet, ts) -> np.ndarray:
    """delta on an array of positive distances (exact finite-set reduction)."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise ValueError("delta is defined for t > 0")
    return _delta(*_front(jet), ts)


def compute_delta(jet: Jet, t: float, tol: float = 1e-9) -> float:
    """Worst tangent-plane crossing rate within witness distance t; needs
    condition (C) only."""
    if t <= 0:
        raise ValueError("delta is defined for t > 0")
    verdict = _verdict(jet, tol)
    if not verdict.condition_C.ok:
        raise verdict.error
    return float(_delta(*_pareto_pairs(verdict.C, verdict.S)[2:], np.array([t]))[0])


def delta1_value(jet: Jet, L: float, t):
    """inf over s in (0,1) of delta(s) + (2 L / s) t, for a scalar or an array t.

    In u = 1/s the infimand is h(u) + 2 L t u with h convex and piecewise
    linear, so the infimum over u >= 1 is attained at u = 1 or at a
    breakpoint of h above 1.  The breakpoints are the slopes of the upper
    hull of the front points (c_k, s_k) and the origin.
    """
    return _delta1(*_front(jet), L, t)


def _delta1(c, s, L, t):
    xs, ys = np.concatenate([[0.0], c]), np.concatenate([[0.0], -s])
    order = np.lexsort((ys, xs))
    hx, hy = _lower_hull(xs[order], ys[order])
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = -np.diff(hy) / np.diff(hx)
    u = np.concatenate([[1.0], slopes[np.isfinite(slopes) & (slopes > 1.0)]])
    h = np.max(s[None, :] - c[None, :] * u[:, None], axis=1, initial=0.0)
    tt = np.asarray(t, dtype=float)
    out = np.min(h + 2.0 * L * tt[..., None] * u, axis=-1)
    return float(out) if np.ndim(t) == 0 else out


def build_construction(
    jet: Jet,
    alpha: float = 1.0,
    t_grid=None,
    n_grid: int = 320,
    tol: float = 1e-9,
) -> ConstructedModulus:
    """Tabulate delta, delta1, Delta and build the concave table omega.

    The grid defaults to n_grid log-spaced points on
    [1e-4 * diam, 10 * diam].  A jet with L = 0 is constant (by value
    domination) and returns a degenerate record handled downstream by a
    constant extension.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    verdict = _verdict(jet, tol)
    if verdict.error:
        raise verdict.error
    c, s = _pareto_pairs(verdict.C, verdict.S)[2:]
    L = sup_norm_gradients(jet)
    if t_grid is None:
        diam = max(jet.diameter(), 1.0)
        t_grid = np.geomspace(1e-4 * diam, 10.0 * diam, n_grid)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
            raise ValueError("t_grid must be positive and strictly increasing")

    if L <= 1e-15 * (1.0 + float(np.max(np.abs(jet.values)))):
        zeros = np.zeros_like(t_grid)
        return ConstructedModulus(
            alpha=alpha, L=L, t_grid=t_grid, delta=zeros, delta1=zeros,
            Delta=zeros, omega=None, M=0.0, degenerate=True,
        )

    delta = _delta(c, s, t_grid)
    delta1 = _delta1(c, s, L, t_grid)
    Delta = np.minimum(2.0 * L, delta1)

    ts = np.concatenate([[0.0], t_grid])
    ws = np.concatenate([[0.0], np.power(Delta, alpha)])
    hx, hy = _lower_hull(ts, -ws)
    omega = TableModulus(np.column_stack([hx, -hy]))
    report = validate_modulus(omega, np.concatenate([[0.0], t_grid]))
    if not report.ok:
        raise RuntimeError(f"constructed table failed validation: {report.issues[:3]}")

    M = 2.0 * (2.0 * L) ** (1.0 - alpha)
    return ConstructedModulus(
        alpha=alpha, L=L, t_grid=t_grid, delta=delta, delta1=delta1,
        Delta=Delta, omega=omega, M=M,
    )


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

    Builds the modulus construction, certifies that the jet is feasible for
    it with constant M = 2 (2L)^(1-alpha), and hands off to the extension
    pipeline with the Lipschitz cap set to L (so the delivered extension
    has the sharp Lipschitz constant).  Returns
    (model, verification report, construction).
    """
    cm = build_construction(jet, alpha=alpha, tol=tol)
    modulus, M = LinearModulus(), "auto"        # a constant jet gets a constant extension
    if not cm.degenerate:
        A_check = seminorm_A_extrinsic(jet, cm.omega, tol)
        if not A_check <= cm.M * (1.0 + 1e-9) + 1e-6:
            raise RuntimeError(
                f"construction failed: least constant {A_check} exceeds M = {cm.M}"
            )
        modulus, M = cm.omega, cm.M
    cfg = ExtensionConfig(
        modulus=modulus, M=M, lipschitz="auto",
        smoothness_K=smoothness_K, domain=domain, resolution=resolution, tol=tol,
    )
    model = build_extension(jet, cfg)
    return model, verify_extension(model, samples=samples, seed=seed), cm
