"""End-to-end construction and empirical verification of convex extensions.

Pipeline: given a jet and a modulus, resolve the constant M (the least
feasible constant A by default), build the generator and its convex
envelope F over a box, optionally cap it at the sharp Lipschitz constant
L = sup |G|, then measure on random samples every quantity the construction
promises to control:

* interpolation of values and gradients on the jet points (gradients are
  exact: the maximizer s* in d >= 2; in d = 1 the active piece's gradient
  where F = g is proved, else the slope of the hull segment);
* the least-constant seminorm of (F, grad F), which must stay below K * M
  (K = 2 for a generic increasing unbounded modulus, K = 2^{1-alpha} for
  power moduli: the midpoint-smoothness constant of phi(|.|));
* the omega-seminorm of grad F, which must stay below (4/3) K M, improved
  to K ((1+alpha)/(2 alpha))^alpha M for power moduli;
* the Lipschitz constant of the capped variant, which equals L;
* the necessity direction: the measured least-constant never exceeds the
  measured gradient seminorm.

Measured suprema are taken over random samples, so they are lower bounds
of the true seminorms; each is compared against its asserted upper bound
with a 5 % multiplicative slack plus an additive term: in d = 1 the sampled
hull's discretization error 10 * M * omega(h_grid) * h_grid, in d >= 2 only
rounding (1e-12), because each value of F there is certified within
TOL (1 + |g|) and the grid only places the CSV rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .envelope import Generator, build_envelope
from .jet import InfeasibleJetError, Jet, _A, _A_extrinsic, _defects, _verdict, sup_norm_gradients
from .modulus import Modulus

__all__ = [
    "ExtensionConfig",
    "ExtensionModel",
    "BoundCheck",
    "VerificationReport",
    "ConstantTooSmallError",
    "build_extension",
    "verify_extension",
    "default_domain",
]


class ConstantTooSmallError(ValueError):
    """An explicit M below the least feasible constant of the jet."""


def default_domain(jet: Jet):
    """Axis-aligned box around the jet: bounding box +/- max(1, 2 * diam)."""
    margin = max(1.0, 2.0 * jet.diameter())
    lo = np.min(jet.points, axis=0) - margin
    hi = np.max(jet.points, axis=0) + margin
    return lo, hi


def default_smoothness_constant(m: Modulus) -> float:
    """Midpoint-smoothness constant of phi(|.|) on Euclidean space."""
    alpha = m.holder_exponent
    if alpha is not None:
        return 2.0 ** (1.0 - alpha)
    return 2.0


@dataclass
class ExtensionConfig:
    """Knobs for :func:`build_extension`.

    M may be the string "auto" (use the least feasible constant) or an
    explicit value >= that constant.  ``lipschitz`` may be None (no capped
    variant), "auto" (cap at sup |G|) or an explicit cap.  ``smoothness_K`` overrides the midpoint-smoothness constant used
    in the verification bounds (for experiments with non-Euclidean norms).
    ``tol`` is the feasibility tolerance of the jet checks and of A, and the
    slack allowed below A for an explicit M.
    """

    modulus: Modulus
    M: Union[str, float] = "auto"
    lipschitz: Union[None, str, float] = None
    smoothness_K: Optional[float] = None
    domain: Optional[tuple] = None
    resolution: Optional[int] = None
    tol: float = 1e-9


class ExtensionModel:
    """A built convex extension: the envelope plus its resolved parameters."""

    def __init__(self, jet, envelope, modulus, M, A, L, K, tol=1e-9):
        self.jet = jet
        self.envelope = envelope
        self.modulus = modulus
        self.M = M
        self.A = A
        self.L = L
        self.K = K
        self.tol = tol      # the feasibility tolerance the jet was accepted at

    @property
    def dimension(self):
        return self.jet.dimension

    @property
    def domain(self):
        return self.envelope.lo, self.envelope.hi

    def grid_spacing(self):
        return self.envelope.grid_spacing()

    def default_step(self):
        """4 grid spacings: the verification samples' pad from the box, and
        in d = 1 a tenth of the floor on sample-pair separation.  Reported
        as ``fd_step``."""
        return 4.0 * self.grid_spacing()

    def gradient_many(self, X):
        return self.envelope.gradient_many(X)

    def restriction(self) -> Jet:
        """The jet (F, grad F) restricted back to the original points."""
        E = self.jet.points
        return Jet(E, *self.envelope._value_and_gradient(E))

    def manifest(self) -> dict:
        lo, hi = self.domain
        return {
            "M": self.M,
            "A": self.A,
            "L": self.L,
            "K": self.K,
            "domain_lo": lo.tolist(),
            "domain_hi": hi.tolist(),
            "resolution": self.envelope.resolution,
        }


def _check_numbers(cfg: ExtensionConfig):
    """Raise ValueError naming the first numeric field of cfg out of range."""
    for name, value, ok, what in (
        ("tol", cfg.tol, lambda v: v >= 0, ">= 0"),
        ("lipschitz", cfg.lipschitz, lambda v: np.isfinite(v) and v >= 0, "finite and >= 0"),
        ("smoothness_K", cfg.smoothness_K, lambda v: np.isfinite(v) and v > 0, "finite and > 0"),
    ):
        if value not in (None, "auto") and not ok(float(value)):
            raise ValueError(f"{name} must be {what}, got {value!r}")


def build_extension(jet: Jet, cfg: ExtensionConfig) -> ExtensionModel:
    """Resolve the configuration, check feasibility, and build the envelope.

    Raises :class:`InfeasibleJetError` naming the failing condition when no
    constant works (A = +inf), and ``ValueError`` when an explicit M is below
    the least feasible constant or a numeric field of cfg is out of range.
    """
    _check_numbers(cfg)
    return _build(jet, cfg, _verdict(jet, cfg.tol))


def _build(jet: Jet, cfg: ExtensionConfig, verdict) -> ExtensionModel:
    """``build_extension`` on the verdict of (jet, cfg.tol), once cfg's numbers are checked."""
    if verdict.error:
        raise verdict.error
    A = _A(verdict, cfg.modulus)
    if not np.isfinite(A):      # a bounded modulus that no constant lifts over a pair's gradient gap
        i, j = _A_extrinsic(verdict, cfg.modulus)[1]
        raise InfeasibleJetError("finite_A", [(i, j, np.inf)])

    if cfg.M == "auto":
        M = A
    else:
        M = float(cfg.M)
        if M < A - cfg.tol:
            raise ConstantTooSmallError(
                f"M={M} is below the least feasible constant A={A}; the "
                "generator would cut below the prescribed values"
            )

    L = cfg.lipschitz
    if L is not None:
        L = sup_norm_gradients(jet) if L == "auto" else float(L)

    if cfg.domain is None:
        lo, hi = default_domain(jet)
    else:
        lo, hi = cfg.domain
    resolution = cfg.resolution
    if resolution is None:
        resolution = 4001 if jet.dimension == 1 else (65 if jet.dimension == 2 else 33)
    K = cfg.smoothness_K if cfg.smoothness_K is not None else default_smoothness_constant(cfg.modulus)

    generator = Generator(jet, cfg.modulus, M)
    envelope = build_envelope(generator, lo, hi, resolution, L)
    return ExtensionModel(jet, envelope, cfg.modulus, M, A, L, K, cfg.tol)


# ---------------------------------------------------------------------------
# verification


@dataclass
class BoundCheck:
    name: str
    bound: float
    measured: float
    passed: bool

    def to_json(self):
        return {
            "name": self.name,
            "bound": self.bound,
            "measured": self.measured,
            "passed": bool(self.passed),
        }


@dataclass
class VerificationReport:
    interpolation_max_error: float
    gradient_max_error: float
    empirical_A: float
    empirical_lip_omega_gradF: float
    empirical_lip_F: Optional[float]
    bound_checks: list = field(default_factory=list)
    context: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.bound_checks)

    def to_json(self):
        return {
            "ok": bool(self.ok),
            "interpolation_max_error": self.interpolation_max_error,
            "gradient_max_error": self.gradient_max_error,
            "empirical_A": self.empirical_A,
            "empirical_lip_omega_gradF": self.empirical_lip_omega_gradF,
            "empirical_lip_F": self.empirical_lip_F,
            "bound_checks": [c.to_json() for c in self.bound_checks],
            "context": self.context,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def _sample_interior(model, rng, count, pad):
    lo, hi = model.domain
    return rng.uniform(lo + pad, hi - pad, size=(count, model.dimension))


def verify_extension(
    model: ExtensionModel,
    samples: int = 2000,
    seed: int = 0,
) -> VerificationReport:
    """Measure the extension's empirical seminorms and compare to the bounds.

    The seminorm ratios use max(40, sqrt(2 ``samples``)) random points 1.5
    ``default_step`` inside the box (a quarter of a side inside, where that
    side is narrower than 6 ``default_step``), and discard pairs closer than
    ``min_separation`` (5 % of the narrowest box side, and in d = 1 at
    least 10 times ``default_step``; reported in the context): below that
    scale the sampled hull of d = 1, not the extension, dominates the
    ratio.  The additive slack is the sampled hull's error 10 M omega(h) h
    in d = 1 (h the grid spacing), and 1e-12 in d >= 2, where F is the
    certified conjugate solve, within TOL (1 + |g|) at every point, and the
    grid only places the CSV rows.  With a cap, ``empirical_lip_F`` is the
    largest Lipschitz quotient of F_L over all pairs of m random points over
    the whole box, m the smallest integer >= 40 with m (m - 1) / 2 >=
    ``samples``.  F and grad F come from one solve on the jet points and
    both sets, and F_L reuses it (``EnvelopeModel._value_and_lipschitz``).
    """
    rng = np.random.default_rng(seed)
    m = model.modulus
    M, K, L = model.M, model.K, model.L
    h = model.default_step()
    sp = model.grid_spacing()
    lo, hi = model.domain
    width = float(np.min(hi - lo))
    min_separation = max(0.05 * width, 10.0 * h if model.dimension == 1 else 0.0)
    slack_add = (10.0 * M * m.omega(sp) * sp if model.dimension == 1 else 0.0) + 1e-12
    mult = 1.05

    # gradient-bearing sample points, 1.5 default steps inside the box (a
    # quarter of any narrower side), and with a cap m points over the whole
    # box: m (m - 1) / 2 >= samples, m >= 40
    pad = np.minimum(1.5 * h, 0.25 * (hi - lo))
    pts = _sample_interior(model, rng, max(40, int(np.sqrt(2.0 * samples))), pad=pad)
    box = np.zeros((0, model.dimension))
    if L is not None:
        count = (1 + math.isqrt(8 * samples + 1)) // 2
        count = max(40, count + (count * (count - 1) // 2 < samples))
        box = _sample_interior(model, rng, count, pad=0.0)

    # F and grad F on the jet points and both sets from one solve
    E = model.jet.points
    cuts = [len(E), len(E) + len(pts)]
    F_all, G_all = model.envelope._value_and_gradient(np.vstack([E, pts, box]))
    (F_E, F_pts, F_box), (G_E, G_pts, G_box) = np.split(F_all, cuts), np.split(G_all, cuts)
    interp_err = float(np.max(np.abs(F_E - model.jet.values)))
    grad_err = float(np.max(np.sqrt(np.sum((G_E - model.jet.gradients) ** 2, axis=1))))

    # empirical least-constant: (F(x) - F(y) - <gF(y), x-y>) / phi(|x-y|)
    numer, dG, dist = _defects(pts, F_pts, G_pts)
    keep = dist >= min_separation
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios_A = np.where(keep, numer / m.phi(dist), -np.inf)
    empirical_A = float(np.max(ratios_A))

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios_lip = np.where(keep, dG / m.omega(dist), -np.inf)
    empirical_lip_grad = float(np.max(ratios_lip))

    checks = []
    bound_A = K * M
    checks.append(
        BoundCheck(
            "empirical_A_vs_bound",
            bound_A,
            empirical_A,
            empirical_A <= bound_A * mult + slack_add,
        )
    )
    alpha = m.holder_exponent
    if alpha is not None:
        bound_lip = K * ((1.0 + alpha) / (2.0 * alpha)) ** alpha * M
    else:
        bound_lip = (4.0 / 3.0) * K * M
    checks.append(
        BoundCheck(
            "empirical_lip_grad_vs_bound",
            bound_lip,
            empirical_lip_grad,
            empirical_lip_grad <= bound_lip * mult + slack_add,
        )
    )
    checks.append(
        BoundCheck(
            "necessity_A_le_lip_grad",
            empirical_lip_grad,
            empirical_A,
            empirical_A <= empirical_lip_grad * mult + slack_add,
        )
    )
    # the verdict accepts a pair whose condition (C) residual dips to -tol (1 + |f(y)| + |f(z)|)
    top = float(np.max(np.abs(model.jet.values)))
    bound_interp = slack_add + model.tol * (1.0 + 2.0 * top) + 1e-12 * (1.0 + top)
    checks.append(BoundCheck("interpolation_error", bound_interp, interp_err, interp_err <= bound_interp))
    checks.append(
        BoundCheck(
            "gradient_interpolation_error",
            5e-2 * (1.0 + M),
            grad_err,
            grad_err <= 5e-2 * (1.0 + M),
        )
    )

    empirical_lip_F = None
    if L is not None:
        # F_L over all pairs of the box set: L-Lipschitz by construction
        FL = model.envelope._value_and_lipschitz(box, (F_box, G_box))[1]
        i, j = np.triu_indices(count, 1)
        d = np.sqrt(np.sum((box[i] - box[j]) ** 2, axis=1))
        ok = d > 1e-12
        empirical_lip_F = float(np.max(np.abs(FL[i[ok]] - FL[j[ok]]) / d[ok], initial=0.0))
        checks.append(
            BoundCheck(
                "lipschitz_cap_upper",
                L,
                empirical_lip_F,
                empirical_lip_F <= L * (1.0 + 5e-3) + 1e-12,
            )
        )
        checks.append(
            BoundCheck(
                "lipschitz_cap_attained",
                L,
                empirical_lip_F,
                empirical_lip_F >= L - 5e-3 * (1.0 + L),
            )
        )

    return VerificationReport(
        interpolation_max_error=interp_err,
        gradient_max_error=grad_err,
        empirical_A=empirical_A,
        empirical_lip_omega_gradF=empirical_lip_grad,
        empirical_lip_F=empirical_lip_F,
        bound_checks=checks,
        context={
            "M": M,
            "K": K,
            "L": L,
            "samples": samples,
            "seed": seed,
            "grid_spacing": sp,
            "fd_step": h,
            "min_separation": min_separation,
            "slack_multiplicative": mult,
            "slack_additive": slack_add,
        },
    )
