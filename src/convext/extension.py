"""End-to-end construction and empirical verification of convex extensions.

Pipeline: given a jet and a modulus, resolve the constant M (the least
feasible constant A by default), build the generator and its convex
envelope F over a box, optionally cap it at the sharp Lipschitz constant
L = sup |G|, then measure on random samples every quantity the construction
promises to control:

* interpolation of values and gradients on the jet points (gradients are
  the exact maximizer s* in d >= 2 and central differences in d = 1);
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
with a 5 % multiplicative slack plus an additive discretization term
10 * M * omega(h_grid) * h_grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .envelope import EnvelopeModel, Generator, _warn_low_cap, build_envelope, minorant
from .jet import Jet, _A, _pairwise_norms, _verdict, sup_norm_gradients
from .lp import convex_combination_min
from .modulus import Modulus

__all__ = [
    "ExtensionConfig",
    "ExtensionModel",
    "BoundCheck",
    "VerificationReport",
    "ConstantTooSmallError",
    "build_extension",
    "verify_extension",
    "check_necessity",
    "default_domain",
]


class ConstantTooSmallError(ValueError):
    """An explicit M below the least feasible constant of the jet."""


def default_domain(jet: Jet, margin: Optional[float] = None):
    """Axis-aligned box around the jet: bounding box +/- max(1, 2 * diam)."""
    if margin is None:
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

    M may be the string "auto" (use the least feasible constant, times
    ``safety_factor``) or an explicit value >= that constant.  ``lipschitz``
    may be None (no capped variant), "auto" (cap at sup |G|) or an explicit
    cap.  ``smoothness_K`` overrides the midpoint-smoothness constant used
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
    safety_factor: float = 1.0
    tol: float = 1e-9


class ExtensionModel:
    """A built convex extension: the envelope plus its resolved parameters."""

    def __init__(self, jet, envelope, modulus, M, A, L, K):
        self.jet = jet
        self.envelope = envelope
        self.modulus = modulus
        self.M = M
        self.A = A
        self.L = L
        self.K = K

    @property
    def dimension(self):
        return self.jet.dimension

    @property
    def domain(self):
        return self.envelope.lo, self.envelope.hi

    def grid_spacing(self):
        return self.envelope.grid_spacing()

    def default_step(self):
        """Difference step (d = 1) and sampling pad: 4 grid spacings."""
        return 4.0 * self.grid_spacing()

    def value(self, x) -> float:
        return self.envelope.value(x)

    def value_many(self, X):
        return self.envelope.value_many(X)

    def lipschitz_value(self, x) -> float:
        return self.envelope.lipschitz_value(x, self.L)

    def lipschitz_value_many(self, X):
        return self.envelope.lipschitz_value_many(X, self.L)

    def gradient_many(self, X, h: Optional[float] = None):
        """Gradients of F at the rows of X: in d = 1 central differences of
        the hull with step h (x +/- h must stay in the box), in d >= 2 the
        maximizer s* of the conjugate solve (h is not used)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, self.dimension)
        if self.dimension > 1:
            return convex_combination_min(self.envelope.generator, X)[1]
        if h is None:
            h = self.default_step()
        lo, hi = self.domain
        if np.any(X - h < lo - 1e-12) or np.any(X + h > hi + 1e-12):
            raise ValueError("gradient stencil leaves the envelope domain")
        return ((self.value_many(X + h) - self.value_many(X - h)) / (2.0 * h))[:, None]

    def gradient(self, x, h: Optional[float] = None):
        return self.gradient_many(np.asarray(x, dtype=float).reshape(1, -1), h)[0]

    def restriction(self) -> Jet:
        """The jet (F, grad F) restricted back to the original points."""
        E = self.jet.points
        return Jet(E, self.value_many(E), self.gradient_many(E))

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


def build_extension(jet: Jet, cfg: ExtensionConfig) -> ExtensionModel:
    """Resolve the configuration, check feasibility, and build the envelope.

    Raises :class:`InfeasibleJetError` naming the failing condition when no
    constant works (A = +inf), and ``ValueError`` when an explicit M is below
    the least feasible constant.
    """
    verdict = _verdict(jet, cfg.tol)
    if verdict.error:
        raise verdict.error
    A = _A(verdict, cfg.modulus)

    if cfg.M == "auto":
        M = A * cfg.safety_factor
    else:
        M = float(cfg.M)
        if M < A - cfg.tol:
            raise ConstantTooSmallError(
                f"M={M} is below the least feasible constant A={A}; the "
                "generator would cut below the prescribed values"
            )

    L = None
    if cfg.lipschitz == "auto":
        L = sup_norm_gradients(jet)
    elif cfg.lipschitz is not None:
        L = float(cfg.lipschitz)
        _warn_low_cap(jet, L, stacklevel=3)

    if cfg.domain is None:
        lo, hi = default_domain(jet)
    else:
        lo, hi = cfg.domain
    resolution = cfg.resolution
    if resolution is None:
        resolution = 4001 if jet.dimension == 1 else (65 if jet.dimension == 2 else 33)
    K = cfg.smoothness_K if cfg.smoothness_K is not None else default_smoothness_constant(cfg.modulus)

    generator = Generator(jet, cfg.modulus, M)
    envelope = build_envelope(generator, lo, hi, resolution)
    envelope.lipschitz_cap = L
    return ExtensionModel(jet, envelope, cfg.modulus, M, A, L, K)


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
    min_separation: Optional[float] = None,
) -> VerificationReport:
    """Measure the extension's empirical seminorms and compare to the bounds.

    ``samples`` controls the number of random evaluation pairs.  Pairs
    closer than ``min_separation`` (default: 5 % of the narrowest box side,
    and in d = 1 at least 10 times ``default_step``) are discarded for the
    seminorm ratios: below that scale the sampled hull of d = 1, not the
    extension, dominates the ratio.
    """
    rng = np.random.default_rng(seed)
    m = model.modulus
    M, K, L = model.M, model.K, model.L
    h = model.default_step()
    sp = model.grid_spacing()
    lo, hi = model.domain
    width = float(np.min(hi - lo))
    if min_separation is None:
        min_separation = max(0.05 * width, 10.0 * h if model.dimension == 1 else 0.0)
    slack_add = 10.0 * M * m.omega(sp) * sp + 1e-12
    mult = 1.05

    # interpolation on the jet points
    E = model.jet.points
    F_E = model.value_many(E)
    interp_err = float(np.max(np.abs(F_E - model.jet.values)))
    G_E = model.gradient_many(E)
    grad_err = float(np.max(np.sqrt(np.sum((G_E - model.jet.gradients) ** 2, axis=1))))

    # gradient-bearing sample points, kept clear of the 1-D difference stencil
    n_pts = max(40, int(np.sqrt(2.0 * samples)))
    pts = _sample_interior(model, rng, n_pts, pad=h * 1.5)
    F_pts = model.value_many(pts)
    G_pts = model.gradient_many(pts)

    diff = pts[:, None, :] - pts[None, :, :]
    dist = _pairwise_norms(pts)
    keep = dist >= min_separation

    # empirical least-constant: (F(x) - F(y) - <gF(y), x-y>) / phi(|x-y|)
    numer = F_pts[:, None] - F_pts[None, :] - np.einsum("ijd,jd->ij", diff, G_pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios_A = np.where(keep, numer / m.phi(dist), -np.inf)
    empirical_A = float(np.max(ratios_A))

    dG = _pairwise_norms(G_pts)
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
    checks.append(
        BoundCheck(
            "interpolation_error",
            slack_add,
            interp_err,
            interp_err <= slack_add + 1e-12 * (1.0 + float(np.max(np.abs(model.jet.values)))),
        )
    )
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
        # exact by slope clipping (d = 1) or the certified conjugate solve
        # over |s| <= L (d >= 2): L-Lipschitz either way
        xs = _sample_interior(model, rng, samples, pad=0.0)
        ys = _sample_interior(model, rng, samples, pad=0.0)
        FLx, FLy = (model.envelope.lipschitz_values_grid(p, L) for p in (xs, ys))
        d = np.sqrt(np.sum((xs - ys) ** 2, axis=1))
        ok = d > 1e-12
        ratios = np.abs(FLx[ok] - FLy[ok]) / d[ok]
        empirical_lip_F = float(np.max(ratios)) if ratios.size else 0.0
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


def check_necessity(model: ExtensionModel, samples: int = 500, seed: int = 0) -> dict:
    """Sampled check that every lifted tangent plane of F dominates the rest.

    Uses the measured gradient seminorm M_hat as the lifting constant and
    asserts, over random triples (x, y, z),

        F(z) + <gF(z), x - z>  <=  F(y) + <gF(y), x - y> + M_hat phi(|x - y|)

    up to multiplicative slack on the phi term plus the gradient error of
    the difference step (d = 1) propagated through the lever arms.
    """
    rng = np.random.default_rng(seed)
    m = model.modulus
    h = model.default_step()
    sp = model.grid_spacing()
    rep = verify_extension(model, samples=samples, seed=seed)
    M_hat = rep.empirical_lip_omega_gradF

    k = max(10, int(round(samples ** (1.0 / 3.0)) + 2))
    xs = _sample_interior(model, rng, k, pad=0.0)
    yz = _sample_interior(model, rng, k, pad=1.5 * h)
    F_yz = model.value_many(yz)
    G_yz = model.gradient_many(yz)

    grad_err = 2.0 * model.M * m.omega(h)   # coarse bound on |gF_fd - gF|
    violations = []
    max_defect = -np.inf
    for x in xs:
        planes = F_yz + np.einsum("jd,d->j", G_yz, x) - np.einsum("jd,jd->j", G_yz, yz)
        dist_xy = np.sqrt(np.sum((yz - x[None, :]) ** 2, axis=1))
        lhs = np.max(planes)
        z_idx = int(np.argmax(planes))
        rhs = planes + M_hat * m.phi(dist_xy)
        slack = (
            0.05 * M_hat * m.phi(dist_xy)
            + grad_err * (dist_xy + dist_xy[z_idx])
            + 10.0 * model.M * m.omega(sp) * sp
            + 1e-9
        )
        defect = lhs - rhs - slack
        worst = float(np.max(defect))
        max_defect = max(max_defect, worst)
        if worst > 0:
            j = int(np.argmax(defect))
            violations.append(
                {"x": x.tolist(), "y": yz[j].tolist(), "z": yz[z_idx].tolist(), "defect": worst}
            )
    return {
        "violations": violations,
        "ok": not violations,
        "max_defect": max_defect,
        "M_hat": M_hat,
        "triples": int(k * k),
    }
