"""1-jets on finite point sets and their convex-extendability diagnostics.

A 1-jet prescribes values f and gradients G on a finite set E in R^d.  This
module decides the two qualitative extendability conditions

* condition (C):   f(y) >= f(z) + <G(z), y - z>  for all pairs
  (every value dominates every tangent plane), and
* condition (CW1): tangency  f(y) = f(z) + <G(z), y - z>  forces
  G(y) = G(z),

and computes the quantitative objects attached to a modulus omega.

Every constant computed from the jet's pairs is a maximum, over ordered
pairs (y, z), of a function that increases in the gradient gap
s = |G(y) - G(z)| and decreases in the tangent defect
c = f(y) - f(z) - <G(z), y - z>.  One kernel, ``_pareto_pairs``, reduces
the n (n - 1) ordered pairs to the Pareto front of the points (c, s): the
pairs with s > 0 that no other pair dominates.  On dense jets the front
holds O(n) pairs.  The least constant A below and the c1 construction's
delta and delta1 are evaluated on the front only.

* ``seminorm_A_*``: the least constant M such that every tangent plane,
  lifted by M * phi(|x - y|), dominates every other tangent plane.  The
  intrinsic route solves one scalar equation per front pair through the
  Fenchel conjugate of phi; the extrinsic route maximizes the defining
  ratio over a 1-D reduction in the witness point x.  Each modulus kind
  solves both exactly; they agree for increasing, unbounded moduli.
* ``lip_omega_gradients``: the omega-Hoelder seminorm of G on E.
* ``sup_norm_gradients``: L = sup |G|, the sharp Lipschitz constant of any
  convex extension.

Infeasibility is reported as A = +inf, never as an exception, except where
an operation cannot even be posed (see ``InfeasibleJetError`` users).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .modulus import Modulus, NonCoerciveModulusError

__all__ = [
    "Jet",
    "InfeasibleJetError",
    "ConditionReport",
    "FeasibilityReport",
    "pair_defects",
    "check_condition_C",
    "check_condition_CW1",
    "seminorm_A_intrinsic",
    "seminorm_A_extrinsic",
    "compute_A",
    "lip_omega_gradients",
    "sup_norm_gradients",
    "seminorm_relation_report",
    "feasibility_report",
]


def _pairwise_norms(X):
    """|X_i - X_j| for every pair of rows.

    The difference form keeps exact zeros for equal rows, which the s > 0
    test of the pair kernel relies on.
    """
    diff = X[:, None, :] - X[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _json_float(v):
    """v for a JSON report, with a non-finite float written as "inf"."""
    return v if not isinstance(v, float) or np.isfinite(v) else "inf"


class InfeasibleJetError(Exception):
    """A jet fails a condition required by the requested operation.

    ``condition`` names the failing check ("condition_C", "condition_CW1"
    or "finite_A") and ``pairs`` lists offending (i, j, residual) triples.
    """

    def __init__(self, condition, pairs):
        self.condition = condition
        self.pairs = list(pairs)
        shown = ", ".join(f"({i},{j})" for i, j, _ in self.pairs[:5])
        more = "" if len(self.pairs) <= 5 else f" and {len(self.pairs) - 5} more"
        super().__init__(f"jet violates {condition} at pairs {shown}{more}")


@dataclass(frozen=True)
class Jet:
    """Finite family of points with prescribed values and gradients."""

    points: np.ndarray
    values: np.ndarray
    gradients: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        if pts.ndim == 1:
            pts = pts[:, None]
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        grads = np.atleast_1d(np.asarray(self.gradients, dtype=float))
        if grads.ndim == 1:
            grads = grads[:, None]
        if pts.ndim != 2:
            raise ValueError("points must form an (n, d) array")
        n, d = pts.shape
        if n < 1:
            raise ValueError("a jet needs at least one point")
        if vals.shape != (n,) or grads.shape != (n, d):
            raise ValueError(
                f"inconsistent jet shapes: points {pts.shape}, "
                f"values {vals.shape}, gradients {grads.shape}"
            )
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals)) and np.all(np.isfinite(grads))):
            raise ValueError("jet data must be finite")
        dist = _pairwise_norms(pts)
        np.fill_diagonal(dist, np.inf)
        if np.min(dist) <= 1e-12:
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            raise ValueError(f"points {i} and {j} coincide within 1e-12")
        for name, arr in (("points", pts), ("values", vals), ("gradients", grads)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def diameter(self) -> float:
        if self.size == 1:
            return 0.0
        return float(np.max(_pairwise_norms(self.points)))

    def subset(self, indices) -> "Jet":
        idx = np.asarray(indices, dtype=int)
        return Jet(self.points[idx], self.values[idx], self.gradients[idx])

    def scaled(self, lam: float) -> "Jet":
        """Same points, values and gradients multiplied by lam > 0."""
        return Jet(self.points, lam * self.values, lam * self.gradients)

    def to_json(self):
        return {
            "dimension": self.dimension,
            "points": self.points.tolist(),
            "values": self.values.tolist(),
            "gradients": self.gradients.tolist(),
        }

    @staticmethod
    def from_json(obj) -> "Jet":
        try:
            d = int(obj["dimension"])
            pts = np.asarray(obj["points"], dtype=float)
            vals = np.asarray(obj["values"], dtype=float)
            grads = np.asarray(obj["gradients"], dtype=float)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"jet JSON is missing or malformed: {exc}") from exc
        if pts.ndim == 1:
            pts = pts[:, None]
        if grads.ndim == 1:
            grads = grads[:, None]
        if pts.size and pts.shape[1] != d:
            raise ValueError(f"points have dimension {pts.shape[1]}, expected {d}")
        return Jet(pts, vals, grads)


def pair_defects(jet: Jet):
    """Return (C, S, D): for ordered pairs (y=i, z=j),

    C[i, j] = f(y) - f(z) - <G(z), y - z>   (tangent-plane defect),
    S[i, j] = |G(y) - G(z)|, D[i, j] = |y - z|.
    """
    P, f, G = jet.points, jet.values, jet.gradients
    PG = P @ G.T                    # PG[i, j] = <p_i, G_j>
    diag = np.einsum("ij,ij->i", P, G)
    C = f[:, None] - f[None, :] - (PG - diag[None, :])
    return C, _pairwise_norms(G), _pairwise_norms(P)


def _pareto_pairs(C, S):
    """The ordered pairs (i, j, c, s) on the Pareto front of (c, s).

    c = max(C, 0) and s = S are taken from ``pair_defects``.  Pair B is
    dominated by pair A when s_A >= s_B and c_A <= c_B with (c_A, s_A) !=
    (c_B, s_B): every constant computed from the pairs is then at least as
    large at A as at B.  Pairs with s = 0 never decide one, and exact ties
    are all kept.  The arrays come back in (y, z) row-major order.
    """
    i, j = np.nonzero(S > 0.0)
    c, s = np.maximum(C[i, j], 0.0), S[i, j]
    order = np.lexsort((c, -s))          # s descending, then c ascending
    cs, ss = c[order], s[order]
    n = len(order)
    head = np.ones(n, dtype=bool)        # first of a run of exact ties
    head[1:] = (cs[1:] != cs[:-1]) | (ss[1:] != ss[:-1])
    lower = np.ones(n, dtype=bool)       # c below every c sorted before it
    lower[1:] = cs[1:] < np.minimum.accumulate(cs)[:-1]
    # a run head is on the front when it is lower; its ties share the verdict
    start = np.maximum.accumulate(np.where(head, np.arange(n), 0))
    keep = np.sort(order[lower[start]])
    return i[keep], j[keep], c[keep], s[keep]


@dataclass
class ConditionReport:
    ok: bool
    violations: list = field(default_factory=list)   # (i, j, residual)

    def to_json(self):
        return {
            "ok": self.ok,
            "violations": [
                {"y": int(i), "z": int(j), "residual": float(r)}
                for i, j, r in self.violations
            ],
        }


def check_condition_C(jet: Jet, tol: float = 1e-9) -> ConditionReport:
    """Every value must dominate every tangent plane, up to tol."""
    C, _, _ = pair_defects(jet)
    bad = np.argwhere(C < -tol)
    violations = [(int(i), int(j), float(C[i, j])) for i, j in bad if i != j]
    # the diagonal is exactly zero, but guard against it anyway
    return ConditionReport(ok=not violations, violations=violations)


def check_condition_CW1(jet: Jet, tol: float = 1e-9) -> ConditionReport:
    """Tangency must force gradient equality.

    A pair counts as tangent when |C[i, j]| <= tol * (1 + |f_i| + |f_j|);
    it then must satisfy |G_i - G_j| <= tol * (1 + |y - z|).
    """
    C, S, D = pair_defects(jet)
    f = jet.values
    scale = 1.0 + np.abs(f)[:, None] + np.abs(f)[None, :]
    tangent = np.abs(C) <= tol * scale
    bad = tangent & (S > tol * (1.0 + D))
    violations = [
        (int(i), int(j), float(S[i, j]))
        for i, j in np.argwhere(bad)
        if i != j
    ]
    return ConditionReport(ok=not violations, violations=violations)


def _feasibility_mask(C, f, tol):
    """Pairs whose tangent defect is meaningfully negative."""
    scale = 1.0 + np.abs(f)[:, None] + np.abs(f)[None, :]
    return C < -tol * scale


def _pair_constants(c, s, m: Modulus):
    """The root M of M * phi_star(s / M) = c, elementwise over pairs with c, s > 0.

    With sigma = s / M the equation reads phi_star(sigma) = (c / s) sigma,
    which each modulus kind solves exactly.
    """
    return s / m._conjugate_root(c / s)


def _pair_ratios(c, s, m: Modulus):
    """max(0, sup over r > 0 of (s r - c) / phi(r)), elementwise over pairs with c, s > 0.

    The maximizer depends on c / s only and each modulus kind finds it
    exactly; a bounded modulus adds the r -> inf limit s / sup(omega).
    """
    r = m._ratio_argmax(c / s)
    with np.errstate(divide="ignore", invalid="ignore"):
        # s / inf = 0 floors unbounded moduli; fmax drops 0/0 at flat moduli
        return np.fmax((s * r - c) / m.phi(r), s / m.omega_sup)


def seminorm_A_intrinsic(jet: Jet, m: Modulus, feas_tol: float = 1e-9):
    """Least feasible constant via the pairwise conjugate equation.

    For each ordered pair with defect c >= 0 and gradient gap s, the minimal
    pair constant solves M * phi_star(s / M) = c (the map is non-increasing
    in M).  In sigma = s / M it is phi_star(sigma) = (c / s) sigma, solved
    exactly at any scale: in closed form for power moduli, and by one
    quadratic on one segment for tables.  The pair constant increases in s
    and decreases in c, so only the Pareto-front pairs of ``_pareto_pairs``
    are solved.

    Returns (A, per_pair) where per_pair lists ((i, j), M_ij) for every
    front pair with a positive constant, in (y, z) order, and A = max over
    pairs (0 if all pairs are slack).  A is +inf if condition (C) fails or
    a tangent pair has a gradient gap; per_pair then lists every such pair
    with M = inf.
    """
    if not m.coercive:
        raise NonCoerciveModulusError(
            "the pairwise route needs an increasing unbounded modulus; "
            "use seminorm_A_extrinsic instead"
        )

    def infinite(mask):
        return np.inf, [((int(i), int(j)), np.inf) for i, j in np.argwhere(mask)]

    C, S, _ = pair_defects(jet)
    bad = _feasibility_mask(C, jet.values, feas_tol)
    if np.any(bad):
        return infinite(bad)
    ii, jj, c, s = _pareto_pairs(C, S)
    if np.any(c == 0.0):
        # a tangent pair with a gradient gap: list every such pair, not only the front
        return infinite((S > 0.0) & (C <= 0.0))
    if len(c) == 0:
        return 0.0, []

    M = _pair_constants(c, s, m)
    pos = M > 0.0
    per_pair = list(zip(zip(ii[pos].tolist(), jj[pos].tolist()), M[pos].tolist()))
    return float(np.max(M)), per_pair


def seminorm_A_extrinsic(jet: Jet, m: Modulus, feas_tol: float = 1e-9) -> float:
    """Least feasible constant via the witness-point ratio.

    For a fixed ordered pair, moving the witness x = y + r u with u aligned
    to G(z) - G(y) reduces the defining supremum to
    sup_{r>0} (s r - c) / phi(r), which each modulus kind maximizes exactly;
    the overall value is the max over the Pareto-front pairs (the ratio
    increases in s and decreases in c), floored at 0.  Works for bounded
    moduli too; +inf when condition (C) fails or a tangent pair has distinct
    gradients.
    """
    C, S, _ = pair_defects(jet)
    if np.any(_feasibility_mask(C, jet.values, feas_tol)):
        return np.inf
    _, _, c, s = _pareto_pairs(C, S)
    if np.any(c == 0.0):
        return np.inf
    if len(c) == 0:
        return 0.0
    return float(np.max(_pair_ratios(c, s, m)))


def compute_A(jet: Jet, m: Modulus, feas_tol: float = 1e-9) -> float:
    """Least feasible constant, by the cheapest valid route."""
    if m.coercive:
        return seminorm_A_intrinsic(jet, m, feas_tol)[0]
    return seminorm_A_extrinsic(jet, m, feas_tol)


def lip_omega_gradients(jet: Jet, m: Modulus) -> float:
    """max over pairs of |G(y) - G(z)| / omega(|y - z|); 0 for one point."""
    if jet.size < 2:
        return 0.0
    _, S, D = pair_defects(jet)
    iu = np.triu_indices(jet.size, k=1)
    s, d = S[iu], D[iu]
    w = m.omega(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(s == 0.0, 0.0, s / w)
    return float(np.max(ratios))


def sup_norm_gradients(jet: Jet) -> float:
    return float(np.max(np.sqrt(np.sum(jet.gradients**2, axis=1))))


def seminorm_relation_report(jet: Jet, m: Modulus, A: Optional[float] = None) -> dict:
    """Check lip_omega(G) <= (4/3) A, and the sharper power-modulus bound.

    For omega(t) = t^alpha the factor improves to ((1+alpha)/(2 alpha))^alpha.
    Returns the measured quantities, the bounds and pass flags; when A is
    infinite the relation is reported as not applicable.
    """
    if A is None:
        A = compute_A(jet, m)
    lip = lip_omega_gradients(jet, m)
    if not np.isfinite(A):
        return {"applicable": False, "A": A, "lip_omega_G": lip}
    out = {
        "applicable": True,
        "A": A,
        "lip_omega_G": lip,
        "ratio": lip / A if A > 0 else 0.0,
        "general_bound": (4.0 / 3.0) * A,
        "general_ok": bool(lip <= (4.0 / 3.0) * A * (1.0 + 1e-12) + 1e-15),
    }
    alpha = m.holder_exponent
    if alpha is not None:
        bound = ((1.0 + alpha) / (2.0 * alpha)) ** alpha * A
        out["holder_bound"] = bound
        out["holder_ok"] = bool(lip <= bound * (1.0 + 1e-12) + 1e-15)
    return out


@dataclass
class FeasibilityReport:
    condition_C: ConditionReport
    condition_CW1: ConditionReport
    A: float
    A_route: str
    per_pair_M: list
    lip_omega_G: float
    L: float
    relation: dict

    @property
    def feasible(self) -> bool:
        return np.isfinite(self.A)

    def to_json(self):
        return {
            "feasible": bool(self.feasible),
            "condition_C": self.condition_C.to_json(),
            "condition_CW1": self.condition_CW1.to_json(),
            "A": _json_float(self.A),
            "A_route": self.A_route,
            "per_pair_M": [
                {"y": i, "z": j, "M": _json_float(M)} for (i, j), M in self.per_pair_M
            ],
            "lip_omega_G": self.lip_omega_G,
            "L": self.L,
            "relation": {k: _json_float(v) for k, v in self.relation.items()},
        }


def feasibility_report(jet: Jet, m: Modulus, tol: float = 1e-9) -> FeasibilityReport:
    """Run every jet-level check for the given modulus and bundle the results."""
    cond_c = check_condition_C(jet, tol)
    cond_cw1 = check_condition_CW1(jet, tol)
    if m.coercive:
        A, per_pair = seminorm_A_intrinsic(jet, m, tol)
        route = "intrinsic"
    else:
        A, per_pair = seminorm_A_extrinsic(jet, m, tol), []
        route = "extrinsic"
    rel = seminorm_relation_report(jet, m, A)
    return FeasibilityReport(
        condition_C=cond_c,
        condition_CW1=cond_cw1,
        A=A,
        A_route=route,
        per_pair_M=per_pair,
        lip_omega_G=rel["lip_omega_G"],
        L=sup_norm_gradients(jet),
        relation=rel,
    )
