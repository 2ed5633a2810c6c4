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
holds O(n) pairs.  Before its exact sort, the kernel drops the pairs that
a bucket of strictly larger s proves strictly dominated, so on such jets
only a thin candidate set is sorted.  The least constant A below and the
c1 construction's delta and delta1 are evaluated on the front only.

* ``seminorm_A_*``: the least constant M such that every tangent plane,
  lifted by M * phi(|x - y|), dominates every other tangent plane.  The
  intrinsic route solves one scalar equation per front pair through the
  Fenchel conjugate of phi; the extrinsic route maximizes the defining
  ratio over a 1-D reduction in the witness point x.  Each modulus kind
  solves both exactly; they agree for increasing, unbounded moduli.
* ``lip_omega_gradients``: the omega-Hoelder seminorm of G on E.
* ``sup_norm_gradients``: L = sup |G|, the sharp Lipschitz constant of any
  convex extension.

One rule, ``_verdict``, decides both conditions and builds the front in
one pass over row blocks of the pairs; the front of a union is the front
of the block fronts.  A = +inf exactly when a condition fails.
Infeasibility is reported as A = +inf, never as an exception, except where
an operation cannot even be posed (see ``InfeasibleJetError`` users).

Every tangent plane f_k + <G_k, x - p_k> and every distance in the package
is formed in difference form by ``_planes`` and ``_pairwise_dist``, one
axis at a time with no (n, n, d) temporary, so nothing depends on the
origin: a plane is exactly f_k at p_k and a distance exactly 0 at p_k.
Every kernel of queries against the n pieces, the pair passes of the
verdict and of ``lip_omega_gradients`` among them, runs on row blocks of
``_blocks``, at most ``_BUDGET`` rows times pieces at a time; of the jet's
pairs, only ``pair_defects`` forms n x n arrays.  A jet may not repeat a
point exactly; close but distinct points are pairs like any other, and the
verdict decides them.
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
    "feasibility_report",
]


_BUDGET = 2 ** 18            # rows times columns of one block of a kernel


def _blocks(fn, columns, *arrays):
    """fn on blocks of at most _BUDGET // columns rows of the arrays, which
    share their first axis, with the results (arrays, or tuples of arrays)
    joined along it.  So each (rows, columns) temporary of fn stays within
    the budget; fn must treat rows independently."""
    size = max(1, _BUDGET // columns)
    if len(arrays[0]) <= size:
        return fn(*arrays)
    parts = [fn(*(a[k:k + size] for a in arrays)) for k in range(0, len(arrays[0]), size)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _pairwise_dist(X, P):
    """(len(X), len(P)) distances, summed one axis at a time: exactly 0 at x = p."""
    sq = np.square(X[:, 0, None] - P[None, :, 0])
    for k in range(1, X.shape[1]):
        sq += np.square(X[:, k, None] - P[None, :, k])
    return np.sqrt(sq, out=sq)


def _planes(P, f, G, X):
    """(len(X), len(P)) values f_k + <G_k, x - p_k> of the tangent planes at
    the rows of X, summed one axis at a time: exactly f_k at x = p_k."""
    out = np.repeat(f[None, :], len(X), axis=0)
    for k in range(X.shape[1]):
        step = X[:, k, None] - P[None, :, k]
        step *= G[None, :, k]
        out += step
    return out


def _json_float(v):
    """v for a JSON report, with a non-finite float written as "inf"."""
    return v if not isinstance(v, float) or np.isfinite(v) else "inf"


class InfeasibleJetError(Exception):
    """A jet fails a condition required by the requested operation.

    ``condition`` names the failing check, "condition_C" or
    "condition_CW1", and ``pairs`` lists its offending (i, j, residual)
    triples, as the check reports them.
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
        order = np.lexsort(pts.T[::-1])     # repeated rows end up next to each other
        repeat = np.flatnonzero(np.all(pts[order[1:]] == pts[order[:-1]], axis=1))
        if repeat.size:
            i, j = sorted(order[repeat[0]:repeat[0] + 2].tolist())
            raise ValueError(f"points {i} and {j} coincide")
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
        P = self.points
        return float(np.max(_blocks(lambda X: np.max(_pairwise_dist(X, P), axis=1), len(P), P)))

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
            raw = {key: obj[key] for key in ("dimension", "points", "values", "gradients")}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"jet JSON is missing or malformed: {exc}") from exc
        for key, value in raw.items():
            try:
                raw[key] = int(value) if key == "dimension" else np.asarray(value, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"jet JSON field {key!r} is not numeric: {exc}") from exc
        d, pts, vals, grads = raw.values()
        jet = Jet(pts, vals, grads)
        if jet.dimension != d:
            raise ValueError(f"points have dimension {jet.dimension}, expected {d}")
        return jet


def pair_defects(jet: Jet):
    """Return (C, S, D): for ordered pairs (y=i, z=j),

    C[i, j] = f(y) - f(z) - <G(z), y - z>   (tangent-plane defect),
    S[i, j] = |G(y) - G(z)|, D[i, j] = |y - z|.
    """
    return _defects(jet.points, jet.values, jet.gradients)


def _defects(P, f, G):
    """``pair_defects`` of the points P with values f and gradients G."""
    return f[:, None] - _planes(P, f, G, P), _pairwise_dist(G, G), _pairwise_dist(P, P)


def _pareto_pairs(C, S):
    """The ordered pairs (i, j, c, s) on the Pareto front of (c, s).

    c = max(C, 0) and s = S are rows of ``pair_defects`` (a row block of the
    verdict), or one row of block fronts that the verdict merges.  Pair B is
    dominated by pair A when s_A >= s_B and c_A <= c_B with (c_A, s_A) !=
    (c_B, s_B): every constant computed from the pairs is then at least as
    large at A as at B.  Pairs with s = 0 never decide one, and exact ties
    are all kept.  The arrays come back in row-major order of (C, S).

    A prefilter first drops pairs that are strictly dominated.  The pairs
    go into about sqrt(N) equal-width buckets of s; the bucket index
    floor((s - lo) / (hi - lo) * B) never decreases as s grows, so a pair
    in a higher bucket has a strictly larger s.  A pair whose c exceeds the
    least c of all higher buckets is therefore dominated by a pair with
    larger s and smaller c, as are its exact ties, which share its bucket.
    Following such pairs up the buckets ends at a pair on the front, so
    the dropped pairs change no survivor's verdict, and the exact sort
    below runs on the survivors only.
    """
    flat = np.flatnonzero(S > 0.0)
    c, s = np.maximum(C.ravel()[flat], 0.0), S.ravel()[flat]
    lo, hi = np.min(s, initial=np.inf), np.max(s, initial=0.0)
    if hi > lo:
        B = int(np.sqrt(s.size))
        bucket = np.clip(np.floor((s - lo) / (hi - lo) * B), 0, B - 1).astype(np.intp)
        least = np.full(B + 1, np.inf)
        np.minimum.at(least, bucket, c)
        above = np.minimum.accumulate(least[::-1])[::-1][1:]    # least c of the higher buckets
        keep = c <= above[bucket]
        flat, c, s = flat[keep], c[keep], s[keep]
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
    i, j = np.divmod(flat[keep], C.shape[1])
    return i, j, c[keep], s[keep]


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


@dataclass
class _Verdict:
    """One pass over the ordered pairs, from ``_verdict``."""

    condition_C: ConditionReport
    condition_CW1: ConditionReport
    error: Optional[InfeasibleJetError]     # names the first failing condition
    front: tuple                            # ``_pareto_pairs`` of all pairs, (i, j, c, s); partial once (C) fails


def _verdict_rows(jet: Jet, tol: float, rows):
    """The verdict on the ordered pairs (y, z) with y in rows: its (C) and
    (CW1) violations (i, j, residual) in row-major order, and its front,
    which is left empty where (C) fails: no reader takes it then."""
    P, f, G = jet.points, jet.values, jet.gradients
    C = f[rows, None] - _planes(P, f, G, P[rows])
    S = _pairwise_dist(G[rows], G)
    below = C < -tol * (1.0 + np.abs(f[rows, None]) + np.abs(f[None, :]))
    below[np.arange(len(rows)), rows] = False
    ci, cj = np.nonzero(below)
    wi, wj = np.nonzero((C <= 0.0) & (S > 0.0) & ~below)
    if ci.size:
        fi = fj = np.zeros(0, dtype=np.intp)
        fc = fs = np.zeros(0)
    else:
        fi, fj, fc, fs = _pareto_pairs(C, S)
    return rows[ci], cj, C[ci, cj], rows[wi], wj, S[wi, wj], rows[fi], fj, fc, fs


def _verdict(jet: Jet, tol: float) -> _Verdict:
    """Decide (C) and (CW1), and build the Pareto front, in one blocked pass.

    With slack = tol (1 + |f(y)| + |f(z)|), an ordered pair violates (C)
    when C < -slack (residual C) and (CW1) when -slack <= C <= 0 and S > 0
    (residual S).  Every other pair with S > 0 has c = C > 0, so both routes
    to A are finite exactly when neither condition fails.  The front of a
    union is the front of the block fronts, which ``_pareto_pairs`` merges.
    """
    n = jet.size
    ci, cj, cr, wi, wj, wr, *front = _blocks(lambda rows: _verdict_rows(jet, tol, rows), n, np.arange(n))
    if n * n > _BUDGET and ci.size == 0:    # more than one block, and (C) holds
        _, k, c, s = _pareto_pairs(front[2][None, :], front[3][None, :])
        front = [front[0][k], front[1][k], c, s]
    cond_c, cond_cw1 = (ConditionReport(ok=i.size == 0, violations=list(zip(i.tolist(), j.tolist(), r.tolist())))
                        for i, j, r in ((ci, cj, cr), (wi, wj, wr)))
    failed = [InfeasibleJetError(name, cond.violations)
              for name, cond in (("condition_C", cond_c), ("condition_CW1", cond_cw1)) if not cond.ok]
    return _Verdict(cond_c, cond_cw1, failed[0] if failed else None, tuple(front))


def check_condition_C(jet: Jet, tol: float = 1e-9) -> ConditionReport:
    """Every value must dominate every tangent plane, up to tol (1 + |f(y)| + |f(z)|)."""
    return _verdict(jet, tol).condition_C


def check_condition_CW1(jet: Jet, tol: float = 1e-9) -> ConditionReport:
    """Tangency must force gradient equality: a pair whose defect lies in
    [-slack, 0], slack = tol (1 + |f(y)| + |f(z)|), must have G(y) = G(z)."""
    return _verdict(jet, tol).condition_CW1


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


def _A_intrinsic(v: _Verdict, m: Modulus):
    """(A, per_pair) of the intrinsic route on a verdict's pairs."""
    if v.error:
        return np.inf, [((i, j), np.inf) for i, j, _ in v.error.pairs]
    ii, jj, c, s = v.front
    M = _pair_constants(c, s, m)
    pos = M > 0.0
    per_pair = list(zip(zip(ii[pos].tolist(), jj[pos].tolist()), M[pos].tolist()))
    return float(np.max(M, initial=0.0)), per_pair


def _A_extrinsic(v: _Verdict, m: Modulus) -> float:
    """A by the extrinsic route on a verdict's pairs."""
    if v.error:
        return np.inf
    _, _, c, s = v.front
    return float(np.max(_pair_ratios(c, s, m), initial=0.0))


def _A(v: _Verdict, m: Modulus) -> float:
    """A by the cheapest valid route."""
    return _A_intrinsic(v, m)[0] if m.coercive else _A_extrinsic(v, m)


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
    pairs (0 if all pairs are slack).  A is +inf when condition (C) or
    (CW1) fails at feas_tol; per_pair then lists the pairs of the first
    failing condition with M = inf.
    """
    if not m.coercive:
        raise NonCoerciveModulusError(
            "the pairwise route needs an increasing unbounded modulus; "
            "use seminorm_A_extrinsic instead"
        )
    return _A_intrinsic(_verdict(jet, feas_tol), m)


def seminorm_A_extrinsic(jet: Jet, m: Modulus, feas_tol: float = 1e-9) -> float:
    """Least feasible constant via the witness-point ratio.

    For a fixed ordered pair, moving the witness x = y + r u with u aligned
    to G(z) - G(y) reduces the defining supremum to
    sup_{r>0} (s r - c) / phi(r), which each modulus kind maximizes exactly;
    the overall value is the max over the Pareto-front pairs (the ratio
    increases in s and decreases in c), floored at 0.  Works for bounded
    moduli too; +inf when condition (C) or (CW1) fails at feas_tol.
    """
    return _A_extrinsic(_verdict(jet, feas_tol), m)


def compute_A(jet: Jet, m: Modulus, feas_tol: float = 1e-9) -> float:
    """Least feasible constant, by the cheapest valid route."""
    return _A(_verdict(jet, feas_tol), m)


def lip_omega_gradients(jet: Jet, m: Modulus) -> float:
    """max over pairs of |G(y) - G(z)| / omega(|y - z|); 0 for one point."""
    def rows(X, H):
        s, w = _pairwise_dist(H, jet.gradients), m.omega(_pairwise_dist(X, jet.points))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.max(np.where(s == 0.0, 0.0, s / w), axis=1)
    return float(np.max(_blocks(rows, jet.size, jet.points, jet.gradients)))


def sup_norm_gradients(jet: Jet) -> float:
    return float(np.max(np.sqrt(np.sum(jet.gradients**2, axis=1))))


def _relation(jet: Jet, m: Modulus, A: float) -> dict:
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
            "lip_omega_G": _json_float(self.lip_omega_G),
            "L": self.L,
            "relation": {k: _json_float(v) for k, v in self.relation.items()},
        }


def feasibility_report(jet: Jet, m: Modulus, tol: float = 1e-9) -> FeasibilityReport:
    """Run every jet-level check for the given modulus and bundle the results."""
    v = _verdict(jet, tol)
    if m.coercive:
        A, per_pair = _A_intrinsic(v, m)
        route = "intrinsic"
    else:
        A, per_pair = _A_extrinsic(v, m), []
        route = "extrinsic"
    rel = _relation(jet, m, A)
    return FeasibilityReport(
        condition_C=v.condition_C,
        condition_CW1=v.condition_CW1,
        A=A,
        A_route=route,
        per_pair_M=per_pair,
        lip_omega_G=rel["lip_omega_G"],
        L=sup_norm_gradients(jet),
        relation=rel,
    )
