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
of the block fronts.  The blocks share one set of bucket minima, so a
block drops the pairs that an earlier block dominates, and their fronts
go into one growing buffer.  A = +inf exactly when a condition fails.
Infeasibility is reported as A = +inf, never as an exception, except where
an operation cannot even be posed (see ``InfeasibleJetError`` users).

Every tangent plane f_k + <G_k, x - p_k> and every distance in the package
is formed in difference form by ``_planes`` and ``_pairwise_dist``, one
axis at a time with no (n, n, d) temporary, so nothing depends on the
origin: a plane is exactly f_k at p_k and a distance exactly 0 at p_k.
Every kernel of queries against the n pieces, the pair passes of the
verdict and of ``lip_omega_gradients`` among them, runs on row blocks of
``_blocks``: a block's rows times the kernel's per-row width, here the n
pieces, stay within ``_BUDGET`` = 2^16 elements, so each float64
temporary takes at most 512 KB and a few of them fit a 2 MB L2 cache.
Of the jet's pairs, only ``pair_defects`` forms n x n arrays.  Reports
list at most ``_KEEP`` pairs per condition and ``_KEEP`` pair constants,
the worst and the largest, beside the totals, so their size does not grow
with n.  A jet may not repeat a point exactly; close but distinct points
are pairs like any other, and the verdict decides them.
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


_BUDGET = 2 ** 16            # rows times columns of one block of a kernel: 512 KB of float64
_KEEP = 10                   # violations per condition, and pair constants, that a report lists
_SHOWN = 5                   # violating pairs that an InfeasibleJetError names


def _blocks(fn, columns, *arrays):
    """fn on blocks of at most _BUDGET // columns rows of the arrays, which
    share their first axis, with the results (arrays, or tuples of arrays)
    joined along it.  columns is fn's per-row width, so each (rows, columns)
    temporary of fn stays within the budget; fn must treat rows
    independently."""
    size = max(1, _BUDGET // columns)
    if len(arrays[0]) <= size:
        return fn(*arrays)
    parts = [fn(*(a[k:k + size] for a in arrays)) for k in range(0, len(arrays[0]), size)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _least(key, keep):
    """Indices of the ``keep`` least entries of key, ties going to the earlier
    index, in increasing order; every index when keep is None or covers key."""
    if keep is None or key.size <= keep:
        return np.arange(key.size)
    cut = np.partition(key, keep - 1)[keep - 1]
    near = np.flatnonzero(key <= cut)
    return np.sort(near[np.argsort(key[near], kind="stable")[:keep]])


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
    "condition_CW1", ``pairs`` lists the offending (i, j, residual) triples
    that the check reports, and ``count`` the offending pairs in all.  The
    message names the pairs of ``first`` (default: ``pairs``), which should
    be the first offending pairs in row-major order, and the count of the
    rest.
    """

    def __init__(self, condition, pairs, count=None, first=None):
        self.condition = condition
        self.pairs = list(pairs)
        self.count = len(self.pairs) if count is None else count
        first = [(i, j) for i, j, _ in self.pairs] if first is None else first
        shown = ", ".join(f"({i},{j})" for i, j in first[:_SHOWN])
        more = "" if self.count <= _SHOWN else f" and {self.count - _SHOWN} more"
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
        if d < 1:
            raise ValueError("jet points need at least one coordinate")
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
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"jet JSON field {key!r} is not numeric: {exc}") from exc
        d, pts, vals, grads = raw.values()
        if isinstance(obj["dimension"], bool) or d != obj["dimension"]:
            raise ValueError(f"jet JSON field 'dimension' must be an integer, got {obj['dimension']!r}")
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


def _pareto_pairs(C, S, buckets):
    """The ordered pairs (i, j, c, s) on the Pareto front of (c, s).

    c = max(C, 0) and s = S are rows of ``pair_defects`` (a row block of the
    verdict), or one row of block fronts that the verdict merges.  Pair B is
    dominated by pair A when s_A >= s_B and c_A <= c_B with (c_A, s_A) !=
    (c_B, s_B): every constant computed from the pairs is then at least as
    large at A as at B.  Pairs with s = 0 never decide one, and exact ties
    are all kept.  The arrays come back in row-major order of (C, S).

    A prefilter first drops pairs that are strictly dominated.  ``buckets``
    is (least, hi) of ``_buckets``: B equal-width buckets of s over [0, hi],
    which holds every s, and the least c seen in each, with an inf after
    the last.  The bucket index floor(s / hi * B) never decreases as s
    grows, so a pair in a higher bucket has a strictly larger s.  This
    call's pairs lower the minima first, so a pair whose c exceeds the
    least c of all higher buckets is dominated by a pair with larger s and
    smaller c, of this call or of an earlier one that shared the buckets,
    as are its exact ties, which share its bucket (Kung, Luccio and
    Preparata, JACM 22, 1975).
    Following such pairs up the buckets ends at a pair on the front of all
    the pairs seen, so the dropped pairs change no survivor's verdict, and
    the exact sort below runs on the survivors only.
    """
    # the merge holds every pair of a dense jet, so temporaries are freed as they go
    flat = np.flatnonzero(S > 0.0)
    c, s = np.maximum(C.ravel()[flat], 0.0), S.ravel()[flat]
    least, hi = buckets
    B = least.size - 1
    if B > 1:
        bucket = s / hi
        bucket *= B
        bucket = np.clip(np.floor(bucket, out=bucket), 0, B - 1, out=bucket).astype(np.intp)
        np.minimum.at(least, bucket, c)
        above = np.minimum.accumulate(least[::-1])[::-1][1:]    # least c of the higher buckets
        keep = c <= above[bucket]
        del bucket
        flat = flat[keep]
        c = c[keep]
        s = s[keep]
    order = np.lexsort((c, -s))          # s descending, then c ascending
    cs, ss = c[order], s[order]
    n = len(order)
    head = np.ones(n, dtype=bool)        # first of a run of exact ties
    head[1:] = (cs[1:] != cs[:-1]) | (ss[1:] != ss[:-1])
    del ss
    lower = np.ones(n, dtype=bool)       # c below every c sorted before it
    lower[1:] = cs[1:] < np.minimum.accumulate(cs)[:-1]
    del cs
    # a run head is on the front when it is lower; its ties share the verdict
    start = np.where(head, np.arange(n), 0)
    keep = order[lower[np.maximum.accumulate(start, out=start)]]
    del order, start
    keep.sort()
    i, j = np.divmod(flat[keep], C.shape[1])
    return i, j, c[keep], s[keep]


@dataclass
class ConditionReport:
    """A condition's verdict: ``violations`` lists (i, j, residual) of its
    worst offending pairs in row-major order, and ``count`` the offending
    pairs in all (default: the length of the list)."""

    ok: bool
    violations: list = field(default_factory=list)
    count: Optional[int] = None

    def __post_init__(self):
        if self.count is None:
            self.count = len(self.violations)

    def to_json(self):
        return {
            "ok": self.ok,
            "count": self.count,
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
    front: tuple                            # ``_pareto_pairs`` of all pairs, (i, j, c, s); () once (C) fails


def _found(i, j, r, key, keep):
    """One condition's offending pairs (i, j, residual r), in row-major order,
    cut to what a verdict keeps: their count, the ``keep`` worst (least key),
    and the first ``_SHOWN`` (copied: a view would keep all of i and j)."""
    w = _least(key, keep)
    return np.array([i.size]), i[w], j[w], r[w], i[:_SHOWN].copy(), j[:_SHOWN].copy()


def _buckets(jet: Jet):
    """Bucket minima for ``_pareto_pairs`` that every row block of one
    verdict shares: n buckets over [0, 2 max_k |G_k - mean G|], which holds
    every gradient gap, and an inf after the last."""
    G = jet.gradients
    hi = 2.0 * float(np.max(_pairwise_dist(G, np.mean(G, axis=0, keepdims=True))))
    return np.full(jet.size + 1, np.inf), hi


class _Fronts:
    """The block fronts of one verdict: ``_pareto_pairs`` of each block, with
    the ``_buckets`` that every block shares, so a block drops the pairs
    that an earlier block dominates.  The fronts go into one buffer that
    doubles as it fills, not through the join of ``_blocks``, which holds
    them twice: ``validate`` on a 2000-point quadratic 2-D jet, whose block
    fronts hold about 4 M pairs, peaks at 391 MB this way and at 457 MB
    through the join."""

    def __init__(self, jet: Jet):
        self.buckets = _buckets(jet)
        self.held = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0))
        self.size, self.blocks = 0, 0

    def add(self, rows, C, S):
        """Keep the front of the block of pairs (y, z) with y in rows."""
        i, j, c, s = _pareto_pairs(C, S, self.buckets)
        end = self.size + i.size
        if end > self.held[0].size:     # double; the tail stays untouched, so not resident, until written
            grown = tuple(np.empty(2 * end, h.dtype) for h in self.held)
            for g, h in zip(grown, self.held):
                g[:self.size] = h[:self.size]
            self.held = grown
        for h, part in zip(self.held, (rows[i], j, c, s)):
            h[self.size:end] = part
        self.size, self.blocks = end, self.blocks + 1

    def front(self):
        """(i, j, c, s) of the front of the blocks, in row-major order: the
        front of a union is the front of the block fronts."""
        i, j, c, s = (h[:self.size] for h in self.held)
        if self.blocks < 2:
            return i, j, c, s
        _, k, c, s = _pareto_pairs(c[None, :], s[None, :], self.buckets)
        return i[k], j[k], c, s


def _verdict_rows(jet: Jet, tol: float, keep, rows, fronts):
    """The verdict on the ordered pairs (y, z) with y in rows: ``_found`` of
    its (C) and of its (CW1) violations.  Its front goes to ``fronts``
    unless (C) fails here: no reader takes a front then."""
    P, f, G = jet.points, jet.values, jet.gradients
    C = f[rows, None] - _planes(P, f, G, P[rows])
    S = _pairwise_dist(G[rows], G)
    below = C < -tol * (1.0 + np.abs(f[rows, None]) + np.abs(f[None, :]))
    below[np.arange(len(rows)), rows] = False
    ci, cj = np.nonzero(below)
    wi, wj = np.nonzero((C <= 0.0) & (S > 0.0) & ~below)
    if not ci.size:
        fronts.add(rows, C, S)
    c, s = C[ci, cj], S[wi, wj]
    return (*_found(rows[ci], cj, c, c, keep), *_found(rows[wi], wj, s, -s, keep))


def _verdict(jet: Jet, tol: float, keep=_KEEP) -> _Verdict:
    """Decide (C) and (CW1), and build the Pareto front, in one blocked pass.

    With slack = tol (1 + |f(y)| + |f(z)|), an ordered pair violates (C)
    when C < -slack (residual C) and (CW1) when -slack <= C <= 0 and S > 0
    (residual S).  Every other pair with S > 0 has c = C > 0, so both routes
    to A are finite exactly when neither condition fails.  ``_Fronts``
    merges the block fronts.  Each condition report keeps its ``keep``
    worst violations (most negative C, largest S; all of them when keep is
    None), chosen among the block winners, and the count of all.
    """
    n, fronts = jet.size, _Fronts(jet)
    parts = _blocks(lambda rows: _verdict_rows(jet, tol, keep, rows, fronts), n, np.arange(n))
    conds, failed = [], None
    for name, (count, i, j, r, fi, fj), sign in (("condition_C", parts[:6], 1.0),
                                                  ("condition_CW1", parts[6:12], -1.0)):
        w = _least(sign * r, keep)
        cond = ConditionReport(ok=i.size == 0, violations=list(zip(i[w].tolist(), j[w].tolist(), r[w].tolist())),
                               count=int(count.sum()))
        if failed is None and not cond.ok:
            failed = InfeasibleJetError(name, cond.violations, cond.count,
                                        list(zip(fi.tolist(), fj.tolist())))
        conds.append(cond)
    return _Verdict(*conds, failed, fronts.front() if conds[0].ok else ())


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
    """(A, i, j, M) of the intrinsic route on a verdict's pairs: the front
    pairs (i, j) with a positive constant M, in row-major order.  A = inf,
    with no pairs, when a condition fails."""
    if v.error:
        return np.inf, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    ii, jj, c, s = v.front
    M = _pair_constants(c, s, m)
    pos = M > 0.0
    return float(np.max(M, initial=0.0)), ii[pos], jj[pos], M[pos]


def _A_extrinsic(v: _Verdict, m: Modulus):
    """(A, pair) by the extrinsic route on a verdict's pairs: pair is the first
    front pair in row-major order whose ratio is A, None where A is 0 or a
    condition fails."""
    if v.error:
        return np.inf, None
    ii, jj, c, s = v.front
    ratios = _pair_ratios(c, s, m)
    A = float(np.max(ratios, initial=0.0))
    if not A > 0.0:
        return A, None
    k = int(np.argmax(ratios))
    return A, (int(ii[k]), int(jj[k]))


def _A(v: _Verdict, m: Modulus) -> float:
    """A by the cheapest valid route."""
    return _A_intrinsic(v, m)[0] if m.coercive else _A_extrinsic(v, m)[0]


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
    v = _verdict(jet, feas_tol, keep=None)
    if v.error:
        return np.inf, [((i, j), np.inf) for i, j, _ in v.error.pairs]
    A, ii, jj, M = _A_intrinsic(v, m)
    return A, list(zip(zip(ii.tolist(), jj.tolist()), M.tolist()))


def seminorm_A_extrinsic(jet: Jet, m: Modulus, feas_tol: float = 1e-9) -> float:
    """Least feasible constant via the witness-point ratio.

    For a fixed ordered pair, moving the witness x = y + r u with u aligned
    to G(z) - G(y) reduces the defining supremum to
    sup_{r>0} (s r - c) / phi(r), which each modulus kind maximizes exactly;
    the overall value is the max over the Pareto-front pairs (the ratio
    increases in s and decreases in c), floored at 0.  Works for bounded
    moduli too; +inf when condition (C) or (CW1) fails at feas_tol.
    """
    return _A_extrinsic(_verdict(jet, feas_tol), m)[0]


def compute_A(jet: Jet, m: Modulus, feas_tol: float = 1e-9) -> float:
    """Least feasible constant, by the cheapest valid route."""
    return _A(_verdict(jet, feas_tol), m)


def _lip_omega(jet: Jet, m: Modulus):
    """(lip, pair): ``lip_omega_gradients`` and the first pair in row-major
    order that attains it, None where it is 0."""
    def rows(X, H):
        s, w = _pairwise_dist(H, jet.gradients), m.omega(_pairwise_dist(X, jet.points))
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(s == 0.0, 0.0, s / w)
        k = np.argmax(q, axis=1)
        return q[np.arange(len(q)), k], k
    best, col = _blocks(rows, jet.size, jet.points, jet.gradients)
    y = int(np.argmax(best))
    return float(best[y]), ((y, int(col[y])) if best[y] != 0.0 else None)


def lip_omega_gradients(jet: Jet, m: Modulus) -> float:
    """max over pairs of |G(y) - G(z)| / omega(|y - z|); 0 for one point."""
    return _lip_omega(jet, m)[0]


def sup_norm_gradients(jet: Jet) -> float:
    return float(np.max(np.sqrt(np.sum(jet.gradients**2, axis=1))))


def _relation(m: Modulus, A: float, lip: float) -> dict:
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


def _pair_json(pair):
    return None if pair is None else {"y": pair[0], "z": pair[1]}


@dataclass
class FeasibilityReport:
    """Every jet-level check for one modulus.  ``per_pair_M`` lists ((i, j), M)
    for the largest pair constants, in descending M with ties in (i, j)
    order, so its first pair attains A; ``per_pair_M_count`` counts all
    front pairs with M > 0.  On an infeasible jet the list holds the pairs of
    the first failing condition's report with M = inf, and the count all of
    that condition's pairs.  ``A_pair`` and ``lip_omega_G_pair`` name a pair
    attaining A and lip_omega_G, None where the value is 0 or, for A, where a
    condition fails."""

    condition_C: ConditionReport
    condition_CW1: ConditionReport
    A: float
    A_route: str
    per_pair_M: list
    lip_omega_G: float
    L: float
    relation: dict
    per_pair_M_count: int
    A_pair: Optional[tuple]
    lip_omega_G_pair: Optional[tuple]

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
            "A_pair": _pair_json(self.A_pair),
            "per_pair_M": [
                {"y": i, "z": j, "M": _json_float(M)} for (i, j), M in self.per_pair_M
            ],
            "per_pair_M_count": self.per_pair_M_count,
            "lip_omega_G": _json_float(self.lip_omega_G),
            "lip_omega_G_pair": _pair_json(self.lip_omega_G_pair),
            "L": self.L,
            "relation": {k: _json_float(v) for k, v in self.relation.items()},
        }


def feasibility_report(jet: Jet, m: Modulus, tol: float = 1e-9) -> FeasibilityReport:
    """Run every jet-level check for the given modulus and bundle the results."""
    v = _verdict(jet, tol)
    if not m.coercive:
        (A, A_pair), per_pair, count = _A_extrinsic(v, m), [], 0
    elif v.error:
        A, A_pair, count = np.inf, None, v.error.count
        per_pair = [((i, j), np.inf) for i, j, _ in v.error.pairs]
    else:
        A, ii, jj, M = _A_intrinsic(v, m)
        top = _least(-M, _KEEP)
        top = top[np.argsort(-M[top], kind="stable")]
        per_pair = list(zip(zip(ii[top].tolist(), jj[top].tolist()), M[top].tolist()))
        A_pair, count = (per_pair[0][0] if per_pair else None), M.size
    lip, lip_pair = _lip_omega(jet, m)
    return FeasibilityReport(
        condition_C=v.condition_C,
        condition_CW1=v.condition_CW1,
        A=A,
        A_route="intrinsic" if m.coercive else "extrinsic",
        per_pair_M=per_pair,
        lip_omega_G=lip,
        L=sup_norm_gradients(jet),
        relation=_relation(m, A, lip),
        per_pair_M_count=count,
        A_pair=A_pair,
        lip_omega_G_pair=lip_pair,
    )
