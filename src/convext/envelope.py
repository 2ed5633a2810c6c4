"""Generators, convex envelopes, and Lipschitz-capped convex envelopes.

Given a jet, a modulus and a constant M, the *generator*

    g(x) = min_{y in E} f(y) + <G(y), x - y> + M * phi(|x - y|)

is the pointwise minimum of "parabolas" (tangent planes lifted by the
modulus profile), and the *minorant*

    m(x) = max_{z in E} f(z) + <G(z), x - z>

is the pointwise maximum of the tangent planes.  The convex extension is
the convex envelope F = conv(g), sandwiched between m and g; the variant
with the sharp Lipschitz constant is the largest convex L-Lipschitz
function below g, computed as F_L(x) = inf_y F(y) + L |x - y|.

Envelopes are computed over a bounded box:

* d = 1: sample g on a uniform grid plus all jet points and take the lower
  convex hull of the planar graph (one monotone-chain pass).  Evaluation is
  piecewise-linear interpolation on hull vertices.  The Lipschitz variant is
  exact by slope clipping: infimal convolution with L|.| adds the indicator
  of [-L, L] to the conjugate F*, so F_L keeps the hull pieces whose slopes
  lie in [-L, L] and continues with slope -L to their left and +L to their
  right.
* d in {2, 3}: store the sampled grid; each query solves the tiny linear
  program  min sum lambda_j g(p_j)  over convex combinations of grid points
  hitting x (at most d + 1 points carry weight, so the optimum is a local
  simplex).  At a grid node p the LP is skipped when a conjugate
  certificate proves F(p) = g(p): with i the active piece at p and
  s = grad g_i(p), every other piece has g_k*(s) <= <s, p> - g(p) minus
  the LP's pricing tolerance, where
  g_k*(s) = <s, y_k> - f_k + M phi*(|s - G_k| / M).  The tangent plane at p
  then lies below g on all of R^d, so no combination of grid nodes beats
  g(p).  This needs a coercive modulus and M > 0; a one-piece generator
  passes at every node.  The Lipschitz variant minimizes F(y) + L |x - y|
  over grid nodes and refines with a shrinking pattern search.
* d > 3 is rejected: a grid representation is useless there.

``brute_force_envelope`` is an independent randomized upper-bound oracle
used by the test-suite to cross-check the hull / LP construction.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from .jet import Jet, sup_norm_gradients
from .lp import _grid_constants, convex_combination_min
from .modulus import Modulus

__all__ = [
    "Generator",
    "minorant",
    "EnvelopeModel",
    "build_envelope",
    "brute_force_envelope",
    "write_samples_csv",
]


class Generator:
    """g(x): the minimum over jet points of lifted tangent planes."""

    def __init__(self, jet: Jet, modulus: Modulus, M: float):
        M = float(M)
        if M < 0:
            raise ValueError(f"M must be >= 0, got {M}")
        self.jet = jet
        self.modulus = modulus
        self.M = M
        # affine part f(y) - <G(y), y> is constant per jet point
        self._offset = jet.values - np.einsum("ij,ij->i", jet.points, jet.gradients)

    def _pieces(self, X) -> np.ndarray:
        """(len(X), n) values of every lifted tangent plane at the rows of X."""
        D = _pairwise_dist(X, self.jet.points)
        return self._offset[None, :] + X @ self.jet.gradients.T + self.M * self.modulus.phi(D)

    def value_many(self, X) -> np.ndarray:
        X = _as_points(X, self.jet.dimension)
        return np.min(self._pieces(X), axis=1)

    def value(self, x) -> float:
        return float(self.value_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    __call__ = value

    def _exposed(self, X, margin) -> np.ndarray:
        """Mask of the rows x of X where a tangent plane of g at x is
        certified to lie below g everywhere.

        With i the active piece at x and s = grad g_i(x) = G_i + M omega(r) u / r
        (u = x - y_i, r = |u|; s = G_i at r = 0), the plane g(x) + <s, . - x>
        lies below g_i, and below each other piece k when its conjugate
        g_k*(s) = <s, y_k> - f_k + M phi*(|s - G_k| / M) is at most
        <s, x> - g(x) - margin.  Then g(x) = conv(g)(x).  The conjugates are
        finite only for coercive moduli and M > 0; otherwise no row passes.
        """
        X = _as_points(X, self.jet.dimension)
        if not self.modulus.coercive or self.M == 0:
            return np.zeros(len(X), dtype=bool)
        jet, M = self.jet, self.M
        pieces = self._pieces(X)
        active = np.argmin(pieces, axis=1)
        g = pieces[np.arange(len(X)), active]
        u = X - jet.points[active]
        r = np.sqrt(np.sum(u * u, axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            lift = np.where(r > 0, M * self.modulus.omega(r) / r, 0.0)
        s = jet.gradients[active] + lift[:, None] * u
        worst = np.full(len(X), -np.inf)    # max of g_k*(s) over k != i
        for k in range(jet.size):
            dist = np.sqrt(np.sum((s - jet.gradients[k]) ** 2, axis=1))
            conj = s @ jet.points[k] - jet.values[k] + M * self.modulus.phi_star(dist / M)
            worst = np.where(active == k, worst, np.maximum(worst, conj))
        return worst <= np.einsum("ij,ij->i", s, X) - g - margin


def minorant(jet: Jet, X):
    """m(x): the maximum of the jet's tangent planes; vectorized over rows."""
    x = np.asarray(X, dtype=float)
    single = x.ndim <= 1
    pts = _as_points(x, jet.dimension)
    offset = jet.values - np.einsum("ij,ij->i", jet.points, jet.gradients)
    vals = np.max(offset[None, :] + pts @ jet.gradients.T, axis=1)
    return float(vals[0]) if single else vals


def _as_points(X, d):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, d) if d > 1 else X.reshape(-1, 1)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got shape {X.shape}")
    return X

def _pairwise_dist(X, P):
    sq = np.sum(X * X, axis=1)[:, None] + np.sum(P * P, axis=1)[None, :] - 2.0 * (X @ P.T)
    return np.sqrt(np.maximum(sq, 0.0))


def _lower_hull(xs, ys):
    """Lower convex hull of a planar graph sorted by x; slopes end up increasing."""
    hx, hy = [], []
    for x, y in zip(xs, ys):
        while len(hx) >= 2 and (
            (hy[-1] - hy[-2]) * (x - hx[-1]) >= (y - hy[-1]) * (hx[-1] - hx[-2])
        ):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return np.asarray(hx), np.asarray(hy)


def _warn_low_cap(jet: Jet, L: float, stacklevel: int):
    """Warn when the cap L is below sup|G|: F_L then misses the jet."""
    sup_g = sup_norm_gradients(jet)
    if L < sup_g - 1e-12:
        warnings.warn(
            f"Lipschitz cap {L} is below sup|G| = {sup_g}; the capped "
            "envelope will not interpolate the jet",
            stacklevel=stacklevel,
        )


class EnvelopeModel:
    """Queryable convex envelope of a generator over a box.

    Built by :func:`build_envelope`; evaluation is exact piecewise-linear
    interpolation (d = 1) or a per-query linear program (d >= 2).  An
    optional ``lipschitz_cap`` records the L used by the capped variant.

    Queries are pure; the only mutation after construction is a pair of
    idempotent memo caches for grid-node values (d >= 2), so concurrent
    readers at worst duplicate that work.
    """

    def __init__(self, generator, lo, hi, resolution, lipschitz_cap=None):
        self.generator = generator
        self.lo = np.asarray(lo, dtype=float).reshape(-1)
        self.hi = np.asarray(hi, dtype=float).reshape(-1)
        self.resolution = int(resolution)
        self.lipschitz_cap = lipschitz_cap
        d = generator.jet.dimension
        self.dimension = d

        if d == 1:
            grid = np.linspace(self.lo[0], self.hi[0], self.resolution)
            xs = np.unique(np.concatenate([grid, generator.jet.points[:, 0]]))
            gs = generator.value_many(xs[:, None])
            self.sample_x = xs
            self.sample_g = gs
            self.hull_x, self.hull_y = _lower_hull(xs, gs)
        else:
            axes = [np.linspace(self.lo[k], self.hi[k], self.resolution) for k in range(d)]
            mesh = np.meshgrid(*axes, indexing="ij")
            self.axes = axes
            self.grid_points = np.column_stack([m.ravel() for m in mesh])
            self.grid_g = generator.value_many(self.grid_points)
            # LP is solved on box-normalized coordinates for conditioning
            self._span = self.hi - self.lo
            self._grid_scaled = (self.grid_points - self.lo) / self._span
            self._lp_constants = _grid_constants(self._grid_scaled, self.grid_g)
            # nodes where F = g is certified; the LP's pricing tolerance is the margin
            self._exposed = generator._exposed(self.grid_points, self._lp_constants[1])
            self._grid_F = None
            self._scan_cache = None

    # -- helpers

    def contains(self, X) -> np.ndarray:
        X = _as_points(X, self.dimension)
        return np.all((X >= self.lo - 1e-12) & (X <= self.hi + 1e-12), axis=1)

    def _require_inside(self, X):
        inside = self.contains(X)
        if not np.all(inside):
            bad = X[~inside][0]
            raise ValueError(f"query {bad} lies outside the envelope domain")

    def grid_spacing(self) -> float:
        if self.dimension == 1:
            return float((self.hi[0] - self.lo[0]) / (self.resolution - 1))
        return float(np.max((self.hi - self.lo) / (self.resolution - 1)))

    # -- envelope evaluation

    def value_many(self, X) -> np.ndarray:
        X = _as_points(X, self.dimension)
        self._require_inside(X)
        if self.dimension == 1:
            return np.interp(X[:, 0], self.hull_x, self.hull_y)
        out = np.empty(len(X))
        xs = (X - self.lo) / self._span
        for k, x in enumerate(xs):
            _, out[k] = convex_combination_min(
                self._grid_scaled, self.grid_g, x, constants=self._lp_constants
            )
        return out

    def value(self, x) -> float:
        return float(self.value_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def grid_envelope_values(self) -> np.ndarray:
        """Envelope at every stored grid node (cached; d >= 2 solves one LP
        per node that the conjugate certificate does not clear)."""
        if self.dimension == 1:
            return np.interp(self.sample_x, self.hull_x, self.hull_y)
        if self._grid_F is None:
            self._grid_F = self._node_values(np.arange(len(self.grid_points)))
        return self._grid_F

    def _node_values(self, idx) -> np.ndarray:
        """F at the grid nodes idx: g where certified exposed, else one LP each."""
        out = self.grid_g[idx]
        rest = ~self._exposed[idx]
        if np.any(rest):
            out[rest] = self.value_many(self.grid_points[idx[rest]])
        return out

    # -- Lipschitz-capped evaluation

    def lipschitz_value_many(self, X, L: Optional[float] = None) -> np.ndarray:
        """F_L(x) = inf_y F(y) + L |x - y|.

        d = 1 is exact by slope clipping: F_L* = F* + indicator[-L, L], so
        F_L follows the hull from the first vertex a with right slope >= -L
        to the last vertex b with left slope <= L, with slope -L left of a
        and +L right of b.  d >= 2 refines a coarse grid scan per query.
        """
        L = self._resolve_cap(L)
        X = _as_points(X, self.dimension)
        self._require_inside(X)
        if self.dimension == 1:
            return self._clipped_1d(X[:, 0], L)
        out = np.empty(len(X))
        for k, x in enumerate(X):
            out[k] = self._lipschitz_single(x, L)
        return out

    def lipschitz_value(self, x, L: Optional[float] = None) -> float:
        return float(self.lipschitz_value_many(np.asarray(x, dtype=float).reshape(1, -1), L)[0])

    def lipschitz_values_grid(self, X, L: Optional[float] = None) -> np.ndarray:
        """Grid-restricted capped values: min over grid nodes y of
        F(y) + L |x - y|.

        An upper bound of the capped envelope within O((L + lip F) * h) and
        exactly L-Lipschitz in x; unlike the per-query pattern search it is
        vectorized, which makes bulk exports and sampling-based verification
        in d >= 2 tractable.  d = 1 delegates to the exact evaluation.
        """
        L = self._resolve_cap(L)
        X = _as_points(X, self.dimension)
        self._require_inside(X)
        if self.dimension == 1:
            return self._clipped_1d(X[:, 0], L)
        F_grid = self.grid_envelope_values()
        out = np.empty(len(X))
        for start in range(0, len(X), 256):
            chunk = X[start:start + 256]
            dist = _pairwise_dist(chunk, self.grid_points)
            out[start:start + 256] = np.min(F_grid[None, :] + L * dist, axis=1)
        return out

    def _resolve_cap(self, L):
        if L is None:
            L = self.lipschitz_cap
        if L is None:
            raise ValueError("no Lipschitz cap configured and none supplied")
        L = float(L)
        _warn_low_cap(self.generator.jet, L, stacklevel=4)
        return L

    def _clipped_1d(self, x, L):
        """Exact 1-D F_L at abscissae x: the hull with slopes clipped to [-L, L]."""
        hx, hy = self.hull_x, self.hull_y
        slopes = np.diff(hy) / np.diff(hx)
        a, b = np.searchsorted(slopes, -L), np.searchsorted(slopes, L, side="right")
        inner = np.where(x > hx[b], hy[b] + L * (x - hx[b]), np.interp(x, hx, hy))
        return np.where(x < hx[a], hy[a] + L * (hx[a] - x), inner)

    def _scan_nodes(self):
        """A coarse subgrid (at most ~1000 nodes) for global scans.

        The infimand F(y) + L|x - y| is convex in y, so a coarse global
        scan followed by local descent reaches its minimum; scanning the
        full grid would cost one LP per node that the certificate does not
        clear.
        """
        if self._scan_cache is None:
            stride = 1
            count = self.resolution ** self.dimension
            while count > 1000:
                stride *= 2
                count = ((self.resolution + stride - 1) // stride) ** self.dimension
            idx = np.arange(self.resolution)[::stride]
            mesh = np.meshgrid(*[idx] * self.dimension, indexing="ij")
            flat = np.ravel_multi_index(tuple(mesh), (self.resolution,) * self.dimension).ravel()
            self._scan_cache = (self.grid_points[flat], self._node_values(flat), stride)
        return self._scan_cache

    def _lipschitz_single(self, x, L):
        nodes, F_nodes, stride = self._scan_nodes()
        obj = F_nodes + L * np.sqrt(np.sum((nodes - x) ** 2, axis=1))
        best = int(np.argmin(obj))
        y = nodes[best].copy()
        val = float(obj[best])

        def objective(p):
            return self.value(p) + L * float(np.sqrt(np.sum((p - x) ** 2)))

        step = stride * self.grid_spacing()
        for _ in range(40):
            improved = False
            for axis in range(self.dimension):
                for sgn in (+1.0, -1.0):
                    cand = y.copy()
                    cand[axis] = np.clip(cand[axis] + sgn * step, self.lo[axis], self.hi[axis])
                    v = objective(cand)
                    if v < val - 1e-14:
                        y, val = cand, v
                        improved = True
            if not improved:
                step *= 0.5
        return min(val, self.value(x))


def build_envelope(generator: Generator, lo, hi, resolution: int) -> EnvelopeModel:
    """Sample the generator over the box [lo, hi] and build its envelope.

    The box should contain the jet points with a margin of at least the jet
    diameter (a warning is emitted otherwise: hull facets near the boundary
    would then distort values near the jet).  Resolution is per axis and
    must be at least 33; dimensions above 3 are not supported.
    """
    jet = generator.jet
    d = jet.dimension
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    if lo.shape != (d,) or hi.shape != (d,):
        raise ValueError(f"domain box must have {d} bounds per side")
    if np.any(hi <= lo):
        raise ValueError("domain box is degenerate")
    if resolution < 33:
        raise ValueError("resolution must be at least 33 points per axis")
    if d > 3:
        raise ValueError("envelopes are only computed for dimension <= 3")
    margin_lo = np.min(jet.points - lo[None, :])
    margin_hi = np.min(hi[None, :] - jet.points)
    if min(margin_lo, margin_hi) < -1e-12:
        raise ValueError("domain box does not contain the jet points")
    diam = jet.diameter()
    if diam > 0 and min(margin_lo, margin_hi) < diam:
        warnings.warn(
            f"domain margin {min(margin_lo, margin_hi):.3g} is below the jet "
            f"diameter {diam:.3g}; envelope values near the jet may be distorted",
            stacklevel=2,
        )
    return EnvelopeModel(generator, lo, hi, resolution)


def brute_force_envelope(generator: Generator, x, budget: int, rng, lo=None, hi=None) -> float:
    """Randomized upper bound for conv(g)(x), sampling tuples in a box.

    Draws ``budget`` random (d+1)-tuples in the box (default: the jet's
    bounding box inflated by twice max(1, diameter)), solves the affine
    weights from the interpolation constraint, rejects tuples whose simplex
    does not contain x, and returns the best objective found (including the
    trivial combination {x} itself).  Converges from above, as the budget
    grows, to the envelope with combination points restricted to the box.
    Only d <= 2 is supported.
    """
    jet = generator.jet
    d = jet.dimension
    if d > 2:
        raise ValueError("the brute-force oracle is limited to dimension <= 2")
    x = np.asarray(x, dtype=float).reshape(-1)
    diam = max(jet.diameter(), 1.0)
    if lo is None:
        lo = np.minimum(np.min(jet.points, axis=0), x) - 2.0 * diam
    if hi is None:
        hi = np.maximum(np.max(jet.points, axis=0), x) + 2.0 * diam
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)

    best = generator.value(x)
    if d == 1:
        a = rng.uniform(lo[0], x[0], size=budget)
        b = rng.uniform(x[0], hi[0], size=budget)
        keep = (b - a) > 1e-12
        a, b = a[keep], b[keep]
        lam = (b - x[0]) / (b - a)
        ga = generator.value_many(a[:, None])
        gb = generator.value_many(b[:, None])
        vals = lam * ga + (1.0 - lam) * gb
        if vals.size:
            best = min(best, float(np.min(vals)))
        return best

    # d == 2: batched 3x3 solves for barycentric weights
    chunk = 20000
    done = 0
    while done < budget:
        k = min(chunk, budget - done)
        done += k
        tri = rng.uniform(lo, hi, size=(k, 3, 2))
        A = np.concatenate([np.swapaxes(tri, 1, 2), np.ones((k, 1, 3))], axis=1)
        b = np.tile(np.concatenate([x, [1.0]]), (k, 1))
        dets = np.abs(np.linalg.det(A))
        good = dets > 1e-12
        if not np.any(good):
            continue
        lam = np.linalg.solve(A[good], b[good][..., None])[..., 0]
        inside = np.all(lam >= -1e-12, axis=1)
        if not np.any(inside):
            continue
        pts = tri[good][inside]
        w = lam[inside]
        gv = generator.value_many(pts.reshape(-1, 2)).reshape(-1, 3)
        vals = np.sum(w * gv, axis=1)
        best = min(best, float(np.min(vals)))
    return best


def write_samples_csv(model: EnvelopeModel, path, lipschitz: Optional[float] = None):
    """Write grid samples as CSV: x1..xd, g, m, F (and F_L when capped)."""
    L = lipschitz if lipschitz is not None else model.lipschitz_cap
    jet = model.generator.jet
    d = model.dimension
    if d == 1:
        X = model.sample_x[:, None]
        g = model.sample_g
    else:
        X = model.grid_points
        g = model.grid_g
    m_vals = minorant(jet, X)
    F = model.grid_envelope_values()
    cols = [X[:, k] for k in range(d)] + [g, m_vals, F]
    header = [f"x{k + 1}" for k in range(d)] + ["g", "m", "F"]
    if L is not None:
        cols.append(model.lipschitz_values_grid(X, L))
        header.append("F_L")
    fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(c.tolist() for c in cols)):
            fh.write(fmt % row)
