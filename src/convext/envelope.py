"""Generators, convex envelopes, and Lipschitz-capped convex envelopes.

Given a jet, a modulus and a constant M, the *generator*

    g(x) = min_{y in E} f(y) + <G(y), x - y> + M * phi(|x - y|)

is the pointwise minimum of "parabolas" (tangent planes lifted by the
modulus profile), and the *minorant*

    m(x) = max_{z in E} f(z) + <G(z), x - z>

is the pointwise maximum of the tangent planes.  The convex extension is
the convex envelope F = conv(g), sandwiched between m and g; the variant
with the sharp Lipschitz constant is the largest convex L-Lipschitz
function below g, F_L(x) = inf_y F(y) + L |x - y|.  Both g and m come
from the kernels ``jet._planes`` and ``jet._pairwise_dist``, so g(y_k) =
m(y_k) = f_k exactly, and they run on row blocks of ``jet._blocks`` with
the n pieces as the per-row width, so no (queries, pieces) temporary
outgrows ``jet._BUDGET`` = 2^16 elements, 512 KB of float64, which keeps
a kernel's few temporaries inside a 2 MB L2 cache.

* d = 1: sample g over a box on a uniform grid plus all jet points and take
  the lower convex hull of the planar graph (one monotone-chain pass).
  Evaluation is piecewise-linear interpolation on hull vertices, and grad F
  is the active piece's gradient where the screen ``Generator._exposed``
  proves F = g, else the slope of the hull segment.  F_L is
  exact by slope clipping: infimal convolution with L|.| adds the indicator
  of [-L, L] to the conjugate F*, so F_L keeps the hull pieces whose slopes
  lie in [-L, L] and continues with slope -L to their left and +L to their
  right.
* d in {2, 3}: F, F_L and grad F are conv(g) over R^d, evaluated by the
  certified conjugate solve ``lp.convex_combination_min`` from the closed
  forms g_k*(s) = <s, y_k> - f_k + M phi*(|s - G_k| / M) of the pieces, with
  x and y_k measured from the jet's centroid.  The box only places the
  grid of CSV rows; nothing is evaluated there until the CSV is written.
* d > 3 is rejected.
"""

from __future__ import annotations

import warnings

import numpy as np

from .jet import Jet, _blocks, _pairwise_dist, _planes, sup_norm_gradients
from .lp import TOL, convex_combination_min
from .modulus import LinearModulus, Modulus

__all__ = [
    "Generator",
    "minorant",
    "EnvelopeModel",
    "build_envelope",
    "write_samples_csv",
]


class Generator:
    """g(x): the minimum over jet points of lifted tangent planes."""

    def __init__(self, jet: Jet, modulus: Modulus, M: float):
        M = float(M)
        if not (np.isfinite(M) and M >= 0):
            raise ValueError(f"M must be finite and >= 0, got {M}")
        self.jet = jet
        self.modulus = modulus
        self.M = M
        # the conjugate side works from the jet's centroid, so the solve
        # handles differences of the size of the jet, not of the origin
        self._origin = np.mean(jet.points, axis=0)
        self._Y = jet.points - self._origin
        # each piece's conjugate is finite on the ball |s - G_k| <= radius
        self.radius = 0.0 if M == 0 else M * modulus.omega_sup

    def _pieces(self, X) -> np.ndarray:
        """(len(X), n) values of every lifted tangent plane at the rows of X."""
        P, f, G = self.jet.points, self.jet.values, self.jet.gradients
        return _planes(P, f, G, X) + self.M * self.modulus.phi(_pairwise_dist(X, P))

    def value_many(self, X) -> np.ndarray:
        X = _as_points(X, self.jet.dimension)
        return _blocks(lambda X: np.min(self._pieces(X), axis=1), self.jet.size, X)

    def value(self, x) -> float:
        return float(self.value_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def _conjugates(self, S, idx=None, full=True, inside=False):
        """g_k*(s) = <s, y_k> - f_k + M phi*(|s - G_k| / M) for the pieces idx
        (Q, k) (default: all) at the rows of S, with y_k from ``_origin``; a
        bounded table continues past its ball.  With ``full``: (values, Z, U,
        tang, radial), where z_k = grad g_k*(s) = y_k + omega_inv(|s - G_k| /
        M) u_k, u_k is the unit vector of s - G_k (0 at G_k) and the Hessian of
        g_k* is tang (I - u u^T) + radial u u^T.  At radius 0 the pieces are
        affine.  With ``inside`` instead: (values, the rows of S inside every
        ball |s - G_k| <= radius of these pieces, to rounding).
        """
        jet, M = self.jet, self.M
        if idx is None:
            Y, G, f = self._Y[None], jet.gradients[None], jet.values[None]
        else:
            Y, G, f = self._Y[idx], jet.gradients[idx], jet.values[idx]
        V = S[:, None, :] - G
        dist = np.sum(V * V, axis=2)
        if inside:
            ball = np.all(dist <= (self.radius * (1.0 + 1e-12)) ** 2, axis=1)
        dist = np.sqrt(dist)
        c = np.sum(S[:, None, :] * Y, axis=2) - f
        if self.radius > 0:
            phi_star, inv, slope = self.modulus._conjugate(dist / M)
            c = c + M * phi_star
        if inside:
            return c, ball
        if not full:
            return c
        with np.errstate(divide="ignore", invalid="ignore"):
            U = np.where(dist[..., None] > 0, V / dist[..., None], 0.0)
            if self.radius == 0:
                zero = np.zeros(dist.shape)
                return c, np.broadcast_to(Y, U.shape), U, zero, zero
            tang = np.where(dist > 0, inv / dist, slope / M)
        return c, Y + inv[..., None] * U, U, tang, slope / M

    def _exposed(self, X, margin):
        """(mask, g, s, i) at the rows of X: g(x), the gradient s = grad g_i(x)
        of the active piece i, and where its tangent plane lies below g.

        That holds when s lies in every ball and each other piece has
        g_k*(s) <= <s, x> - g(x) - margin (1 + |g(x)|), with x and the y_k
        from ``_origin``.  With margin >= 0 it proves conv(g)(x) = g(x); a
        negative margin accepts brackets [<s, x> - max_k g_k*(s), g(x)] up to
        -margin (1 + |g(x)|) wide.
        """
        X = _as_points(X, self.jet.dimension)
        jet, M = self.jet, self.M
        pieces = self._pieces(X)
        active, g = np.argmin(pieces, axis=1), np.min(pieces, axis=1)
        u = X - jet.points[active]
        r = np.sqrt(np.sum(u * u, axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            lift = np.where(r > 0, M * self.modulus.omega(r) / r, 0.0)
        s = jet.gradients[active] + lift[:, None] * u
        conj, inside = self._conjugates(s, inside=True)
        conj[np.arange(len(X)), active] = -np.inf
        bound = np.einsum("ij,ij->i", s, X - self._origin) - g - margin * (1.0 + np.abs(g))
        return (np.max(conj, axis=1) <= bound) & inside, g, s, active


def minorant(jet: Jet, X):
    """m(x): the maximum of the jet's tangent planes; vectorized over rows."""
    x = np.asarray(X, dtype=float)
    single = x.ndim <= 1
    pts = _as_points(x, jet.dimension)
    P, f, G = jet.points, jet.values, jet.gradients
    vals = _blocks(lambda X: np.max(_planes(P, f, G, X), axis=1), jet.size, pts)
    return float(vals[0]) if single else vals


def _as_points(X, d):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1 and X.size % d == 0:
        X = X.reshape(-1, d)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got shape {X.shape}")
    return X


def _lower_hull(xs, ys):
    """Lower convex hull of a planar graph sorted by x; slopes end up increasing."""
    hx, hy = [], []
    for x, y in zip(xs.tolist(), ys.tolist()):      # Python floats loop faster than numpy scalars
        while len(hx) >= 2 and (
            (hy[-1] - hy[-2]) * (x - hx[-1]) >= (y - hy[-1]) * (hx[-1] - hx[-2])
        ):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return np.asarray(hx), np.asarray(hy)


class EnvelopeModel:
    """Queryable convex envelope of a generator.

    Built by :func:`build_envelope`.  In d = 1, queries must lie in the box
    and interpolate the lower hull of g sampled there; in d >= 2 each is a
    certified conjugate solve of conv(g) over R^d.  ``grid_points`` are the
    CSV rows in every dimension: the hull samples ``sample_x`` in d = 1, and
    in d >= 2 the box's grid, where nothing is evaluated up front.
    ``lipschitz_cap`` is the L of the capped variant F_L, fixed at build
    (None: uncapped, and the ``lipschitz_*`` queries raise).
    """

    def __init__(self, generator, lo, hi, resolution, lipschitz_cap=None):
        self.generator = generator
        self.lo = np.asarray(lo, dtype=float).reshape(-1)
        self.hi = np.asarray(hi, dtype=float).reshape(-1)
        self.resolution = int(resolution)
        self.lipschitz_cap = None if lipschitz_cap is None else float(lipschitz_cap)
        d = generator.jet.dimension
        self.dimension = d

        if d == 1:
            grid = np.linspace(self.lo[0], self.hi[0], self.resolution)
            xs = np.unique(np.concatenate([grid, generator.jet.points[:, 0]]))
            gs = generator.value_many(xs[:, None])
            self.sample_x = xs
            self.sample_g = gs
            self.hull_x, self.hull_y = _lower_hull(xs, gs)
            self.grid_points = xs[:, None]
        else:
            axes = [np.linspace(self.lo[k], self.hi[k], self.resolution) for k in range(d)]
            mesh = np.meshgrid(*axes, indexing="ij")
            self.grid_points = np.column_stack([m.ravel() for m in mesh])

    # -- helpers

    def grid_spacing(self) -> float:
        return float(np.max((self.hi - self.lo) / (self.resolution - 1)))

    def _evaluate(self, X, L=None):
        """(F, s) at the rows of X, or (F_L, s) under the cap L, with s a
        subgradient there: the one place that picks the 1-D hull (s: the
        slope of the segment holding x, clipped to [-L, L]) or the conjugate
        solve (s: its maximizer s*).  See the module docstring for both.
        """
        X = _as_points(X, self.dimension)
        if self.dimension > 1:
            return convex_combination_min(self.generator, X, L)
        inside = np.all((X >= self.lo - 1e-12) & (X <= self.hi + 1e-12), axis=1)
        if not np.all(inside):
            raise ValueError(f"query {X[~inside][0]} lies outside the envelope domain")
        x, hx, hy = X[:, 0], self.hull_x, self.hull_y
        slopes = np.diff(hy) / np.diff(hx)
        F = np.interp(x, hx, hy)
        if L is not None:       # a, b: the first and last vertex of F_L's hull part
            a, b = np.searchsorted(slopes, -L), np.searchsorted(slopes, L, side="right")
            F = np.where(x > hx[b], hy[b] + L * (x - hx[b]), F)
            F = np.where(x < hx[a], hy[a] + L * (hx[a] - x), F)
            slopes = np.clip(slopes, -L, L)
        k = np.clip(np.searchsorted(hx, x, side="right") - 1, 0, len(hx) - 2)
        return F, slopes[k][:, None]

    # -- envelope evaluation

    def value_many(self, X) -> np.ndarray:
        return self._evaluate(X)[0]

    def value(self, x) -> float:
        return float(self.value_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def gradient_many(self, X) -> np.ndarray:
        """grad F at the rows of X, (Q, d): see ``_value_and_gradient``."""
        return self._value_and_gradient(X)[1]

    def _value_and_gradient(self, X):
        """(F, grad F) at the rows of X, from one ``_evaluate``.

        The gradient is its s, except in d = 1 where the screen
        ``Generator._exposed`` clears x: F = g there, and the gradient is
        the active piece's, exactly.
        """
        X = _as_points(X, self.dimension)
        F, S = self._evaluate(X)
        if self.dimension == 1:
            gen = self.generator
            exposed, _, s, _ = _blocks(lambda X: gen._exposed(X, -TOL), gen.jet.size, X)
            S = np.where(exposed[:, None], s, S)
        return F, S

    def grid_envelope_values(self) -> np.ndarray:
        """Envelope at every row of the samples CSV, ``grid_points``."""
        return self.value_many(self.grid_points)

    # -- Lipschitz-capped evaluation

    def lipschitz_value_many(self, X) -> np.ndarray:
        """F_L(x) = inf_y F(y) + L |x - y| with L = ``lipschitz_cap``, also
        under the name ``lipschitz_values_grid``; ValueError without a cap.
        See ``_evaluate``."""
        L = self.lipschitz_cap
        if L is None:
            raise ValueError("no Lipschitz cap configured: pass lipschitz_cap to build_envelope")
        return self._evaluate(X, L)[0]

    lipschitz_values_grid = lipschitz_value_many

    def lipschitz_value(self, x) -> float:
        return float(self.lipschitz_value_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def _value_and_lipschitz(self, X, solved=None):
        """(F, F_L) at the rows of X, with ``solved`` = (F, grad F) there if
        already known.

        Where F has a subgradient s with |s| <= L, F_L = F: in d >= 2 the
        uncapped maximizer is feasible for the capped problem, with the same
        bracket; in d = 1 the hull segment holding x lies between the
        clipping vertices, and a gradient from the screen of
        ``_value_and_gradient`` gives F_L within the screen's bracket.  Only
        the other rows take the capped evaluation.
        """
        X = _as_points(X, self.dimension)
        F, S = self._evaluate(X) if solved is None else solved
        F_L = F.copy()
        far = np.flatnonzero(np.sqrt(np.sum(S * S, axis=1)) > self.lipschitz_cap)
        if far.size:
            F_L[far] = self.lipschitz_values_grid(X[far])
        return F, F_L


def _dual_domain_empty(generator: Generator) -> bool:
    """Whether the balls |s - G_k| <= radius share no point (conv(g) = -inf).

    They meet iff the smallest ball around the (centred, scaled) G_k has
    radius r <= radius, and -r^2 / 2 = conv(h)(0) for h_k(x) = <G_k, x> +
    |x|^2 / 2: the generator of the jet of the h_k under the linear modulus.
    """
    G = generator.jet.gradients
    # when M >= A every G_k lies in every ball, so G_0 settles the usual case
    if np.max(np.sqrt(np.sum((G - G[0]) ** 2, axis=1))) <= generator.radius * (1.0 + 1e-12):
        return False
    if generator.radius == 0:
        return True
    G = G - np.mean(G, axis=0)
    scale = float(np.max(np.sqrt(np.sum(G * G, axis=1))))
    G, Y = G / scale, generator._Y
    h = Generator(Jet(Y, np.sum(G * Y + 0.5 * Y * Y, axis=1), G + Y), LinearModulus(), 1.0)
    r2 = -2.0 * convex_combination_min(h, np.zeros((1, Y.shape[1])))[0][0]
    return r2 > (generator.radius / scale) ** 2 + 1e-8


def build_envelope(generator: Generator, lo, hi, resolution: int, lipschitz_cap=None) -> EnvelopeModel:
    """Sample the generator over the box [lo, hi] and build its envelope,
    capped at ``lipschitz_cap`` when one is given.

    The box must be finite and contain the jet points; resolution is per
    axis and at least 33; dimensions above 3 are not supported; a cap must
    be finite and >= 0.
    In d = 1 the hull lives on the box, so a margin below the jet diameter
    warns: hull facets near the boundary would distort values near the jet.
    A cap below sup|G| warns here, once per model: F_L then misses the jet.
    Raises ValueError when the conjugate domains share no point (M = 0 with
    unequal gradients, or disjoint balls of a bounded modulus), where
    conv(g) is -inf.
    """
    jet = generator.jet
    d = jet.dimension
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    if lo.shape != (d,) or hi.shape != (d,):
        raise ValueError(f"domain box must have {d} bounds per side")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(f"domain box must be finite, got lo {lo.tolist()} and hi {hi.tolist()}")
    if np.any(hi <= lo):
        raise ValueError("domain box is degenerate")
    if resolution < 33:
        raise ValueError("resolution must be at least 33 points per axis")
    if d > 3:
        raise ValueError("envelopes are only computed for dimension <= 3")
    if lipschitz_cap is not None and not (np.isfinite(lipschitz_cap) and lipschitz_cap >= 0):
        raise ValueError(f"lipschitz_cap must be finite and >= 0, got {lipschitz_cap!r}")
    margin_lo = np.min(jet.points - lo[None, :])
    margin_hi = np.min(hi[None, :] - jet.points)
    if min(margin_lo, margin_hi) < -1e-12:
        raise ValueError("domain box does not contain the jet points")
    if _dual_domain_empty(generator):
        raise ValueError(
            f"the conjugate domains |s - G_k| <= M sup(omega) = {generator.radius:.6g} "
            "share no point: conv(g) is -inf"
        )
    if d == 1:
        diam = jet.diameter()
        if diam > 0 and min(margin_lo, margin_hi) < diam:
            warnings.warn(
                f"domain margin {min(margin_lo, margin_hi):.3g} is below the jet "
                f"diameter {diam:.3g}; envelope values near the jet may be distorted",
                stacklevel=2,
            )
    model = EnvelopeModel(generator, lo, hi, resolution, lipschitz_cap)
    L, sup_g = model.lipschitz_cap, sup_norm_gradients(jet)
    if L is not None and L < sup_g - 1e-12:
        warnings.warn(
            f"Lipschitz cap {L} is below sup|G| = {sup_g}; the capped "
            "envelope will not interpolate the jet",
            stacklevel=2,
        )
    return model


def write_samples_csv(model: EnvelopeModel, path):
    """Write grid samples as CSV: x1..xd, g, m, F, and F_L when the model
    was built with a cap (F itself where |s| <= L)."""
    jet, d, X = model.generator.jet, model.dimension, model.grid_points
    g = model.sample_g if d == 1 else model.generator.value_many(X)
    m_vals = minorant(jet, X)
    header = [f"x{k + 1}" for k in range(d)] + ["g", "m", "F"]
    if model.lipschitz_cap is None:
        env = [model.grid_envelope_values()]
    else:
        env = list(model._value_and_lipschitz(X))
        header.append("F_L")
    cols = [X[:, k] for k in range(d)] + [g, m_vals] + env
    fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(c.tolist() for c in cols)):
            fh.write(fmt % row)
