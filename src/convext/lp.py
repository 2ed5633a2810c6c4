"""Certified conjugate solve for F = conv(g), its Lipschitz cap F_L and grad F.

Each piece g_k of the generator has the conjugate g_k*(s) = <s, y_k> - f_k
+ M phi*(|s - G_k| / M), finite on the ball |s - G_k| <= R = M sup(omega);
x, y_k and z_k below are measured from the jet's centroid.
So F(x) = max_s <s, x> - max_k g_k*(s), F_L is the same maximum over
|s| <= L, and the maximizer s* is the gradient (Rockafellar, Convex Analysis,
12 and 16).  Each query goes through these stages until its bracket closes:

1. the screen ``Generator._exposed``, which also gives the active piece i
   of g at x and its gradient s0;
2. ``_ranked`` from the start s0, projected onto the cap when |s0| > L,
   with k the top piece by g_k*(s0): the set {k, cap} where the cap binds,
   else {k, i}, with i the second piece when it is k.  Then a drop/add
   exchange on the sets still open, of at most d + 1 pieces and spheres,
   where a full set adds by the ratio test's swap (``_ratio_test``);
3. once, a smoothed Newton path (tau log sum_k exp(g_k*(s) / tau),
   penalized outside the cap and the balls) gives a new start; then every
   set of the pieces and spheres ranked there that holds a piece.

``_certify`` runs KKT Newton on a set, from its weights or, without them,
from equal weights on its pieces; a set of one piece k and the cap without
weights (step 2's first set, any set of step 3) takes Riemannian Newton on
the sphere |s| = L instead, whose step is closed form (``_on_cap``).

The screen runs on row blocks of ``jet._blocks`` with the n pieces as its
per-row width.  Steps 2 and 3 run once per block of open rows, with the
(d + 1) d coordinates of one set as the width: a 2-D block holds 10,922
rows, so the 3,818 cap-bound rows of a 65^2 grid pay the stages' fixed
cost once.  The KKT systems hold (2d + 2)^2 elements per row, so they
exceed the element budget 6 times (3 MB) in 2-D, 5.3 times (2.8 MB) in 3-D
and 8 times (4 MB) in 1-D.  Inside the stages each pass over all n pieces
(``_ranking``, the exchange's ``_entering``, the lower end of ``_bracket``
and all of step 3) runs on blocks of the n pieces' width.

A wrong guess in step 2 or 3 costs time, not soundness: the bracket decides.
Both Newton methods take three steps on every row, then stop a row once its
s-step fails to halve or falls to rounding: the row has converged or sits
on a wrong active set, and its bracket tells which.  Each query is certified by
the bracket

    lower = <s, x> - max_k g_k*(s)    (s in every ball and the cap),
    upper = sum lam_k g_k(z_k + r) + sum_balls nu_j (<G_j, n_j> + R),

with z_k = grad g_k*(s) and r = x - sum lam_k z_k - sum_balls nu_j n_j, so
the shifted points and the ball directions combine to x exactly.  Capped
queries keep the z_k and charge L |r| instead, since F_L is L-Lipschitz.
The upper end is returned; a bracket wider than TOL (1 + |g(x)|) raises
:class:`CertificationError`.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .jet import _blocks

__all__ = ["CertificationError", "convex_combination_min"]

TOL = 1e-9                  # certified bracket width, relative to 1 + |g(x)|
_TAUS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)    # smoothing levels of the restart, relative to 1 + |g(x)|
_LINE = 0.25 ** np.arange(11)    # backtracking step lengths, 1 down to 1e-6


class CertificationError(RuntimeError):
    """A query whose certificate bracket could not be closed."""


def convex_combination_min(generator, X, L=None):
    """F(x) = conv(g)(x), or F_L(x) when L is given, and the maximizer s* at
    the rows of X (Q, d): arrays (Q,) and (Q, d)."""
    X = np.asarray(X, dtype=float).reshape(-1, generator.jet.dimension)
    (Q, d), n = X.shape, generator.jet.size
    if L is not None and L == 0:        # the dual feasible set is {0}
        c, inside = generator._conjugates(np.zeros((1, d)), inside=True)
        if not inside[0]:
            raise CertificationError("the cap L = 0 lies outside the conjugate domain")
        return np.full(Q, -np.max(c)), np.zeros_like(X)
    done, g, s, active = _blocks(lambda X: generator._exposed(X, -TOL), n, X)
    if L is not None:
        done &= np.sqrt(np.sum(s * s, axis=1)) <= L * (1.0 + 1e-12)
    F, S, width = g.copy(), s.copy(), np.zeros(Q)

    def stages(X, g, s, active):     # steps 2 and 3, once per block of open rows
        F, S, width = _ranked(generator, X, g, s, L, active)
        rest = np.flatnonzero(~(width <= TOL * (1.0 + np.abs(g))))
        if rest.size:
            F[rest], S[rest], width[rest] = _blocks(lambda X, g, s: _solve(generator, X, g, s, L),
                                                    n, X[rest], g[rest], s[rest])
        return F, S, width

    rest = np.flatnonzero(~done)
    if rest.size:       # the solve works from the jet's centroid
        F[rest], S[rest], width[rest] = _blocks(stages, (d + 1) * d, X[rest] - generator._origin,
                                                g[rest], s[rest], active[rest])
        rest = rest[~(width[rest] <= TOL * (1.0 + np.abs(g[rest])))]
    if rest.size:
        k = rest[np.argmax(width[rest] / (1.0 + np.abs(g[rest])))]
        raise CertificationError(f"{rest.size} of {Q} queries uncertified; the widest "
                                 f"bracket is {width[k]:.3g} at x = {X[k].tolist()}")
    return F, S


def _ranked(gen, X, g, S, L, active):
    """The ranked set at each start S, then the exchange (step 2 of the
    module docstring): (F, s, width).  ``active`` is the screen's piece."""
    (Q, d), n = X.shape, gen.jet.size
    K, rows = d + 1, np.arange(Q)
    tol = TOL * (1.0 + np.abs(g))
    spheres, bind, T = _spheres(gen, L), np.zeros(Q, dtype=bool), S
    if L is not None:
        bind, T = np.sqrt(np.sum(S * S, axis=1)) > L, _onto_cap(S, L)
    order = _ranking(gen, T)
    top, second = order[:, 0], order[:, 1] if n > 1 else np.full(Q, -1)
    other = np.where(active != top, active, second)
    elem = np.column_stack([top, np.where(bind, n, other), np.full((Q, d - 1), -1)])     # element n is the cap
    F, Sout, width, mult = _certify(gen, X, S, L, spheres, elem)     # a {k, cap} row scales S to T
    for _ in range(2 * K):
        # exchange on the failed sets: drop the most negative weight; without one, add a
        # sphere the solution reached, else the largest piece left out (a full set swaps)
        weights = np.where(elem >= 0, mult, np.inf)
        worst = np.argmin(weights, axis=1)
        low = weights[rows, worst]
        pieces_left = np.sum((elem >= 0) & (elem < n), axis=1) - (elem[rows, worst] < n)
        drop = (width > tol) & (low < 0) & (pieces_left > 0)
        add = np.flatnonzero((width > tol) & (low >= 0))
        elem[drop, worst[drop]], mult[drop, worst[drop]] = -1, 0.0
        if add.size:
            enter = _blocks(lambda S, elem: _entering(gen, S, spheres, elem), n, Sout[add], elem[add])
            add, enter = add[enter >= 0], enter[enter >= 0]     # a row with no candidate takes no add
            slot = np.argmin(elem[add], axis=1)
            full = elem[add, slot] >= 0
            if full.any():
                f = add[full]
                slot[full] = _ratio_test(gen, Sout[f], spheres, elem[f], mult[f], enter[full])
            add, enter, slot = add[slot >= 0], enter[slot >= 0], slot[slot >= 0]
            elem[add, slot], mult[add, slot] = enter, 0.0
        if not (drop.any() or add.size):
            break
        redo = np.flatnonzero(drop | np.isin(rows, add))    # restart from the last solution
        start = np.where(np.isfinite(Sout[redo]), Sout[redo], T[redo])
        F[redo], Sout[redo], width[redo], mult[redo] = _certify(
            gen, X[redo], start, L, spheres, elem[redo], np.nan_to_num(mult[redo]))
    return F, Sout, width


def _ratio_test(gen, S, spheres, elem, mult, enter):
    """The slot of each full set elem that the element enter takes at s, or
    -1: the least weight / beta over beta > 0 (Nocedal and Wright, Numerical
    Optimization, 16.5), where beta writes the entering column in the set's,
    (z_k(s), 1) for a piece and (n_j(s), 0) for a sphere.  The last piece
    never leaves for a sphere."""
    both = np.column_stack([elem, enter])
    is_p = both < gen.jet.size
    cols = np.where(is_p[..., None], gen._conjugates(S, np.where(is_p, both, 0))[1],
                    _normals(S, spheres[0][np.where(is_p, 0, both - gen.jet.size)])[0])
    A = np.swapaxes(np.concatenate([cols, is_p[..., None]], axis=2), 1, 2)     # (Q, d + 1, K + 1)
    try:
        beta = np.linalg.solve(A[..., :-1], A[..., -1:])[..., 0]
    except np.linalg.LinAlgError:       # a singular set
        beta = (np.linalg.pinv(A[..., :-1]) @ A[..., -1:])[..., 0]
    last = is_p[:, :-1] & (np.sum(is_p, axis=1, keepdims=True) == 1)
    ratio = np.divide(mult, beta, out=np.full(beta.shape, np.inf), where=(beta > 0) & ~last)
    return np.where(np.all(np.isinf(ratio), axis=1), -1, np.argmin(ratio, axis=1))


def _on_cap(gen, X, S, L, spheres, k):
    """Riemannian Newton for max <s, x> - g_k*(s) on the sphere |s| = L, one
    piece k per row from s = S, then the bracket with weight 1 on k: (F, s,
    width).  See Absil, Mahony and Sepulchre, Optimization Algorithms on
    Matrix Manifolds (2008), ch. 6."""
    S, k = S.copy(), k[:, None]
    live, last = np.arange(len(X)), None
    for it in range(40):
        s = S[live]
        _, Z, U, a, b = gen._conjugates(s, k[live])
        u, sh = U[:, 0], s / L
        r = X[live] - Z[:, 0]
        nu = np.sum(sh * r, axis=1)
        # the Riemannian Hessian is P B on the tangent space, P = I - s s^T / L^2
        # and B = alpha I + beta u u^T: solve B step = P r + mu s / L by
        # Sherman-Morrison, with mu making the step tangent
        alpha, beta = a[:, 0] + nu / L, b[:, 0] - a[:, 0]
        ok = (alpha > 0) & (alpha + beta > 0)       # else the set is wrong
        with np.errstate(divide="ignore", invalid="ignore"):
            w = beta / (alpha * (alpha + beta))
            Pr = r - nu[:, None] * sh
            p, q = (v / alpha[:, None] - (w * np.sum(u * v, axis=1))[:, None] * u for v in (Pr, sh))
            step = p - (np.sum(sh * p, axis=1) / np.sum(sh * q, axis=1))[:, None] * q
            new = s + step
            new *= (L / np.sqrt(np.sum(new * new, axis=1)))[:, None]
        keep, size = _moving(it, new - s, s, last)
        ok &= np.all(np.isfinite(new), axis=1)
        S[live[ok]] = new[ok]
        live, last = live[ok & keep], size[ok & keep]
        if live.size == 0:
            break
    return _bracket(gen, X, S, L, spheres, np.ones(k.shape, bool), k, np.full(k.shape, -1), np.ones(k.shape))


def _moving(it, step, s, last):
    """(keep, size): a row takes another step while its s-step is finite and
    above rounding and, after three steps, at least halves the last one."""
    size = np.max(np.abs(step), axis=1)
    keep = (size > 1e-15 * (1.0 + np.max(np.abs(s), axis=1))) & np.all(np.isfinite(step), axis=1)
    if it >= 3:
        keep &= size <= 0.5 * last
    return keep, size


def _onto_cap(S, L):
    """The rows of S projected onto the cap |s| <= L."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return S * np.minimum(1.0, L / np.sqrt(np.sum(S * S, axis=1)))[:, None]


def _entering(gen, S, spheres, elem):
    """The element that each set elem takes in at s: a sphere the solution
    reached, else the largest g_k*(s) left out; -1 where every candidate is
    in the set."""
    reached = (spheres[1] - _normals(S, spheres[0])[1] <= 1e-12 * spheres[1]) & np.isfinite(spheres[1])
    score = np.hstack([gen._conjugates(S, full=False), np.where(reached, np.inf, -np.inf), np.zeros((len(S), 1))])
    np.put_along_axis(score, np.where(elem >= 0, elem, -1), -np.inf, axis=1)
    enter = np.argmax(score[:, :-1], axis=1)
    return np.where(score[np.arange(len(S)), enter] > -np.inf, enter, -1)


def _ranking(gen, S):
    """The top two pieces by g_k*(s) at each row of S (one where n = 1), by
    two argmax passes over blocks of rows with NaN ranked as -inf.  As
    g_k*(s) > -inf at finite s, these are the first two columns of a stable
    argsort of -g_k*(s): the first index wins a tie, and NaN goes last."""
    def top_two(S):
        c = gen._conjugates(S, full=False)
        c[np.isnan(c)] = -np.inf
        top = np.argmax(c, axis=1)
        c[np.arange(len(S)), top] = -np.inf
        second = np.argmax(c, axis=1)
        # every other piece at -inf: the argmax is index 0, which is top when top is 0
        return np.column_stack([top, np.where(second == top, 1, second)])[:, :c.shape[1]]

    return _blocks(top_two, gen.jet.size, S)


def _solve(gen, X, g, S, L):
    """Smoothed start, then every set of the elements ranked there that holds
    a piece (step 3 of the module docstring)."""
    (Q, d), n = X.shape, gen.jet.size
    K, spheres = d + 1, _spheres(gen, L)
    S, gap = _smoothed(gen, X, S, 1.0 + np.abs(g), spheres)
    room = spheres[1] - _normals(S, spheres[0])[1]
    P, B = min(n, d + 2), min(int(np.sum(np.isfinite(spheres[1]))), K)     # ranked pieces and spheres
    ranked = np.hstack([np.argsort(gap, axis=1, kind="stable")[:, :P],
                        n + np.argsort(room, axis=1, kind="stable")[:, :B]])
    sets = np.array([c + (-1,) * (K - len(c)) for size in range(1, K + 1)
                     for c in combinations(range(P + B), size) if c[0] < P])
    owner, pick = np.repeat(np.arange(Q), len(sets)), np.tile(sets, (Q, 1))
    elem = np.where(pick >= 0, np.take_along_axis(ranked[owner], np.maximum(pick, 0), axis=1), -1)
    Fb, Sb, wb, _ = _blocks(lambda o, e: _certify(gen, X[o], S[o], L, spheres, e), n, owner, elem)
    last = np.lexsort((-wb, owner))     # by row, each row's narrowest bracket last
    win = last[np.append(owner[last][1:] > owner[last][:-1], True)]
    return Fb[win], Sb[win], wb[win]


def _spheres(gen, L):
    """(centers, radii, is_ball) of the cap |s| <= L and, for a bounded
    modulus, the balls |s - G_k| <= R; a last sphere of infinite radius
    stands in where there is none."""
    d = gen.jet.dimension
    cap = [] if L is None else [(np.zeros(d), float(L), False)]
    balls = [(G, gen.radius, True) for G in gen.jet.gradients] if np.isfinite(gen.radius) else []
    centers, radii, ball = zip(*(cap + balls + [(np.zeros(d), np.inf, False)]))
    return np.array(centers), np.array(radii), np.array(ball)


def _normals(S, centers):
    """Unit vectors of s - c_j (0 at c_j) and the distances |s - c_j| at the
    rows of S, for centers (m, d) or one set per row (Q, m, d)."""
    V = S[:, None, :] - centers
    dist = np.sqrt(np.sum(V * V, axis=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.nan_to_num(V / dist[..., None]), dist


def _smoothed(gen, X, S, scale, spheres):
    """Newton with backtracking on tau log sum_k exp(g_k*(s) / tau) - <s, x>
    + (1 + |x|^2) / (2 tau) sum_j max(0, |s - c_j| - rho_j)^2, eight steps for
    each tau in _TAUS (times scale).  Returns s and the gaps max_j g_j*(s) - g_k*(s)."""
    weight = 1.0 + np.sum(X * X, axis=1)

    def objective(S, c, dist, X, tau, weight):
        top = np.max(c, axis=1)
        val = top + tau * np.log(np.sum(np.exp((c - top[:, None]) / tau[:, None]), axis=1))
        val += 0.5 * weight / tau * np.sum(np.maximum(dist - spheres[1], 0.0) ** 2, axis=1)
        return np.nan_to_num(val - np.einsum("ij,ij->i", S, X), nan=np.inf)

    for rel in _TAUS:
        live = np.arange(len(X))
        for _ in range(8):
            if not live.size:
                break
            s, x, tau, wt = S[live], X[live], rel * scale[live], weight[live]
            c, Z, U, tang, radial = gen._conjugates(s)
            w = np.exp((c - np.max(c, axis=1, keepdims=True)) / tau[:, None])
            w /= np.sum(w, axis=1, keepdims=True)
            zbar = np.einsum("qk,qkd->qd", w, Z)
            Zc = Z - zbar[:, None, :]
            # the penalty adds k v n to the gradient, k (n n^T + v (I - n n^T) / |s - c|) to the Hessian
            N, dist = _normals(s, spheres[0])
            viol = np.maximum(dist - spheres[1], 0.0)
            k, bend = (wt / tau)[:, None] * (viol > 0), viol / np.maximum(dist, 1e-300)
            grad = zbar - x + np.einsum("qj,qjd->qd", k * viol, N)
            H = _hessian(w, tang, radial, U) + _hessian(k, bend, 1.0, N) + _gram(w / tau[:, None], Zc)
            step = -np.linalg.solve(H, grad[..., None])[..., 0]
            now, todo = objective(s, c, dist, x, tau, wt), np.arange(len(s))
            for a in _LINE:     # each row takes the first length that lowers its objective
                if not todo.size:
                    break
                trial = s[todo] + a * step[todo]
                ok = objective(trial, gen._conjugates(trial, full=False), _normals(trial, spheres[0])[1],
                               x[todo], tau[todo], wt[todo]) <= now[todo]
                s[todo[ok]], todo = trial[ok], todo[~ok]
            S[live] = s
            live = live[np.max(np.abs(step), axis=1) > 1e-6 * (1.0 + np.max(np.abs(s), axis=1))]
    c = gen._conjugates(S, full=False)
    return S, np.max(c, axis=1, keepdims=True) - c


def _hessian(w, a, b, U):
    """sum_k w_k (a_k (I - u_k u_k^T) + b_k u_k u_k^T), slightly regularized."""
    H = np.sum(w * a, axis=1)[:, None, None] * np.eye(U.shape[2]) + _gram(w * (b - a), U)
    return H + (1e-12 * np.trace(H, axis1=1, axis2=2) + 1e-300)[:, None, None] * np.eye(U.shape[2])


def _gram(w, U):
    """sum_k w_k u_k u_k^T at each row: (Q, d, d) from w (Q, k) and U (Q, k, d)."""
    return np.matmul(np.swapaxes(U * w[..., None], 1, 2), U)


def _certify(gen, X, S, L, spheres, elem, mult=None):
    """KKT Newton on each row's active set elem (pieces 0..n-1, then the
    spheres; -1 empty) from s = S and the weights mult (default: equal on
    the pieces), then its bracket: (F, s, width, weights).  Without weights,
    a set of one piece k and the cap runs ``_on_cap`` instead, from s scaled
    onto |s| = L, and gets weight 1 on k and nu = <x - z_k(s), s> / L on the cap."""
    n, d = gen.jet.size, X.shape[1]
    is_p, is_s = (elem >= 0) & (elem < n), elem >= n
    if mult is None and L is not None and np.any(on := (np.max(elem, axis=1) == n) & (np.sum(is_p, axis=1) == 1)):
        F, Sout, width, mult = np.empty(len(X)), np.empty_like(S), np.empty(len(X)), np.zeros(elem.shape)
        on, off = np.flatnonzero(on), np.flatnonzero(~on)
        if off.size:    # the other rows take KKT Newton
            F[off], Sout[off], width[off], mult[off] = _certify(gen, X[off], S[off], L, spheres, elem[off])
        k, norm = elem[on][is_p[on]], np.sqrt(np.sum(S[on] * S[on], axis=1))    # s = 0 stays where it is
        F[on], Sout[on], width[on] = _on_cap(gen, X[on], S[on] * (L / np.where(norm > 0, norm, L))[:, None], L,
                                             spheres, k)
        nu = np.sum((X[on] - gen._conjugates(Sout[on], k[:, None])[1][:, 0]) * Sout[on], axis=1) / L
        mult[on] = np.where(is_p[on], 1.0, nu[:, None] * is_s[on])
        return F, Sout, width, mult
    pidx, sidx = np.where(is_p, elem, 0), np.where(is_s, elem - n, -1)
    C0, rho = spheres[0][sidx], np.where(is_s, spheres[1][sidx], 0.0)
    t = np.max(np.where(is_p, gen._conjugates(S, pidx, full=False), -np.inf), axis=1)
    mult = is_p / np.sum(is_p, axis=1, keepdims=True) if mult is None else mult.copy()
    S = S.copy()
    live, last = np.arange(len(X)), None
    for it in range(40):
        # sum lam_k z_k(s) + sum nu_j n_j(s) = x, sum lam = 1, g_k*(s) = t, |s - c_j| = rho_j
        s, p, q, lm = S[live], is_p[live], is_s[live], mult[live]
        c, Z, U, tang, radial = gen._conjugates(s, pidx[live])
        N, nv = _normals(s, C0[live])
        cols = np.where(p[..., None], Z, np.where(q[..., None], N, 0.0))
        on_p = np.where(p, lm, 0.0)
        J = np.zeros((live.size, 2 * d + 2, 2 * d + 2))
        J[:, :d, :d] = _hessian(on_p, tang, radial, U) \
            + _hessian(np.where(q, lm / np.maximum(nv, 1e-300), 0.0), 1.0, 0.0, N)
        J[:, :d, d + 1:], J[:, d + 1:, :d] = np.swapaxes(cols, 1, 2), cols
        J[:, d, d + 1:], J[:, d + 1:, d] = p, -1.0 * p
        J[:, d + 1:, d + 1:] = (elem[live] < 0)[:, :, None] * np.eye(d + 1)
        rhs = -np.hstack([np.einsum("rk,rkd->rd", lm, cols) - X[live], np.sum(on_p, axis=1, keepdims=True) - 1.0,
                          np.where(p, c - t[live, None], np.where(q, nv - rho[live], lm))])
        sane = np.all(np.isfinite(J), axis=(1, 2)) & np.all(np.isfinite(rhs), axis=1)
        J[~sane], rhs[~sane] = np.eye(2 * d + 2), 0.0
        J += 1e-13 * np.max(np.abs(J), axis=(1, 2))[:, None, None] * np.eye(2 * d + 2)
        try:
            step = np.linalg.solve(J, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = (np.linalg.pinv(J) @ rhs[..., None])[..., 0]
        S[live] += step[:, :d]
        t[live] += step[:, d]
        mult[live] += step[:, d + 1:]
        keep, size = _moving(it, step[:, :d], s, last)
        keep &= sane & np.all(np.isfinite(step), axis=1)
        live, last = live[keep], size[keep]
        if live.size == 0:
            break
    return (*_bracket(gen, X, S, L, spheres, is_p, pidx, sidx, mult), mult)


def _bracket(gen, X, S, L, spheres, is_p, pidx, sidx, mult):
    """(upper, s, upper - lower) of each row's certificate bracket."""
    jet = gen.jet
    if L is not None:
        S = _onto_cap(S, L)

    def lower(S, X):
        c, inside = gen._conjugates(S, inside=True)
        return np.where(inside, np.einsum("ij,ij->i", S, X) - np.max(c, axis=1), -np.inf)

    lower = _blocks(lower, jet.size, S, X)
    lam = np.where(is_p, np.maximum(mult, 0.0), 0.0)
    total = np.sum(lam, axis=1)
    lam /= np.maximum(total, 1e-300)[:, None]
    Z = gen._conjugates(S, pidx)[1]
    # a ball's weight moves along its normal n, where g_j has slope <G_j, n> + R
    centers, radii, ball = spheres
    nu = np.where(ball[sidx], np.maximum(mult, 0.0), 0.0)
    N = _normals(S, centers[sidx])[0]
    slope = np.where(ball[sidx], np.einsum("rkd,rkd->rk", centers[sidx], N) + radii[sidx], 0.0)
    r = X - np.einsum("rk,rkd->rd", lam, Z) - np.einsum("rk,rkd->rd", nu, N)
    if L is None:
        Z = Z + r[:, None, :]       # the shifted z_k combine to x exactly
    D = Z - gen._Y[pidx]
    g_z = jet.values[pidx] + np.einsum("rkd,rkd->rk", jet.gradients[pidx], D) \
        + gen.M * gen.modulus.phi(np.sqrt(np.sum(D * D, axis=2)))
    upper = np.einsum("rk,rk->r", lam, g_z) + np.sum(nu * slope, axis=1)
    if L is not None:
        upper += L * np.sqrt(np.sum(r * r, axis=1))
    width = np.where(total > 0, upper - lower, np.inf)
    return upper, S, np.nan_to_num(width, nan=np.inf)
