"""Certified conjugate solve for F = conv(g), its Lipschitz cap F_L and grad F.

Each piece g_k of the generator has the conjugate g_k*(s) = <s, y_k> - f_k
+ M phi*(|s - G_k| / M), finite on the ball |s - G_k| <= R = M sup(omega);
x, y_k and z_k below are measured from the jet's centroid.
So F(x) = max_s <s, x> - max_k g_k*(s), F_L is the same maximum over
|s| <= L, and the maximizer s* is the gradient (Rockafellar, Convex Analysis,
12 and 16).  Each query goes through these stages until its bracket closes:

1. the screen ``Generator._exposed``, which also gives the active piece i
   of g at x and its gradient s0;
2. ``_ranked`` from the start s0: projected onto the cap when |s0| > L, with
   k the top piece by g_k*(s0).  Where the cap binds, Riemannian Newton for
   max <s, x> - g_k*(s) on the sphere |s| = L, whose step is closed form
   (``_on_cap``); else Newton on the KKT system of {k, i}, with i the second
   piece when it is k.  Then a drop/add exchange on the sets still open, of
   at most d + 1 pieces and spheres, where a full set adds by the ratio
   test's swap (``_ratio_test``);
3. once, a smoothed Newton path (tau log sum_k exp(g_k*(s) / tau),
   penalized outside the cap and the balls) gives a new start for
   ``_ranked``, with the second piece by g_k*(s) as i; then every set of
   ranked elements.

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
# the one smoothed restart of a query the exchange leaves open: smoothing
# levels tau (relative to 1 + |g(x)|) and Newton steps per level
_SCHEDULES = (((1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6), 8),)
_LINE = 0.25 ** np.arange(11)    # backtracking step lengths, 1 down to 1e-6


class CertificationError(RuntimeError):
    """A query whose certificate bracket could not be closed."""


def convex_combination_min(generator, X, L=None):
    """F(x) = conv(g)(x), or F_L(x) when L is given, and the maximizer s* at
    the rows of X (Q, d): arrays (Q,) and (Q, d)."""
    X = np.asarray(X, dtype=float).reshape(-1, generator.jet.dimension)
    return _blocks(lambda X: _min_block(generator, X, L), generator.jet.size, X)


def _min_block(generator, X, L):
    """``convex_combination_min`` on one block of queries."""
    if L is not None and L == 0:        # the dual feasible set is {0}
        c, inside = generator._conjugates(np.zeros((1, X.shape[1])), inside=True)
        if not inside[0]:
            raise CertificationError("the cap L = 0 lies outside the conjugate domain")
        return np.full(len(X), -np.max(c)), np.zeros_like(X)
    done, g, s, active = generator._exposed(X, -TOL)
    if L is not None:
        done &= np.sqrt(np.sum(s * s, axis=1)) <= L * (1.0 + 1e-12)
    F, S, width = g.copy(), s.copy(), np.zeros(len(X))
    Xc = X - generator._origin          # the solve works from the jet's centroid
    rest = np.flatnonzero(~done)
    for schedule in (None,) + _SCHEDULES:     # the ranked first sets, then the smoothed start
        if rest.size:
            args = (generator, Xc[rest], g[rest], s[rest], L)
            out = _ranked(*args, active[rest]) if schedule is None else _solve(*args, *schedule)
            F[rest], S[rest], width[rest] = out
            rest = rest[~(width[rest] <= TOL * (1.0 + np.abs(g[rest])))]
    if rest.size:
        k = rest[np.argmax(width[rest] / (1.0 + np.abs(g[rest])))]
        raise CertificationError(f"{rest.size} of {len(X)} queries uncertified; the widest "
                                 f"bracket is {width[k]:.3g} at x = {X[k].tolist()}")
    return F, S


def _ranked(gen, X, g, S, L, active=None):
    """The ranked set at each start S, then the exchange (step 2 of the
    module docstring): (F, s, width).  ``active`` is the screen's piece;
    without a screen the second piece by g_k*(s) stands in for it."""
    (Q, d), n = X.shape, gen.jet.size
    K, rows = d + 1, np.arange(Q)
    tol = TOL * (1.0 + np.abs(g))
    spheres, bind = _spheres(gen, L), np.zeros(Q, dtype=bool)
    real = np.isfinite(spheres[1])
    if L is not None:
        bind = np.sqrt(np.sum(S * S, axis=1)) > L
        S = _onto_cap(S, L)
    order = _ranking(gen, S)
    top, second = order[:, 0], order[:, 1] if n > 1 else np.full(Q, -1)
    other = second if active is None else np.where(active != top, active, second)
    elem = np.column_stack([top, np.where(bind, n, other), np.full((Q, d - 1), -1)])     # element n is the cap
    F, Sout, width, mult = np.empty(Q), np.empty_like(S), np.empty(Q), np.zeros((Q, K))
    on, off = np.flatnonzero(bind), np.flatnonzero(~bind)
    if on.size:     # weight 1 on the piece, and nu = <x - z_k(s), s> / L on the cap
        F[on], Sout[on], width[on] = _on_cap(gen, X[on], S[on], L, spheres, top[on])
        Z = gen._conjugates(Sout[on], top[on, None])[1][:, 0]
        mult[on, 0], mult[on, 1] = 1.0, np.sum((X[on] - Z) * Sout[on], axis=1) / L
    if off.size:
        F[off], Sout[off], width[off], mult[off] = _certify(gen, X[off], S[off], L, spheres, elem[off])
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
            reached = (spheres[1] - _normals(Sout[add], spheres[0])[1] <= 1e-12 * spheres[1]) & real
            score = np.hstack([gen._conjugates(Sout[add], full=False),
                               np.where(reached, np.inf, -np.inf), np.zeros((add.size, 1))])
            np.put_along_axis(score, np.where(elem[add] >= 0, elem[add], -1), -np.inf, axis=1)
            enter, slot = np.argmax(score[:, :-1], axis=1), np.argmin(elem[add], axis=1)
            full = elem[add, slot] >= 0
            if full.any():
                f = add[full]
                slot[full] = _ratio_test(gen, Sout[f], spheres, elem[f], mult[f], enter[full])
            add, enter, slot = add[slot >= 0], enter[slot >= 0], slot[slot >= 0]
            elem[add, slot], mult[add, slot] = enter, 0.0
        if not (drop.any() or add.size):
            break
        redo = np.flatnonzero(drop | np.isin(rows, add))    # restart from the last solution
        start = np.where(np.isfinite(Sout[redo]), Sout[redo], S[redo])
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


def _ranking(gen, S):
    """The pieces in decreasing order of g_k*(s) at each row of S."""
    return np.argsort(-gen._conjugates(S, full=False), axis=1, kind="stable")


def _solve(gen, X, g, S, L, taus, steps):
    """Smoothed start, then ``_ranked`` there, then every set of ranked
    elements: (F, s, width)."""
    (Q, d), n = X.shape, gen.jet.size
    K, spheres = d + 1, _spheres(gen, L)
    S, gap = _smoothed(gen, X, S, 1.0 + np.abs(g), spheres, taus, steps)
    F, Sout, width = _ranked(gen, X, g, S, L)
    bad = np.flatnonzero(width > TOL * (1.0 + np.abs(g)))
    if bad.size:        # every set of ranked elements with at least one piece
        room = spheres[1] - _normals(S, spheres[0])[1]
        P, B = min(n, d + 2), min(int(np.sum(np.isfinite(spheres[1]))), K)     # ranked pieces and spheres
        ranked = np.hstack([np.argsort(gap, axis=1, kind="stable")[:, :P],
                            n + np.argsort(room, axis=1, kind="stable")[:, :B]])
        sets = np.array([c + (-1,) * (K - len(c)) for size in range(1, K + 1)
                         for c in combinations(range(P + B), size) if c[0] < P])
        owner, pick = np.repeat(bad, len(sets)), np.tile(sets, (bad.size, 1))
        elem = np.where(pick >= 0, np.take_along_axis(ranked[owner], np.maximum(pick, 0), axis=1), -1)
        Fb, Sb, wb, _ = _blocks(lambda o, e: _certify(gen, X[o], S[o], L, spheres, e), n, owner, elem)
        best = np.full(Q, np.inf)
        np.minimum.at(best, owner, wb)
        win = np.flatnonzero(wb == best[owner])
        F[owner[win]], Sout[owner[win]], width[owner[win]] = Fb[win], Sb[win], wb[win]
    return F, Sout, width


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


def _smoothed(gen, X, S, scale, spheres, taus, steps):
    """Newton with backtracking on tau log sum_k exp(g_k*(s) / tau) - <s, x>
    + (1 + |x|^2) / (2 tau) sum_j max(0, |s - c_j| - rho_j)^2, for each tau
    in taus (times scale).  Returns s and the gaps max_j g_j*(s) - g_k*(s)."""
    weight = 1.0 + np.sum(X * X, axis=1)

    def objective(S, c, dist, X, tau, weight):
        top = np.max(c, axis=1)
        val = top + tau * np.log(np.sum(np.exp((c - top[:, None]) / tau[:, None]), axis=1))
        val += 0.5 * weight / tau * np.sum(np.maximum(dist - spheres[1], 0.0) ** 2, axis=1)
        return np.nan_to_num(val - np.einsum("ij,ij->i", S, X), nan=np.inf)

    for rel in taus:
        live = np.arange(len(X))
        for _ in range(steps):
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
    the pieces), then its bracket: (F, s, width, weights)."""
    n, d = gen.jet.size, X.shape[1]
    is_p, is_s = (elem >= 0) & (elem < n), elem >= n
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
    c, inside = gen._conjugates(S, inside=True)
    lower = np.where(inside, np.einsum("ij,ij->i", S, X) - np.max(c, axis=1), -np.inf)
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
