"""Certified conjugate solve for F = conv(g), its Lipschitz cap F_L and grad F.

Each piece g_k of the generator has the conjugate g_k*(s) = <s, y_k> - f_k
+ M phi*(|s - G_k| / M), finite on the ball |s - G_k| <= R = M sup(omega).
So F(x) = max_s <s, x> - max_k g_k*(s), F_L is the same maximum over
|s| <= L, and the maximizer s* is the gradient (Rockafellar, Convex Analysis,
12 and 16).  Queries pass the screen ``Generator._exposed``, a smoothed
Newton path (tau log sum_k exp(g_k*(s) / tau), penalized outside the cap and
the balls), and Newton on the KKT system of active sets of at most d + 1
pieces and spheres.  Each query is certified by the bracket

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

__all__ = ["CertificationError", "convex_combination_min"]

TOL = 1e-9                  # certified bracket width, relative to 1 + |g(x)|
# smoothing levels tau (relative to 1 + |g(x)|) and Newton steps per level;
# queries the first schedule leaves uncertified start again from the second
_SCHEDULES = (((1e-2, 1e-4), 3), ((1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6), 8))
_LINE = 0.25 ** np.arange(11)    # backtracking step lengths, 1 down to 1e-6
_ROWS = 20000               # KKT rows solved at once
_BLOCK = 2 ** 18            # queries times pieces handled at once


class CertificationError(RuntimeError):
    """A query whose certificate bracket could not be closed."""


def convex_combination_min(generator, X, L=None):
    """F(x) = conv(g)(x), or F_L(x) when L is given, and the maximizer s* at
    the rows of X (Q, d): arrays (Q,) and (Q, d)."""
    X = np.asarray(X, dtype=float).reshape(-1, generator.jet.dimension)
    block = max(1, _BLOCK // generator.jet.size)      # bounds the (queries, pieces, d) arrays
    if len(X) > block:
        F, S = zip(*(convex_combination_min(generator, X[k:k + block], L) for k in range(0, len(X), block)))
        return np.concatenate(F), np.concatenate(S)
    if L is not None and L == 0:        # the dual feasible set is {0}
        if not generator._dual_feasible(np.zeros((1, X.shape[1])))[0]:
            raise CertificationError("the cap L = 0 lies outside the conjugate domain")
        return -np.max(generator._conjugates(np.zeros_like(X), full=False), axis=1), np.zeros_like(X)
    done, g, s = generator._exposed(X, -TOL)
    if L is not None:
        done &= np.sqrt(np.sum(s * s, axis=1)) <= L * (1.0 + 1e-12)
    F, S, width = g.copy(), s.copy(), np.zeros(len(X))
    rest = np.flatnonzero(~done)
    for taus, steps in _SCHEDULES:
        if rest.size:
            F[rest], S[rest], width[rest] = _solve(generator, X[rest], g[rest], s[rest], L, taus, steps)
            rest = rest[~(width[rest] <= TOL * (1.0 + np.abs(g[rest])))]
    if rest.size:
        k = rest[np.argmax(width[rest] / (1.0 + np.abs(g[rest])))]
        raise CertificationError(f"{rest.size} of {len(X)} queries uncertified; the widest "
                                 f"bracket is {width[k]:.3g} at x = {X[k].tolist()}")
    return F, S


def _solve(gen, X, g, S, L, taus, steps):
    """Smoothed start, then KKT Newton on active sets: (F, s, width)."""
    (Q, d), n = X.shape, gen.jet.size
    K, rows = d + 1, np.arange(Q)
    tol = TOL * (1.0 + np.abs(g))
    spheres = _spheres(gen, L)
    real = np.isfinite(spheres[1])
    S, gap, tau = _smoothed(gen, X, S, 1.0 + np.abs(g), spheres, taus, steps)
    room = spheres[1] - _normals(S, spheres[0])[1]
    P, B = min(n, d + 2), min(int(np.sum(real)), K)          # ranked pieces and spheres
    ranked = np.hstack([np.argsort(gap, axis=1, kind="stable")[:, :P],
                        n + np.argsort(room, axis=1, kind="stable")[:, :B]])
    # first set: the pieces within 3 tau of the top and the spheres nearly reached
    j = np.minimum(np.sum((room <= 1e-2 * spheres[1]) & real, axis=1), min(B, K - 1))
    m = np.minimum(np.clip(np.sum(gap <= 3.0 * tau[:, None], axis=1), 1, P), K - j)
    slot = np.arange(K)
    pick = np.where(slot < m[:, None], slot, np.where(slot < (m + j)[:, None], P + slot - m[:, None], -1))
    elem = np.where(pick >= 0, np.take_along_axis(ranked, np.maximum(pick, 0), axis=1), -1)
    F, Sout, width, mult = _certify(gen, X, S, L, spheres, elem)
    for _ in range(2 * K):
        # exchange on the failed sets: drop the most negative weight; without
        # one, add a sphere the solution reached, else the largest piece left out
        weights = np.where(elem >= 0, mult, np.inf)
        worst = np.argmin(weights, axis=1)
        low = weights[rows, worst]
        pieces_left = np.sum((elem >= 0) & (elem < n), axis=1) - (elem[rows, worst] < n)
        drop = (width > tol) & (low < 0) & (pieces_left > 0)
        add = np.flatnonzero((width > tol) & (low >= 0) & np.any(elem < 0, axis=1))
        if not (drop.any() or add.size):
            break
        elem[drop, worst[drop]], mult[drop, worst[drop]] = -1, 0.0
        if add.size:
            reached = (spheres[1] - _normals(Sout[add], spheres[0])[1] <= 1e-12 * spheres[1]) & real
            score = np.hstack([gen._conjugates(Sout[add], full=False),
                               np.where(reached, np.inf, -np.inf), np.zeros((add.size, 1))])
            np.put_along_axis(score, np.where(elem[add] >= 0, elem[add], -1), -np.inf, axis=1)
            free = np.argmin(elem[add], axis=1)
            elem[add, free], mult[add, free] = np.argmax(score[:, :-1], axis=1), 0.0
        redo = np.flatnonzero(drop | np.isin(rows, add))    # restart from the last solution
        start = np.where(np.isfinite(Sout[redo]), Sout[redo], S[redo])
        F[redo], Sout[redo], width[redo], mult[redo] = _certify(
            gen, X[redo], start, L, spheres, elem[redo], np.nan_to_num(mult[redo]))
    bad = np.flatnonzero(width > tol)
    if bad.size:        # every set of ranked elements with at least one piece
        sets = np.array([c + (-1,) * (K - len(c)) for size in range(1, K + 1)
                         for c in combinations(range(P + B), size) if c[0] < P])
        owner, pick = np.repeat(bad, len(sets)), np.tile(sets, (bad.size, 1))
        elem = np.where(pick >= 0, np.take_along_axis(ranked[owner], np.maximum(pick, 0), axis=1), -1)
        out = [_certify(gen, X[owner[k:k + _ROWS]], S[owner[k:k + _ROWS]], L, spheres, elem[k:k + _ROWS])
               for k in range(0, len(owner), _ROWS)]
        Fb, Sb, wb = (np.concatenate([o[i] for o in out]) for i in range(3))
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
    in taus (times scale).  Returns s, the gaps max_j g_j*(s) - g_k*(s) and
    the last tau."""
    weight = 1.0 + np.sum(X * X, axis=1)

    def objective(S, c, X, tau, weight):
        top = np.max(c, axis=1)
        val = top + tau * np.log(np.sum(np.exp((c - top[:, None]) / tau[:, None]), axis=1))
        val += 0.5 * weight / tau * np.sum(np.maximum(_normals(S, spheres[0])[1] - spheres[1], 0.0) ** 2, axis=1)
        return np.nan_to_num(val - np.einsum("ij,ij->i", S, X), nan=np.inf)

    for rel in taus:
        live = np.arange(len(X))
        for _ in range(steps):
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
            H = _hessian(w, tang, radial, U) + _hessian(k, bend, 1.0, N) \
                + np.einsum("qk,qki,qkj->qij", w / tau[:, None], Zc, Zc)
            step = -np.linalg.solve(H, grad[..., None])[..., 0]
            now, todo = objective(s, c, x, tau, wt), np.arange(len(s))
            for a in _LINE:     # each row takes the first length that lowers its objective
                trial = s[todo] + a * step[todo]
                ok = objective(trial, gen._conjugates(trial, full=False), x[todo], tau[todo], wt[todo]) <= now[todo]
                s[todo[ok]], todo = trial[ok], todo[~ok]
            S[live] = s
            live = live[np.max(np.abs(step), axis=1) > 1e-6 * (1.0 + np.max(np.abs(s), axis=1))]
    c = gen._conjugates(S, full=False)
    return S, np.max(c, axis=1, keepdims=True) - c, taus[-1] * scale


def _hessian(w, a, b, U):
    """sum_k w_k (a_k (I - u_k u_k^T) + b_k u_k u_k^T), slightly regularized."""
    H = np.sum(w * a, axis=1)[:, None, None] * np.eye(U.shape[2]) + np.einsum("qk,qki,qkj->qij", w * (b - a), U, U)
    return H + (1e-12 * np.trace(H, axis1=1, axis2=2) + 1e-300)[:, None, None] * np.eye(U.shape[2])


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
    live = np.arange(len(X))
    for _ in range(40):
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
        moved = np.max(np.abs(step[:, :d]), axis=1) > 1e-15 * (1.0 + np.max(np.abs(s), axis=1))
        live = live[sane & moved & np.all(np.isfinite(step), axis=1)]
        if live.size == 0:
            break
    return (*_bracket(gen, X, S, L, spheres, is_p, pidx, sidx, mult), mult)


def _bracket(gen, X, S, L, spheres, is_p, pidx, sidx, mult):
    """(upper, s, upper - lower) of each row's certificate bracket."""
    jet = gen.jet
    if L is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            S = S * np.minimum(1.0, L / np.sqrt(np.sum(S * S, axis=1)))[:, None]
    lower = np.einsum("ij,ij->i", S, X) - np.max(gen._conjugates(S, full=False), axis=1)
    lower = np.where(gen._dual_feasible(S), lower, -np.inf)
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
    D = Z - jet.points[pidx]
    g_z = jet.values[pidx] + np.einsum("rkd,rkd->rk", jet.gradients[pidx], D) \
        + gen.M * gen.modulus.phi(np.sqrt(np.sum(D * D, axis=2)))
    upper = np.einsum("rk,rk->r", lam, g_z) + np.sum(nu * slope, axis=1)
    if L is not None:
        upper += L * np.sqrt(np.sum(r * r, axis=1))
    width = np.where(total > 0, upper - lower, np.inf)
    return upper, S, np.nan_to_num(width, nan=np.inf)
