"""Independent oracles the tests compare the package against.

``brute_force_envelope`` bounds conv(g)(x) from above by random convex
combinations, ``check_necessity`` samples the lifted-tangent-plane
inequality of a built extension, and ``front_delta`` and ``front_delta1``
take the c1 construction's maxima over every given pair, where the library
reads them off one hull.  None is part of the library.
"""

import numpy as np

from convext.extension import _sample_interior, verify_extension
from convext.jet import _pairwise_dist, _planes


def brute_force_envelope(generator, x, budget: int, rng, lo, hi) -> float:
    """Randomized upper bound for conv(g)(x), sampling tuples in the box [lo, hi].

    Draws ``budget`` random (d+1)-tuples in the box, solves the affine
    weights from the interpolation constraint, rejects tuples whose simplex
    does not contain x, and returns the best objective found (including the
    trivial combination {x} itself).  Converges from above, as the budget
    grows, to the envelope with combination points restricted to the box.
    Only d <= 2 is supported.
    """
    d = generator.jet.dimension
    if d > 2:
        raise ValueError("the brute-force oracle is limited to dimension <= 2")
    x = np.asarray(x, dtype=float).reshape(-1)
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

    # d == 2: barycentric weights in closed form, as ratios of signed areas
    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    chunk = 20000
    done = 0
    while done < budget:
        k = min(chunk, budget - done)
        done += k
        tri = rng.uniform(lo, hi, size=(k, 3, 2))
        det = cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        good = np.abs(det) > 1e-12
        if not np.any(good):
            continue
        V = tri[good] - x             # the vertices seen from x
        lam = np.stack([cross(V[:, 1], V[:, 2]), cross(V[:, 2], V[:, 0]), cross(V[:, 0], V[:, 1])],
                       axis=1) / det[good, None]
        inside = np.all(lam >= -1e-12, axis=1)
        if not np.any(inside):
            continue
        pts = tri[good][inside]
        w = lam[inside]
        gv = generator.value_many(pts.reshape(-1, 2)).reshape(-1, 3)
        vals = np.sum(w * gv, axis=1)
        best = min(best, float(np.min(vals)))
    return best


def check_necessity(model, samples: int = 500, seed: int = 0) -> dict:
    """Sampled check that every lifted tangent plane of F dominates the rest.

    Uses the measured gradient seminorm M_hat as the lifting constant and
    asserts, over random triples (x, y, z),

        F(z) + <gF(z), x - z>  <=  F(y) + <gF(y), x - y> + M_hat phi(|x - y|)

    up to multiplicative slack on the phi term and the sampling term
    10 M omega(h_grid) h_grid.
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
    F_yz, G_yz = model.envelope._value_and_gradient(yz)

    # rows: the points x; columns: the points y (and z) of the triples
    planes = _planes(yz, F_yz, G_yz, xs)
    lift = m.phi(_pairwise_dist(xs, yz))
    slack = 0.05 * M_hat * lift + 10.0 * model.M * m.omega(sp) * sp + 1e-9
    defect = np.max(planes, axis=1, keepdims=True) - planes - M_hat * lift - slack
    z_idx, y_idx = np.argmax(planes, axis=1), np.argmax(defect, axis=1)
    worst = np.max(defect, axis=1)
    violations = [
        {"x": xs[i].tolist(), "y": yz[y_idx[i]].tolist(), "z": yz[z_idx[i]].tolist(), "defect": float(worst[i])}
        for i in np.flatnonzero(worst > 0)
    ]
    return {
        "violations": violations,
        "ok": not violations,
        "max_defect": float(np.max(worst)),
        "M_hat": M_hat,
        "triples": int(k * k),
    }


def front_delta(c, s, ts):
    """delta on the distances ts: max(0, max_k s_k - c_k / t) over every pair (c_k, s_k)."""
    return np.array([np.max(s - c / t, initial=0.0) for t in ts])


def front_delta1(c, s, slopes, L, t):
    """delta1 at t: the min over u in {1} and the finite slopes above 1 of
    max(0, max_k s_k - c_k u) + 2 L t u, each maximum over every pair."""
    u = np.concatenate([[1.0], slopes[np.isfinite(slopes) & (slopes > 1.0)]])
    h = np.array([np.max(s - c * v, initial=0.0) for v in u])
    return np.min(h + 2.0 * L * np.asarray(t, dtype=float)[..., None] * u, axis=-1)
