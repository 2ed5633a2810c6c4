import itertools
import warnings

import numpy as np
import pytest

from convext import lp
from convext.envelope import (
    Generator,
    brute_force_envelope,
    build_envelope,
    minorant,
    write_samples_csv,
)
from convext.fixtures import single_parabola_jet, two_point_power_jet
from convext.jet import Jet, seminorm_A_intrinsic, sup_norm_gradients
from convext.lp import CertificationError, convex_combination_min
from convext.modulus import HolderModulus, LinearModulus, ScaledModulus, TableModulus

from conftest import (
    normalized_jet,
    random_concave_table,
    random_convex_function,
    random_feasible_jet,
    random_modulus,
)

AFFINE_JET = Jet([[-1.0], [1.0]], [-2.0, 4.0], [[3.0], [3.0]])  # f(t) = 3t + 1


def _grid(m, d):
    """The m^d nodes of the regular grid on [-1, 1]^d, as an (m^d, d) array."""
    axis = np.linspace(-1.0, 1.0, m)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def example_generator():
    alpha = 0.5
    jet = two_point_power_jet(alpha)
    A, _ = seminorm_A_intrinsic(jet, HolderModulus(alpha))
    return Generator(jet, HolderModulus(alpha), A)


class TestGeneratorAndMinorant:
    def test_single_parabola(self):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        assert gen.value([2.0]) == pytest.approx(2.0)

    def test_interpolation_at_jet_points(self):
        gen = example_generator()
        assert gen.value([-1.0]) == pytest.approx(2.0 / 3.0)

    def test_affine_jet_midpoint(self):
        for M in (0.5, 1.0, 2.0):
            gen = Generator(AFFINE_JET, HolderModulus(0.5), M)
            assert gen.value([0.0]) == pytest.approx(1.0 + M * HolderModulus(0.5).phi(1.0))

    def test_minorant_values(self):
        assert minorant(AFFINE_JET, [0.0]) == pytest.approx(1.0)
        halfsq = Jet([[0.0], [1.0]], [0.0, 0.5], [[0.0], [1.0]])
        assert minorant(halfsq, [2.0]) == pytest.approx(1.5)
        assert minorant(two_point_power_jet(0.5), [0.0]) == pytest.approx(-1.0 / 3.0)

    def test_negative_M_rejected(self):
        with pytest.raises(ValueError):
            Generator(AFFINE_JET, LinearModulus(), -1.0)


class TestBuildEnvelope1D:
    def test_convex_generator_is_its_own_envelope(self):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 4001)
        assert model.value([1.0]) == pytest.approx(0.5, abs=2e-3)

    def test_affine_envelope(self):
        gen = Generator(AFFINE_JET, HolderModulus(0.5), 1.0)
        model = build_envelope(gen, [-4.0], [4.0], 4001)
        for t in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert model.value([t]) == pytest.approx(3.0 * t + 1.0, abs=1e-6)

    def test_sandwich_and_interpolation(self):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 4001)
        # exact at the model's own samples; up to the discretization slack
        # between samples (the hull chord can sit above a dip of g there)
        xs_nodes = model.sample_x[:, None]
        F = model.value_many(xs_nodes)
        assert np.all(minorant(gen.jet, xs_nodes) <= F + 1e-12)
        assert np.all(F <= gen.value_many(xs_nodes) + 1e-12)
        xs = np.linspace(-5, 5, 113)[:, None]
        sp = model.grid_spacing()
        slack = 10.0 * gen.M * gen.modulus.omega(sp) * sp
        F = model.value_many(xs)
        assert np.all(minorant(gen.jet, xs) <= F + 1e-12)
        assert np.all(F <= gen.value_many(xs) + slack)
        for k, y in enumerate(gen.jet.points):
            assert model.value(y) == pytest.approx(gen.jet.values[k], abs=1e-12)

    def test_midpoint_convexity_exact(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 2001)
        x = rng.uniform(-5, 5, size=(1000, 1))
        y = rng.uniform(-5, 5, size=(1000, 1))
        mid = model.value_many((x + y) / 2.0)
        assert np.all(mid <= (model.value_many(x) + model.value_many(y)) / 2.0 + 1e-9)

    def test_oracle_agreement(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 4001)
        for t in (-2.0, 0.0, 0.4, 1.3):
            o = brute_force_envelope(gen, [t], 100_000, rng, model.lo, model.hi)
            assert model.value([t]) == pytest.approx(o, abs=5e-3)

    def test_domain_errors(self):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 201)
        with pytest.raises(ValueError):
            model.value([6.0])
        with pytest.raises(ValueError):
            build_envelope(gen, [-5.0], [5.0], 20)
        with pytest.raises(ValueError):
            build_envelope(gen, [0.5], [5.0], 201)   # jet point outside

    def test_margin_warning(self):
        gen = example_generator()
        with pytest.warns(UserWarning, match="margin"):
            build_envelope(gen, [-1.5], [1.5], 201)


class TestLipschitzEnvelope1D:
    def test_huber_values(self):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 4001)
        assert model.lipschitz_value([2.0], 1.0) == pytest.approx(1.5, abs=5e-3)
        assert model.lipschitz_value([0.5], 1.0) == pytest.approx(0.125, abs=5e-3)

    def test_equals_envelope_where_slopes_small(self):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 4001)
        xs = np.linspace(-0.9, 0.9, 40)[:, None]
        assert np.allclose(model.lipschitz_value_many(xs, 1.0), model.value_many(xs), atol=1e-12)

    def test_lipschitz_property(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 2001)
        L = 1.0
        x = rng.uniform(-5, 5, size=(1000, 1))
        y = rng.uniform(-5, 5, size=(1000, 1))
        fx = model.lipschitz_value_many(x, L)
        fy = model.lipschitz_value_many(y, L)
        gap = np.abs(fx - fy) - L * np.abs(x - y)[:, 0]
        assert np.max(gap) <= 1e-9

    def test_below_envelope(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 2001)
        x = rng.uniform(-5, 5, size=(500, 1))
        assert np.all(model.lipschitz_value_many(x, 1.0) <= model.value_many(x) + 1e-12)

    def test_midpoint_convexity(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 2001)
        x = rng.uniform(-5, 5, size=(1000, 1))
        y = rng.uniform(-5, 5, size=(1000, 1))
        mid = model.lipschitz_value_many((x + y) / 2.0, 1.0)
        ends = (model.lipschitz_value_many(x, 1.0) + model.lipschitz_value_many(y, 1.0)) / 2.0
        assert np.all(mid <= ends + 1e-9)

    def test_low_cap_warns(self):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 201)
        with pytest.warns(UserWarning, match="below sup"):
            model.lipschitz_value([0.0], 0.5)

    def test_slope_clipping_matches_vertex_minimum(self, rng):
        """The exact cap equals min(min_k y_k + L|x - x_k|, F(x)) bit for bit."""
        for n in (2, 3, 5, 8):
            jet = normalized_jet(rng, 1, n, HolderModulus(0.5))
            model = build_envelope(Generator(jet, HolderModulus(0.5), 1.0), *_box(jet), 1001)
            hx, hy = model.hull_x, model.hull_y
            slopes = np.diff(hy) / np.diff(hx)
            sup_g = sup_norm_gradients(jet)
            caps = (0.0, 0.5 * sup_g, sup_g, 2.0 * sup_g, 2.0 * np.max(np.abs(slopes)))
            for L in caps:
                a = np.searchsorted(slopes, -L)
                b = np.searchsorted(slopes, L, side="right")
                near = hx[[a, b]][:, None] + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3])
                x = np.clip(np.concatenate([
                    hx, model.lo, model.hi, near.ravel(), rng.uniform(model.lo[0], model.hi[0], 500),
                ]), model.lo[0], model.hi[0])
                trav = hy[None, :] + L * np.abs(x[:, None] - hx[None, :])
                expected = np.minimum(np.min(trav, axis=1), np.interp(x, hx, hy))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = model.lipschitz_value_many(x[:, None], L)
                    grid = model.lipschitz_values_grid(x[:, None], L)
                assert np.array_equal(got, expected)
                assert np.array_equal(grid, expected)

    def test_capped_bulk_warns_once_per_call(self):
        model = build_envelope(example_generator(), [-5.0], [5.0], 201)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model.lipschitz_values_grid(np.zeros((3, 1)), 0.5)
        assert len(caught) == 1


class TestSmoothnessTransfer:
    """Midpoint smoothness of g survives in both envelope variants."""

    @pytest.mark.parametrize("capped", [False, True])
    def test_midpoint_inequality(self, rng, capped):
        jet = normalized_jet(rng, 1, 5, HolderModulus(0.5))
        gen = Generator(jet, HolderModulus(0.5), 1.0)
        model = build_envelope(gen, *_box(jet), 4001)
        cap = sup_norm_gradients(jet)
        K, M = 2.0 ** 0.5, 1.0
        m = HolderModulus(0.5)
        sp = model.grid_spacing()
        slack = 10.0 * M * m.omega(sp) * sp + 1e-12
        lo, hi = model.lo[0], model.hi[0]
        z = rng.uniform(lo, hi, size=2000)
        h = rng.uniform(-1.0, 1.0, size=2000)
        lam = rng.uniform(0.0, 1.0, size=2000)
        a = z + (1 - lam) * h
        b = z - lam * h
        keep = (a >= lo) & (a <= hi) & (b >= lo) & (b <= hi)
        z, h, lam, a, b = z[keep], h[keep], lam[keep], a[keep], b[keep]
        if capped:
            ev = lambda t: model.lipschitz_value_many(t[:, None], cap)
        else:
            ev = lambda t: model.value_many(t[:, None])
        lhs = lam * ev(a) + (1 - lam) * ev(b) - ev(z)
        rhs = K * M * lam * (1 - lam) * m.phi(np.abs(h)) + slack
        assert np.all(lhs <= rhs)


def _box(jet, margin=None):
    if margin is None:
        margin = max(1.0, 2.0 * jet.diameter())
    return jet.points.min(axis=0) - margin, jet.points.max(axis=0) + margin


class TestEnvelope2D:
    def test_paraboloid(self):
        jet = Jet([[0.0, 0.0]], [0.0], [[0.0, 0.0]])
        gen = Generator(jet, LinearModulus(), 1.0)
        model = build_envelope(gen, [-2.0, -2.0], [2.0, 2.0], 41)
        assert model.value([1.0, 0.5]) == pytest.approx(0.625, abs=1e-6)
        assert model.lipschitz_value([1.5, 0.0], 1.0) == pytest.approx(1.0, abs=1e-3)

    def test_interpolation_and_sandwich(self, rng):
        jet = normalized_jet(rng, 2, 4, LinearModulus(), spread=0.8)
        gen = Generator(jet, LinearModulus(), 1.0)
        lo, hi = _box(jet)
        model = build_envelope(gen, lo, hi, 33)
        sp = model.grid_spacing()
        tol = 10.0 * 1.0 * LinearModulus().omega(sp) * sp
        for k, y in enumerate(jet.points):
            v = model.value(y)
            assert jet.values[k] - 1e-9 <= v <= jet.values[k] + tol
        X = rng.uniform(lo, hi, size=(50, 2))
        F = model.value_many(X)
        assert np.all(minorant(jet, X) <= F + 1e-7)
        assert np.all(F <= gen.value_many(X) + tol)
        # at grid nodes the combination lambda = e_j makes F <= g exact
        nodes = model.grid_points[:: 37]
        assert np.all(model.value_many(nodes) <= gen.value_many(nodes) + 1e-7)

    def test_midpoint_convexity_lp(self, rng):
        jet = normalized_jet(rng, 2, 3, LinearModulus(), spread=0.8)
        gen = Generator(jet, LinearModulus(), 1.0)
        lo, hi = _box(jet)
        model = build_envelope(gen, lo, hi, 33)
        x = rng.uniform(lo, hi, size=(60, 2))
        y = rng.uniform(lo, hi, size=(60, 2))
        mid = model.value_many((x + y) / 2.0)
        ends = (model.value_many(x) + model.value_many(y)) / 2.0
        assert np.all(mid <= ends + 1e-6)

    def test_oracle_agreement_2d(self, rng):
        jet = normalized_jet(rng, 2, 3, LinearModulus(), spread=0.8)
        gen = Generator(jet, LinearModulus(), 1.0)
        lo, hi = _box(jet)
        model = build_envelope(gen, lo, hi, 65)
        for _ in range(4):
            x = rng.uniform(lo + 0.5, hi - 0.5)
            val = model.value(x)
            oracle = brute_force_envelope(gen, x, 100_000, rng, lo, hi)
            assert abs(val - oracle) <= 5e-3 * (1.0 + abs(gen.value(x)))

    def test_3d_paraboloid(self):
        jet = Jet([[0.0, 0.0, 0.0]], [0.0], [[0.0, 0.0, 0.0]])
        gen = Generator(jet, LinearModulus(), 1.0)
        model = build_envelope(gen, [-2.0] * 3, [2.0] * 3, 33)
        x = np.array([1.0, 0.5, -0.25])
        assert model.value(x) == pytest.approx(float(np.sum(x**2)) / 2.0, abs=5e-3)
        assert model.lipschitz_value([1.5, 0.0, 0.0], 1.0) == pytest.approx(1.0, abs=5e-3)

    def test_dimension_cap(self):
        jet = Jet(np.zeros((1, 4)), [0.0], np.zeros((1, 4)))
        gen = Generator(jet, LinearModulus(), 1.0)
        with pytest.raises(ValueError):
            build_envelope(gen, [-1.0] * 4, [1.0] * 4, 33)
        with pytest.raises(ValueError):
            brute_force_envelope(Generator(Jet(np.zeros((1, 3)), [0.0], np.zeros((1, 3))), LinearModulus(), 1.0),
                                 np.zeros(3), 10, np.random.default_rng(0))


class TestExposedNodes:
    """The screen that clears a query when the active piece's tangent plane lies below g."""

    def test_cleared_nodes_take_g(self, rng):
        table = random_concave_table(rng)
        bounded = random_concave_table(rng, coercive=False)
        moduli = [HolderModulus(0.6), LinearModulus(), table, bounded, ScaledModulus(HolderModulus(0.8), 2.5)]
        cleared = 0
        for d in (2, 3):
            for m in moduli:
                jet = normalized_jet(rng, d, 4, m, spread=0.8)
                for M in (1.0, 1.5):        # A = 1 after normalization
                    gen = Generator(jet, m, M)
                    nodes = rng.uniform(-3.0, 3.0, size=(300, d))
                    mask, g, s = gen._exposed(nodes, 0.0)
                    cleared += np.count_nonzero(mask)
                    F, S = convex_combination_min(gen, nodes[mask])
                    assert np.array_equal(F, g[mask]) and np.array_equal(S, s[mask])
                    assert np.allclose(g, gen.value_many(nodes), rtol=0.0, atol=1e-12)
                    # independently: each cleared tangent plane lies below g on samples
                    z = rng.uniform(-6.0, 6.0, size=(2000, d))
                    x, sx = nodes[mask], s[mask]
                    planes = (g[mask] - np.einsum("qd,qd->q", sx, x))[:, None] + sx @ z.T
                    assert np.all(planes <= gen.value_many(z)[None, :] + 1e-9)
        assert cleared > 0

    def test_jet_points_on_nodes_are_cleared_above_A(self, rng):
        # at y_i the slope is G_i and the test is the pair condition with phi*,
        # which holds strictly once M > A
        value, grad = random_convex_function(rng, 2)
        axis = np.linspace(-4.0, 4.0, 33)
        pts = np.column_stack([axis[[14, 16, 18, 15]], axis[[15, 18, 16, 13]]])
        jet = Jet(pts, value(pts), grad(pts))
        m = LinearModulus()
        A, _ = seminorm_A_intrinsic(jet, m)
        mask, g, s = Generator(jet, m, 1.5 * A)._exposed(pts, 0.0)
        assert np.all(mask)
        assert np.array_equal(g, jet.values) and np.array_equal(s, jet.gradients)

    def test_margin_is_subtracted(self):
        # two pieces on one plane, the second lifted by eps: at y_0 the other
        # piece's conjugate sits exactly eps below the plane's bound
        eps = 1e-6
        jet = Jet([[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0 + eps], [[1.0, 0.0], [1.0, 0.0]])
        gen = Generator(jet, LinearModulus(), 1.0)
        assert gen._exposed([[0.0, 0.0]], 0.5 * eps)[0]
        assert not gen._exposed([[0.0, 0.0]], 2.0 * eps)[0]

    def test_one_piece_clears_every_node(self):
        for d in (2, 3):
            jet = Jet([[0.25] * d], [0.5], [[1.0] * d])
            model = build_envelope(Generator(jet, LinearModulus(), 1.0), [-2.0] * d, [2.0] * d, 33)
            assert np.all(model.generator._exposed(model.grid_points, 0.0)[0])
            idx = np.arange(0, len(model.grid_points), 97)
            assert np.allclose(model.value_many(model.grid_points[idx]), model.grid_g[idx],
                               rtol=0.0, atol=1e-12)


def _qp_oracle(jet, M, x):
    """conv(g)(x) for the linear modulus: with a_i = y_i - G_i / M and
    beta_i = |G_i|^2 / (2M) - f_i, the minimum over the simplex of
    (M/2) |x - sum lam_i a_i|^2 - sum lam_i beta_i, by enumerating the
    stationary points of every face of at most d + 1 vertices."""
    a = jet.points - jet.gradients / M
    beta = np.sum(jet.gradients ** 2, axis=1) / (2.0 * M) - jet.values
    n, d = a.shape
    best = np.inf
    for m in range(1, min(n, d + 1) + 1):
        for face in itertools.combinations(range(n), m):
            A, b = a[list(face)], beta[list(face)]
            K = np.zeros((m + 1, m + 1))
            K[:m, :m], K[:m, m], K[m, :m] = M * A @ A.T, 1.0, 1.0
            lam = np.linalg.lstsq(K, np.append(M * A @ x + b, 1.0), rcond=None)[0][:m]
            if lam.min() >= -1e-12:
                lam = np.maximum(lam, 0.0) / np.sum(np.maximum(lam, 0.0))
                best = min(best, 0.5 * M * np.sum((x - lam @ A) ** 2) - lam @ b)
    return best


class TestConjugateSolve:
    """F, grad F and F_L in d = 2, 3 from the certified conjugate solve."""

    def test_linear_modulus_matches_qp_oracle(self, rng):
        for d in (2, 3):
            for _ in range(3):
                jet = normalized_jet(rng, d, int(rng.integers(2, 6)), LinearModulus(), spread=0.8)
                for M in (1.0, 1.5):
                    X = np.vstack([rng.uniform(-4.0, 4.0, size=(150, d)), jet.points])
                    F = convex_combination_min(Generator(jet, LinearModulus(), M), X)[0]
                    oracle = np.array([_qp_oracle(jet, M, x) for x in X])
                    assert np.all(np.abs(F - oracle) <= 1e-9 * (1.0 + np.abs(oracle)))

    @pytest.mark.parametrize("kind", ["power", "linear", "table", "bounded", "scaled"])
    def test_jet_points_give_the_jet_gradient(self, rng, kind):
        m = {"power": HolderModulus(0.5), "linear": LinearModulus(),
             "table": random_concave_table(rng), "bounded": random_concave_table(rng, coercive=False),
             "scaled": ScaledModulus(HolderModulus(0.7), 2.0)}[kind]
        for d in (2, 3):
            jet = normalized_jet(rng, d, 5, m, spread=0.8)
            for M in (1.0, 1.5):
                gen = Generator(jet, m, M)
                for L in (None, sup_norm_gradients(jet)):
                    F, S = convex_combination_min(gen, jet.points, L)
                    assert np.all(np.abs(F - jet.values) <= 1e-9 * (1.0 + np.abs(jet.values)))
                    assert np.all(np.sqrt(np.sum((S - jet.gradients) ** 2, axis=1)) <= 1e-8)

    def test_huber_closed_form(self):
        # F = |x|^2 / 2, and capped at L = 1 it is |x| - 1/2 once |x| >= 1
        for d in (2, 3):
            jet = Jet([[0.0] * d], [0.0], [[0.0] * d])
            gen = Generator(jet, LinearModulus(), 1.0)
            x = np.eye(d)[:1] * 1.5
            F_L, s = convex_combination_min(gen, x, 1.0)
            assert abs(F_L[0] - 1.0) <= 1e-9 and np.allclose(s, np.eye(d)[:1], atol=1e-9)
            assert abs(convex_combination_min(gen, x)[0][0] - 1.125) <= 1e-9
            # with L = 0 only s = 0 is feasible: F_L is the minimum of F everywhere
            assert np.array_equal(convex_combination_min(gen, x, 0.0)[0], [0.0])

    def test_cap_is_below_equal_inside_and_L_lipschitz(self, rng):
        for d in (2, 3):
            m = HolderModulus(0.75)
            jet = normalized_jet(rng, d, 5, m, spread=0.8)
            gen = Generator(jet, m, 1.2)
            L = sup_norm_gradients(jet)
            X = rng.uniform(-4.0, 4.0, size=(800, d))
            F, S = convex_combination_min(gen, X)
            F_L, S_L = convex_combination_min(gen, X, L)
            assert np.all(F_L <= F + 1e-9 * (1.0 + np.abs(F)))
            inside = np.sqrt(np.sum(S * S, axis=1)) <= L
            assert 0 < np.count_nonzero(inside) < len(X)
            assert np.allclose(F_L[inside], F[inside], rtol=0.0, atol=1e-9 * (1.0 + np.max(np.abs(F))))
            assert np.all(np.sqrt(np.sum(S_L * S_L, axis=1)) <= L * (1.0 + 1e-12))
            i, j = rng.integers(0, len(X), size=(2, 4000))
            dist = np.sqrt(np.sum((X[i] - X[j]) ** 2, axis=1))
            keep = dist > 1e-3
            ratio = np.abs(F_L[i] - F_L[j])[keep] / dist[keep]
            assert np.max(ratio) <= L * (1.0 + 1e-6)

    def test_axis_embedded_jet_matches_its_1d_hull(self):
        """A 1-D jet on the x1-axis of R^2 and R^3, gradients (G, 0): on the axis
        conv(g) is the 1-D conv(g), which the hull on [-60, 60] bounds from above.
        An upper bracket end charging |s| |x - xbar| fell 0.98 below it here."""
        rng = np.random.default_rng(20240817)
        for k in range(75):        # criterion 4's suite, up to jet k = 74
            kind = k % 3
            m = (HolderModulus(float(rng.uniform(0.5, 1.0))) if kind == 0
                 else LinearModulus() if kind == 1 else random_concave_table(rng))
            jet = random_feasible_jet(rng, 1, int(rng.integers(2, 8)))
            rng.integers(1 << 30)
        jet = jet.scaled(1.0 / seminorm_A_intrinsic(jet, m)[0])
        assert isinstance(m, TableModulus) and jet.size == 4
        xs = np.linspace(-3.0, 3.0, 61)
        hull = build_envelope(Generator(jet, m, 1.0), [-60.0], [60.0], 40001).value_many(xs[:, None])
        for d in (2, 3):
            pad = np.zeros((jet.size, d - 1))
            gen = Generator(Jet(np.hstack([jet.points, pad]), jet.values, np.hstack([jet.gradients, pad])), m, 1.0)
            F = convex_combination_min(gen, np.column_stack([xs] + [np.zeros_like(xs)] * (d - 1)))[0]
            assert np.all(F <= hull + 1e-9 * (1.0 + np.abs(hull)))
            assert np.all(F >= hull - 1e-4)


class TestFailureContract:
    def test_zero_M_with_unequal_gradients_is_rejected(self, rng):
        jet = normalized_jet(rng, 2, 4, LinearModulus(), spread=0.8)
        with pytest.raises(ValueError, match="share no point"):
            build_envelope(Generator(jet, LinearModulus(), 0.0), *_box(jet), 33)

    def test_disjoint_bounded_balls_are_rejected(self):
        # gradient balls of radius M sup(omega) = 0.5 around (0, 0), (2, 0) and (1, 1.5)
        bounded = TableModulus([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
        jet = Jet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 1.0, 0.5], [[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
        with pytest.raises(ValueError, match="share no point"):
            build_envelope(Generator(jet, bounded, 0.5), [-3.0, -3.0], [3.0, 3.0], 33)
        # with radius 1.5 the three balls meet
        build_envelope(Generator(jet, bounded, 1.5), [-3.0, -3.0], [3.0, 3.0], 33)

    def test_zero_M_with_equal_gradients_is_g(self, rng):
        jet = Jet([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]], [0.0, 1.3, 0.6], [[1.0, 0.5]] * 3)
        model = build_envelope(Generator(jet, HolderModulus(0.5), 0.0), *_box(jet), 33)
        X = rng.uniform(-3.0, 3.0, size=(200, 2))
        F, S = convex_combination_min(model.generator, X)
        assert np.allclose(F, model.generator.value_many(X), rtol=0.0, atol=1e-12)
        assert np.array_equal(S, np.broadcast_to(jet.gradients[0], S.shape))

    def test_uncertified_query_raises(self, rng, monkeypatch):
        jet = normalized_jet(rng, 2, 4, LinearModulus(), spread=0.8)
        gen = Generator(jet, LinearModulus(), 1.0)
        monkeypatch.setattr(lp, "TOL", -1.0)    # no bracket is that narrow
        with pytest.raises(CertificationError, match="4 of 4 queries uncertified"):
            convex_combination_min(gen, rng.uniform(-2.0, 2.0, size=(4, 2)))


class TestBoxIndependence:
    def test_tight_and_wide_boxes_agree(self, rng):
        m = HolderModulus(0.75)
        jet = normalized_jet(rng, 2, 4, m, spread=0.8)
        gen = Generator(jet, m, 1.0)
        lo, hi = jet.points.min(axis=0), jet.points.max(axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tight = build_envelope(gen, lo, hi, 33)
        wide = build_envelope(gen, lo - 5.0, hi + 5.0, 65)
        X = np.vstack([rng.uniform(lo, hi, size=(200, 2)), jet.points])
        assert np.array_equal(tight.value_many(X), wide.value_many(X))
        assert np.array_equal(tight.lipschitz_value_many(X, 1.0), wide.lipschitz_value_many(X, 1.0))


class TestCsvExport:
    def test_columns_and_determinism(self, tmp_path):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 201)
        model.lipschitz_cap = 1.0
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(model, p1)
        write_samples_csv(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "x1,g,m,F,F_L"
        row = p1.read_text().splitlines()[1].split(",")
        assert len(row) == 5

    def test_no_cap_column_without_cap(self, tmp_path):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 201)
        path = tmp_path / "c.csv"
        write_samples_csv(model, path)
        assert path.read_text().splitlines()[0] == "x1,g,m,F"

    def test_2d_export(self, tmp_path):
        jet = Jet([[0.0, 0.0]], [0.0], [[0.0, 0.0]])
        gen = Generator(jet, LinearModulus(), 1.0)
        model = build_envelope(gen, [-1.5, -1.5], [1.5, 1.5], 33)
        path = tmp_path / "d2.csv"
        write_samples_csv(model, path, lipschitz=1.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,g,m,F,F_L"
        assert len(lines) == 1 + 33 * 33
        data = np.loadtxt(lines[1:], delimiter=",")
        # row-major order: the second coordinate varies fastest
        assert data[0, 0] == data[1, 0] and data[0, 1] != data[1, 1]
        assert np.all(data[:, 5] <= data[:, 4] + 1e-9)   # F_L <= F
        assert np.all(data[:, 3] <= data[:, 4] + 1e-7)   # m <= F


class TestDegenerateModuli:
    def test_flat_zero_table_extrinsic(self):
        """omega identically zero: only single-plane jets are feasible."""
        from convext.jet import seminorm_A_extrinsic
        from convext.modulus import TableModulus
        flat = TableModulus([[0.0, 0.0], [1.0, 0.0]])
        affine = Jet([[-1.0], [1.0]], [-2.0, 4.0], [[3.0], [3.0]])
        assert seminorm_A_extrinsic(affine, flat) == 0.0
        halfsq = Jet([[0.0], [1.0]], [0.0, 0.5], [[0.0], [1.0]])
        assert seminorm_A_extrinsic(halfsq, flat) == np.inf
