import itertools
import warnings

import numpy as np
import pytest

from convext import lp
from convext.c1 import build_construction, delta_many
from convext.envelope import (
    Generator,
    build_envelope,
    minorant,
    write_samples_csv,
)
from convext.fixtures import single_parabola_jet, two_point_power_jet
from convext.jet import (
    Jet,
    compute_A,
    feasibility_report,
    lip_omega_gradients,
    seminorm_A_intrinsic,
    sup_norm_gradients,
)
from convext.lp import CertificationError, convex_combination_min
from convext.modulus import HolderModulus, LinearModulus, ScaledModulus, TableModulus

from conftest import (
    dense_restriction_jet,
    normalized_jet,
    random_concave_table,
    random_convex_function,
    random_feasible_jet,
    random_modulus,
)
from oracles import brute_force_envelope

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_at_jet_points(self, rng, d):
        # phi(t) = t^1.3 / 1.3 magnifies any rounding in |x - y| near 0, and a
        # plane formed as (f_k - <y_k, G_k>) + <x, G_k> cancels far from 0
        cases = []
        for _ in range(50):
            jet = random_feasible_jet(rng, d, 6)
            cases += [(Jet(jet.points + shift, jet.values, jet.gradients), HolderModulus(0.3))
                      for shift in (0.0, 1e4, 1e6)]
        if d == 1:      # the jet of a quadratic with f'(1000) = 1000.1, f'(1001.3) = 1003.7
            y, G = np.array([1000.0, 1001.3]), np.array([1000.1, 1003.7])
            cases.append((Jet(y, [0.3, 0.3 + 0.5 * (G[0] + G[1]) * (y[1] - y[0])], G), HolderModulus(0.5)))
        for jet, m in cases:
            gen = Generator(jet, m, 1.5 * compute_A(jet, m))
            assert np.array_equal(gen.value_many(jet.points), jet.values)
            assert np.array_equal(minorant(jet, jet.points), jet.values)

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

    @pytest.mark.parametrize("M", [np.nan, np.inf])
    def test_non_finite_M_rejected(self, M):
        with pytest.raises(ValueError, match="finite"):
            Generator(AFFINE_JET, LinearModulus(), M)


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
        model = build_envelope(gen, [-3.0], [3.0], 4001, lipschitz_cap=1.0)
        assert model.lipschitz_value([2.0]) == pytest.approx(1.5, abs=5e-3)
        assert model.lipschitz_value([0.5]) == pytest.approx(0.125, abs=5e-3)

    def test_equals_envelope_where_slopes_small(self):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 4001, lipschitz_cap=1.0)
        xs = np.linspace(-0.9, 0.9, 40)[:, None]
        assert np.allclose(model.lipschitz_value_many(xs), model.value_many(xs), atol=1e-12)

    def test_lipschitz_property(self, rng):
        gen = example_generator()
        L = 1.0
        model = build_envelope(gen, [-5.0], [5.0], 2001, lipschitz_cap=L)
        x = rng.uniform(-5, 5, size=(1000, 1))
        y = rng.uniform(-5, 5, size=(1000, 1))
        fx = model.lipschitz_value_many(x)
        fy = model.lipschitz_value_many(y)
        gap = np.abs(fx - fy) - L * np.abs(x - y)[:, 0]
        assert np.max(gap) <= 1e-9

    def test_below_envelope(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 2001, lipschitz_cap=1.0)
        x = rng.uniform(-5, 5, size=(500, 1))
        assert np.all(model.lipschitz_value_many(x) <= model.value_many(x) + 1e-12)

    def test_midpoint_convexity(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 2001, lipschitz_cap=1.0)
        x = rng.uniform(-5, 5, size=(1000, 1))
        y = rng.uniform(-5, 5, size=(1000, 1))
        mid = model.lipschitz_value_many((x + y) / 2.0)
        ends = (model.lipschitz_value_many(x) + model.lipschitz_value_many(y)) / 2.0
        assert np.all(mid <= ends + 1e-9)

    def test_low_cap_warns(self):
        gen = example_generator()
        with pytest.warns(UserWarning, match="below sup"):
            model = build_envelope(gen, [-5.0], [5.0], 201, lipschitz_cap=0.5)
        model.lipschitz_value([0.0])

    def test_slope_clipping_matches_vertex_minimum(self, rng):
        """The exact cap equals min(min_k y_k + L|x - x_k|, F(x)) bit for bit."""
        for n in (2, 3, 5, 8):
            jet = normalized_jet(rng, 1, n, HolderModulus(0.5))
            gen = Generator(jet, HolderModulus(0.5), 1.0)
            model = build_envelope(gen, *_box(jet), 1001)
            hx, hy = model.hull_x, model.hull_y
            slopes = np.diff(hy) / np.diff(hx)
            sup_g = sup_norm_gradients(jet)
            caps = (0.0, 0.5 * sup_g, sup_g, 2.0 * sup_g, 2.0 * np.max(np.abs(slopes)))
            for L in caps:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    model = build_envelope(gen, *_box(jet), 1001, lipschitz_cap=L)
                a = np.searchsorted(slopes, -L)
                b = np.searchsorted(slopes, L, side="right")
                near = hx[[a, b]][:, None] + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3])
                x = np.clip(np.concatenate([
                    hx, model.lo, model.hi, near.ravel(), rng.uniform(model.lo[0], model.hi[0], 500),
                ]), model.lo[0], model.hi[0])
                trav = hy[None, :] + L * np.abs(x[:, None] - hx[None, :])
                expected = np.minimum(np.min(trav, axis=1), np.interp(x, hx, hy))
                got = model.lipschitz_value_many(x[:, None])
                grid = model.lipschitz_values_grid(x[:, None])
                assert np.array_equal(got, expected)
                assert np.array_equal(grid, expected)

    def test_reuse_rule_is_slope_clipping(self, rng):
        """F_L = F where the hull segment holding x has |slope| <= L gives the
        clipped hull bit for bit, at every sample and around the vertices
        where the slopes cross -L and +L."""
        for n in (2, 3, 5, 8):
            jet = normalized_jet(rng, 1, n, HolderModulus(0.5))
            gen = Generator(jet, HolderModulus(0.5), 1.0)
            sup_g = sup_norm_gradients(jet)
            for L in (0.5 * sup_g, sup_g):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    model = build_envelope(gen, *_box(jet), 1001, lipschitz_cap=L)
                hx, hy = model.hull_x, model.hull_y
                slopes = np.diff(hy) / np.diff(hx)
                cross = hx[[np.searchsorted(slopes, -L), np.searchsorted(slopes, L, side="right")]]
                near = [np.nextafter(cross, -np.inf), cross, np.nextafter(cross, np.inf)]
                x = np.clip(np.concatenate([model.sample_x, *near]), model.lo[0], model.hi[0])
                F, F_L = model._value_and_lipschitz(x[:, None])
                assert F_L.tobytes() == model.lipschitz_value_many(x[:, None]).tobytes()
                assert np.any(F_L == F) and np.any(F_L < F)

    def test_capped_bulk_warns_once_per_call(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = build_envelope(example_generator(), [-5.0], [5.0], 201, lipschitz_cap=0.5)
            model.lipschitz_values_grid(np.zeros((3, 1)))
        assert len(caught) == 1

    def test_low_cap_warns_once_per_model(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = build_envelope(example_generator(), [-5.0], [5.0], 201, lipschitz_cap=0.5)
            model.lipschitz_value_many(np.zeros((3, 1)))
            model.lipschitz_value_many(np.ones((2, 1)))
            write_samples_csv(model, tmp_path / "capped.csv")
        assert [str(w.message) for w in caught] == [
            f"Lipschitz cap 0.5 is below sup|G| = {sup_norm_gradients(model.generator.jet)}; "
            "the capped envelope will not interpolate the jet"
        ]


class TestSmoothnessTransfer:
    """Midpoint smoothness of g survives in both envelope variants."""

    @pytest.mark.parametrize("capped", [False, True])
    def test_midpoint_inequality(self, rng, capped):
        jet = normalized_jet(rng, 1, 5, HolderModulus(0.5))
        gen = Generator(jet, HolderModulus(0.5), 1.0)
        cap = sup_norm_gradients(jet)
        model = build_envelope(gen, *_box(jet), 4001, lipschitz_cap=cap)
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
            ev = lambda t: model.lipschitz_value_many(t[:, None])
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
        model = build_envelope(gen, [-2.0, -2.0], [2.0, 2.0], 41, lipschitz_cap=1.0)
        assert model.value([1.0, 0.5]) == pytest.approx(0.625, abs=1e-6)
        assert model.lipschitz_value([1.5, 0.0]) == pytest.approx(1.0, abs=1e-3)

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
        model = build_envelope(gen, [-2.0] * 3, [2.0] * 3, 33, lipschitz_cap=1.0)
        x = np.array([1.0, 0.5, -0.25])
        assert model.value(x) == pytest.approx(float(np.sum(x**2)) / 2.0, abs=5e-3)
        assert model.lipschitz_value([1.5, 0.0, 0.0]) == pytest.approx(1.0, abs=5e-3)

    def test_dimension_cap(self):
        jet = Jet(np.zeros((1, 4)), [0.0], np.zeros((1, 4)))
        gen = Generator(jet, LinearModulus(), 1.0)
        with pytest.raises(ValueError):
            build_envelope(gen, [-1.0] * 4, [1.0] * 4, 33)
        with pytest.raises(ValueError):
            brute_force_envelope(Generator(Jet(np.zeros((1, 3)), [0.0], np.zeros((1, 3))), LinearModulus(), 1.0),
                                 np.zeros(3), 10, np.random.default_rng(0), -np.ones(3), np.ones(3))


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
                    mask, g, s, _ = gen._exposed(nodes, 0.0)
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
        mask, g, s, _ = Generator(jet, m, 1.5 * A)._exposed(pts, 0.0)
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
            nodes = model.grid_points[idx]
            assert np.allclose(model.value_many(nodes), model.generator.value_many(nodes),
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


class TestSolveWork:
    """The certified solve spends no work on rows that are done."""

    def _case(self):
        # a 4-point 2-D jet capped at sup|G| on the 65^2 grid of [-1, 1]^2
        m = HolderModulus(0.75)
        jet = random_feasible_jet(np.random.default_rng(13), 2, 4)
        return Generator(jet, m, compute_A(jet, m)), _grid(65, 2), sup_norm_gradients(jet)

    def test_no_conjugates_on_zero_rows(self, monkeypatch):
        gen, X, L = self._case()
        rows, conjugates = [], Generator._conjugates

        def spy(self, S, *args, **kwargs):
            rows.append(len(S))
            return conjugates(self, S, *args, **kwargs)

        monkeypatch.setattr(Generator, "_conjugates", spy)
        convex_combination_min(gen, X, L)
        assert rows and min(rows) > 0

    def test_kkt_newton_stops_when_it_stops_contracting(self, monkeypatch):
        gen, X, L = self._case()
        batches, certify, solve = [], lp._certify, np.linalg.solve

        def spy_certify(*args, **kwargs):
            batches.append(0)
            try:
                return certify(*args, **kwargs)
            finally:
                batches.append(None)

        def spy_solve(a, b):
            if batches and batches[-1] is not None:
                batches[-1] += 1
            return solve(a, b)

        monkeypatch.setattr(lp, "_certify", spy_certify)
        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        convex_combination_min(gen, X, L)
        counts = [b for b in batches if b is not None]
        assert counts and max(counts) <= 12

    def test_ranked_sets_spare_the_smoothed_start(self, monkeypatch):
        gen, X, L = self._case()
        done, _, s, _ = gen._exposed(X, -lp.TOL)
        unscreened = np.count_nonzero(~(done & (np.sqrt(np.sum(s * s, axis=1)) <= L * (1.0 + 1e-12))))
        rows, smoothed = [], lp._smoothed

        def spy(gen, X, *args):
            rows.append(len(X))
            return smoothed(gen, X, *args)

        monkeypatch.setattr(lp, "_smoothed", spy)
        convex_combination_min(gen, X, L)
        assert unscreened > 500 and sum(rows) < 0.15 * unscreened

    @pytest.mark.parametrize("capped", [False, True])
    def test_every_start_takes_the_ranked_set_and_the_exchange(self, monkeypatch, capped):
        # the screen's point, the ranked set there and the exchange settle every row
        gen, X, L = self._case()
        rows, smoothed = [], lp._smoothed
        monkeypatch.setattr(lp, "_smoothed", lambda gen, X, *args: rows.append(len(X)) or smoothed(gen, X, *args))
        convex_combination_min(gen, X, L if capped else None)
        assert rows == []

    def test_full_sets_swap_instead_of_restarting(self, monkeypatch):
        # a 30-point 2-D jet capped at sup|G| on the 65^2 grid of [-3, 3]^2:
        # without the ratio test's swap about 600 rows take a smoothed restart
        m = HolderModulus(0.5)
        jet = random_feasible_jet(np.random.default_rng(0), 2, 30)
        gen = Generator(jet, m, compute_A(jet, m))
        rows, smoothed = [], lp._smoothed
        monkeypatch.setattr(lp, "_smoothed", lambda gen, X, *args: rows.append(len(X)) or smoothed(gen, X, *args))
        convex_combination_min(gen, 3.0 * _grid(65, 2), sup_norm_gradients(jet))
        assert len(rows) <= 1 and sum(rows) <= 60

    def test_the_restart_ranks_no_second_set(self, monkeypatch):
        # 202 capped rows of the grid above, two of which reach the smoothed restart, at a
        # budget of 512: the stages run once per block of 512 // 6 open rows, and the
        # restart goes straight to every ranked set, so each stage block ranks once
        from convext import jet as jet_module
        m = HolderModulus(0.5)
        jet = random_feasible_jet(np.random.default_rng(0), 2, 30)
        gen = Generator(jet, m, compute_A(jet, m))
        ranked, rows = [], []
        rank, smoothed = lp._ranked, lp._smoothed
        monkeypatch.setattr(jet_module, "_BUDGET", 512)
        monkeypatch.setattr(lp, "_ranked", lambda gen, X, *args: ranked.append(len(X)) or rank(gen, X, *args))
        monkeypatch.setattr(lp, "_smoothed", lambda gen, X, *args: rows.append(len(X)) or smoothed(gen, X, *args))
        F = convex_combination_min(gen, 3.0 * _grid(65, 2)[::21], sup_norm_gradients(jet))[0]     # raises if open
        stage = 512 // 6
        assert sum(rows) > 0 and np.all(np.isfinite(F))
        assert sum(ranked) > stage and max(ranked) <= stage and len(ranked) == -(-sum(ranked) // stage)

    def test_a_start_off_the_cap_also_tries_the_sphere(self, monkeypatch):
        # rr(200, 2, 5) of bench/inputs.py with points x 1e4 and G / 1e4, Hoelder 0.75:
        # the query's smoothed start lies off the cap, where KKT Newton on {top piece,
        # cap} from cap weight 0 ends at another stationary point; _on_cap closes it
        P = 1e4 * np.array([[0.05346579978357813, -0.7728287135885128], [-0.7175177081145412, -0.10630456787058407],
                            [0.00298253124153125, 0.570727761744996], [-0.9176384824210126, -0.45611976846977353],
                            [0.6993770333997364, 0.8393576945366492]])
        f = [0.07574669719236933, 0.6225251234313232, 0.6399964451527209, 0.888724872656921, 1.2967563512085403]
        G = np.array([[-0.18721636430604988, -0.4071861366711027], [-1.312075252581869, 0.32980518714756796],
                      [-0.17849253241205, 1.2666493068286402], [-1.6701267809043117, -0.14529295968009212],
                      [0.9503564613509268, 1.6617387800189223]]) / 1e4
        jet, m = Jet(P, f, G), HolderModulus(0.75)
        rows, solve = [], lp._solve
        monkeypatch.setattr(lp, "_solve", lambda gen, X, *args: rows.append(len(X)) or solve(gen, X, *args))
        x = [[-9152.28994267356, 7965.707102396835]]
        convex_combination_min(Generator(jet, m, compute_A(jet, m)), x, sup_norm_gradients(jet))     # raises if open
        assert rows == [1]

    def test_a_row_with_no_candidate_takes_no_add(self, monkeypatch):
        # both pieces of the jet of |x|^2 / 2 fill the set and no sphere is reached:
        # with every bracket open, the add rule has nothing left to put in
        jet = Jet([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.5], [[0.0, 0.0], [1.0, 0.0]])
        sets, certify = [], lp._certify

        def spy(*args):
            sets.append(args[5])
            F, S, width, mult = certify(*args)
            return F, S, np.full_like(width, np.inf), mult

        monkeypatch.setattr(lp, "_certify", spy)
        with pytest.raises(CertificationError):
            convex_combination_min(Generator(jet, LinearModulus(), 3.0), [[0.5, 0.0], [0.45, 0.3], [0.55, -0.2]])
        assert sets
        for elem in sets:
            for row in elem:
                assert len(set(row[row >= 0])) == np.count_nonzero(row >= 0)

    def test_cap_bound_rows_build_no_kkt_system(self, monkeypatch):
        gen, X, L = self._case()
        n, calls, sets = gen.jet.size, [], []       # calls: [rows, steps, linear solves] per sphere stage
        in_stage, in_ranked = [], []
        ranked, on_cap, certify, moving, solve = lp._ranked, lp._on_cap, lp._certify, lp._moving, np.linalg.solve

        def spy_ranked(*args):
            in_ranked.append(True)
            try:
                return ranked(*args)
            finally:
                in_ranked.pop()

        def spy_on_cap(gen, X, *args):
            calls.append([len(X), 0, 0])
            in_stage.append(True)
            try:
                return on_cap(gen, X, *args)
            finally:
                in_stage.pop()

        def spy_certify(gen, X, S, L, spheres, elem, *args):
            if in_ranked:
                sets.append(elem)
            return certify(gen, X, S, L, spheres, elem, *args)

        def spy_moving(*args):
            if in_stage:
                calls[-1][1] += 1
            return moving(*args)

        def spy_solve(a, b):
            if in_stage:
                calls[-1][2] += 1
            return solve(a, b)

        for name, spy in (("_ranked", spy_ranked), ("_on_cap", spy_on_cap), ("_certify", spy_certify),
                          ("_moving", spy_moving)):
            monkeypatch.setattr(lp, name, spy)
        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        convex_combination_min(gen, X, L)
        assert sum(c[0] for c in calls) > 50 and sets
        assert max(c[1] for c in calls) <= 12 and sum(c[2] for c in calls) == 0
        # stage 2 sends KKT Newton no set of the cap and one piece
        for elem in sets:
            pieces = np.sum((elem >= 0) & (elem < n), axis=1)
            assert not np.any(np.any(elem == n, axis=1) & (pieces < 2))

    def test_ball_mask_is_the_squared_distance_rule(self, rng):
        m = random_concave_table(rng, coercive=False)
        jet = normalized_jet(rng, 2, 5, m, spread=0.8)
        gen = Generator(jet, m, 1.3)
        R = gen.radius * (1.0 + 1e-12)
        assert np.isfinite(R)
        G = jet.gradients
        u = rng.normal(size=(600, 2))
        u /= np.sqrt(np.sum(u * u, axis=1, keepdims=True))
        k = rng.integers(0, jet.size, size=600)
        edge = G[k] + R * u
        S = np.vstack([rng.uniform(G.min(axis=0) - R, G.max(axis=0) + R, size=(600, 2)),
                       edge, np.nextafter(edge, edge + u), np.nextafter(edge, edge - u)])

        def old(S, G):
            V = S[:, None, :] - G[None, :, :]
            return np.all(np.sum(V * V, axis=2) <= R ** 2, axis=1)

        every = gen._conjugates(S, inside=True)[1]
        assert np.array_equal(every, old(S, G)) and 0 < np.count_nonzero(every) < len(S)
        # one ball per row: the rows on and next to its sphere fall on both sides
        K = np.concatenate([rng.integers(0, jet.size, size=600), k, k, k])
        own = gen._conjugates(S, K[:, None], inside=True)[1]
        assert np.array_equal(own, [old(s[None], G[j][None])[0] for s, j in zip(S, K)])
        assert 0 < np.count_nonzero(own[600:]) < 1800


class TestRatioTest:
    """In a full set the element that comes in takes the slot with the least
    weight / beta over beta > 0, where beta writes its column in the set's."""

    def _slots(self, elem, mult, enter):
        # affine pieces (M = 0, so z_k = y_k) with p3 = -p0 / 4 + p1 / 2 + 3 p2 / 4,
        # and at s = 0 the normals (1, 0), (0, 1), (-1, 0) and (1, 1) / sqrt(2)
        jet = Jet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.75]], np.zeros(4), np.zeros((4, 2)))
        spheres = (np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [-1.0, -1.0]]), np.ones(4), np.zeros(4, bool))
        return lp._ratio_test(Generator(jet, LinearModulus(), 0.0), np.zeros((len(elem), 2)), spheres,
                              np.array(elem), np.array(mult, dtype=float), np.array(enter)).tolist()

    def test_least_ratio_leaves(self):
        # piece 3 has beta (-1/4, 1/2, 3/4) in pieces (0, 1, 2): ratios 0.6 and 2/3,
        # then 1 and 0.4, then (set order 2, 0, 1) 0.4 and 1
        assert self._slots([[0, 1, 2], [0, 1, 2], [2, 0, 1]], [[0.2, 0.3, 0.5], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
                           [3, 3, 3]) == [1, 2, 0]
        # sphere 3 (element 7) has beta (0, 1, 1) / sqrt(2) in (piece 0, spheres 0 and 1);
        # piece 1 has beta (1, 1, 0) there, so a piece may leave for a piece
        assert self._slots([[0, 4, 5], [0, 4, 5]], [[1.0, 0.2, 0.4], [0.5, 1.0, 1.0]], [7, 1]) == [1, 0]

    def test_no_positive_beta_no_swap(self):
        # sphere 2's normal is minus sphere 0's: beta = (0, -1, 0)
        assert self._slots([[0, 4, 5]], [[1.0, 0.5, 0.5]], [6]) == [-1]

    def test_last_piece_never_leaves_for_a_sphere(self, monkeypatch):
        # its beta is 0 but for rounding; were it positive, its ratio would be
        # the least, and it is when a piece comes in
        monkeypatch.setattr(np.linalg, "solve", lambda C, b: np.array([[[1e-3], [-1.0], [0.0]]] * len(C)))
        assert self._slots([[0, 4, 5], [0, 4, 5]], [[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], [6, 1]) == [-1, 0]


def _smoothed_path(gen, X, L):
    """F at the rows of X from the screen and the smoothed starts alone."""
    done, g, s, _ = gen._exposed(X, -lp.TOL)
    if L is not None:
        done &= np.sqrt(np.sum(s * s, axis=1)) <= L * (1.0 + 1e-12)
    F, width, rest = g.copy(), np.zeros(len(X)), np.flatnonzero(~done)
    if rest.size:
        F[rest], _, width[rest] = lp._solve(gen, X[rest] - gen._origin, g[rest], s[rest], L)
        rest = rest[~(width[rest] <= lp.TOL * (1.0 + np.abs(g[rest])))]
    assert rest.size == 0
    return F, g, ~done


class TestRanking:
    """``_ranking`` is the first two columns of a stable argsort of -g_k*(s)."""

    def test_ties_and_nan_follow_the_stable_argsort(self, monkeypatch):
        from types import SimpleNamespace
        from convext import jet as jet_module
        c = np.array([[1.0, 3.0, 3.0, 2.0], [np.nan, 1.0, 1.0, 0.5], [2.0, np.nan, np.nan, np.nan],
                      [np.nan, np.nan, np.nan, np.nan], [np.inf, 0.0, np.inf, np.nan], [0.5, 0.5, 0.5, 0.5],
                      [np.nan, 0.5, np.nan, 0.5], [0.0, np.nan, 1.0, 1.0]])
        monkeypatch.setattr(jet_module, "_BUDGET", 8)      # blocks of two rows
        for cols in (c, c[:, :1]):
            gen = SimpleNamespace(jet=SimpleNamespace(size=cols.shape[1]),
                                  _conjugates=lambda S, full, cols=cols: cols[S[:, 0].astype(int)].copy())
            got = lp._ranking(gen, np.arange(len(cols), dtype=float)[:, None])
            assert np.array_equal(got, np.argsort(-cols, axis=1, kind="stable")[:, :2])


class TestRankedStart:
    """The first active sets, ranked at the screen's point, are a guess: a
    wrong one costs time and never changes a certified value."""

    def _cases(self, rng):
        for d in (2, 3):
            for kind in ("linear", "holder", "bounded"):
                m = {"linear": LinearModulus(), "holder": HolderModulus(float(rng.uniform(0.4, 0.9))),
                     "bounded": random_concave_table(rng, coercive=False)}[kind]
                for n in (1, 5):
                    if n == 1:
                        jet, M = random_feasible_jet(rng, d, 1, spread=0.8), 1.0
                    else:
                        jet, M = normalized_jet(rng, d, n, m, spread=0.8), 1.3
                    gen = Generator(jet, m, M)
                    top, low = sup_norm_gradients(jet), np.min(np.sqrt(np.sum(jet.gradients ** 2, axis=1)))
                    X = rng.uniform(-3.0, 3.0, size=(300, d))
                    # below sup|G| the cap still holds a G_k, which lies in every ball
                    for L in (None, top, max(0.6 * top, low)):
                        yield gen, X, L

    def test_agrees_with_the_smoothed_path(self, rng):
        unscreened = 0
        for gen, X, L in self._cases(rng):
            F = convex_combination_min(gen, X, L)[0]
            ref, g, rest = _smoothed_path(gen, X, L)
            unscreened += np.count_nonzero(rest)
            assert np.all(np.abs(F - ref) <= lp.TOL * (1.0 + np.abs(g)))
        assert unscreened > 1000

    def test_reversed_ranking_still_certifies(self, rng, monkeypatch):
        cases = list(self._cases(rng))
        expected = [convex_combination_min(gen, X, L)[0] for gen, X, L in cases]
        # worst first: the last two pieces of the stable descending order, lowest g_k*(s) on top
        monkeypatch.setattr(lp, "_ranking", lambda gen, S: np.argsort(-gen._conjugates(S, full=False), axis=1,
                                                                       kind="stable")[:, ::-1][:, :2])
        for (gen, X, L), F in zip(cases, expected):
            g = gen.value_many(X)
            assert np.all(np.abs(convex_combination_min(gen, X, L)[0] - F) <= lp.TOL * (1.0 + np.abs(g)))

    def test_sphere_newton_matches_kkt_newton_on_the_cap(self, rng, monkeypatch):
        rows, steps, moving = 0, [], lp._moving
        monkeypatch.setattr(lp, "_moving", lambda *args: steps.append(1) or moving(*args))
        for gen, X, L in self._cases(rng):
            if L is None:
                continue
            (Q, d), n = X.shape, gen.jet.size
            _, g, s, _ = gen._exposed(X, -lp.TOL)
            bind = np.flatnonzero(np.sqrt(np.sum(s * s, axis=1)) > L)
            S, Xc, tol = lp._onto_cap(s[bind], L), X[bind] - gen._origin, lp.TOL * (1.0 + np.abs(g[bind]))
            top, spheres = lp._ranking(gen, S)[:, 0], lp._spheres(gen, L)
            steps.clear()
            F, _, width = lp._on_cap(gen, Xc, S, L, spheres, top)
            assert len(steps) <= 12
            elem = np.column_stack([top, np.full(bind.size, n), np.full((bind.size, d - 1), -1)])
            ref, _, ref_width, _ = lp._certify(gen, Xc, S, L, spheres, elem)
            both = (width <= tol) & (ref_width <= tol)
            # from the same start it certifies every row KKT Newton on {top, cap} does, to the same value
            assert np.array_equal(both, ref_width <= tol)
            assert np.all(np.abs(F - ref)[both] <= tol[both])
            rows += np.count_nonzero(both)
        assert rows > 3000

    def test_rows_off_the_sphere_set_leave_the_stage_open(self, monkeypatch):
        # alpha <= 0 or alpha + beta <= 0 means {top piece, cap} is the wrong set
        wrong, on_cap = [], lp._on_cap

        def spy(gen, X, S, L, spheres, k):
            _, Z, _, a, b = gen._conjugates(S, k[:, None])
            alpha = a[:, 0] + np.sum(S * (X - Z[:, 0]), axis=1) / L ** 2
            off = (alpha <= 0) | (alpha + b[:, 0] - a[:, 0] <= 0)
            F, Sout, width = on_cap(gen, X, S, L, spheres, k)
            # such a row takes no step and leaves open
            g = gen.value_many(X[off] + gen._origin)
            assert np.array_equal(Sout[off], lp._onto_cap(S[off], L))
            assert np.all(width[off] > lp.TOL * (1.0 + np.abs(g)))
            wrong.append(np.count_nonzero(off))
            return F, Sout, width

        monkeypatch.setattr(lp, "_on_cap", spy)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            m = HolderModulus(0.6)
            jet = normalized_jet(rng, 2, 5, m, spread=0.8)
            gen, X = Generator(jet, m, 1.3), rng.uniform(-3.0, 3.0, size=(300, 2))
            L = 0.6 * sup_norm_gradients(jet)
            F = convex_combination_min(gen, X, L)[0]        # raises if a row stays open
            ref, g, _ = _smoothed_path(gen, X, L)
            assert np.all(np.abs(F - ref) <= lp.TOL * (1.0 + np.abs(g)))
        assert sum(wrong) > 0


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
            tight = build_envelope(gen, lo, hi, 33, lipschitz_cap=1.0)
        wide = build_envelope(gen, lo - 5.0, hi + 5.0, 65, lipschitz_cap=1.0)
        X = np.vstack([rng.uniform(lo, hi, size=(200, 2)), jet.points])
        assert np.array_equal(tight.value_many(X), wide.value_many(X))
        assert np.array_equal(tight.lipschitz_value_many(X), wide.lipschitz_value_many(X))


class TestCsvExport:
    def test_columns_and_determinism(self, tmp_path):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 201, lipschitz_cap=1.0)
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
        model = build_envelope(gen, [-1.5, -1.5], [1.5, 1.5], 33, lipschitz_cap=1.0)
        path = tmp_path / "d2.csv"
        write_samples_csv(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,g,m,F,F_L"
        assert len(lines) == 1 + 33 * 33
        data = np.loadtxt(lines[1:], delimiter=",")
        # row-major order: the second coordinate varies fastest
        assert data[0, 0] == data[1, 0] and data[0, 1] != data[1, 1]
        assert np.all(data[:, 5] <= data[:, 4] + 1e-9)   # F_L <= F
        assert np.all(data[:, 3] <= data[:, 4] + 1e-7)   # m <= F

    def test_2d_capped_column_reuses_the_uncapped_solve(self, tmp_path, monkeypatch):
        # F_L = F where |s*| <= L; only the other rows take a capped solve
        rng = np.random.default_rng(21)
        value, grad = random_convex_function(rng, 2)
        P = rng.uniform(-1.0, 1.0, (6, 2))
        jet, m = Jet(P, value(P), grad(P)), HolderModulus(0.75)
        L = sup_norm_gradients(jet)
        model = build_envelope(Generator(jet, m, compute_A(jet, m)), *_box(jet), 33, lipschitz_cap=L)
        X = model.grid_points
        _, S = convex_combination_min(model.generator, X)
        near = np.sqrt(np.sum(S * S, axis=1)) <= L
        assert 0 < np.sum(near) < len(X)
        capped, original = [], lp.convex_combination_min
        monkeypatch.setattr("convext.envelope.convex_combination_min",
                            lambda gen, Q, L=None: (L is not None and capped.append(Q.copy())) or original(gen, Q, L))
        write_samples_csv(model, tmp_path / "capped.csv")
        assert len(capped) == 1 and np.array_equal(capped[0], X[~near])
        data = np.loadtxt(tmp_path / "capped.csv", delimiter=",", skiprows=1)
        g, F, F_L = data[:, 2], data[:, 4], data[:, 5]
        assert np.array_equal(F_L[near], F[near])
        reference = original(model.generator, X, L)[0]
        assert np.all(np.abs(F_L - reference) <= lp.TOL * (1.0 + np.abs(g)))


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


class TestRowBlocks:
    """Every (queries, pieces) kernel runs in row blocks of ``jet._blocks``."""

    BUDGET = 512

    def _evaluations(self):
        rng = np.random.default_rng(12)
        jet2 = random_feasible_jet(rng, 2, 30)
        m = HolderModulus(0.6)
        gen2 = Generator(jet2, m, 1.5 * compute_A(jet2, m))
        X2 = rng.uniform(-1.5, 1.5, size=(200, 2))
        L = 0.8 * sup_norm_gradients(jet2)
        jet1 = random_feasible_jet(rng, 1, 40)
        model1 = build_envelope(Generator(jet1, m, 1.5 * compute_A(jet1, m)), [-4.0], [4.0], 401)
        X1 = np.linspace(-4.0, 4.0, 300)[:, None]
        concave = Jet(jet2.points, -jet2.values, -jet2.gradients)    # fails (C) in every block
        grid = dense_restriction_jet(rng, 150)      # front-heavy: many blocks share the buckets
        P = rng.uniform(-1.0, 1.0, size=(40, 2))
        quadratic = Jet(P, 0.5 * np.sum(P * P, axis=1), P)    # most pairs stay on the front
        return [
            lambda: feasibility_report(grid, m).to_json(),
            lambda: feasibility_report(quadratic, m).to_json(),
            lambda: delta_many(grid, np.geomspace(1e-3, 3.0, 40)),
            lambda: build_construction(grid).to_json(),
            lambda: feasibility_report(jet2, m).to_json(),
            lambda: feasibility_report(concave, m).to_json(),
            lambda: compute_A(jet2, m),
            lambda: lip_omega_gradients(jet2, m),
            lambda: gen2.value_many(X2),
            lambda: minorant(jet2, X2),
            lambda: jet2.diameter(),
            lambda: model1.gradient_many(X1),
            lambda: convex_combination_min(gen2, X2),
            lambda: convex_combination_min(gen2, X2, L),
        ]

    def test_small_budget_gives_the_same_bits(self, monkeypatch):
        from convext import envelope, jet
        evaluations = self._evaluations()
        whole = [run() for run in evaluations]
        sizes = []
        pieces, planes, dist = Generator._pieces, envelope._planes, jet._pairwise_dist

        def spy_pieces(self, X):
            sizes.append(len(X) * self.jet.size)
            return pieces(self, X)

        def spy_planes(P, f, G, X):
            sizes.append(len(X) * len(P))
            return planes(P, f, G, X)

        def spy_dist(X, P):
            sizes.append(len(X) * len(P))
            return dist(X, P)

        monkeypatch.setattr(jet, "_BUDGET", self.BUDGET)
        monkeypatch.setattr(Generator, "_pieces", spy_pieces)
        monkeypatch.setattr(envelope, "_planes", spy_planes)
        monkeypatch.setattr(jet, "_planes", spy_planes)          # the verdict
        monkeypatch.setattr(jet, "_pairwise_dist", spy_dist)     # Jet.diameter, the pair pass
        for run, expected in zip(evaluations, whole):
            got = run()
            pairs = zip(got, expected) if isinstance(got, tuple) else [(got, expected)]
            assert all(np.array_equal(a, b) for a, b in pairs)
        assert sizes and max(sizes) <= self.BUDGET
