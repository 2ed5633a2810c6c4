import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convext.modulus import (
    HolderModulus,
    LinearModulus,
    NonCoerciveModulusError,
    ScaledModulus,
    TableModulus,
    modulus_from_json,
    modulus_to_json,
    parse_modulus_spec,
    validate_modulus,
)

from conftest import random_concave_table, random_modulus


class TestEvaluations:
    def test_omega_values(self):
        assert HolderModulus(0.5).omega(4.0) == pytest.approx(2.0)
        assert LinearModulus().omega(0.7) == pytest.approx(0.7)
        tab = TableModulus([[0, 0], [1, 1], [3, 2]])
        assert tab.omega(2.0) == pytest.approx(1.5)

    def test_phi_values(self):
        assert HolderModulus(0.5).phi(1.0) == pytest.approx(2.0 / 3.0)
        assert LinearModulus().phi(2.0) == pytest.approx(2.0)
        tab = TableModulus([[0, 0], [1, 1]])  # extrapolates with slope 1
        assert tab.phi(1.0) == pytest.approx(0.5)
        assert tab.phi(3.0) == pytest.approx(4.5)

    def test_omega_inverse_values(self):
        assert HolderModulus(0.5).omega_inv(3.0) == pytest.approx(9.0)
        assert LinearModulus().omega_inv(5.0) == pytest.approx(5.0)
        assert HolderModulus(1.0).omega_inv(0.0) == 0.0

    def test_phi_star_values(self):
        # closed form s^(1 + 1/alpha) / (1 + 1/alpha) at alpha = 1/2, s = 1
        assert HolderModulus(0.5).phi_star(1.0) == pytest.approx(1.0 / 3.0)
        assert LinearModulus().phi_star(2.0) == pytest.approx(2.0)
        assert random_concave_table(np.random.default_rng(7)).phi_star(0.0) == 0.0

    def test_negative_arguments_rejected(self):
        m = HolderModulus(0.5)
        for fn in (m.omega, m.phi, m.omega_inv, m.phi_star):
            with pytest.raises(ValueError):
                fn(-0.1)

    def test_non_coercive_conjugate_rejected(self):
        flat = TableModulus([[0, 0], [1, 1], [2, 1]])
        assert not flat.coercive
        with pytest.raises(NonCoerciveModulusError):
            flat.omega_inv(0.5)
        with pytest.raises(NonCoerciveModulusError):
            flat.phi_star(0.5)

    def test_vectorized_matches_scalar(self):
        m = random_concave_table(np.random.default_rng(3))
        ts = np.linspace(0, 12, 50)
        assert np.allclose(m.omega(ts), [m.omega(t) for t in ts])
        assert np.allclose(m.phi(ts), [m.phi(t) for t in ts])
        ss = np.linspace(0, m.omega(12.0), 30)
        assert np.allclose(m.omega_inv(ss), [m.omega_inv(s) for s in ss])
        assert np.allclose(m.phi_star(ss), [m.phi_star(s) for s in ss])

    def test_table_inverse_is_exact(self):
        m = random_concave_table(np.random.default_rng(11))
        ts = np.linspace(0.0, 20.0, 200)
        assert np.allclose(m.omega_inv(m.omega(ts)), ts, atol=1e-10)


class TestValidation:
    def test_holder_grid_clean(self):
        rep = validate_modulus(HolderModulus(0.5), [0.1, 1.0, 10.0])
        assert rep.ok

    def test_linear_grid_clean(self):
        rep = validate_modulus(LinearModulus(), [1.0, 2.0])
        assert rep.ok
        # phi(2) = 2 satisfies (t/2) omega(t) = 2 <= 2 <= t omega(t/2) = 2
        assert LinearModulus().phi(2.0) == pytest.approx(2.0)

    def test_corrupted_table_fires_concavity(self):
        # convex kink at t = 1: slope jumps from 1 to 3
        bad = TableModulus([[0, 0], [1, 1], [2, 4]], validate=False)
        rep = validate_modulus(bad, [0.5, 1.0, 1.5, 2.0])
        assert not rep.ok
        assert any(issue.check == "concave" for issue in rep.issues)
        # issues come check by check; the paired bounds alternate point by point
        pinned = (
            [("concave", (0.5, 1.0, 1.5))]
            + [("subhomogeneous", p) for p in [(0.5, 1.5), (0.5, 2.0), (1.0, 1.5), (1.0, 2.0), (1.5, 2.0)]]
            + [(c, (t,)) for t in (1.5, 2.0) for c in ("phi_lower", "phi_upper")]
            + [(c, (t,)) for t in (1.5, 2.0) for c in ("phi_star_lower", "phi_star_upper")]
        )
        assert [(i.check, i.where) for i in rep.issues] == pinned
        # a table that also decreases fails every check kind
        worse = TableModulus([[0, 0], [1, 2], [2, 1], [3, 4]], validate=False)
        rep = validate_modulus(worse, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        pinned = (
            [("monotone", (1.0, 1.5)), ("monotone", (1.5, 2.0)), ("concave", (1.5, 2.0, 2.5))]
            + [("subhomogeneous", p) for p in [(1.5, 3.0), (2.0, 2.5), (2.0, 3.0), (2.5, 3.0)]]
            + [("phi_lower", (3.0,)), ("phi_upper", (3.0,))]
            + [("phi_star_lower", (t,)) for t in (1.0, 1.5, 2.0, 2.5, 3.0)]
            + [("phi_star_upper", (3.0,))]
            + [("conjugacy_equality", (t,)) for t in (0.5, 1.0, 1.5)]
        )
        assert [(i.check, i.where) for i in rep.issues] == pinned

    def test_random_moduli_pass_suite(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = random_modulus(rng)
            grid = np.sort(rng.uniform(0.0, 15.0, size=20))
            rep = validate_modulus(m, grid)
            assert rep.ok, [str(i) for i in rep.issues]

    def test_fenchel_young_grid(self):
        rng = np.random.default_rng(9)
        for m in (HolderModulus(0.4), LinearModulus(), random_concave_table(rng)):
            t = rng.uniform(0.0, 10.0, size=50)
            s = rng.uniform(0.0, float(m.omega(12.0)), size=50)
            lhs = m.phi(t)[:, None] + m.phi_star(s)[None, :]
            assert np.all(lhs >= np.outer(t, s) - 1e-9)

    def test_conjugacy_equality_at_omega(self):
        rng = np.random.default_rng(13)
        for m in (HolderModulus(0.7), random_concave_table(rng), ScaledModulus(LinearModulus(), 3.0)):
            t = rng.uniform(0.0, 8.0, size=40)
            w = m.omega(t)
            resid = m.phi(t) + m.phi_star(w) - t * w
            assert np.all(np.abs(resid) <= 1e-8 * (1.0 + np.abs(t * w)))


class TestPairSolutions:
    def test_conjugate_root_and_ratio_argmax(self):
        """sigma solves phi_star(sigma) = rho sigma, and no point of a dense
        grid beats r* (or the bounded tail limit) on (r - rho) / phi(r)."""
        rng = np.random.default_rng(17)
        rho = np.geomspace(1e-3, 1e3, 41)
        grid = np.geomspace(1e-5, 1e6, 4000)
        for m in (HolderModulus(0.4), LinearModulus(), random_concave_table(rng),
                  random_concave_table(rng, coercive=False),
                  ScaledModulus(random_concave_table(rng), 2.5),
                  ScaledModulus(HolderModulus(0.7), 0.3)):
            if m.coercive:
                sigma = m._conjugate_root(rho)
                assert np.allclose(m.phi_star(sigma), rho * sigma, rtol=1e-12, atol=0.0)
            r = m._ratio_argmax(rho)
            at_r = (r - rho) / m.phi(r)
            sampled = np.max((grid[None, :] - rho[:, None]) / m.phi(grid)[None, :], axis=1)
            assert np.all(sampled <= np.maximum(at_r, 1.0 / m.omega_sup) * (1.0 + 1e-12))
            assert np.all(sampled >= at_r - 1e-4 * np.abs(at_r))


@given(alpha=st.floats(0.05, 1.0), factor=st.floats(0.1, 10.0),
       t=st.floats(0.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_scaling_identity(alpha, factor, t):
    """Scaling omega by a factor scales phi by the same factor pointwise."""
    base = HolderModulus(alpha)
    scaled = ScaledModulus(base, factor)
    assert scaled.phi(t) == pytest.approx(factor * base.phi(t), rel=1e-12, abs=1e-300)


@given(alpha=st.floats(0.05, 1.0), t=st.floats(1e-6, 30.0), lam=st.floats(1.0, 20.0))
@settings(max_examples=200, deadline=None)
def test_subhomogeneity(alpha, t, lam):
    m = HolderModulus(alpha)
    assert m.omega(lam * t) <= lam * m.omega(t) * (1 + 1e-12)


@given(t=st.floats(1e-9, 100.0))
@settings(max_examples=200, deadline=None)
def test_phi_sandwich_linear_table(t):
    for m in (LinearModulus(), TableModulus([[0, 0], [1, 1], [4, 2.5]])):
        w, phi = m.omega(t), m.phi(t)
        assert 0.5 * t * w <= phi * (1 + 1e-12) + 1e-15
        assert phi <= t * m.omega(t / 2.0) * (1 + 1e-12) + 1e-15


class TestConstruction:
    def test_table_must_start_at_origin(self):
        with pytest.raises(ValueError):
            TableModulus([[0.5, 0.1], [1, 1]])

    def test_table_rejects_convex_kink(self):
        with pytest.raises(ValueError):
            TableModulus([[0, 0], [1, 1], [2, 4]])

    def test_table_rejects_decreasing(self):
        with pytest.raises(ValueError):
            TableModulus([[0, 0], [1, 1], [2, 0.5]])

    def test_holder_alpha_range(self):
        with pytest.raises(ValueError):
            HolderModulus(0.0)
        with pytest.raises(ValueError):
            HolderModulus(1.5)

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            ScaledModulus(LinearModulus(), -1.0)

    def test_holder_metadata(self):
        m = ScaledModulus(ScaledModulus(HolderModulus(0.5), 2.0), 3.0)
        assert m.holder_exponent == 0.5
        assert m.holder_scale == pytest.approx(6.0)
        assert random_concave_table(np.random.default_rng(1)).holder_exponent is None


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for m in (HolderModulus(0.25), LinearModulus(), random_concave_table(rng),
                  ScaledModulus(HolderModulus(0.8), 2.5)):
            m2 = modulus_from_json(modulus_to_json(m))
            ts = np.linspace(0, 9, 30)
            assert np.allclose(m.omega(ts), m2.omega(ts))
            assert np.allclose(m.phi(ts), m2.phi(ts))

    def test_parse_specs(self, tmp_path):
        assert parse_modulus_spec("linear").holder_exponent == 1.0
        assert parse_modulus_spec("holder:0.5").alpha == 0.5
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"type": "table", "knots": [[0, 0], [1, 1]]}))
        assert parse_modulus_spec(f"table:{path}").coercive

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_modulus_spec("exp:2")
        with pytest.raises(ValueError):
            modulus_from_json({"kind": "holder"})
