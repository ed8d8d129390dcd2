"""Geometric channel model: steering vectors, path sampling, assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpchan.channel_sim import (
    CARRIER_HZ,
    DISTANCE_M,
    SPEED_OF_LIGHT,
    GeometricChannel,
    PathParams,
    assemble,
    assemble_all,
    path_gain_variance,
    sample_channel,
    steering_from_sin,
    synthesize,
)


def steering(theta, n):
    """Array response at angle theta (both sides share the ULA form)."""
    return steering_from_sin(np.sin(theta), n)


class TestSteering:
    def test_theta_zero_all_ones(self):
        for n in (1, 4, 16):
            np.testing.assert_allclose(steering(0.0, n), np.full(n, 1 / np.sqrt(n)), atol=1e-14)

    def test_two_element_broadside(self):
        v = steering(np.pi / 2, 2)
        np.testing.assert_allclose(v, np.array([1, -1]) / np.sqrt(2), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(0, 2 * np.pi), n=st.integers(1, 64))
    def test_unit_norm(self, theta, n):
        assert np.linalg.norm(steering(theta, n)) == pytest.approx(1.0)

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError):
            steering(0.0, 0)


class TestPathGainVariance:
    def test_operating_point(self):
        rho = (4 * np.pi * 50.0 * 28e9 / SPEED_OF_LIGHT) ** 2
        assert path_gain_variance(64, 32, 28e9, 50.0) == pytest.approx(64 * 32 / rho)


class TestSampleChannel:
    def test_deterministic_under_seed(self):
        a = sample_channel(np.random.default_rng(5), 2, (1, 2), 8, 4)
        b = sample_channel(np.random.default_rng(5), 2, (1, 2), 8, 4)
        for Ha, Hb in zip(assemble_all(a), assemble_all(b)):
            np.testing.assert_array_equal(Ha, Hb)

    def test_shapes_and_counts(self):
        ch = sample_channel(np.random.default_rng(0), 3, (1, 2, 2), 8, 4)
        assert ch.n_users == 3
        assert ch.paths_per_user == [1, 2, 2]
        assert assemble(ch, 0).shape == (8, 4)

    def test_angles_in_range(self):
        ch = sample_channel(np.random.default_rng(1), 4, (2, 2, 2, 2), 8, 4)
        for p in sum(ch.users, ()):
            assert 0 <= p.aoa <= 2 * np.pi
            assert 0 <= p.aod <= 2 * np.pi

    def test_gain_variance_monte_carlo(self):
        # empirical variance over 1e5 draws within 5% of the closed form
        rng = np.random.default_rng(2)
        n_draws = 100_000
        ch = sample_channel(rng, 1, (n_draws,), 2, 2)
        gains = np.array([p.gain for p in ch.users[0]])
        target = path_gain_variance(2, 2, CARRIER_HZ, DISTANCE_M)
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(target, rel=0.05)
        assert abs(np.mean(gains)) < 3 * np.sqrt(target / n_draws)

    def test_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_channel(rng, 2, (1,), 8, 4)  # length mismatch
        with pytest.raises(ValueError):
            sample_channel(rng, 1, (0,), 8, 4)  # empty path list


class TestAssemble:
    def test_single_unit_gain_path_rank_one(self):
        ch = GeometricChannel(
            users=((PathParams(1.0 + 0j, 0.3, 1.1),),), n_bs=8, n_ms=4
        )
        H = assemble(ch, 0)
        expected = np.outer(steering(0.3, 8), steering(1.1, 4))
        np.testing.assert_allclose(H, expected, atol=1e-14)
        assert np.linalg.matrix_rank(H) == 1

    def test_zero_gains_zero_matrix(self):
        ch = GeometricChannel(
            users=((PathParams(0j, 0.3, 1.1), PathParams(0j, 2.0, 0.5)),), n_bs=8, n_ms=4
        )
        assert np.all(assemble(ch, 0) == 0)

    def test_direct_summation_oracle(self):
        ch = sample_channel(np.random.default_rng(3), 2, (2, 3), 8, 4)
        for u in range(2):
            expected = sum(
                p.gain * np.outer(steering(p.aoa, 8), steering(p.aod, 4))
                for p in ch.users[u]
            )
            np.testing.assert_allclose(assemble(ch, u), expected, atol=1e-14)

    def test_rank_bounded_by_path_count(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ch = sample_channel(rng, 2, (1, 2), 16, 8)
            for u in range(2):
                s = np.linalg.svd(assemble(ch, u), compute_uv=False)
                numerical_rank = int(np.sum(s > 1e-8 * s[0]))
                assert numerical_rank <= ch.paths_per_user[u]

    def test_index_out_of_range(self):
        ch = sample_channel(np.random.default_rng(0), 1, (1,), 4, 4)
        with pytest.raises(IndexError):
            assemble(ch, 1)

    def test_path_arrays_in_user_order(self):
        ch = sample_channel(np.random.default_rng(7), 2, (2, 1), 8, 4)
        gains, sin_aoa, sin_aod = ch.path_arrays()
        paths = [p for user in ch.users for p in user]
        np.testing.assert_array_equal(gains, [p.gain for p in paths])
        np.testing.assert_array_equal(sin_aoa, [np.sin(p.aoa) for p in paths])
        np.testing.assert_array_equal(sin_aod, [np.sin(p.aod) for p in paths])

    @pytest.mark.parametrize("n_gains, n_aoa, n_aod", [(1, 2, 2), (3, 2, 2), (2, 2, 1)])
    def test_synthesize_needs_one_gain_per_angle_pair(self, n_gains, n_aoa, n_aod):
        with pytest.raises(ValueError, match=f"{n_gains} gains for {n_aoa} AoAs"):
            synthesize(np.ones(n_gains, complex), np.zeros(n_aoa), np.zeros(n_aod), 8, 4)


class TestQuasiOrthogonality:
    def test_cross_correlation_shrinks_with_array_size(self):
        rng = np.random.default_rng(6)
        means = {}
        for n in (16, 64):
            vals = []
            for _ in range(300):
                t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
                # keep sin-domain separation bounded away from zero
                if abs(np.sin(t1) - np.sin(t2)) < 0.2:
                    continue
                vals.append(abs(steering(t1, n).conj() @ steering(t2, n)))
            means[n] = np.mean(vals)
        assert means[64] < means[16] < 0.5
