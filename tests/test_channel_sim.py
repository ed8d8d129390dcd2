"""Geometric channel model: steering vectors, path sampling, assembly."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpchan.channel_sim import (
    SPEED_OF_LIGHT,
    GeometricChannel,
    assemble,
    assemble_all,
    path_gain_variance,
    sample_channel,
    steering_from_sin,
    synthesize,
)
from cpchan.sparse_solver import AngleGrid
from oracles import sample_channel_on_grid


def steering(theta, n):
    """Array response at angle theta (both sides share the ULA form)."""
    return steering_from_sin(np.array([np.sin(theta)]), n)[:, 0]


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
        assert path_gain_variance(64, 32) == pytest.approx(64 * 32 / rho)


class TestSampleChannel:
    def test_deterministic_under_seed(self):
        a = sample_channel(np.random.default_rng(5), 2, (1, 2), 8, 4)
        b = sample_channel(np.random.default_rng(5), 2, (1, 2), 8, 4)
        for Ha, Hb in zip(assemble_all(a), assemble_all(b)):
            np.testing.assert_array_equal(Ha, Hb)

    def test_shapes_and_counts(self):
        ch = sample_channel(np.random.default_rng(0), 3, (1, 2, 2), 8, 4)
        assert ch.n_users == 3
        assert ch.paths_per_user == (1, 2, 2)
        assert assemble(ch, 0).shape == (8, 4)

    def test_sines_in_range(self):
        ch = sample_channel(np.random.default_rng(1), 4, (2, 2, 2, 2), 8, 4)
        for s in (ch.sin_aoa, ch.sin_aod):
            assert s.shape == (8,)
            assert np.all((-1 <= s) & (s <= 1))

    def test_gain_variance_monte_carlo(self):
        # empirical variance over 1e5 draws within 5% of the closed form
        rng = np.random.default_rng(2)
        n_draws = 100_000
        ch = sample_channel(rng, 1, (n_draws,), 2, 2)
        gains = ch.gains
        target = path_gain_variance(2, 2)
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(target, rel=0.05)
        assert abs(np.mean(gains)) < 3 * np.sqrt(target / n_draws)

    def test_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_channel(rng, 2, (1,), 8, 4)  # length mismatch
        with pytest.raises(ValueError):
            sample_channel(rng, 1, (0,), 8, 4)  # empty path list


class TestSampleChannelOnGrid:
    def test_sines_are_the_grid_values(self):
        # every AoA point once and every AoD point twice (32 paths), so each
        # stored sine must be a grid value itself, not the sine of its angle
        grid = AngleGrid(32, 16)
        aod_twice = np.tile(grid.sin_aod, 2)
        ch = sample_channel_on_grid(np.random.default_rng(0), (2,) * 16, 16, 8,
                                    grid.sin_aoa, aod_twice)
        assert np.array_equal(np.sort(ch.sin_aoa), grid.sin_aoa)
        assert np.array_equal(np.sort(ch.sin_aod), np.sort(aod_twice))


class TestGeometricChannel:
    def test_arrays_are_read_only_copies(self):
        sin_aoa = np.array([0.1, -0.2])
        ch = GeometricChannel([1j, 2.0], sin_aoa, [0.3, 0.4], (1, 1), 8, 4)
        sin_aoa[0] = 0.5
        assert ch.sin_aoa[0] == 0.1
        for v in (ch.gains, ch.sin_aoa, ch.sin_aod):
            assert not v.flags.writeable
        assert ch.gains.dtype == np.complex128

    @pytest.mark.parametrize("name", ["gains", "sin_aoa", "sin_aod"])
    def test_length_mismatch_is_named(self, name):
        arrays = dict(gains=[1.0, 1.0, 1.0], sin_aoa=[0.0, 0.1, 0.2], sin_aod=[0.0, 0.1, 0.2])
        arrays[name] = arrays[name][:2]
        with pytest.raises(ValueError, match=rf"^2 {name} values for 3 paths$"):
            GeometricChannel(**arrays, paths_per_user=(1, 2), n_bs=8, n_ms=4)

    @pytest.mark.parametrize("name", ["sin_aoa", "sin_aod"])
    @pytest.mark.parametrize("value", [1.5, -1.5, np.nan, np.inf])
    def test_sine_outside_the_unit_interval_is_named(self, name, value):
        arrays = dict(sin_aoa=[0.0, 1.0], sin_aod=[-1.0, 0.5])
        arrays[name] = [0.0, value]
        with pytest.raises(ValueError, match=rf"^{name} value {value} outside \[-1, 1\]$"):
            GeometricChannel([1.0, 1.0], **arrays, paths_per_user=(2,), n_bs=8, n_ms=4)

    @pytest.mark.parametrize("ppu", [(1, 0), (2, -1), ()])
    def test_user_without_paths_is_named(self, ppu):
        total = max(sum(ppu), 0)
        with pytest.raises(ValueError, match=rf"path counts must be positive, got {re.escape(repr(ppu))}"):
            GeometricChannel(np.ones(total), np.zeros(total), np.zeros(total), ppu, 8, 4)


class TestAssemble:
    def test_single_unit_gain_path_rank_one(self):
        ch = GeometricChannel(
            gains=[1.0 + 0j], sin_aoa=[np.sin(0.3)], sin_aod=[np.sin(1.1)],
            paths_per_user=(1,), n_bs=8, n_ms=4
        )
        H = assemble(ch, 0)
        expected = np.outer(steering(0.3, 8), steering(1.1, 4))
        np.testing.assert_allclose(H, expected, atol=1e-14)
        assert np.linalg.matrix_rank(H) == 1

    def test_zero_gains_zero_matrix(self):
        ch = GeometricChannel(
            gains=[0j, 0j], sin_aoa=np.sin([0.3, 2.0]), sin_aod=np.sin([1.1, 0.5]),
            paths_per_user=(2,), n_bs=8, n_ms=4
        )
        assert np.all(assemble(ch, 0) == 0)

    def test_direct_summation_oracle(self):
        ch = sample_channel(np.random.default_rng(3), 2, (2, 3), 8, 4)
        for u, own in enumerate((range(0, 2), range(2, 5))):
            expected = sum(
                ch.gains[r] * np.outer(steering_from_sin(ch.sin_aoa[[r]], 8),
                                       steering_from_sin(ch.sin_aod[[r]], 4))
                for r in own
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
        # per user, in user order: its gains, then its AoAs, then its AoDs
        ch = sample_channel(np.random.default_rng(7), 2, (2, 1), 8, 4)
        rng = np.random.default_rng(7)
        scale = np.sqrt(path_gain_variance(8, 4) / 2)
        gains, aoas, aods = [], [], []
        for lu in (2, 1):
            gains.append(scale * (rng.standard_normal(lu) + 1j * rng.standard_normal(lu)))
            aoas.append(rng.uniform(0.0, 2 * np.pi, size=lu))
            aods.append(rng.uniform(0.0, 2 * np.pi, size=lu))
        np.testing.assert_array_equal(ch.gains, np.concatenate(gains))
        np.testing.assert_array_equal(ch.sin_aoa, np.sin(np.concatenate(aoas)))
        np.testing.assert_array_equal(ch.sin_aod, np.sin(np.concatenate(aods)))

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
