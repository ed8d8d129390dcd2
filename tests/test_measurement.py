"""Layered-pilot measurement simulation: tensor model and SNR."""

import dataclasses

import numpy as np
import pytest

from cpchan.channel_sim import assemble_all, sample_channel
from cpchan.measurement import (
    MeasurementTensor,
    ideal_factors,
    noise_std_per_entry,
    noiseless_tensor,
    simulate,
)
from cpchan.tensor_core import ComplexTensor3, FactorTriple, compose
from cpchan.training_design import build_design


def small_scene(seed=0, n_users=3, paths=(1, 2, 1), n_bs=16, n_ms=8,
                m_bs=6, t_prime=5, t=4):
    rng = np.random.default_rng(seed)
    channel = sample_channel(rng, n_users, paths, n_bs, n_ms)
    design = build_design(rng, n_bs, n_ms, m_bs, t_prime, t, paths)
    return channel, design


def brute_force_tensor(channel, design):
    """Slice-by-slice construction: Y[:, :, k] = Q^T (sum_u s_ku H_u) P."""
    H = assemble_all(channel)
    Y = np.empty((design.m_bs, design.t_prime, design.t), dtype=np.complex128)
    for k in range(design.t):
        mix = sum(design.S[k, u] * H[u] for u in range(channel.n_users))
        Y[:, :, k] = design.Q.T @ mix @ design.P
    return Y


class TestNoiselessModel:
    def test_matches_slicewise_channel_mixing(self):
        channel, design = small_scene()
        X = noiseless_tensor(channel, design)
        np.testing.assert_allclose(X.data, brute_force_tensor(channel, design),
                                   rtol=1e-11, atol=1e-13)

    def test_ideal_factors_compose_to_tensor(self):
        channel, design = small_scene(seed=5)
        A_Q, A_P, S_L = ideal_factors(channel, design)
        assert A_Q.shape == (design.m_bs, channel.total_paths)
        assert A_P.shape == (design.t_prime, channel.total_paths)
        assert S_L.shape == (design.t, channel.total_paths)
        Y = compose(FactorTriple(A_Q, A_P, S_L))
        np.testing.assert_allclose(Y.data, noiseless_tensor(channel, design).data,
                                   rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("build", [ideal_factors, simulate])
    def test_user_count_mismatch_raises(self, build):
        # three single-path users against a design for two users: the same
        # three paths in total, but one pilot column too few
        rng = np.random.default_rng(3)
        channel = sample_channel(rng, 3, (1, 1, 1), 16, 8)
        design = build_design(rng, 16, 8, 6, 5, 4, (1, 2))
        args = (channel, design) if build is ideal_factors else (channel, design, None)
        with pytest.raises(ValueError, match=r"3 users.*2 pilot columns"):
            build(*args)

    def test_single_path_tensor_is_rank_one(self):
        channel, design = small_scene(seed=2, n_users=1, paths=(1,))
        X = noiseless_tensor(channel, design)
        # every mode-1 unfolding row pair must be proportional
        M = X.data.reshape(design.m_bs, -1, order="F")
        s = np.linalg.svd(M, compute_uv=False)
        assert s[1] < 1e-12 * s[0]

    def test_simulate_none_snr_returns_noiseless(self):
        channel, design = small_scene(seed=1)
        m = simulate(channel, design, None)
        assert m.snr_db is None
        np.testing.assert_array_equal(m.y.data, noiseless_tensor(channel, design).data)

    def test_dims_property(self):
        channel, design = small_scene(seed=13)
        m = simulate(channel, design, None)
        assert m.dims == (design.m_bs, design.t_prime, design.t)
        assert isinstance(m, MeasurementTensor)
        assert isinstance(m.y, ComplexTensor3)


class TestNoise:
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
    def test_realized_snr_exact(self, snr_db):
        channel, design = small_scene(seed=3)
        X = noiseless_tensor(channel, design)
        m = simulate(channel, design, snr_db, np.random.default_rng(9))
        W = m.y.data - X.data
        realized = np.linalg.norm(X.data) ** 2 / np.linalg.norm(W) ** 2
        assert realized == pytest.approx(10 ** (snr_db / 10), rel=1e-12)

    def test_seed_reproducibility(self):
        channel, design = small_scene(seed=4)
        m1 = simulate(channel, design, 20.0, np.random.default_rng(42))
        m2 = simulate(channel, design, 20.0, np.random.default_rng(42))
        np.testing.assert_array_equal(m1.y.data, m2.y.data)

    def test_noise_without_a_generator_raises(self):
        # noise is never drawn from an unseeded source
        channel, design = small_scene(seed=4)
        with pytest.raises(ValueError, match="noise generator"):
            simulate(channel, design, 20.0)

    def test_noise_std_estimate_order_correct(self):
        channel, design = small_scene(seed=6)
        snr_db = 15.0
        X = noiseless_tensor(channel, design)
        m = simulate(channel, design, snr_db, np.random.default_rng(0))
        true_std = np.linalg.norm(m.y.data - X.data) / np.sqrt(np.prod(m.dims))
        est = noise_std_per_entry(m)
        assert est == pytest.approx(true_std, rel=0.2)

    def test_noise_std_zero_when_noiseless(self):
        channel, design = small_scene(seed=7)
        assert noise_std_per_entry(simulate(channel, design, None)) == 0.0

    def test_zero_signal_raises(self):
        channel, design = small_scene(seed=8)
        zero = dataclasses.replace(channel, gains=np.zeros(channel.total_paths))
        with pytest.raises(ValueError, match="all-zero signal"):
            simulate(zero, design, 10.0)
