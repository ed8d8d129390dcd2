"""Training artifacts: P/Q/S construction, coherence, k-rank, uniqueness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations

from cpchan.channel_sim import sample_channel
from cpchan.measurement import ideal_factors
from cpchan.training_design import (
    COHERENCE_ITERS,
    COHERENCE_RESTARTS,
    KRANK_EXHAUSTIVE_MAX,
    KrankLimitError,
    TrainingDesign,
    build_design,
    check_uniqueness,
    dft_matrix,
    krank,
    krank_partitioned,
    minimize_coherence,
    pilot_matrix,
    random_unit_modulus,
)
from oracles import mutual_coherence, welch_bound


class TestRandomUnitModulus:
    def test_single_entry_on_unit_circle(self):
        M = random_unit_modulus(np.random.default_rng(0), 1, 1, 1.0)
        assert abs(abs(M[0, 0]) - 1.0) < 1e-14

    def test_constant_modulus_at_scale(self):
        M = random_unit_modulus(np.random.default_rng(1), 64, 16, 1.0 / 64)
        np.testing.assert_allclose(np.abs(M), 1.0 / 64, atol=1e-15)

    def test_zero_mean_monte_carlo(self):
        M = random_unit_modulus(np.random.default_rng(2), 100, 1000, 1.0)
        assert abs(M.mean()) < 3 / np.sqrt(M.size)


class TestPilotMatrix:
    def test_square_is_unitary_dft(self):
        S = pilot_matrix(np.random.default_rng(0), 4, 4)
        np.testing.assert_allclose(S.conj().T @ S, np.eye(4), atol=1e-12)
        assert mutual_coherence(S) < 1e-12

    def test_t2_u2_orthonormal(self):
        S = pilot_matrix(np.random.default_rng(0), 2, 2)
        np.testing.assert_allclose(S.conj().T @ S, np.eye(2), atol=1e-12)

    def test_t2_u8_near_optimal_coherence(self):
        # 8 unit vectors in C^2 map to 8 points on the sphere of complex
        # lines; the best possible coherence is cos(gamma/2) for the optimal
        # 8-point sphere packing angle gamma ~ 74.86 deg, i.e. ~0.794 --
        # well above the (unachievable here) Welch bound of ~0.655.
        S = pilot_matrix(np.random.default_rng(0), 2, 8)
        mu = mutual_coherence(S)
        assert welch_bound(2, 8) == pytest.approx(np.sqrt(6 / 14))
        assert mu <= 0.82

    def test_unit_columns(self):
        for t, u in [(2, 8), (4, 8), (4, 4), (8, 4)]:
            S = pilot_matrix(np.random.default_rng(1), t, u)
            assert S.shape == (t, u)
            np.testing.assert_allclose(np.linalg.norm(S, axis=0), 1.0, atol=1e-9)

    def test_t_below_two_rejected(self):
        with pytest.raises(ValueError):
            pilot_matrix(np.random.default_rng(0), 1, 4)

    def test_coherence_bounds(self):
        S = minimize_coherence(np.random.default_rng(3), 3, 7)
        assert 0.0 <= mutual_coherence(S) <= 1.0


def reference_minimize_coherence(rng, t, u):
    """The restarts one after another, each step on a single t x u frame:
    the loop the stacked minimize_coherence must reproduce bit for bit.
    Returns the best frame and the coherence the loop tracked for it."""
    def coherence(S):
        norms = np.linalg.norm(S, axis=0)
        G = (S / norms).conj().T @ (S / norms)
        np.fill_diagonal(G, 0.0)
        return float(np.max(np.abs(G)))

    best, best_mu = None, np.inf
    for _ in range(COHERENCE_RESTARTS):
        S = rng.standard_normal((t, u)) + 1j * rng.standard_normal((t, u))
        S /= np.linalg.norm(S, axis=0)
        for it in range(COHERENCE_ITERS):
            p = 4.0 + 28.0 * it / (COHERENCE_ITERS - 1)
            G = S.conj().T @ S
            W = np.abs(G) ** (2 * (p - 1))
            np.fill_diagonal(W, 0.0)
            grad = 2 * p * (S @ (W * G))
            S = S - 0.1 * grad / max(np.linalg.norm(grad), 1e-12)
            S /= np.maximum(np.linalg.norm(S, axis=0), 1e-12)
            mu_now = coherence(S)
            if mu_now < best_mu:
                best, best_mu = S.copy(), mu_now
    return best, best_mu


class TestMinimizeCoherenceParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("t, u", [(2, 3), (2, 8), (3, 4), (4, 8), (5, 21), (6, 8), (7, 9)])
    def test_stacked_restarts_match_sequential_loop(self, t, u, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        S = minimize_coherence(rng, t, u)
        ref, ref_mu = reference_minimize_coherence(ref_rng, t, u)
        np.testing.assert_array_equal(S, ref)
        assert rng.random() == ref_rng.random()   # same draws consumed
        assert mutual_coherence(S) == ref_mu


class TestMutualCoherence:
    def test_zero_column_is_named(self):
        S = dft_matrix(4)
        S[:, 2] = 0.0
        with pytest.raises(ValueError, match=r"column 2\b"):
            mutual_coherence(S)

    def test_scale_invariant(self):
        S = pilot_matrix(np.random.default_rng(5), 3, 6)
        assert mutual_coherence(S * np.array([1, 2, 3, 0.5, 7, 1e-3])) == pytest.approx(
            mutual_coherence(S), abs=1e-14)


class TestExpansionMatrix:
    def test_pilot_replication(self):
        # each path carries its owner's pilot column, with paths counted by
        # the channel: equal to the block-selector product S @ O
        rng = np.random.default_rng(4)
        ch = sample_channel(rng, 3, (1, 2, 2), 16, 8)
        d = build_design(rng, 16, 8, 8, 8, 4, (1, 2, 2))
        S = d.S
        _, _, S_L = ideal_factors(ch, d)
        np.testing.assert_array_equal(S_L, S[:, [0, 1, 1, 2, 2]])
        O = np.zeros((3, 5))
        O[0, 0] = O[1, 1] = O[1, 2] = O[2, 3] = O[2, 4] = 1.0
        np.testing.assert_array_equal(S_L, S @ O)


class TestKrank:
    def test_identity(self):
        assert krank(np.eye(4)) == 4

    def test_repeated_column(self):
        M = np.ones((3, 1)) @ np.ones((1, 2))
        M = np.hstack([np.eye(3)[:, :1], np.eye(3)[:, :1], np.eye(3)[:, 1:2]])
        assert krank(M) == 1

    def test_random_tall_full_krank(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        assert krank(M) == 4

    def test_zero_matrix(self):
        assert krank(np.zeros((3, 3))) == 0

    def test_wide_matrix(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert krank(M) == 3  # generic: every 3 columns independent

    def test_rank_deficient_past_exhaustive_limit_raises(self):
        # no upper bound passed off as the k-rank: the search refuses instead
        rng = np.random.default_rng(11)
        n = KRANK_EXHAUSTIVE_MAX + 1
        M = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        with pytest.raises(KrankLimitError, match="exhaustive search limit"):
            krank(M)

    def test_matches_exhaustive_oracle(self):
        # independent exhaustive-subset oracle
        def oracle(M):
            n = M.shape[1]
            smax = np.linalg.svd(M, compute_uv=False)[0]
            if smax == 0:
                return 0
            k = 0
            for size in range(1, n + 1):
                ok = True
                for cols in combinations(range(n), size):
                    sub = M[:, list(cols)]
                    s = np.linalg.svd(sub, compute_uv=False)
                    if len(cols) > M.shape[0] or s[-1] <= 1e-9 * smax:
                        ok = False
                        break
                if not ok:
                    break
                k = size
            return k

        rng = np.random.default_rng(7)
        for _ in range(50):
            m, n = rng.integers(2, 7, size=2)
            M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            if rng.random() < 0.3 and n >= 2:  # plant a dependency sometimes
                M[:, -1] = M[:, 0] * (1 + 1j)
            assert krank(M) == oracle(M)


class TestKrankPartitioned:
    def test_singleton_blocks_reduce_to_krank(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        assert krank_partitioned(M, [1, 1, 1, 1]) == krank(M)

    def test_scaled_duplicate_block(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        M = np.hstack([B, 2.5 * B])
        assert krank_partitioned(M, [2, 2]) == 1

    def test_full_rank_blocks(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        assert krank_partitioned(M, [2, 2, 2]) == 3

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            krank_partitioned(np.eye(4), [2, 3])

    def test_full_column_rank_skips_the_block_limit(self):
        n = KRANK_EXHAUSTIVE_MAX + 1
        assert krank_partitioned(np.eye(2 * n), [2] * n) == n


class TestCheckUniqueness:
    def test_multi_path_operating_point(self):
        rng = np.random.default_rng(11)
        paths = (1, 1, 1, 2, 2, 2, 2, 2)   # 13 paths over 8 users
        ch = sample_channel(rng, 8, paths, 64, 32)
        d = build_design(rng, n_bs=64, n_ms=32, m_bs=16, t_prime=16, t=4, paths_per_user=paths)
        rep = check_uniqueness(d, ch)
        assert rep.regime == "multi_path"
        assert rep.dimension_ok          # 16*16 = 256 >= sum L_u^2 = 23
        assert rep.passed

    def test_single_frame_fails(self):
        rng = np.random.default_rng(12)
        ch = sample_channel(rng, 4, (1, 1, 1, 1), 16, 8)
        d = TrainingDesign(
            P=random_unit_modulus(rng, 8, 8, 1 / 8),
            Q=random_unit_modulus(rng, 16, 8, 1 / 16),
            S=np.ones((1, 4), dtype=complex) / 1.0,
        )
        rep = check_uniqueness(d, ch)
        assert rep.k_s == 1
        assert not rep.passed

    def test_single_path_random_design_passes(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            paths = (1,) * 8
            ch = sample_channel(rng, 8, paths, 64, 32)
            d = build_design(rng, 64, 32, m_bs=16, t_prime=16, t=4, paths_per_user=paths)
            rep = check_uniqueness(d, ch)
            assert rep.regime == "single_path"
            assert rep.passed

    def test_user_count_mismatch_raises(self):
        # a 2-user channel against a 4-pilot design used to PASS with k(S) = 4
        rng = np.random.default_rng(16)
        ch = sample_channel(rng, 2, (1, 1), 16, 8)
        d = build_design(rng, 16, 8, 6, 6, 4, (1, 1, 1, 1))
        with pytest.raises(ValueError, match=r"2 users but the design has 4 pilot columns"):
            check_uniqueness(d, ch)

    @pytest.mark.parametrize("check", [check_uniqueness, lambda d, ch: ideal_factors(ch, d)])
    @pytest.mark.parametrize("n_bs, n_ms, match", [
        (32, 8, r"16 BS antennas but the design has 32 rows of Q"),
        (16, 4, r"8 MS antennas but the design has 4 rows of P")])
    def test_array_size_mismatch_raises(self, check, n_bs, n_ms, match):
        rng = np.random.default_rng(17)
        ch = sample_channel(rng, 2, (1, 2), 16, 8)
        d = build_design(rng, n_bs, n_ms, 6, 6, 2, (1, 2))
        with pytest.raises(ValueError, match=match):
            check(d, ch)

    @pytest.mark.parametrize("users, m_bs, t_prime, t", [
        (8, 16, 16, 4), (3, 3, 3, 2), (4, 16, 16, 4), (4, 2, 2, 2), (5, 2, 2, 5)])
    def test_single_path_verdict_is_the_kruskal_sum(self, users, m_bs, t_prime, t):
        # the partitioned computation on unit blocks decides single-path
        # scenes by k(A_Q) + k(A_P) + k(S) >= 2U + 2 alone
        rng = np.random.default_rng(18)
        paths = (1,) * users
        ch = sample_channel(rng, users, paths, 16, 8)
        d = build_design(rng, 16, 8, m_bs, t_prime, t, paths)
        A_Q, A_P, _ = ideal_factors(ch, d)
        rep = check_uniqueness(d, ch)
        assert rep.regime == "single_path"
        assert rep.passed == (krank(A_Q) + krank(A_P) + krank(d.S) >= 2 * users + 2)
        assert rep.passed == (m_bs >= 3)    # the first three scenes pass, the last two fail
        assert rep.dimension_ok == (m_bs * t_prime >= users)

    def test_krank_of_projected_steering_is_user_count(self):
        # random constant-modulus combining preserves generic independence
        rng = np.random.default_rng(14)
        wins = 0
        for _ in range(100):
            paths = (1,) * 8
            ch = sample_channel(rng, 8, paths, 64, 32)
            d = build_design(rng, 64, 32, 16, 16, 4, paths)
            rep = check_uniqueness(d, ch)
            wins += rep.k_aq == 8
        assert wins >= 99


class TestDesignInvariants:
    def test_constant_modulus_invariant(self):
        rng = np.random.default_rng(15)
        d = build_design(rng, 16, 8, 8, 8, 4, (1, 1, 2))
        np.testing.assert_allclose(np.abs(d.P), 1 / 8, atol=1e-15)
        np.testing.assert_allclose(np.abs(d.Q), 1 / 16, atol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(t=st.integers(2, 6), u=st.integers(2, 8))
    def test_coherence_in_unit_interval(self, t, u):
        S = pilot_matrix(np.random.default_rng(17), t, u)
        assert 0.0 <= mutual_coherence(S) <= 1.0 + 1e-12
