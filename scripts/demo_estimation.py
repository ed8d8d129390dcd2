#!/usr/bin/env python3
"""End-to-end library demo on one noisy realization.

Draws a multiuser geometric channel, builds a training design, simulates the
layered-pilot measurement at the requested SNR, runs both estimators, and
prints per-user NMSE and runtimes.
"""

import argparse

import numpy as np

from cpchan import channel_recovery, cs_baseline
from cpchan.bench import CS_OVERSAMPLING
from cpchan.channel_sim import sample_channel
from cpchan.measurement import simulate
from cpchan.sparse_solver import AngleGrid
from cpchan.training_design import build_design, check_uniqueness

N_BS, N_MS = 64, 32


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--snr-db", type=float, default=30.0)
    ap.add_argument("--users", type=int, default=8)
    args = ap.parse_args()

    paths = [1 + (u % 2) for u in range(args.users)]
    ss = np.random.SeedSequence(args.seed).spawn(3)
    rng_channel, rng_design, rng_noise = (np.random.default_rng(s) for s in ss)

    channel = sample_channel(rng_channel, args.users, paths, n_bs=N_BS, n_ms=N_MS)
    design = build_design(rng_design, n_bs=N_BS, n_ms=N_MS, m_bs=16,
                          t_prime=16, t=4, paths_per_user=paths)
    print(check_uniqueness(design, channel).summary())

    meas = simulate(channel, design, args.snr_db, rng_noise)

    # the rank is estimated within the default 26-component budget
    res = channel_recovery.estimate_all(meas, design, channel_truth=channel)
    print(f"\ntensor factorization pipeline  "
          f"nmse={res.nmse_total:.3e}  rank={res.estimated_rank}  "
          f"runtime={res.runtime_s:.2f}s")
    for u, v in enumerate(res.nmse_per_user):
        print(f"  user {u}: nmse={v:.3e}")

    k = CS_OVERSAMPLING["cs_grid2"]   # the arrays oversampled 2x, as cs_grid2 runs
    grid = AngleGrid(k * N_BS, k * N_MS)
    prob = cs_baseline.assemble_problem(meas, design, grid)
    cs = cs_baseline.solve_cs(prob, channel_truth=channel)
    print(f"\ncompressed-sensing baseline ({grid.n_aoa}x{grid.n_aod} grid)  "
          f"nmse={cs.nmse_total:.3e}  runtime={cs.runtime_s:.2f}s")


if __name__ == "__main__":
    main()
