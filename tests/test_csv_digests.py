"""scripts/csv_digests.py: one-trial deterministic CSV digests per config."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from cpchan import cli

ROOT = Path(__file__).resolve().parents[1]

TINY = dict(n_bs=16, n_ms=8, paths_per_user=[1, 1], m_bs=6, t_prime=6, t=2,
            snr_db=30.0, methods=["cs_grid1"], sweep_variable="snr_db",
            sweep_values=[10.0, 30.0], trials=3, seed=5)


def test_digest_of_one_config(tmp_path):
    # a checkout with one config, running the repository's own sources
    checkout = tmp_path / "checkout"
    (checkout / "scripts").mkdir(parents=True)
    (checkout / "configs").mkdir()
    shutil.copy(ROOT / "scripts" / "csv_digests.py", checkout / "scripts")
    (checkout / "src").symlink_to(ROOT / "src")
    config = checkout / "configs" / "tiny.json"
    config.write_text(json.dumps(TINY))
    before = config.read_bytes()

    proc = subprocess.run(
        [sys.executable, str(checkout / "scripts" / "csv_digests.py")],
        capture_output=True, text=True, timeout=300, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    name, digest = proc.stdout.split()

    one_trial = tmp_path / "one_trial.json"
    one_trial.write_text(json.dumps({**TINY, "trials": 1}))
    out = tmp_path / "expected.csv"
    assert cli.main(["run", str(one_trial), "--out", str(out),
                     "--deterministic", "--threads", "2"]) == 0
    assert name == "tiny"
    assert digest == hashlib.sha256(out.read_bytes()).hexdigest()
    assert config.read_bytes() == before
    assert sorted(p.name for p in (checkout / "configs").iterdir()) == ["tiny.json"]
