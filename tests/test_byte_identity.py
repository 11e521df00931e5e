"""Training outputs pinned, byte for byte, to a recorded run of the tiny preset.

A performance change to the learner must leave every output byte as it
was.  This run trains the tiny preset for 600 steps on one BLAS thread and
compares the full SHA-256 of its log, checkpoints and evaluation reports
with recorded values.
"""

import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import focusrl
from focusrl.cli import _machine_info, load_config

# The build the hashes were recorded on.  Another numpy or BLAS build may
# sum matrix products in another order, and so write other bytes.
RECORDED_ON = {"numpy": "2.4.6", "blas_name": "scipy-openblas", "blas_version": "0.3.31.188.0"}

TINY_600 = {
    "train_log.csv": "de4abf848432c173dc163e6a48dc33fb2d22f728a825fa76d61e359a34d44607",
    "ckpt_300": "43fa54b0d9d0dd6dc1b44535039ecf906a1c4926ad4928b83c594f9ac79a49f7",
    "ckpt_600": "ac4c82dfb4ed6cee104b9492fe0cc84f903e4ec87aa5419ad846c210649b9114",
    "eval_300.json": "a2925e9201b59de0685e97d4261dea6750ea9ebce52cd355253571cdf812befb",
    "eval_600.json": "5d2f3abd7d5c5d0b657427893b8a7b2c65edec3fcc7826314f16ff7dc284d7d0",
}


@pytest.mark.slow
def test_tiny_600_steps_write_the_recorded_bytes(tmp_path):
    machine = _machine_info()
    build = {key: machine[key] for key in RECORDED_ON}
    if build != RECORDED_ON:
        pytest.skip(f"hashes were recorded on {RECORDED_ON}; this build is {build}")
    _, doc = load_config("tiny")  # a fresh parse of the preset
    doc["train"].update(total_timesteps=600, learn_start=100, target_sync=100, eval_interval=300)
    config = tmp_path / "tiny600.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    src = str(Path(focusrl.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, "-m", "focusrl", "train", "--config", str(config), "--out", str(out)],
        env=env, check=True, capture_output=True,
    )
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in TINY_600}
    assert got == TINY_600
