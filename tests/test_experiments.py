"""Checked-in experiment configs read as ``adds train --config`` reads them."""

import json
import subprocess
import sys
from pathlib import Path

from test_acceptance import RUN_BASE

from adds.cli import read_config_file
from adds.training import TrainConfig, build_pyramid_plan, build_world

EXPERIMENTS = Path(__file__).parents[1] / "experiments"


def test_arena_is_the_a7_world_at_112_px_off_the_planting_grid():
    arena = read_config_file(EXPERIMENTS / "arena.cfg")
    cfg = TrainConfig(**arena)
    assert cfg == TrainConfig(**{**RUN_BASE, "image_side": 112})
    plan = build_pyramid_plan(cfg)
    top = plan.levels[-1]
    # overlapping tiles at a ceil stride of 27 px, the last pinned to the edge:
    # not multiples of the 8 px grid the signatures are planted on
    assert sorted(set(top.offsets)) == [0, 27, 54, 80]
    world = build_world(cfg)
    assert plan.row_count(1 + world.image_encoder.n_patches) == 357


def test_identity_prints_the_same_bytes_twice():
    tiny = json.dumps(dict(image_side=32, base_size=16, classes=6, n_seen=4, n_train=4,
                           epochs=1))
    outs = [subprocess.run([sys.executable, str(EXPERIMENTS / "identity.py"), "--config", tiny,
                            "--n-eval", "4"], capture_output=True, text=True, timeout=120,
                           check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    digests = json.loads(outs[0])
    assert set(digests) == {"draws", "plan", "runs"}
    assert set(digests["runs"]) == {"config seed 1 float32", "config seed 7 float32",
                                    "config seed 1 float64"}
