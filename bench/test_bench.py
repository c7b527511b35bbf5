"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py
"""

import argparse
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.use_sources()

from workloads import Decode, Sizes, check_hypothesis  # noqa: E402

from csasr import ctc, decoder, model  # noqa: E402

TINY = Sizes(
    dict(
        mono_count=6, cs_count=10, test_count=4, lm_text_count=10,
        pretrain_epochs=2, finetune_epochs=2,
    ),
    decode_beam=4, recipe_beam=4, decode_utts=2, min_decodes=4, setup_reps=2,
    setup_min_s=0.0,
)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["decode", "train", "recipe"])
def test_workload_passes_its_checks_and_reports_every_metric(workload, trace):
    args = argparse.Namespace(workload=workload, seed=0, seconds=0.01, trace=trace)
    result, record = run.run(args, TINY)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.metric_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    json.dumps(record)


def test_q_bound_check_rejects_a_corrupted_score(tmp_path):
    wl = Decode(TINY, 0)
    state = wl.setup(tmp_path)
    grid = model.forward(state.am, state.data.test[0].frames)
    for cfg, lm_model in state.configs:
        hyp = decoder.beam_decode(grid, state.data.vocab, cfg, lm_model, nbest=1)[0]
        assert check_hypothesis(grid, hyp, state.data.vocab, cfg, lm_model) is None
        q = decoder.fused_score(hyp.text, -ctc.ctc_loss(grid, hyp.ids).loss, lm_model, cfg)
        corrupted = dataclasses.replace(hyp, score=q + 1e-3)
        reason = check_hypothesis(grid, corrupted, state.data.vocab, cfg, lm_model)
        assert reason is not None and "exceeds exact Q" in reason


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decode", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
