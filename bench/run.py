"""Benchmark of the csasr pipeline.

    python3 bench/run.py --workload decode --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout, imports csasr from its `src/`, and runs
everything in this one process with BLAS/OpenMP pinned to one thread.
`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
prints the per-layer metrics of a traced set-up and pass, with the tracing
overhead against an untraced pass of the same run. The last line of
standard output is the result as JSON; the line before it records the
environment. Spans, counters and failures go to
`.bench_out/<workload>-seed<n>-trace<t>.json`. The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

OPERATIONS = ("decoder.beam", "decoder.greedy", "training.step", "cli.run_matrix")
DECODES = ("decoder.beam", "decoder.greedy")


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class SourcesMissing(RuntimeError):
    pass


def use_sources() -> None:
    """Import csasr from this checkout's src/, never from elsewhere."""
    package = SRC / "csasr"
    if not (package / "__init__.py").is_file():
        raise SourcesMissing(f"no csasr package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import csasr

    if Path(csasr.__file__).resolve().parent != package.resolve():
        raise SourcesMissing(f"csasr imported from {csasr.__file__}, not {package}")


def environment(args, data_seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": data_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def decode_latencies_ms(spans, speed) -> list[float]:
    """model.forward plus the decode that consumes its grid, per decode."""
    out, forward = [], None
    for s in spans:
        if s.name == "model.forward":
            forward = s
        elif s.name in DECODES:
            start = forward.start if forward else s.start
            busy = s.duration + (forward.duration if forward else 0.0)
            out.append(1000.0 * speed.normalized(busy, start, s.end))
            forward = None
    return out


def e2e_metrics(probes, setups, passes) -> dict[str, float]:
    """Timings where each layer runs: decodes and SGD steps come from the
    timed passes, or from set-up when a workload runs them only there.
    `setups` and `passes` are (start, end) intervals. Throughputs are the
    median over those intervals, so that a rare stall in one of thousands
    of sub-millisecond calls does not move them; latency percentiles pool
    every decode."""
    speed = probes.speed

    def wall(interval) -> float:
        a, b = interval
        return speed.normalized(b - a - speed.spent(a, b), a, b)

    def by_interval(names, counted=()) -> list[list]:
        """Spans of `names` and `counted` per timed pass, or per set-up if
        no pass runs `names`."""
        ran = any(s.phase == "pass" and s.name in names for s in probes.spans)
        names = names + counted
        return [
            [s for s in probes.spans if s.name in names and a <= s.start < b]
            for a, b in (passes if ran else setups)
        ]

    decodes = [decode_latencies_ms(g, speed) for g in by_interval(DECODES, ("model.forward",))]
    latencies = [ms for group in decodes for ms in group]
    steps = by_interval(("training.step",))

    def frames_per_s(group) -> float:
        busy = sum(speed.normalized(s.duration, s.start, s.end) for s in group)
        return probes.counted("training.frames", group) / busy

    return {
        "setup_s": statistics.median(map(wall, setups)),
        "wall_s": statistics.median(map(wall, passes)),
        "decode_utt_per_s": statistics.median(len(g) / (sum(g) / 1000.0) for g in decodes),
        "decode_ms_p50": statistics.median(latencies),
        "decode_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "train_frames_per_s": statistics.median(map(frames_per_s, steps)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(layers, speed, passes, cer_pct) -> dict[str, float]:
    """Totals over the traced set-up and the traced pass, times as measured.
    The overhead compares the traced pass with the untraced one at
    calibrated speed, the calibration loop's own time taken out of both."""
    c, total = layers.counts, layers.total

    def wall(interval) -> float:
        a, b = interval
        return speed.normalized(b - a - speed.spent(a, b), a, b)

    plain, traced = map(wall, passes)
    # as measured, like the spans, which enclose the calibration samples
    # taken when a span opens
    traced_s = passes[1][1] - passes[1][0]
    # outermost layer spans of the traced pass; run_matrix only encloses them
    top = [
        s for s in layers.spans
        if s.phase == "pass" and s.name != "cli.run_matrix"
        and (s.parent < 0 or layers.spans[s.parent].name == "cli.run_matrix")
    ]
    history = layers.last.get("training.epochs") or [float("nan")]
    return {
        "decoder.beam_s": total("decoder.beam"),
        "decoder.self_s": layers.self_total("decoder.beam"),
        "decoder.calls": c["decoder.beam.calls"] + c["decoder.greedy.calls"],
        "decoder.frames": c["decoder.frames"],
        "decoder.lm_calls_per_frame": c["lm.score.calls"] / c["decoder.frames"] if c["decoder.frames"] else 0.0,
        "lm.score_calls": c["lm.score.calls"],
        "lm.score_s": layers.times["lm.score"],
        "lm.train_s": total("lm.train"),
        "lm.ngrams": c["lm.ngrams"],
        "lm.write_arpa_s": total("lm.write_arpa"),
        "model.forward_s": total("model.forward"),
        "model.forward_calls": c["model.forward.calls"],
        "model.backward_s": total("model.backward"),
        "model.frames": c["model.frames"],
        "ctc.loss_s": total("ctc.loss"),
        "ctc.loss_calls": c["ctc.loss.calls"] + c["ctc.loss.raised.InfeasibleTarget"],
        "ctc.infeasible": c["ctc.loss.raised.InfeasibleTarget"],
        "training.step_s": total("training.step"),
        "training.steps": c["training.step.calls"],
        "training.update_s": layers.self_total("training.step"),
        "training.final_loss": history[-1],
        "synth.corpus_s": total("synth.corpus"),
        "synth.utts": c["synth.utts"],
        "synth.feat_bytes": c["synth.feat_bytes"],
        "features.read_s": total("features.read"),
        "features.read_calls": c["features.read.calls"],
        "metrics.score_s": total("metrics.score"),
        "metrics.pairs": c["metrics.pairs"],
        "metrics.cer_pct": cer_pct,
        "cli.run_matrix_s": total("cli.run_matrix"),
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced - plain,
        "trace.overhead_pct": 100.0 * (traced - plain) / plain,
        "trace.accounted_pct": 100.0 * sum(s.duration for s in top) / traced_s,
    }


def run(args, sizes):
    """One benchmark run; returns (result, record for the trace file)."""
    from tracer import E2E_POINTS, LAYER_POINTS, Speedometer, Tracer, now
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](sizes, args.seed)
    env = environment(args, wl.seed)
    print(json.dumps({"env": env}), flush=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    speed = Speedometer()
    probes = Tracer(E2E_POINTS, speed)
    layers = Tracer(LAYER_POINTS, speed)
    failures: list[str] = []
    setups: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []
    cer: list[float] = []

    def timed(tracer, phase, fn, *fn_args):
        """fn(*fn_args) under `tracer`, and the interval it ran in."""
        tracer.phase = phase
        speed.sample(3)
        with tracer.installed():
            start = now()
            out = fn(*fn_args)
            end = now()
        speed.sample(3)
        return out, (start, end)

    def one_pass(tracer, state):
        output, interval = timed(tracer, "pass", wl.run_pass, state, work)
        passes.append(interval)
        failures.extend(wl.check(state, output))
        cer.append(wl.cer_pct(output))

    try:
        setup_tracer = layers if args.trace and wl.traced_setup else probes
        for rep in itertools.count():
            state, interval = timed(setup_tracer, "setup", wl.setup, work / f"setup{rep}")
            setups.append(interval)
            spent = sum(end - start for start, end in setups)
            if args.trace or (len(setups) >= sizes.setup_reps and spent >= sizes.setup_min_s):
                break
        if args.trace:
            one_pass(probes, state)
            one_pass(layers, state)
        else:
            started = now()
            while True:
                one_pass(probes, state)
                decodes = sum(1 for s in probes.spans if s.phase == "pass" and s.name in DECODES)
                if (
                    now() - started >= args.seconds
                    and len(passes) >= wl.min_passes
                    and decodes >= sizes.min_decodes
                ):
                    break
    except Exception as e:  # noqa: BLE001 - a failed operation is a result
        traceback.print_exc(file=sys.stderr)
        failures.append(f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # an operation's counters are "<name>.calls" and "<name>.raised.<error>"
    prefixes = tuple(f"{name}." for name in OPERATIONS)
    ops = sum(v for t in (probes, layers) for k, v in t.counts.items() if k.startswith(prefixes))
    bad = sum(t.counts["training.nonfinite"] for t in (probes, layers)) + len(failures)
    attempted = max(ops, 1)
    failed = min(bad, attempted)
    correct = not failures and failed == 0
    metrics = {}
    if correct:
        if args.trace:
            values, units = layer_metrics(layers, speed, passes, cer[-1]), metric_units("per_layer")
        else:
            values, units = e2e_metrics(probes, setups, passes), metric_units("end_to_end")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "env": env,
        "result": result,
        "failures": failures,
        "setup_s": [b - a for a, b in setups],
        "pass_s": [b - a for a, b in passes],
        "cer_pct": cer,
        "speed_samples": list(zip(speed.starts, speed.loop_s)),
        "trace": (layers if args.trace else probes).dump(),
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("decode", "train", "recipe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    try:
        use_sources()
    except SourcesMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    from workloads import Sizes

    result, record = run(args, Sizes())
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    for line in record["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
