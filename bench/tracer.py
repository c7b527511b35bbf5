"""Spans and counters recorded around csasr's public functions, from outside.

The benchmark never edits the package: it replaces module attributes with
timing wrappers for the length of a pass and puts the originals back
afterwards. A wrapper must sit on the attribute the caller looks up, so a
name bound by `from ... import` is wrapped in the calling module (for
example `csasr.training.ctc_loss`, not `csasr.ctc.ctc_loss`).

Spans are kept in memory as (name, start, end, parent, phase) and written
out by the caller when the run ends. Calls too frequent for a span each
(`lm.score` runs ~10^6 times per decode pass) only add to a call counter
and a time total; that time still counts as covered in the enclosing span,
so self time = duration - time covered by child spans and counted calls.
"""

from __future__ import annotations

import bisect
import functools
import gc
import inspect
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from csasr import cli, decoder, lm, metrics, model, synth, training

now = time.perf_counter


_CALIBRATION_WEIGHTS = np.full((12, 12), 0.05)


def _calibration_loop() -> None:
    """Fixed work shaped like csasr's hot paths: tuple-keyed dict updates
    and a keyed sort as in beam search, small matrix-vector steps as in
    the recurrent model."""
    table = {}
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
    sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    h = np.ones(12)
    for _ in range(50):
        h = np.tanh(_CALIBRATION_WEIGHTS @ h)


class Speedometer:
    """Machine speed, sampled between operations by a fixed calibration loop.

    On the 2-vCPU VM this benchmark was built on, the host's speed drifts
    by up to 2x over seconds to minutes: one beam-100 decode took 0.18 to
    0.34 s within 90 s, and run-to-run spreads of raw timings reached 24%.
    Dividing each timing by the loop's time measured around it cut the
    spread of 3 s window medians from 0.30 to 0.07, so end-to-end times are
    reported at a machine speed where the loop takes REFERENCE_S. The loop
    runs outside every operation's span; its time is taken out of walls.

    The loop's own time is bimodal there (about 0.9 and 1.5 ms), and the
    host switches between the two speeds within a second. So each stretch
    between samples is scaled by the mean of the few samples around it:
    over ten seeds of `decode`, a mean instead of a median cut the spread
    of train_frames_per_s from 0.125 to 0.041, and over ten of `train`, a
    0.25 s window instead of 2 s cut that of the greedy decode_utt_per_s
    from 0.16 to 0.06. Samples over twice their neighbours' median are
    stalls (the VM was descheduled) and are left out.
    """

    REFERENCE_S = 0.001
    INTERVAL_S = 0.2  # at most one sample per interval from tick()
    WINDOW_S = 0.25  # samples this close to a stretch describe its speed

    def __init__(self):
        self.starts: list[float] = []
        self.loop_s: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            enabled = gc.isenabled()
            gc.disable()
            start = now()
            _calibration_loop()
            self.starts.append(start)
            self.loop_s.append(now() - start)
            if enabled:
                gc.enable()

    def tick(self) -> None:
        if not self.starts or now() - self.starts[-1] >= self.INTERVAL_S:
            self.sample()

    def spent(self, a: float, b: float) -> float:
        """Time the loop itself took inside [a, b]."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return sum(self.loop_s[lo:hi])

    def _local(self, i: int) -> float:
        """Mean loop time of the samples within WINDOW_S of sample i (at
        least three), leaving out stalls."""
        t = self.starts[i]
        lo = bisect.bisect_left(self.starts, t - self.WINDOW_S)
        hi = bisect.bisect_right(self.starts, t + self.WINDOW_S)
        if hi - lo < 3:
            lo = max(0, min(i - 1, len(self.starts) - 3))
            hi = lo + 3
        window = self.loop_s[lo:hi]
        typical = statistics.median(window)
        return statistics.mean(x for x in window if x <= 2.0 * typical)

    def normalized(self, seconds: float, a: float, b: float) -> float:
        """`seconds`, measured over [a, b], at the reference speed.

        Each stretch of [a, b] between samples is scaled by the local speed
        at its start, so a long interval gets the time-weighted mean speed."""
        lo = bisect.bisect_right(self.starts, a)
        if b <= a:
            return seconds * self.REFERENCE_S / self._local(max(lo - 1, 0))
        cuts = [a] + self.starts[lo : bisect.bisect_left(self.starts, b)] + [b]
        scaled = sum(
            (cuts[k + 1] - cuts[k]) / self._local(max(lo - 1 + k, 0))
            for k in range(len(cuts) - 1)
        )
        return seconds * self.REFERENCE_S * scaled / (b - a)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    phase: str
    covered: float = 0.0  # time inside child spans and counted calls
    counts: dict | None = None  # what the point's hook counted for this call

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


@dataclass(frozen=True)
class Point:
    """One wrapped attribute. `hook(args, result)` returns counts to add,
    keyed by counter name; `args` are the call's arguments bound by name."""

    owner: object
    attr: str
    name: str
    hook: Callable[[dict, object], dict[str, float]] | None = None
    span: bool = True


class Tracer:
    def __init__(self, points: list[Point], speed: Speedometer | None = None):
        self.points = points
        self.speed = speed
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.times: defaultdict[str, float] = defaultdict(float)
        self.last: dict[str, object] = {}  # latest result per span name
        self.phase = "setup"
        self._open: list[int] = []

    @contextmanager
    def installed(self):
        saved = []
        try:
            for p in self.points:
                original = p.owner.__dict__[p.attr]
                saved.append((p, original))
                setattr(p.owner, p.attr, self._wrap(p, original))
            yield self
        finally:
            for p, original in reversed(saved):
                setattr(p.owner, p.attr, original)

    def _wrap(self, point: Point, fn):
        signature = inspect.signature(fn)
        name, hook = point.name, point.hook

        def finish(span, args, kwargs, result):
            self.counts[name + ".calls"] += 1
            self.last[name] = result
            if hook is not None:
                span.counts = hook(signature.bind(*args, **kwargs).arguments, result)
                self.counts.update(span.counts)

        if not point.span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = now() - start
                    self.counts[name + ".calls"] += 1
                    self.times[name] += elapsed
                    if self._open:
                        self.spans[self._open[-1]].covered += elapsed

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if self.speed is not None:
                self.speed.tick()
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = Span(name, now(), math.nan, parent, self.phase)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.counts[f"{name}.raised.{type(e).__name__}"] += 1
                raise
            finally:
                span.end = now()
                self._open.pop()
                if parent >= 0:
                    self.spans[parent].covered += span.duration
            finish(span, args, kwargs, result)
            return result

        return spanned

    def of(self, name: str, phase: str | None = None) -> list[Span]:
        return [
            s for s in self.spans if s.name == name and (phase is None or s.phase == phase)
        ]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.of(name))

    def counted(self, key: str, spans: list[Span]) -> float:
        return sum(s.counts.get(key, 0) for s in spans if s.counts)

    def self_total(self, name: str) -> float:
        return sum(s.self_time for s in self.of(name))

    def dump(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.phase] for s in self.spans],
            "counts": dict(self.counts),
            "counted_s": dict(self.times),
        }


def _step_counts(args, result) -> dict[str, float]:
    loss = result[0]
    return {
        "training.frames": sum(ex.frames.shape[0] for ex in args["batch"]),
        "training.nonfinite": 0 if math.isfinite(loss) else 1,
    }


def _corpus_counts(args, entries) -> dict[str, float]:
    out = Path(args["out_dir"])
    return {
        "synth.utts": len(entries),
        "synth.feat_bytes": sum((out / e.path).stat().st_size for e in entries),
    }


# Per-call timers for the end-to-end run: a few thousand calls per pass, each
# at least ~0.1 ms, so they cost well under 0.1% of a pass.
E2E_POINTS = [
    Point(cli, "run_matrix", "cli.run_matrix"),
    Point(model, "forward", "model.forward"),
    Point(decoder, "beam_decode", "decoder.beam"),
    Point(decoder, "greedy_decode", "decoder.greedy"),
    Point(training.SgdTrainer, "step", "training.step", _step_counts),
]

LAYER_POINTS = [
    Point(cli, "run_matrix", "cli.run_matrix"),
    Point(synth, "synth_corpus", "synth.corpus", _corpus_counts),
    Point(training, "read_feat", "features.read"),
    Point(lm, "train_kn", "lm.train", lambda a, m: {"lm.ngrams": sum(map(len, m.tables.values()))}),
    Point(lm, "write_arpa", "lm.write_arpa"),
    Point(lm, "score", "lm.score", span=False),
    Point(training, "train_epochs", "training.epochs"),
    Point(training.SgdTrainer, "step", "training.step", _step_counts),
    Point(model, "forward_states", "model.forward", lambda a, r: {"model.frames": len(a["frames"])}),
    Point(model, "backward", "model.backward"),
    Point(training, "ctc_loss", "ctc.loss"),
    Point(decoder, "beam_decode", "decoder.beam", lambda a, r: {"decoder.frames": a["grid"].num_frames}),
    Point(decoder, "greedy_decode", "decoder.greedy", lambda a, r: {"decoder.frames": a["grid"].num_frames}),
    Point(metrics, "corpus_cer", "metrics.score", lambda a, r: {"metrics.pairs": len(a["references"])}),
]
