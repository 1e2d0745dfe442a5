"""Spans recorded around calls into bertrand_lab's layers, from outside the program.

The program has no tracing of its own yet, so the traced run swaps public
functions of its modules for wrappers that record a span per call and puts
the originals back afterwards.  Spans stay in memory and are written to a
JSON-lines file when the run ends.  Per-layer metrics are computed from the
spans: a layer's self time is its spans' durations minus the time covered by
their child spans in the same thread.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import itertools
import json
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

# Short layer name of each experiment, keyed by the model value the program uses.
EXPERIMENT_LAYERS = {
    "midpoint_uniform": "midpoint",
    "tangent_angle_uniform": "tangent",
    "polar_uniform": "polar",
    "center_angle": "center_angle",
    "endpoints": "endpoints",
    "square": "square",
}

_MASK64 = (1 << 64) - 1


class Tracer:
    """Collects spans (name, start, end, parent, run id) in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {
            "run": self.run_id,
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "thread": threading.get_ident(),
            **attrs,
        }
        stack.append(rec["id"])
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``annotate(rec, result)`` may add attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(rec, result)
                return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


class CountingGenerator:
    """Proxy for a numpy Generator that counts the random numbers it hands out."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.count = 0

    def __getattr__(self, name: str):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.count += int(np.size(out))
            return out

        return counted


def _nbytes(value: Any) -> int:
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0))


def traced_experiment(tracer: Tracer, experiment, layer: str):
    """The same experiment with spans around its sampler and predicate.

    The sampler draws through a counting proxy, and both spans record the
    bytes of the arrays they return.
    """

    def sample(rng, size):
        with tracer.span(f"{layer}.sample", size=size) as rec:
            counting = CountingGenerator(rng)
            batch = experiment.sample(counting, size)
            rec["draws"] = counting.count
            rec["bytes"] = _nbytes(batch)
            return batch

    def event(batch):
        with tracer.span(f"{layer}.event") as rec:
            hits = experiment.event(batch)
            rec["bytes"] = _nbytes(hits)
            return hits

    return dataclasses.replace(experiment, sample=sample, event=event)


def replica_count(tracer: Tracer, montecarlo, experiment, n: int, seed: int) -> int:
    """The engine's serial batch loop, rebuilt from its public contract.

    Batch ``b`` draws ``min(BATCH_SIZE, n - b * BATCH_SIZE)`` trials from
    ``stream_generator(seed, b)``; the success count must equal
    ``montecarlo.run``'s exactly.
    """
    seed &= _MASK64
    total = 0
    with tracer.span("montecarlo.run", experiment=experiment.name, n=n, seed=seed, shards=1):
        for b, lo in enumerate(range(0, n, montecarlo.BATCH_SIZE)):
            rng = montecarlo.stream_generator(seed, b)
            hits = experiment.event(experiment.sample(rng, min(montecarlo.BATCH_SIZE, n - lo)))
            total += int(np.count_nonzero(hits))
    return total


def _series_points(name: str, bound: inspect.BoundArguments) -> float:
    """Evaluation points per series term, so that terms = L * points."""
    args = bound.arguments
    if name == "cdf_grid":
        xs = np.asarray(args["xs"], dtype=np.float64)
        return float(np.count_nonzero((xs >= 0.0) & (xs < 1.0)))
    if name == "interval_probability":
        return 2.0
    if name == "atom_probability":
        return 1.0 / args["q"].denominator
    return 1.0


@contextlib.contextmanager
def instrumented(tracer: Tracer, lab) -> Iterator[None]:
    """Swap the program's layer entry points for traced wrappers, then restore them."""
    patches: list[tuple[Any, str, Any]] = []

    def patch(owner, attr: str, new) -> None:
        patches.append((owner, attr, new))

    mc = lab.montecarlo
    original_run = mc.run

    def run(experiment, n, seed, shards=1, *rest, **kwargs):
        with tracer.span(
            "montecarlo.run", experiment=experiment.name, n=n, seed=seed & _MASK64, shards=shards
        ):
            return original_run(experiment, n, seed, shards, *rest, **kwargs)

    for module in (mc, lab.bertrand, lab.buffon, lab.squares, lab.cli):
        if getattr(module, "run", None) is original_run:
            patch(module, "run", run)
    patch(mc, "stream_generator", tracer.wrap("montecarlo.seed", mc.stream_generator))

    def experiment_factory(fn, layer_of):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return traced_experiment(tracer, fn(*args, **kwargs), layer_of(*args, **kwargs))

        return factory

    def model_layer(model, *_, **__):
        return EXPERIMENT_LAYERS[model.value]

    patch(lab.bertrand, "chord_exceed_experiment",
          experiment_factory(lab.bertrand.chord_exceed_experiment, model_layer))
    patch(lab.buffon, "needle_cross_experiment",
          experiment_factory(lab.buffon.needle_cross_experiment, model_layer))
    patch(lab.squares, "square_exceed_experiment",
          experiment_factory(lab.squares.square_exceed_experiment, lambda *_, **__: "square"))
    patch(lab.bertrand, "exceed_probability_under_measure",
          tracer.wrap("bertrand.pushforward", lab.bertrand.exceed_probability_under_measure))

    rat = lab.rationals
    for name in ("atom_probability", "cdf", "cdf_grid", "interval_probability", "mean_reciprocal"):
        patch(rat, name, _series_wrapper(tracer, name, getattr(rat, name)))
    patch(rat, "sample_rational_batch", tracer.wrap("rationals.sample", rat.sample_rational_batch))

    def record_L(rec, result):
        rec["L"] = int(result)

    law_classes = [rat.DenominatorLaw]
    for cls in law_classes:
        law_classes.extend(cls.__subclasses__())
        for attr, span_name, annotate in (
            ("truncation_index", "rationals.truncation", record_L),
            ("pmf_array", "rationals.pmf", None),
        ):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                patch(cls, attr, tracer.wrap(span_name, fn, annotate))

    saved = []
    try:
        for owner, attr, new in patches:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _series_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Span around one rationals series call, with its evaluation points and
    the peak of numpy buffers it allocated (tracemalloc sees them)."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        points = _series_points(name, signature.bind(*args, **kwargs))
        own = not tracemalloc.is_tracing()
        if own:
            tracemalloc.start()
        try:
            with tracer.span("rationals.series", call=name, points=points) as rec:
                return fn(*args, **kwargs)
        finally:
            if own:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    return traced


def layer_metrics(spans: list[dict[str, Any]], passes: int) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans, per traced pass.

    Times are seconds of self time (or of the whole span for layers that
    have no child spans); a layer the workload never called reads 0.
    """
    children: dict[int, int] = defaultdict(int)
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]

    def dur(s) -> float:
        return (s["end"] - s["start"]) / 1e9

    def self_s(s) -> float:
        return dur(s) - children[s["id"]] / 1e9

    def total(name: str, pick: Callable = lambda s: True, measure: Callable = dur) -> float:
        return sum(measure(s) for s in by_name[name] if pick(s)) / passes

    m: dict[str, float] = {
        "cli.main_s": total("cli.main", measure=self_s),
        "cli.tabulate_s": total("cli.main", lambda s: s["sample"], self_s),
        "bertrand.pushforward_s": total("bertrand.pushforward"),
        "montecarlo.seed_s": total("montecarlo.seed"),
        "montecarlo.count_s": total("montecarlo.run", lambda s: s["shards"] == 1, self_s),
        "montecarlo.batches": len(by_name["montecarlo.seed"]) / passes,
    }

    runs = by_name["montecarlo.run"]
    sharded = [s for s in runs if s["shards"] > 1]
    sample_spans = [s for layer in EXPERIMENT_LAYERS.values() for s in by_name[f"{layer}.sample"]]
    m["montecarlo.workers"] = max(
        (
            len({t["thread"] for t in sample_spans if r["start"] <= t["start"] and t["end"] <= r["end"]})
            for r in sharded
        ),
        default=0,
    )
    serial = {(s["experiment"], s["n"], s["seed"]): dur(s) for s in runs if s["shards"] == 1}
    paired = [r for r in sharded if (r["experiment"], r["n"], r["seed"]) in serial]
    busy = sum(serial[(r["experiment"], r["n"], r["seed"])] for r in paired)
    fanned = sum(r["shards"] * dur(r) for r in paired)
    m["montecarlo.fanout_efficiency"] = busy / fanned if fanned else 0.0

    for layer in EXPERIMENT_LAYERS.values():
        samples, events = by_name[f"{layer}.sample"], by_name[f"{layer}.event"]
        trials = sum(s["size"] for s in samples)
        m[f"{layer}.sample_s"] = total(f"{layer}.sample")
        m[f"{layer}.event_s"] = total(f"{layer}.event")
        m[f"{layer}.draws_per_trial"] = sum(s["draws"] for s in samples) / trials if trials else 0.0
        m[f"{layer}.bytes_per_trial"] = (
            sum(s["bytes"] for s in samples + events) / trials if trials else 0.0
        )

    series = by_name["rationals.series"]
    L_of = defaultdict(int)
    for s in by_name["rationals.truncation"]:
        if s["parent"] is not None:
            L_of[s["parent"]] += s["L"]
    series_time = sum(dur(s) for s in series)
    terms = sum(L_of[s["id"]] * s["points"] for s in series)
    m.update(
        {
            "rationals.L_total": sum(s["L"] for s in by_name["rationals.truncation"]) / passes,
            "rationals.truncation_s": total("rationals.truncation"),
            "rationals.pmf_s": total("rationals.pmf"),
            "rationals.cdf_grid_s": total("rationals.series", lambda s: s["call"] == "cdf_grid", self_s),
            "rationals.interval_s": total(
                "rationals.series", lambda s: s["call"] == "interval_probability", self_s
            ),
            "rationals.terms_per_s": terms / series_time if series_time else 0.0,
            "rationals.peak_mib": max((s.get("peak_bytes", 0) for s in series), default=0) / 2**20,
            "rationals.sample_s": total("rationals.sample"),
        }
    )
    return m
