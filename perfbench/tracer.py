"""In-memory spans around the program's public functions.

The benchmark installs these wrappers from its own files, in the program's
process, only for the traced run; nothing in ``src/`` is changed. A span is
(name, start_ns, end_ns, parent index). Spans stay in a list until the end
of the run, when they are summarised and written out.

Where ``snatchdet.pipeline`` imported a function by name, the wrapper goes
on ``snatchdet.pipeline.<name>``, since that is the binding the engine calls.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.engines: list = []
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self time (ns), for spans[lo:hi].

        Self time is a span's duration minus the durations of its direct
        children. A span nested in another of the same name (a function
        that calls itself) is left out, so totals are not counted twice.
        """
        spans = self.spans[lo:hi]
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= lo:
                child_ns[parent - lo] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= lo and spans[parent - lo][0] == name:
                continue
            row = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["incl_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from snatchdet import features, forest, pipeline, preprocess, streams, types

    def patch(owner, attr: str, name: str) -> None:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr)))

    # ingest
    patch(streams, "line_to_frame", "streams.line_to_frame")
    validate = tracer.span("types.validate_frame", types.validate_frame)
    types.validate_frame = validate
    pipeline.validate_frame = validate
    patch(preprocess.SkeletonSmoother, "step", "preprocess.SkeletonSmoother.step")

    # engine and window step
    patch(pipeline.StreamEngine, "process", "pipeline.StreamEngine.process")
    init = pipeline.StreamEngine.__init__

    def engine_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.engines.append(self)

    pipeline.StreamEngine.__init__ = tracer.span("pipeline.StreamEngine.__init__", engine_init)
    patch(pipeline, "select_pair", "pipeline.select_pair")
    patch(pipeline, "order_roles", "pipeline.order_roles")
    patch(pipeline, "pair_segment", "features.pair_segment")
    patch(pipeline, "extract_segment", "features.extract_segment")
    predict = tracer.span("forest.predict_probability", forest.predict_probability)
    forest.predict_probability = predict
    pipeline.predict_probability = predict
    patch(pipeline, "step", "temporal.step")
    pipeline.body_center = tracer.counter("pipeline.body_center", pipeline.body_center)

    # model file, offline extraction and training
    patch(forest, "load_model", "forest.load_model")
    patch(streams, "read_stream", "streams.read_stream")
    patch(pipeline, "extract_windows", "pipeline.extract_windows")
    patch(features, "write_feature_csv", "features.write_feature_csv")
    patch(features, "read_feature_csv", "features.read_feature_csv")
    patch(forest, "train", "forest.train")
    patch(forest, "training_accuracy", "forest.training_accuracy")
    patch(forest, "save_model", "forest.save_model")
