"""Span tracing of randumb's layers by attribute substitution.

``Tracer.install`` replaces the public functions and methods of each
randumb module with wrappers that record one span per call: name, start,
end and the index of the enclosing span.  Nothing under ``src/`` is
edited.  A module-level function is replaced in every randumb module that
binds it, because some modules import functions by name (``classifier``
binds ``oas_shrink`` and ``build_precision``; ``harness`` binds
``normalize`` and ``flip_horizontal``), and a call through such a name
would otherwise bypass the wrapper.

Spans stay in memory; ``summary`` folds them into per-layer self times
(a span's duration minus the part its child spans cover), outer call
counts, and the counters the wrappers collected on the way.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.values: dict[str, float] = {}

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _traced(self, original, name, after=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _traced_stream(self, original, name):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            items = original(*args, **kwargs)
            while True:
                index = tracer._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                tracer.counters[name + "_items"] += 1
                yield item

        return traced

    @staticmethod
    def _with_tracemalloc(original, record):
        @functools.wraps(original)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                record(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    @staticmethod
    def _replace_function(original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every randumb namespace."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "randumb" and not module_name.startswith("randumb."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary of an imported randumb."""
        from randumb import classifier, data_io, fourier, harness, precision, streaming

        count = self.counters
        values = self.values

        def rows(key):
            def after(args, result):
                count[key] += len(args[1])
            return after

        def fourier_rows(args, result):
            fmap, x = args[0], args[1]
            count["fourier.embed_rows"] += len(x)
            count["fourier.embed_flop"] += 2 * len(x) * fmap.spec.input_dim * fmap.spec.num_bases

        def shrink_done(args, result):
            values["precision.rho"] = result.rho

        def finalize_done(args, result):
            values["embed_dim"] = args[0].config.embed_dim

        def factor_done(args, result):
            values["precision.log_det"] = args[0].log_det

        def update_done(args, result):
            est = args[0]
            count["streaming.update_rows"] += 1
            # computed bytes: the upper triangle read and written (8*E^2)
            # with a covariance, one mean vector read and written without
            e = est.embed_dim
            count["streaming.update_bytes"] += 8 * e * e if est.track_scatter else 16 * e

        def state_done(args, result):
            values["streaming.state_bytes"] = result

        def finalize_alloc(peak):
            values["classifier.finalize_alloc_peak_bytes"] = peak

        functions = [
            (data_io.load_dataset, "data_io.load", None),
            (data_io.normalize, "data_io.normalize", None),
            (data_io.normalize_batch, "data_io.normalize", None),
            (data_io.flip_horizontal, "data_io.flip", None),
            (harness.run_on_dataset, "harness.run", None),
            (harness.compute_accuracy, "harness.evaluate", None),
            (precision.oas_shrink, "precision.shrink", shrink_done),
        ]
        for original, name, after in functions:
            self._replace_function(original, self._traced(original, name, after))
        self._replace_function(
            harness.make_stream, self._traced_stream(harness.make_stream, "harness.stream")
        )

        classifier.StreamingClassifier.finalize = self._with_tracemalloc(
            classifier.StreamingClassifier.finalize, finalize_alloc
        )
        methods = [
            (fourier.FeatureMap, "__init__", "fourier.map_build", None),
            (fourier.FeatureMap, "embed", "fourier.embed", None),
            (fourier.FeatureMap, "embed_batch", "fourier.embed", fourier_rows),
            (classifier.RandomReluMap, "__init__", "classifier.relu_map_build", None),
            (classifier.RandomReluMap, "embed", "classifier.relu_embed", None),
            (
                classifier.RandomReluMap,
                "embed_batch",
                "classifier.relu_embed",
                rows("classifier.relu_embed_rows"),
            ),
            (classifier.StreamingClassifier, "observe", "classifier.observe", None),
            (
                classifier.StreamingClassifier,
                "finalize",
                "classifier.finalize",
                finalize_done,
            ),
            (
                classifier.StreamingClassifier,
                "predict_batch",
                "classifier.predict",
                rows("classifier.predict_rows"),
            ),
            (streaming.StreamingEstimator, "observe", "streaming.update", update_done),
            (streaming.StreamingEstimator, "covariance", "streaming.covariance", None),
            (streaming.StreamingEstimator, "state_nbytes", "streaming.state", state_done),
            (precision.PrecisionModel, "__init__", "precision.factor", factor_done),
            (precision.PrecisionModel, "solve", "precision.solve", None),
        ]
        for cls, attr, name, after in methods:
            setattr(cls, attr, self._traced(vars(cls)[attr], name, after))

    # -- results ------------------------------------------------------------

    def layer_times(self):
        """Per span name: (self seconds, inclusive seconds, outer calls).

        Outer calls are spans whose parent has another name, so
        ``embed`` calling ``embed_batch`` counts once.
        """
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        outer = Counter()
        for name, start, end, parent in self.spans:
            duration = end - start
            self_s[name] += duration
            if parent < 0 or self.spans[parent][0] != name:
                inclusive[name] += duration
                outer[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        return self_s, inclusive, outer

    def summary(self) -> dict:
        """The per-layer metrics one traced run yields (see README.md)."""
        self_s, inclusive, outer = self.layer_times()
        count, values = self.counters, self.values
        e = values.get("embed_dim", 0)
        peak = values.get("classifier.finalize_alloc_peak_bytes", 0)
        return {
            "data_io.load_s": self_s["data_io.load"],
            "data_io.normalize_s": self_s["data_io.normalize"],
            "data_io.normalize_calls": outer["data_io.normalize"],
            "data_io.flip_s": self_s["data_io.flip"],
            "data_io.flip_calls": outer["data_io.flip"],
            "harness.run_s": inclusive["harness.run"],
            "harness.stream_s": self_s["harness.stream"],
            "harness.stream_items": count["harness.stream_items"],
            "harness.evaluate_s": self_s["harness.evaluate"],
            "fourier.map_build_s": self_s["fourier.map_build"],
            "fourier.embed_s": self_s["fourier.embed"],
            "fourier.embed_calls": outer["fourier.embed"],
            "fourier.embed_rows": count["fourier.embed_rows"],
            "fourier.embed_gflop": count["fourier.embed_flop"] / 1e9,
            "classifier.relu_map_build_s": self_s["classifier.relu_map_build"],
            "classifier.relu_embed_s": self_s["classifier.relu_embed"],
            "classifier.relu_embed_rows": count["classifier.relu_embed_rows"],
            "classifier.finalize_s": inclusive["classifier.finalize"],
            "classifier.finalize_alloc_peak_bytes": peak,
            "classifier.finalize_alloc_ratio": peak / (8 * e * e) if e else 0.0,
            "classifier.predict_s": self_s["classifier.predict"],
            "classifier.predict_rows": count["classifier.predict_rows"],
            "streaming.update_s": self_s["streaming.update"],
            "streaming.update_calls": outer["streaming.update"],
            "streaming.update_rows": count["streaming.update_rows"],
            "streaming.update_gb_computed": count["streaming.update_bytes"] / 1e9,
            "streaming.covariance_s": self_s["streaming.covariance"],
            "streaming.state_bytes": values.get("streaming.state_bytes", 0),
            "precision.shrink_s": self_s["precision.shrink"],
            "precision.factor_s": self_s["precision.factor"],
            "precision.factor_gflop": e**3 / 3 / 1e9 if outer["precision.factor"] else 0.0,
            "precision.solve_s": self_s["precision.solve"],
            # 0 where the workload's variant has no covariance (kernel_ncm)
            "precision.rho": values.get("precision.rho", 0.0),
            "precision.log_det": values.get("precision.log_det", 0.0),
        }

    def dump(self, path) -> None:
        """Write every span as one JSON list per line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
