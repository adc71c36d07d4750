"""Outside-in tracing of the scoring path for the benchmark's traced run.

The tracer rebinds the module-level names that the scoring path looks
up at call time to timing wrappers; no source under ``src/`` changes.
Each wrapper records a span (name, start, end, parent span, draw index
and the argument shapes it needs for computed counts).  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import naswot.network
import naswot.scoring

SEARCH = "search.naswot_search"
SCORER = "scoring.score_network"
# The untraced twin of each traced scoring (see worker.PairedScorer); it
# is tracing cost, not part of the traced wall.
REPLAY = "trace.untraced_score"

# Every name is called while scoring any genotype of any workload: the
# stem is conv+BN, every downsample shortcut pools, and every score
# builds, runs the forward pass, forms the kernel and takes ln det.
TARGETS = (
    (naswot.scoring, "build_network", "network.build_network"),
    (naswot.scoring, "forward_collect_codes", "network.forward_collect_codes"),
    (naswot.scoring, "hamming_kernel", "scoring.hamming_kernel"),
    (naswot.scoring, "logdet_score", "scoring.logdet_score"),
    (naswot.network, "conv2d", "layers.conv2d"),
    (naswot.network, "batchnorm_batchstats", "layers.batchnorm_batchstats"),
    (naswot.network, "avg_pool2d", "layers.avg_pool2d"),
)


class MissingTraceTarget(AttributeError):
    """A name the traced run rebinds no longer exists in its module."""


class UnusedTraceTarget(RuntimeError):
    """A rebound name got no calls, so the scoring path no longer goes through it."""


# Argument shapes kept per call, from which the counts are computed.
def _conv_info(x, weights, stride=1, padding=0, *_, **__):
    return (x.shape, weights.shape, stride, padding)


def _pool_info(x, kernel, stride=1, padding=0, *_, **__):
    return (x.shape, kernel, stride, padding)


def _shape_info(x, *_, **__):
    return x.shape


def _kernel_info(codes, *_, **__):
    return codes.words.shape


_INFO = {
    "layers.conv2d": _conv_info,
    "layers.avg_pool2d": _pool_info,
    "layers.batchnorm_batchstats": _shape_info,
    "scoring.hamming_kernel": _kernel_info,
}
# ... and, for the forward pass, the shape of what it returns.
_RESULT_INFO = {
    "network.forward_collect_codes": lambda codes: (codes.n_inputs, codes.n_units),
}


class Tracer:
    """Span recorder.  Single-threaded: the scoring loop is one caller."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, draw index, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []  # (module, attr, original, wrapper)
        self.draw = -1

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name, None)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name, info):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.draw, info]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        info_of = _INFO.get(name)
        result_info_of = _RESULT_INFO.get(name)

        def wrapped(*args, **kwargs):
            rec = self._open(name, info_of(*args, **kwargs) if info_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if result_info_of:
                rec[5] = result_info_of(result)
            return result

        return wrapped

    def indexed(self, genotypes, first_draw: int):
        """Yield ``genotypes``, stamping later spans with each one's draw index."""
        for i, genotype in enumerate(genotypes, start=first_draw):
            self.draw = i
            yield genotype

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to its wrapper; restore on exit."""
        self._originals = []
        try:
            for module, attr, name in TARGETS:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise MissingTraceTarget(
                        f"{module.__name__}.{attr} is missing; the traced run cannot wrap it"
                    )
                self._originals.append((module, attr, fn, self.wrap(name, fn)))
                setattr(module, attr, self._originals[-1][3])
            yield self
        finally:
            for module, attr, fn, _ in self._originals:
                setattr(module, attr, fn)

    @contextlib.contextmanager
    def paused(self):
        """Inside ``installed()``: run with the original functions."""
        for module, attr, fn, _ in self._originals:
            setattr(module, attr, fn)
        try:
            yield
        finally:
            for module, attr, _, wrapped in self._originals:
                setattr(module, attr, wrapped)

    def check_all_called(self) -> None:
        called = {rec[0] for rec in self.spans}
        for module, attr, name in TARGETS:
            if name not in called:
                raise UnusedTraceTarget(
                    f"{module.__name__}.{attr} got no calls; the scoring path no longer "
                    "goes through it, so its layer would read 0 ms"
                )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, draw, info) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                         "parent": parent, "draw": draw, "info": info}) + "\n")

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, total self seconds and computed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, _, info) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_time[i]
            for key, value in _computed(name, info).items():
                t[key] += value
        return out


def _computed(name: str, info) -> dict[str, float]:
    """Operation and byte counts computed from argument shapes (float32 tensors)."""
    if name == "layers.conv2d":
        (n, c_in, h, w), (c_out, _, k, _), stride, padding = info
        oh = (h + 2 * padding - k) // stride + 1
        ow = (w + 2 * padding - k) // stride + 1
        cols = n * oh * ow * c_in * k * k
        return {"flop": 2.0 * cols * c_out, "im2col_bytes": 4.0 * cols}
    if name == "layers.batchnorm_batchstats":
        return {"bytes": 2.0 * 4 * math.prod(info)}
    if name == "layers.avg_pool2d":
        (n, c, h, w), k, stride, padding = info
        oh = (h + 2 * padding - k) // stride + 1
        ow = (w + 2 * padding - k) // stride + 1
        return {"bytes": 4.0 * n * c * (h * w + oh * ow)}
    if name == "scoring.hamming_kernel":
        n, words = info
        return {"bytes_read": 8.0 * n * n * words}
    if name == "network.forward_collect_codes" and info is not None:
        n, units = info
        return {"relu_units": float(units), "code_bytes": 8.0 * n * math.ceil(units / 64)}
    return {}


def per_layer_metrics(totals, draws: int, singular: int, valid: int,
                      batch_ms: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer table: per scored genotype means unless the unit says otherwise."""
    calls = totals[SCORER]["calls"]

    def mean(name, key, scale=1.0):
        return totals[name][key] * scale / calls

    conv, kern = totals["layers.conv2d"], totals["scoring.hamming_kernel"]
    return {
        "network.build_network.ms": (mean("network.build_network", "s", 1e3), "ms"),
        "network.forward_collect_codes.ms": (mean("network.forward_collect_codes", "s", 1e3), "ms"),
        "network.forward_collect_codes.self_ms": (
            mean("network.forward_collect_codes", "self_s", 1e3), "ms"),
        "network.relu_units": (mean("network.forward_collect_codes", "relu_units"), "count"),
        "network.code_bytes": (mean("network.forward_collect_codes", "code_bytes"), "bytes"),
        "layers.conv2d.calls": (mean("layers.conv2d", "calls"), "count"),
        "layers.conv2d.ms": (mean("layers.conv2d", "s", 1e3), "ms"),
        "layers.conv2d.gflop": (mean("layers.conv2d", "flop", 1e-9), "GFLOP"),
        "layers.conv2d.gflop_per_s": (conv["flop"] * 1e-9 / conv["s"], "GFLOP/s"),
        "layers.conv2d.im2col_mb": (mean("layers.conv2d", "im2col_bytes", 1e-6), "MB"),
        "layers.batchnorm_batchstats.calls": (mean("layers.batchnorm_batchstats", "calls"), "count"),
        "layers.batchnorm_batchstats.ms": (mean("layers.batchnorm_batchstats", "s", 1e3), "ms"),
        "layers.batchnorm_batchstats.mb": (mean("layers.batchnorm_batchstats", "bytes", 1e-6), "MB"),
        "layers.avg_pool2d.calls": (mean("layers.avg_pool2d", "calls"), "count"),
        "layers.avg_pool2d.ms": (mean("layers.avg_pool2d", "s", 1e3), "ms"),
        "layers.avg_pool2d.mb": (mean("layers.avg_pool2d", "bytes", 1e-6), "MB"),
        "scoring.hamming_kernel.ms": (mean("scoring.hamming_kernel", "s", 1e3), "ms"),
        "scoring.hamming_kernel.mb_read": (mean("scoring.hamming_kernel", "bytes_read", 1e-6), "MB"),
        "scoring.hamming_kernel.gb_per_s": (kern["bytes_read"] * 1e-9 / kern["s"], "GB/s"),
        "scoring.logdet_score.ms": (mean("scoring.logdet_score", "s", 1e3), "ms"),
        "scoring.score_network.self_ms": (mean(SCORER, "self_s", 1e3), "ms"),
        "scoring.valid_ratio": (valid / calls, "ratio"),
        "scoring.singular_count": (float(singular), "count/run"),
        "search.naswot_search.overhead_ms": (mean(SEARCH, "self_s", 1e3), "ms"),
        "search.memo_hit_ratio": ((draws - calls) / draws, "ratio"),
        "benchdata.random_normal_batch.ms": (batch_ms, "ms/run"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
