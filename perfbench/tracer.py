"""Per-module spans for a benchmark sample, recorded from outside the package.

``Tracer.install`` wraps the public functions (and the public methods of
public classes) that each layer module lists in ``__all__``, and rebinds
every reference the package's modules hold to them, so calls made through
``from .dac import reconstruct`` are traced too.  Spans are kept in memory
and handed to the caller at the end; ``layer_metrics`` turns them into self
times and work counters per layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The package modules that form the benchmark's layers.  ``patterns`` is
#: left unwrapped: its time counts in the caller, the orchestration in presets.
LAYERS = ("waveform", "dac", "psd", "estimate", "precoding", "io", "presets")

#: Functions reported as a layer of their own rather than in their module.
SUB_LAYERS = ("presets.precoded_stream",)


def _psd_points(curve) -> Dict[str, float]:
    return {"points": curve.num_points}


def _written(path) -> Dict[str, float]:
    return {"files": 1, "bytes_written": Path(path).stat().st_size}


# Work counters, taken from a function's result (for a generator, from each
# item it yields).  They are counted only where control enters the layer, so
# nested calls inside one layer are not counted twice.
COUNTERS: Dict[str, Callable[[object], Dict[str, float]]] = {
    "dac.reconstruct": lambda signal: {"dense_samples": signal.num_samples},
    "waveform.stream_chunks": lambda chunk: {"frames": chunk.num_frames},
    "waveform.generate_random_stream": lambda stream: {"frames": stream.num_frames},
    "estimate.periodogram": lambda curve: {"segments": curve.meta["num_segments"]},
    "estimate.PeriodogramAverager.result": lambda curve: {"segments": curve.meta["num_segments"]},
    "psd.otfs_psd": _psd_points,
    "psd.ofdm_psd": _psd_points,
    "psd.cep_ofdm_psd": _psd_points,
    "precoding.build_precoders": lambda precoders: {"subcarriers": len(precoders.matrices)},
    "presets.precoded_stream": lambda result: {"frames": result[0].num_frames},
    "io.write_psd_curve": _written,
    "io.write_metrics": _written,
    "io.write_mask": _written,
    "io.write_precoder_set": _written,
    "io.write_frame_stream": _written,
}

#: Counters reported per layer, and the rates derived from them.
LAYER_COUNTERS = {
    "dac": ("dense_samples",),
    "waveform": ("frames",),
    "estimate": ("segments",),
    "psd": ("points",),
    "precoding": ("subcarriers",),
    "presets.precoded_stream": ("frames",),
    "io": ("files", "bytes_written"),
}
RATES = {"dac": "dense_samples", "psd": "points"}


class Tracer:
    """Stack of open spans plus the list of finished ones.

    A span is ``[name, layer, start, end, parent, counters]`` with
    ``parent`` the index of the enclosing span (-1 at the top).  Times come
    from ``time.perf_counter``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, count: Optional[Callable], result) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        self._stack.pop()
        if count is not None and self._enters_layer(span):
            span[5] = count(result)

    def _enters_layer(self, span: list) -> bool:
        return span[4] < 0 or self.spans[span[4]][1] != span[1]

    def wrap(self, func: Callable, name: str, layer: str) -> Callable:
        count = COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def traced_generator(*args, **kwargs):
                index = tracer._open(name, layer)
                try:
                    generator = func(*args, **kwargs)
                finally:
                    tracer._close(index, None, None)
                return tracer._resumed(generator, name + ".next", layer, count)

            return traced_generator

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer._open(name, layer)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._close(index, count, result)

        return traced

    def _resumed(self, generator, name: str, layer: str, count: Optional[Callable]):
        # Each resumption of the generator is its own span, so the time spent
        # producing an item is charged to the generator's layer.
        while True:
            index = self._open(name, layer)
            try:
                item = next(generator)
            except StopIteration:
                self._close(index, None, None)
                return
            except BaseException:
                self._close(index, None, None)
                raise
            self._close(index, count, item)
            yield item

    def install(self, package: str = "otfspectrum") -> None:
        """Wrap every layer's public callables and rebind all references to them."""
        replacements: Dict[int, Callable] = {}
        for module_name in LAYERS:
            module = importlib.import_module(f"{package}.{module_name}")
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{module_name}.{public}"
                if inspect.isfunction(obj):
                    layer = name if name in SUB_LAYERS else module_name
                    replacements[id(obj)] = self.wrap(obj, name, layer)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self.wrap(member, f"{name}.{attr}", module_name))
        for module_name, module in list(sys.modules.items()):
            if module_name == package or module_name.startswith(package + "."):
                for key, value in list(vars(module).items()):
                    if id(value) in replacements:
                        setattr(module, key, replacements[id(value)])


def layer_metrics(spans: List[list], wall_s: float) -> Dict[str, float]:
    """Self time, entry count and work counters per layer, plus trace coverage.

    A span's self time is its duration minus the durations of its direct
    children (spans never overlap their siblings: the program is one
    thread).  ``trace.coverage`` is the share of ``wall_s`` spent in a
    named layer other than the orchestration residual ``presets``.
    """
    self_s: Dict[str, float] = {}
    for name, layer, start, end, parent, _ in spans:
        duration = end - start
        self_s[layer] = self_s.get(layer, 0.0) + duration
        if parent >= 0:
            parent_layer = spans[parent][1]
            self_s[parent_layer] = self_s.get(parent_layer, 0.0) - duration

    metrics: Dict[str, float] = {}
    for layer in LAYERS + SUB_LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.calls"] = sum(
            1
            for name, span_layer, _, _, parent, _ in spans
            if span_layer == layer
            and not name.endswith(".next")
            and (parent < 0 or spans[parent][1] != layer)
        )
        for counter in LAYER_COUNTERS.get(layer, ()):
            metrics[f"{layer}.{counter}"] = sum(
                (span[5] or {}).get(counter, 0) for span in spans if span[1] == layer
            )
    for layer, counter in RATES.items():
        busy = metrics[f"{layer}.self_s"]
        metrics[f"{layer}.{counter}_per_s"] = metrics[f"{layer}.{counter}"] / busy if busy > 0 else 0.0
    metrics["trace.coverage"] = 1.0 - metrics["presets.self_s"] / wall_s
    return metrics
