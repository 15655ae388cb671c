"""Per-layer span tracing of ``repro``, installed from outside the library.

:class:`Tracer` wraps the public callables that :data:`LAYERS` assigns
to each layer.  A method wrapper goes on the class attribute; a function
wrapper replaces every module attribute that *is* the original
function, which also catches ``from x import f`` bindings.  Every call
records one span in memory: id, parent id, layer, callable name, start,
end, thread and repetition id.  A call that returns a generator (the
``run_shards`` backends) records one more span per resumption, so work a
lazy backend does while its caller iterates is timed where it runs.

A layer's self time is the duration of its spans minus the part their
child spans cover, so the self times of all layers add up to the time
the outermost spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Layer → the public callables timed as that layer, ``module:qualname``.
LAYERS: dict[str, tuple[str, ...]] = {
    "data.generate": (
        "repro.data.ngst:generate_walk",
        "repro.stream.source:SyntheticWalkSource.read",
    ),
    "faults.inject": (
        "repro.faults.injector:FaultInjector.inject",
        "repro.stream.pipeline:InjectStage.process",
    ),
    "core.vote": (
        "repro.core.algo_ngst:AlgoNGST.__call__",
        "repro.stream.pipeline:VoterStage.process",
    ),
    "core.autotune": ("repro.stream.autotune_stage:AutotuneVoterStage.process",),
    "core.otis": (
        "repro.core.algo_otis:AlgoOTIS.__call__",
        "repro.core.preprocessor:OTISPreprocessor.process",
    ),
    "ngst.rice": (
        "repro.ngst.rice:rice_encode",
        "repro.ngst.rice:rice_decode",
        "repro.ngst.rice:compression_ratio",
    ),
    "ngst.cr_rejection": ("repro.ngst.cluster:CRRejectionPipeline.run",),
    "baselines.smooth": (
        "repro.baselines.median:median_smooth_temporal",
        "repro.baselines.median:median_smooth_spatial",
        "repro.baselines.majority:majority_vote_temporal",
        "repro.baselines.majority:majority_vote_spatial",
        "repro.baselines.majority:majority_vote_window",
    ),
    "metrics.psi": (
        "repro.metrics.relative_error:psi",
        "repro.stream.pipeline:StreamingPsi.update",
    ),
    "cache.write": ("repro.cache.store:ArtifactCache.put",),
    "cache.verify": ("repro.cache.store:ArtifactCache.contains",),
    "cache.read": ("repro.cache.store:ArtifactCache.get",),
    "dag.schedule": ("repro.dag.scheduler:DagScheduler.run",),
    "dag.build": (
        "repro.experiments.figure2:graph",
        "repro.experiments.figure4:graph",
        "repro.dag.report:build_report_graph",
    ),
    "runtime.dispatch": ("repro.runtime.backend:SerialBackend.run_shards",),
    "experiments.coarse": ("repro.experiments.registry:run_experiment",),
    "stream.pipeline": (
        "repro.stream.pipeline:StreamPipeline.step",
        "repro.stream.pipeline:StreamPipeline.finalize",
    ),
    "stream.checkpoint": ("repro.stream.checkpoint:StreamCheckpoint.record",),
    "serve.codec": (
        "repro.serve.listener:encode_frames",
        "repro.serve.listener:decode_frames",
    ),
    "serve.ingest": ("repro.serve.session:StreamSession.ingest",),
}

#: Callables whose spans also carry a byte count: the base64 text each
#: codec call produces or consumes.
_SIZERS = {
    "encode_frames": lambda args, kwargs, result: len(result),
    "decode_frames": lambda args, kwargs, result: len(args[0]),
}

# Span tuple fields, in order.
SPAN_FIELDS = (
    "id", "parent", "layer", "name", "start", "end", "thread", "rep", "entry", "bytes",
)


def _resolve(target: str) -> tuple[object, str, object]:
    """``module:Qual.name`` → (owner, attribute, original callable)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wraps the :data:`LAYERS` callables and records their spans.

    Wrappers exist only between :meth:`install` and :meth:`uninstall`;
    outside that window every callable is the library's own.  Set
    :attr:`rep` to the id of the repetition about to run so its spans
    can be told apart.  Spans stay in :attr:`spans` until the caller
    writes them out with :func:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.rep = -1
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, object, bool]] | None = None

    # -- installation -------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object, bool]]:
        """Every (owner, attribute, original, wrapper, owned) to patch.

        Resolved once, after the caller has imported the modules it
        drives; a module imported later keeps its unwrapped bindings.
        """
        patches = []
        functions: dict[int, tuple[object, str]] = {}
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr, original = _resolve(target)
                name = target.split(":")[1]
                wrapper = self._wrap(layer, name, original)
                if inspect.isclass(owner):
                    patches.append(
                        (owner, attr, original, wrapper, attr in vars(owner))
                    )
                else:
                    functions[id(original)] = (original, wrapper)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((module, attr, value, entry[1], True))
        return patches

    def install(self) -> None:
        """Put every wrapper in place."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original callable."""
        for owner, attr, original, _, owned in self._patches or ():
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # the class inherited it

    # -- spans --------------------------------------------------------------

    def _open(self) -> tuple[int, int, float]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, opened, layer, name, entry, size=0) -> None:
        end = time.perf_counter()
        span_id, parent, start = opened
        self._local.stack.pop()
        self.spans.append(
            (span_id, parent, layer, name, start, end,
             threading.get_ident(), self.rep, entry, size)
        )

    def _wrap(self, layer: str, name: str, fn):
        sizer = _SIZERS.get(name.rsplit(".", 1)[-1])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                size = sizer(args, kwargs, result) if sizer and result is not None else 0
                self._close(opened, layer, name, True, size)
            if inspect.isgenerator(result):
                return self._resumptions(layer, name, result)
            return result

        return wrapper

    def _resumptions(self, layer: str, name: str, generator):
        try:
            while True:
                opened = self._open()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self._close(opened, layer, name, False)
                yield item
        finally:
            generator.close()


def dump(spans: list[tuple], path: Path, **labels) -> None:
    """Append *spans* to *path* as JSON lines, each with *labels* added."""
    with open(path, "a") as out:
        for span in spans:
            record = dict(zip(SPAN_FIELDS, span))
            record.update(labels)
            out.write(json.dumps(record) + "\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        covered[span[1]] += span[5] - span[4]
    return [span[5] - span[4] - covered.get(span[0], 0.0) for span in spans]


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per layer: entry calls, summed self seconds and bytes."""
    totals = {layer: {"calls": 0, "self_s": 0.0, "bytes": 0} for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        slot = totals[span[2]]
        slot["calls"] += span[8]
        slot["self_s"] += own
        slot["bytes"] += span[9]
    return totals
