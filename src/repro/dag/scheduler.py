"""Ready-set DAG execution with filesystem-recoverable state.

The scheduler never holds campaign state in memory between runs.  At
startup it *surveys* the artifact store: a node is done exactly when
its output artifact exists and verifies (header and SHA-256, checked
by :meth:`~repro.cache.ArtifactCache.contains`) **and** every ancestor is
done too.  The recursive condition is what gives subtree-precise
recovery: corrupt or delete one artifact and only that node and its
descendants re-execute, while unrelated branches replay as no-ops.  A
campaign killed at any instant therefore restarts as a survey plus
live execution of the remaining frontier, bit-identical to an
uninterrupted run — there is no session file to lose or mismatch.

Execution walks the graph in ready-set waves on the
:class:`~repro.runtime.Executor` seam: every node whose dependencies
are done is dispatched as one shard, indexed by its position in the
wave, so the serial and process-pool backends run graphs unchanged.
Workers return the output artifact's arrays and metadata;
**publication happens only in the parent**, after the worker result is
consumed, so a crash anywhere between node start and publication
simply re-runs the node — :mod:`repro.cache.store` publishes each
entry with one atomic rename and reads a damaged file as absent.
A failed node ends the run after its wave; a lost pool worker ends it
at once.  Either way the :class:`~repro.exceptions.DagError` names the
wave's unpublished nodes, and a recovering rerun (``--resume``)
continues from the published ones.
"""

from __future__ import annotations

import time
import traceback
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.cache.store import ArtifactCache, CachedArtifact
from repro.dag.graph import TaskGraph
from repro.dag.node import TaskContext, TaskNode, normalize_output
from repro.exceptions import DagError
from repro.runtime.backend import Executor, SerialBackend
from repro.runtime.telemetry import (
    DagCompleted,
    DagStarted,
    NodeCompleted,
    Telemetry,
)


@dataclass(frozen=True)
class DagSurvey:
    """What the artifact store says about a graph's completion state.

    Attributes:
        graph: the surveyed graph.
        order: the surveyed nodes in topological order (the ancestor
            closure of the run's targets).
        done: names of nodes that will replay as no-ops — their output
            artifact verified *and* all their ancestors are done.
    """

    graph: TaskGraph
    order: tuple[str, ...]
    done: frozenset[str]

    @property
    def n_nodes(self) -> int:
        return len(self.order)

    @property
    def n_done(self) -> int:
        return len(self.done)

    @property
    def n_pending(self) -> int:
        return self.n_nodes - self.n_done

    @property
    def temperature(self) -> float:
        """Fraction of the run already materialised (0 cold … 1 warm)."""
        return self.n_done / self.n_nodes if self.order else 1.0

    def pending(self) -> tuple[str, ...]:
        """Nodes that will execute, in topological order."""
        return tuple(name for name in self.order if name not in self.done)

    def by_kind(self) -> dict[str, tuple[int, int]]:
        """Per-kind ``(done, pending)`` counts, in first-seen order."""
        out: dict[str, list[int]] = {}
        for name in self.order:
            kind = self.graph.node(name).kind
            slot = out.setdefault(kind, [0, 0])
            slot[0 if name in self.done else 1] += 1
        return {kind: (d, p) for kind, (d, p) in out.items()}

    def waves(self) -> list[list[str]]:
        """Pending nodes grouped into dispatch waves.

        Wave *i* holds the pending nodes whose pending ancestors all
        sit in earlier waves — the order the scheduler will actually
        release work, useful for ``--plan`` output.
        """
        level: dict[str, int] = {}
        waves: list[list[str]] = []
        for name in self.order:
            if name in self.done:
                continue
            deps = [
                level[dep]
                for dep in self.graph.node(name).inputs
                if dep in level
            ]
            depth = (max(deps) + 1) if deps else 0
            level[name] = depth
            while len(waves) <= depth:
                waves.append([])
            waves[depth].append(name)
        return waves


@dataclass(frozen=True)
class _NodeFailure:
    """Picklable marker a worker ships back instead of an artifact."""

    name: str
    error: str
    details: str


def _context_rng(node: TaskNode, output_key: str) -> np.random.Generator:
    if node.seed is not None:
        return np.random.default_rng(node.seed)
    # Seedless nodes should not draw, but give them a deterministic
    # stream derived from their content address rather than a footgun.
    return np.random.default_rng(int(output_key[:16], 16))


class _NodeShardFn:
    """A shard function running one graph node per shard index.

    *batch* maps shard index → (node, input keys, output key).  Inputs
    travel as content addresses, not payloads: in-process backends and
    fork-inherited pool workers resolve them through the scheduler's
    own cache reference.  Node exceptions come back as
    :class:`_NodeFailure` values so sibling nodes in the same wave
    still publish before the run aborts.
    """

    def __init__(
        self,
        batch: dict[int, tuple[TaskNode, dict[str, str], str]],
        cache: ArtifactCache,
    ) -> None:
        self.batch = batch
        self.cache = cache

    def _resolve(self, name: str, key: str) -> CachedArtifact:
        artifact = self.cache.get(key)
        if artifact is None:
            raise DagError(
                f"artifact for node {name!r} (key {key[:12]}…) vanished "
                f"from the cache between publication and use; raise the "
                f"cache's memory/disk caps or give it a directory"
            )
        return artifact

    def __call__(self, index: int) -> _NodeFailure | tuple[dict, dict]:
        node, input_keys, output_key = self.batch[index]
        try:
            inputs = {
                dep: self._resolve(dep, key) for dep, key in input_keys.items()
            }
            ctx = TaskContext(
                node=node,
                inputs=inputs,
                output_key=output_key,
                rng=_context_rng(node, output_key),
            )
            artifact = normalize_output(node, node.run(ctx))
        except Exception as exc:
            return _NodeFailure(
                name=node.name,
                error=f"{type(exc).__name__}: {exc}",
                details=traceback.format_exc(),
            )
        meta = dict(artifact.meta)
        meta["node_kind"] = node.kind
        return dict(artifact.arrays), meta


class DagScheduler:
    """Walks a :class:`TaskGraph` over a runtime backend, recoverably.

    Args:
        cache: the artifact store holding every node's output; doubles
            as the recovery journal.  Defaults to a fresh in-memory
            cache (no cross-run recovery without a ``directory``).
        backend: any :class:`~repro.runtime.Executor`; defaults to
            serial execution.
        telemetry: optional hub receiving :class:`DagStarted` /
            :class:`NodeCompleted` / :class:`DagCompleted` events.
    """

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        backend: Executor | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.cache = cache if cache is not None else ArtifactCache()
        self.backend = backend if backend is not None else SerialBackend()
        self.telemetry = telemetry

    # -- recovery survey --------------------------------------------------

    def survey(
        self, graph: TaskGraph, targets: Iterable[str] | None = None
    ) -> DagSurvey:
        """Reconstruct completion state purely from the artifact store.

        Walks the ancestor closure of *targets* (default: every sink)
        in topological order, asking the store for each node's output
        key.  No artifact payload is loaded and no cache counters move.
        """
        graph.validate()
        order = self._closure_order(graph, self._resolve_targets(graph, targets))
        done: dict[str, bool] = {}
        for name in order:
            node = graph.node(name)
            done[name] = self.cache.contains(graph.output_key(name)) and all(
                done[dep] for dep in node.inputs
            )
        return DagSurvey(
            graph=graph,
            order=order,
            done=frozenset(name for name, ok in done.items() if ok),
        )

    @staticmethod
    def _resolve_targets(
        graph: TaskGraph, targets: Iterable[str] | None
    ) -> tuple[str, ...]:
        if targets is None:
            return graph.sinks()
        resolved = tuple(targets)
        for name in resolved:
            graph.node(name)  # loud on unknown names
        return resolved

    @staticmethod
    def _closure_order(
        graph: TaskGraph, targets: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Topological order of the targets' ancestor closure."""
        needed: set[str] = set()
        frontier = list(targets)
        while frontier:
            name = frontier.pop()
            if name in needed:
                continue
            needed.add(name)
            frontier.extend(graph.node(name).inputs)
        return tuple(name for name in graph.topo_order() if name in needed)

    # -- execution --------------------------------------------------------

    def run(
        self,
        graph: TaskGraph,
        targets: Iterable[str] | None = None,
        recover: bool = True,
    ) -> dict[str, CachedArtifact]:
        """Run the graph (or the ancestor closure of *targets*).

        With ``recover=True`` (the default) the run starts from a
        :meth:`survey` of the artifact store, replaying completed nodes
        as no-ops; ``recover=False`` executes every node, overwriting
        whatever the store held (useful for forcing a fresh
        recomputation — the keys are identical either way).

        Returns ``{target name: output artifact}``.
        """
        start = time.perf_counter()
        graph.validate()
        resolved = self._resolve_targets(graph, targets)
        order = self._closure_order(graph, resolved)
        if recover:
            done = set(self.survey(graph, resolved).done)
        else:
            done = set()
        self._emit(
            DagStarted(
                dag=graph.name,
                n_nodes=len(order),
                n_restored=len(done),
                backend=self.backend.describe(),
            )
        )
        position = 0
        for name in order:
            if name in done:
                position += 1
                self._emit_node(graph, name, position, len(order), 0.0, True)
        n_run = 0
        pending = [name for name in order if name not in done]
        while pending:
            ready = [
                name
                for name in pending
                if all(dep in done for dep in graph.node(name).inputs)
            ]
            assert ready, "acyclic graph must always have a ready node"
            batch = {
                index: (
                    graph.node(name),
                    {
                        dep: graph.output_key(dep)
                        for dep in graph.node(name).inputs
                    },
                    graph.output_key(name),
                )
                for index, name in enumerate(ready)
            }
            results = self.backend.run_shards(
                _NodeShardFn(batch, self.cache), list(batch)
            )
            failures: list[_NodeFailure] = []
            while True:
                try:
                    result = next(results)
                except StopIteration:
                    break
                except DagError as exc:
                    lost = ", ".join(n for n in ready if n not in done)
                    raise DagError(
                        f"{exc}; unpublished node(s) in graph "
                        f"{graph.name!r}: {lost}; --resume continues from "
                        f"the published ones"
                    ) from None
                node, _, key = batch[result.index]
                payload = result.value
                if isinstance(payload, _NodeFailure):
                    failures.append(payload)
                    continue
                arrays, meta = payload
                self.cache.put(key, CachedArtifact.build(arrays, meta))
                done.add(node.name)
                n_run += 1
                position += 1
                self._emit_node(
                    graph, node.name, position, len(order), result.elapsed_s, False
                )
            if failures:
                first = failures[0]
                names = ", ".join(f.name for f in failures)
                raise DagError(
                    f"{len(failures)} node(s) failed in graph "
                    f"{graph.name!r}: {names}\n"
                    f"first failure ({first.name}): {first.error}\n"
                    f"{first.details}"
                )
            pending = [name for name in pending if name not in done]
        outputs = {name: self._load(graph, name) for name in resolved}
        self._emit(
            DagCompleted(
                dag=graph.name,
                n_nodes=len(order),
                n_run=n_run,
                n_restored=len(order) - n_run,
                elapsed_s=time.perf_counter() - start,
            )
        )
        return outputs

    def _load(self, graph: TaskGraph, name: str) -> CachedArtifact:
        key = graph.output_key(name)
        artifact = self.cache.get(key)
        if artifact is None:
            raise DagError(
                f"artifact for node {name!r} (key {key[:12]}…) vanished from "
                f"the cache between completion and use; raise the cache's "
                f"memory/disk caps or give it a directory"
            )
        return artifact

    # -- telemetry --------------------------------------------------------

    def _emit(self, event) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(event)

    def _emit_node(
        self,
        graph: TaskGraph,
        name: str,
        position: int,
        n_nodes: int,
        elapsed_s: float,
        from_store: bool,
    ) -> None:
        self._emit(
            NodeCompleted(
                dag=graph.name,
                name=name,
                kind=graph.node(name).kind,
                index=position,
                n_nodes=n_nodes,
                elapsed_s=elapsed_s,
                from_store=from_store,
            )
        )
