"""Runtime telemetry: progress events for subscribers.

The DAG scheduler (:mod:`repro.dag`) emits one :class:`DagStarted`
per run, one :class:`NodeCompleted` per node, and one
:class:`DagCompleted` at the end.  Restoration is flagged per node
(``from_store``): a resumed run detects completed work from the
artifact store.  Experiments, the CLI, tests and
benchmarks subscribe callbacks on a :class:`Telemetry` hub;
:class:`ProgressPrinter` is the stock subscriber that renders events
as one-line progress messages.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import TextIO, Union


@dataclass(frozen=True)
class DagStarted:
    """Emitted when a DAG run begins, after the recovery survey.

    Attributes:
        dag: the graph's name.
        n_nodes: nodes in the (target-restricted) run.
        n_restored: nodes whose output artifacts were found intact in
            the store during the survey — they will not execute.
        backend: human-readable backend description.
    """

    dag: str
    n_nodes: int
    n_restored: int
    backend: str


@dataclass(frozen=True)
class NodeCompleted:
    """Emitted as each DAG node finishes (or is restored from the store).

    Attributes:
        dag: the graph's name.
        name: the node's name.
        kind: the node's declared kind (dataset/fault/score/...).
        index: 1-based completion position within this run.
        n_nodes: nodes in the run, for ``index/n_nodes`` progress.
        elapsed_s: wall-clock seconds for the node's run function
            (0 when restored).
        from_store: True when the node's output artifact was found in
            the store and the run function was skipped.
    """

    dag: str
    name: str
    kind: str
    index: int
    n_nodes: int
    elapsed_s: float
    from_store: bool


@dataclass(frozen=True)
class DagCompleted:
    """Emitted once per DAG run after every target artifact is loaded.

    Attributes:
        dag: the graph's name.
        n_nodes: nodes in the run.
        n_run: nodes executed in this process.
        n_restored: nodes restored from the artifact store.
        elapsed_s: end-to-end wall-clock seconds for the run call.
    """

    dag: str
    n_nodes: int
    n_run: int
    n_restored: int
    elapsed_s: float


TelemetryEvent = Union[DagStarted, NodeCompleted, DagCompleted]


class Telemetry:
    """A minimal synchronous pub/sub hub for runtime events."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[TelemetryEvent], None]] = []

    def subscribe(
        self, callback: Callable[[TelemetryEvent], None]
    ) -> Callable[[], None]:
        """Register *callback* for every event; returns an unsubscriber."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

        return unsubscribe

    def emit(self, event: TelemetryEvent) -> None:
        """Deliver *event* to every subscriber, in subscription order."""
        for callback in list(self._subscribers):
            callback(event)


class ProgressPrinter:
    """Stock subscriber: renders events as one-line progress messages.

    Args:
        stream: output stream (default stderr, keeping stdout clean for
            experiment tables and JSON).
    """

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, event: TelemetryEvent) -> None:
        print(self.format(event), file=self.stream, flush=True)

    @staticmethod
    def format(event: TelemetryEvent) -> str:
        """The one-line rendering of *event*."""
        if isinstance(event, DagStarted):
            suffix = (
                f", {event.n_restored} node(s) restored from store"
                if event.n_restored
                else ""
            )
            return (
                f"[{event.dag}] start: {event.n_nodes} node(s) on "
                f"{event.backend}{suffix}"
            )
        if isinstance(event, NodeCompleted):
            if event.from_store:
                return (
                    f"[{event.dag}] node {event.index}/{event.n_nodes} "
                    f"{event.name} ({event.kind}) restored from store"
                )
            return (
                f"[{event.dag}] node {event.index}/{event.n_nodes} "
                f"{event.name} ({event.kind}) in {event.elapsed_s:.3f}s"
            )
        if isinstance(event, DagCompleted):
            return (
                f"[{event.dag}] done: {event.n_nodes} node(s) in "
                f"{event.elapsed_s:.3f}s ({event.n_run} run, "
                f"{event.n_restored} restored)"
            )
        return repr(event)
