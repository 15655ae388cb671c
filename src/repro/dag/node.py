"""Task nodes: the unit of work in a campaign graph.

A :class:`TaskNode` declares everything the scheduler needs to run it
— its dependencies (by node name), the canonical identity of its
output artifact (reusing :mod:`repro.cache` content addressing), its
``SeedSequence`` entropy when the work consumes randomness — plus a
pure run function that maps the dependency artifacts to one output
:class:`~repro.cache.CachedArtifact`.  One node, one output artifact:
that invariant is what makes a killed campaign recoverable purely from
the filesystem (see :mod:`repro.dag.scheduler`).

Run functions must be *pure* in the same sense as sweep arms: the
output must be a deterministic function of the input artifacts, the
node's key parts, and its declared seed.  Anything else that changes
the output must be folded into ``key_parts``, or a stale artifact will
be served where a fresh run was needed.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.cache.fingerprint import fingerprint
from repro.cache.store import CachedArtifact
from repro.exceptions import ConfigurationError, DagError

#: Canonical node kinds, in rough pipeline order.  Kinds drive display
#: grouping and the ``repro cache stats`` breakdown; they are labels,
#: not behavior — any non-empty string is accepted.
NODE_KINDS = ("dataset", "fault", "score", "aggregate", "figure", "experiment")


@dataclass
class TaskContext:
    """What a node's run function sees: its inputs, resolved and loaded.

    Attributes:
        node: the node being run.
        inputs: dependency name → that dependency's output artifact.
        output_key: the content key the node's output will be stored
            under (useful for logging; the scheduler handles storage).
        rng: ``default_rng(node.seed)`` when the node declared entropy,
            else a generator seeded from the node's output key (so an
            undeclared draw is at least deterministic, though declared
            seeds are the supported protocol).
    """

    node: "TaskNode"
    inputs: Mapping[str, CachedArtifact]
    output_key: str
    rng: np.random.Generator

    def input(self, name: str) -> CachedArtifact:
        """The artifact produced by dependency *name* (loud on typos)."""
        try:
            return self.inputs[name]
        except KeyError:
            raise DagError(
                f"node {self.node.name!r} asked for input {name!r} but "
                f"declared inputs {list(self.node.inputs)}"
            ) from None

    def array(self, dep: str, name: str) -> np.ndarray:
        """Array *name* from dependency *dep*'s output artifact."""
        artifact = self.input(dep)
        try:
            return artifact.arrays[name]
        except KeyError:
            raise DagError(
                f"input {dep!r} of node {self.node.name!r} has no array "
                f"{name!r} (has {sorted(artifact.arrays)})"
            ) from None


#: A node's run function: context in, output artifact out.  Returning a
#: plain ``{name: array}`` mapping is accepted and normalised.
RunFn = Callable[[TaskContext], "CachedArtifact | Mapping[str, np.ndarray]"]


@dataclass(frozen=True)
class TaskNode:
    """One unit of work with a declared, content-addressed output.

    Attributes:
        name: unique node name within its graph (also the display and
            dependency-reference handle).
        kind: coarse node category — see :data:`NODE_KINDS`.
        run: pure run function, see :data:`RunFn`.
        inputs: names of the nodes whose outputs this node consumes, in
            the order the run function expects to find them.
        key_parts: canonical identity of the node's own configuration
            (everything that changes the output and is not an input
            artifact or the seed), in :func:`repro.cache.canonicalize`
            vocabulary.
        seed: the node's ``SeedSequence`` entropy when the run function
            draws randomness; None for pure transforms.
        explicit_key: fixed output content key, overriding derivation.
            The dataset/fault builders use this to store under
            :func:`repro.dag.pristine_key` and
            :func:`repro.dag.realization_key`.
    """

    name: str
    kind: str
    run: RunFn
    inputs: tuple[str, ...] = ()
    key_parts: tuple = ()
    seed: np.random.SeedSequence | None = None
    explicit_key: str | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"node name must be a non-empty string, got {self.name!r}")
        if not self.kind or not isinstance(self.kind, str):
            raise ConfigurationError(
                f"node {self.name!r}: kind must be a non-empty string, got {self.kind!r}"
            )
        if len(set(self.inputs)) != len(self.inputs):
            raise ConfigurationError(
                f"node {self.name!r} declares duplicate inputs: {list(self.inputs)}"
            )
        if self.name in self.inputs:
            raise ConfigurationError(f"node {self.name!r} depends on itself")

    def identity(self) -> str:
        """Structural fingerprint used to deduplicate merged graphs.

        Two nodes are interchangeable when their kind, key parts, seed,
        dependency list, and explicit key all match — the run function
        is deliberately excluded, mirroring :class:`DatasetSpec`'s
        contract that ``key_parts`` fully determine the output.
        """
        return fingerprint(
            "node-identity",
            self.kind,
            self.key_parts,
            self.seed,
            list(self.inputs),
            self.explicit_key,
        )


def normalize_output(node: TaskNode, out: object) -> CachedArtifact:
    """Coerce a run function's return value into a :class:`CachedArtifact`."""
    if isinstance(out, CachedArtifact):
        return out
    if isinstance(out, Mapping):
        return CachedArtifact.build(out)
    raise DagError(
        f"node {node.name!r} returned {type(out).__name__}; run functions "
        f"must return a CachedArtifact or a name->array mapping"
    )
