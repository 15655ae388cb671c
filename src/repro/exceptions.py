"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to discriminate on the specific
failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter value is outside its documented domain.

    Raised, e.g., for an odd ``upsilon``, a sensitivity outside [0, 100],
    or a fault probability outside [0, 1].
    """


class DataFormatError(ReproError, ValueError):
    """Input data has the wrong dtype, shape, or structure."""


class FITSFormatError(DataFormatError):
    """A FITS byte stream or header violates the FITS standard."""


class HeaderSanityError(FITSFormatError):
    """A FITS header failed sanity analysis and could not be repaired."""


class CodecError(ReproError):
    """Rice codec failure (corrupt bitstream, parameter mismatch)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ALFTError(ReproError):
    """The ALFT executor could not produce any acceptable output."""


class StreamError(ReproError):
    """The streaming pipeline reached an inconsistent state."""


class CheckpointMismatchError(StreamError):
    """A resume found checkpoint records, but none match this pipeline.

    Raised under strict resume when the checkpoint store holds records
    for *other* fingerprints only — the stream's source or stage
    configuration changed since the interrupted run.  Restarting
    silently would discard the recorded progress, so strict consumers
    (the ``repro stream`` CLI, the serve layer) abort loudly instead.
    """


class DagError(ReproError):
    """A task graph run failed or the graph itself is unrunnable.

    Raised by :mod:`repro.dag` when a node's run function fails, when a
    published artifact cannot be read back for a downstream node, or
    when a run is asked for a target node the graph does not contain.
    Structural problems detected at build time (duplicate node names,
    unknown dependencies, cycles) raise
    :class:`ConfigurationError` instead, like every other bad-parameter
    path in the library.
    """


class ServeError(ReproError):
    """The streaming service refused or could not complete a request.

    Covers protocol violations on the ingest socket (bad message types,
    malformed frame payloads), unknown or busy tenant streams, and
    sessions rejected during a graceful drain.
    """
