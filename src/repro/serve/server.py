"""The always-on streaming preprocessing server.

:class:`ReproServer` assembles the subsystem: a TCP ingest listener
(:mod:`repro.serve.listener`) and an HTTP control plane
(:mod:`repro.serve.control`) on the asyncio event loop, a
``concurrent.futures`` thread pool all pipeline work is bridged onto
(``asyncio.wrap_future`` around ``pool.submit``, so a slow chunk never
blocks the loop), a :class:`SessionManager` mapping
``tenant/stream`` pairs to live :class:`~repro.serve.session.StreamSession`
objects, and one shared telemetry hub whose events feed
:class:`~repro.serve.metrics.ServeMetrics`.

Lifecycle: :meth:`ReproServer.start` binds both sockets (port 0 picks
free ports, reported via :attr:`ingest_port` / :attr:`control_port`),
:meth:`ReproServer.drain` lets every connection finish its in-flight
message — at which point every durable session's state is at a
checkpointed chunk boundary — and :meth:`ReproServer.stop` closes the
sockets and the pool.  A new server started on the same checkpoint
directory resumes every durable stream bit-identically.
"""

from __future__ import annotations

import asyncio
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError, ServeError
from repro.serve.control import ControlPlane
from repro.serve.drain import DrainController
from repro.serve.listener import MAX_LINE_BYTES, BusyStreamError, IngestHandler
from repro.serve.metrics import ServeMetrics
from repro.serve.session import StreamSession
from repro.serve.tenant import TenantRegistry
from repro.stream.telemetry import Telemetry


@dataclass(frozen=True)
class ServerConfig:
    """Everything a :class:`ReproServer` needs to come up.

    Attributes:
        host: interface both listeners bind.
        ingest_port: frame-stream TCP port (0 picks a free port).
        control_port: HTTP control-plane port (0 picks a free port).
        checkpoint_dir: root for durable session state and the tenant
            registry file.
        jobs: worker threads in the shared pipeline pool.
        chaos_kill_rate: probability, evaluated twice per frames message
            (before processing and before the ack), of abruptly killing
            the connection — fault injection for resume testing; 0
            disables chaos.
        chaos_seed: seed of the chaos monkey's RNG.
        drain_timeout_s: longest a drain waits for connections to finish.
    """

    host: str = "127.0.0.1"
    ingest_port: int = 0
    control_port: int = 0
    checkpoint_dir: "str | Path" = ".repro-serve"
    jobs: int = 4
    chaos_kill_rate: float = 0.0
    chaos_seed: int = 0
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if not 0.0 <= self.chaos_kill_rate < 1.0:
            raise ConfigurationError(
                f"chaos_kill_rate must be in [0, 1), got {self.chaos_kill_rate}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be > 0, got {self.drain_timeout_s}"
            )


class ChaosMonkey:
    """Seeded random connection killer for resume testing.

    Args:
        kill_rate: per-strike-point kill probability in [0, 1).
        seed: RNG seed (deterministic chaos, reproducible tests).
    """

    def __init__(self, kill_rate: float, seed: int = 0) -> None:
        self.kill_rate = float(kill_rate)
        self._rng = random.Random(seed)
        self.kills = 0

    def strike(self) -> bool:
        """Roll the dice; True means kill the connection now."""
        if self.kill_rate <= 0.0:
            return False
        if self._rng.random() < self.kill_rate:
            self.kills += 1
            return True
        return False


class SessionManager:
    """The live and parked :class:`StreamSession` table.

    A session is *active* while a connection drives it and *parked*
    after a clean detach (kept in memory, frames and all).  Exactly one
    connection may drive a stream at a time; a second hello for an
    active stream is refused.  Dropped sessions vanish from memory —
    durable ones resume from their checkpoint on the next hello.

    All methods run on the event loop thread (the listener is the only
    caller), so plain dicts suffice.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        checkpoint_dir: "str | Path | None",
        telemetry: Telemetry | None = None,
    ) -> None:
        self.registry = registry
        self.checkpoint_dir = checkpoint_dir
        self.telemetry = telemetry
        self._active: dict[tuple[str, str], StreamSession] = {}
        self._parked: dict[tuple[str, str], StreamSession] = {}

    @property
    def active_count(self) -> int:
        """Streams currently driven by a connection."""
        return len(self._active)

    @property
    def parked_count(self) -> int:
        """Streams detached but kept in memory."""
        return len(self._parked)

    def acquire(
        self,
        tenant_name: str,
        stream: str,
        coord_shape: tuple[int, ...],
        dtype: "np.dtype",
    ) -> StreamSession:
        """Bind a stream to the calling connection, creating or reattaching.

        Raises :class:`~repro.exceptions.ServeError` for an unknown
        tenant, a stream already driven by another connection, or a
        frame format that contradicts the parked session's.
        """
        key = (tenant_name, stream)
        if key in self._active:
            raise BusyStreamError(
                f"stream {tenant_name}/{stream} is already attached to "
                f"another connection"
            )
        parked = self._parked.pop(key, None)
        if parked is not None:
            if not parked.matches(coord_shape, dtype):
                self._parked[key] = parked
                raise ServeError(
                    f"stream {tenant_name}/{stream} was opened with shape "
                    f"{parked.source.coord_shape} dtype "
                    f"{parked.source.dtype.str}; cannot reattach with shape "
                    f"{tuple(coord_shape)} dtype {np.dtype(dtype).str}"
                )
            self._active[key] = parked
            return parked
        tenant = self.registry.get(tenant_name)
        session = StreamSession(
            tenant,
            stream,
            coord_shape,
            dtype,
            checkpoint_dir=self.checkpoint_dir,
            telemetry=self.telemetry,
        )
        self._active[key] = session
        return session

    def park(self, session: StreamSession) -> None:
        """Clean detach: keep the session in memory for reattachment."""
        key = (session.tenant.name, session.stream)
        self._active.pop(key, None)
        self._parked[key] = session

    def drop(self, session: StreamSession) -> None:
        """Forget the session (completed, errored, or connection lost)."""
        key = (session.tenant.name, session.stream)
        self._active.pop(key, None)
        self._parked.pop(key, None)


class ReproServer:
    """The assembled service; see the module docstring for the shape.

    Args:
        config: sockets, pool size, durability root, chaos settings.
        registry: tenant table; default loads/creates
            ``<checkpoint_dir>/tenants.json``.
        telemetry: shared event hub; default builds one private to the
            server.  Metrics subscribe to it either way.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        registry: TenantRegistry | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        checkpoint_dir = Path(self.config.checkpoint_dir)
        self.registry = registry or TenantRegistry(checkpoint_dir / "tenants.json")
        self.metrics = ServeMetrics()
        self.telemetry = telemetry or Telemetry()
        self.telemetry.subscribe(self.metrics)
        self.pool = ThreadPoolExecutor(
            max_workers=self.config.jobs, thread_name_prefix="repro-worker"
        )
        self.drainer = DrainController()
        self.chaos = (
            ChaosMonkey(self.config.chaos_kill_rate, self.config.chaos_seed)
            if self.config.chaos_kill_rate > 0
            else None
        )
        self.sessions = SessionManager(
            self.registry, checkpoint_dir, telemetry=self.telemetry
        )
        self.ingest = IngestHandler(
            self.sessions,
            self.metrics,
            self.drainer,
            self.run_in_pool,
            chaos=self.chaos,
        )
        self.control = ControlPlane(self)
        self._ingest_server: asyncio.AbstractServer | None = None
        self._control_server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()

    # -- worker pool bridge ----------------------------------------------

    async def run_in_pool(self, fn, /, *args, **kwargs):
        """Run blocking pipeline work on the pool; await its result."""
        return await asyncio.wrap_future(self.pool.submit(fn, *args, **kwargs))

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners; ports are final once this returns."""
        self._ingest_server = await asyncio.start_server(
            self.ingest.handle,
            self.config.host,
            self.config.ingest_port,
            limit=MAX_LINE_BYTES,
        )
        self._control_server = await asyncio.start_server(
            self.control.handle, self.config.host, self.config.control_port
        )

    @property
    def ingest_port(self) -> int:
        """The bound ingest port (resolves port 0 to the real one)."""
        assert self._ingest_server is not None, "server not started"
        return self._ingest_server.sockets[0].getsockname()[1]

    @property
    def control_port(self) -> int:
        """The bound control-plane port."""
        assert self._control_server is not None, "server not started"
        return self._control_server.sockets[0].getsockname()[1]

    async def drain(self) -> bool:
        """Graceful drain: every connection finishes its message and closes.

        Stops accepting new ingest connections, signals the live ones,
        and waits (bounded by ``drain_timeout_s``) for them to unwind.
        Durable sessions are then at checkpointed chunk boundaries —
        the whole point of draining before :meth:`stop`.  Returns False
        if the timeout expired with connections still open.
        """
        self.metrics.incr("drains")
        if self._ingest_server is not None:
            self._ingest_server.close()
        self.drainer.begin()
        return await self.drainer.wait_drained(self.config.drain_timeout_s)

    async def stop(self) -> None:
        """Close listeners and the worker pool (idempotent)."""
        for listener in (self._ingest_server, self._control_server):
            if listener is not None:
                listener.close()
                try:
                    await listener.wait_closed()
                except Exception:
                    pass
        self.pool.shutdown(wait=True)
        self._stopped.set()

    async def serve_forever(self) -> None:
        """Start and run until :meth:`stop` (for the CLI entry point)."""
        await self.start()
        await self._stopped.wait()
