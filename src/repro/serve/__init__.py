"""Always-on multi-tenant streaming preprocessing service (``repro.serve``).

The serve layer turns the bounded-memory streaming engine
(:mod:`repro.stream`) into a long-running network service: many
concurrent frame streams arrive over a newline-delimited JSON TCP
protocol, each bound to a per-tenant pipeline (inline Γ₀ fault
injection, the Υ/Λ-configured ``Algo_NGST`` voter, an optional §4
smoother), multiplexed onto one shared ``concurrent.futures`` thread
pool.  An HTTP control plane exposes health, Prometheus metrics,
tenant CRUD, and graceful drain; durable streams checkpoint every chunk boundary, so a drained or
killed server resumes every stream **byte-identically** after restart.

Quick start (one process, in-code)::

    import asyncio
    from repro.serve import ReproServer, ServerConfig, StreamClient

    async def demo():
        server = ReproServer(ServerConfig(checkpoint_dir="/tmp/serve"))
        await server.start()
        client = StreamClient(
            "127.0.0.1", server.ingest_port, "default", "s1", frames
        )
        result = await client.run()
        await server.drain(); await server.stop()
        return result

Or from the command line: ``repro serve --port 7801`` and drive it with
``tools/serve_smoke.py``.  See docs/SERVING.md for the protocol and the
resume semantics.
"""

from repro.serve.client import ClientResult, StreamClient
from repro.serve.control import ControlPlane
from repro.serve.drain import DrainController
from repro.serve.listener import IngestHandler, decode_frames, encode_frames
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.server import (
    ChaosMonkey,
    ReproServer,
    ServerConfig,
    SessionManager,
)
from repro.serve.session import IngestResult, StreamSession
from repro.serve.tenant import DEFAULT_TENANT, TenantConfig, TenantRegistry

__all__ = [
    "ChaosMonkey",
    "ClientResult",
    "ControlPlane",
    "DEFAULT_TENANT",
    "DrainController",
    "IngestHandler",
    "IngestResult",
    "LatencyHistogram",
    "ReproServer",
    "ServeMetrics",
    "ServerConfig",
    "SessionManager",
    "StreamClient",
    "StreamSession",
    "TenantConfig",
    "TenantRegistry",
    "decode_frames",
    "encode_frames",
]
