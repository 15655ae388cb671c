"""Service metrics: counters and latency histograms for ``/metrics``.

:class:`ServeMetrics` is the one mutable metrics object a server owns.
It is fed from three directions — the ingest listener (connections,
messages, protocol errors), the session layer (frames, streams), and
the shared telemetry hub (it is a subscriber, so every
:class:`~repro.stream.telemetry.ChunkCompleted` lands here without the
emitters knowing metrics exist).  All mutation is behind one
``threading.Lock`` because pipeline work runs on the worker pool's
threads while the control plane scrapes from the event loop.

Rendering is dependency-free: :meth:`ServeMetrics.render_prometheus`
emits the Prometheus text exposition format by hand, and
:meth:`ServeMetrics.snapshot` the JSON twin served at ``/metrics.json``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from repro.exceptions import ConfigurationError
from repro.stream.telemetry import (
    ChunkCompleted,
    LambdaAdjusted,
    StreamCompleted,
    StreamStarted,
)


def _log_spaced_bounds(
    lo: float = 1e-5, hi: float = 100.0, per_decade: int = 5
) -> list[float]:
    """Log-spaced histogram bucket upper bounds covering [lo, hi]."""
    bounds = []
    i = 0
    while True:
        bound = lo * 10 ** (i / per_decade)
        if bound > hi * 1.0000001:
            return bounds
        bounds.append(bound)
        i += 1


class LatencyHistogram:
    """A fixed-bucket latency histogram with quantile estimates.

    Buckets are log-spaced upper bounds in seconds (default 10 µs to
    100 s, five per decade, ~12 % resolution) plus an overflow bucket;
    quantiles are read by walking the cumulative counts and reporting
    the matched bucket's upper bound — an upper-bound estimate, which
    is the honest direction for latency SLOs.  Exact min/max/sum ride
    along for the mean and the tails.
    """

    def __init__(self, bounds: "list[float] | None" = None) -> None:
        self.bounds = sorted(bounds) if bounds else _log_spaced_bounds()
        if not self.bounds:
            raise ConfigurationError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Add one observation (negative values clamp to zero)."""
        seconds = max(0.0, float(seconds))
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the *q*-quantile (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank and n:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    @property
    def p50(self) -> float:
        """Median latency estimate in seconds."""
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        """99th-percentile latency estimate in seconds."""
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """JSON-serializable summary (count/mean/min/max/p50/p99)."""
        return {
            "count": self.count,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "p50_s": self.p50,
            "p99_s": self.p99,
        }


#: The counter names ServeMetrics tracks, in exposition order.
COUNTER_NAMES = (
    "connections_opened",
    "connections_closed",
    "sessions_opened",
    "sessions_resumed",
    "sessions_completed",
    "messages",
    "frames_in",
    "frames_out",
    "chunks",
    "protocol_errors",
    "backpressure_refusals",
    "chaos_kills",
    "drains",
    "lambda_adjustments",
)

#: The histogram names ServeMetrics tracks.
HISTOGRAM_NAMES = ("ingest_latency", "chunk_latency")


class ServeMetrics:
    """Thread-safe counters and latency histograms for one server.

    Subscribe the instance to the shared telemetry hub
    (``telemetry.subscribe(metrics)``) and every stream event is
    folded in automatically; the listener and session layers call
    :meth:`incr` / :meth:`observe` directly for the transport-level
    numbers the hub never sees.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters = {name: 0 for name in COUNTER_NAMES}
        self._histograms = {name: LatencyHistogram() for name in HISTOGRAM_NAMES}
        # Per-tenant Λ gauge: the online autotuner's current operating
        # sensitivity, keyed by the LambdaAdjusted event label.
        self._lambda_current: dict[str, float] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the named counter."""
        with self._lock:
            if name not in self._counters:
                raise ConfigurationError(f"unknown counter {name!r}")
            self._counters[name] += amount

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency observation in the named histogram."""
        with self._lock:
            if name not in self._histograms:
                raise ConfigurationError(f"unknown histogram {name!r}")
            self._histograms[name].record(seconds)

    def __call__(self, event: object) -> None:
        """Telemetry-hub subscriber: fold stream events in."""
        if isinstance(event, ChunkCompleted):
            with self._lock:
                self._counters["chunks"] += 1
                self._counters["frames_in"] += event.frames_in
                self._counters["frames_out"] += event.frames_out
                self._histograms["chunk_latency"].record(event.elapsed_s)
        elif isinstance(event, StreamStarted):
            with self._lock:
                self._counters["sessions_opened"] += 1
                if event.resumed_frames:
                    self._counters["sessions_resumed"] += 1
        elif isinstance(event, LambdaAdjusted):
            with self._lock:
                self._counters["lambda_adjustments"] += 1
                self._lambda_current[event.label or "-"] = float(
                    event.new_sensitivity
                )
        elif isinstance(event, StreamCompleted):
            self.incr("sessions_completed")

    def counter(self, name: str) -> int:
        """Current value of the named counter."""
        with self._lock:
            return self._counters[name]

    def snapshot(self) -> dict:
        """JSON-serializable snapshot of every counter and histogram."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "latency": {
                    name: hist.snapshot()
                    for name, hist in self._histograms.items()
                },
                "lambda_current": dict(self._lambda_current),
            }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of the current state."""
        with self._lock:
            lines = []
            for name, value in self._counters.items():
                metric = f"repro_serve_{name}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {value}")
            if self._lambda_current:
                metric = "repro_serve_lambda_current"
                lines.append(f"# TYPE {metric} gauge")
                for tenant in sorted(self._lambda_current):
                    lines.append(
                        f'{metric}{{tenant="{tenant}"}} '
                        f"{self._lambda_current[tenant]:g}"
                    )
            for name, hist in self._histograms.items():
                metric = f"repro_serve_{name}_seconds"
                lines.append(f"# TYPE {metric} histogram")
                cumulative = 0
                for bound, count in zip(hist.bounds, hist.counts):
                    cumulative += count
                    lines.append(
                        f'{metric}_bucket{{le="{bound:.6g}"}} {cumulative}'
                    )
                lines.append(
                    f'{metric}_bucket{{le="+Inf"}} {hist.count}'
                )
                lines.append(f"{metric}_sum {hist.sum:.9g}")
                lines.append(f"{metric}_count {hist.count}")
            return "\n".join(lines) + "\n"
