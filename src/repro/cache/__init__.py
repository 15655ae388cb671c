"""Content-addressed artifact cache for campaign preprocessing.

Every Ψ-vs-Λ sweep re-derives the same expensive upstream artifacts —
pristine datasets and corrupted fault realizations — once per arm of
the (seed, Γ) grid.  This subsystem eliminates that redundancy:

* :mod:`repro.cache.fingerprint` derives a canonical content key from
  (generator config, ``SeedSequence`` entropy, fault-model params);
* :class:`ArtifactCache` serves artifacts from an in-process LRU tier
  and an optional crash-safe on-disk tier (``.npz`` + JSON sidecar,
  atomic rename, size-capped eviction).

The DAG scheduler (:mod:`repro.dag`) stores every node's output here;
see docs/CACHING.md for key derivation and tier semantics.
"""

from repro.cache.fingerprint import canonicalize, fingerprint, seed_fingerprint
from repro.cache.store import ArtifactCache, CachedArtifact, CacheStats

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "CachedArtifact",
    "canonicalize",
    "fingerprint",
    "seed_fingerprint",
]
