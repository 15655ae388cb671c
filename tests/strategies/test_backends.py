"""Strategy-equivalence harness, part 2: strategy arms on every backend.

A figure 2 campaign carrying the selective arm must
produce byte-identical table artifacts whether its task graph runs
serially or on a process pool — the same contract the fixed arms
already hold.
The comparison is on canonical JSON of the panel artifact, which
carries every Ψ value at full float precision.
"""

import json
import multiprocessing

import pytest

from repro.cache import ArtifactCache
from repro.dag.build import json_payload
from repro.dag.scheduler import DagScheduler
from repro.experiments import figure2, figure4
from repro.runtime.backend import ProcessPoolBackend

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


STRATEGIES = ("selective",)


def fig2_table(backend=None):
    graph = figure2.graph(
        gamma0_grid=(0.001, 0.05),
        lambdas=(50.0,),
        shape=(8, 8),
        n_repeats=2,
        strategies=STRATEGIES,
    )
    scheduler = DagScheduler(cache=ArtifactCache(), backend=backend)
    panels = json_payload(
        scheduler.run(graph, targets=(figure2.TABLE_NODE,))[figure2.TABLE_NODE]
    )
    return json.dumps(panels, sort_keys=True)


class TestAdaptiveArmsAcrossBackends:
    @needs_fork
    def test_process_pool_matches_serial(self):
        reference = fig2_table()
        backend = ProcessPoolBackend(jobs=2)
        assert fig2_table(backend) == reference

    def test_strategy_arm_labels_present(self):
        panels = json.loads(fig2_table())
        labels = [s["label"] for s in panels[0]["series"]]
        for strategy in STRATEGIES:
            assert f"Algo_NGST {strategy} L=50" in labels

    @needs_fork
    def test_fig4_strategy_arms_match_serial_on_processes(self):
        graph_kwargs = dict(
            gamma_ini_grid=(0.02, 0.1),
            lambdas=(50.0, 100.0),
            shape=(8, 8),
            n_repeats=1,
            strategies=STRATEGIES,
        )

        def table(backend=None):
            graph = figure4.graph(**graph_kwargs)
            scheduler = DagScheduler(cache=ArtifactCache(), backend=backend)
            panels = json_payload(
                scheduler.run(graph, targets=(figure4.TABLE_NODE,))[
                    figure4.TABLE_NODE
                ]
            )
            return json.dumps(panels, sort_keys=True)

        reference = table()
        backend = ProcessPoolBackend(jobs=2)
        assert table(backend) == reference
