"""Job fan-out: in-process (``jobs=1``) and pooled (``jobs=2``) batches.

Fan-out may change *where* a job runs and *how long* the batch takes,
never a result.  These tests pin byte-identity between the in-process
path and the spawn pool, and that the in-process path honours a warm
cache.
"""

import json

from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine
from repro.harness.spec import RunSpec, run_result_to_dict


def _specs(n=3):
    return [
        RunSpec.create("comd", 2, app_kwargs={"niters": 3}, seed=seed)
        for seed in range(n)
    ]


def _batch_json(results):
    return json.dumps(
        [run_result_to_dict(results[s]) for s in sorted(results, key=str)],
        sort_keys=True,
    )


class TestInProcessDifferential:
    """In-process and pooled engines produce byte-identical batches."""

    def test_inline_matches_local_pool(self):
        specs = _specs()
        with ExperimentEngine(cache=None, progress=False) as eng:
            reference = _batch_json(eng.run_batch(specs))
        with ExperimentEngine(cache=None, progress=False, jobs=2) as eng:
            assert _batch_json(eng.run_batch(specs)) == reference

    def test_inline_respects_warm_cache(self, tmp_path):
        specs = _specs()
        with ExperimentEngine(
            cache=ResultCache(tmp_path), progress=False
        ) as eng:
            cold = _batch_json(eng.run_batch(specs))
            assert eng.last_stats.executed == len(specs)
        with ExperimentEngine(
            cache=ResultCache(tmp_path), progress=False
        ) as eng:
            warm = _batch_json(eng.run_batch(specs))
            assert eng.last_stats.executed == 0
            assert eng.last_stats.cache_hits == len(specs)
        assert warm == cold
