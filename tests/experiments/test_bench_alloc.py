"""``repro bench --axis alloc``: the transient-bytes probe is GC-independent.

The probe charges each handler ``peak - current`` of its call. A cyclic
collection landing inside a handler would free other handlers' garbage
and inflate that difference, so the instrumented leg holds collection off.
Lowering the collector's thresholds (more frequent passes) must therefore
not move any cell's transient bytes.
"""

import gc

from repro.algorithms.registry import algorithm_by_name
from repro.experiments import bench


def test_gc_thresholds_do_not_move_transient_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    family, n, num_instances, inits, label = bench.ALLOC_GRID[0]
    instances = bench.instances_for(family, n, num_instances, bench.MASTER_SEED)
    spec = algorithm_by_name(label)

    def transient_bytes():
        probe, _trials = bench._run_alloc_leg(
            instances, spec, num_instances, inits
        )
        return probe.transient_bytes

    transient_bytes()  # warm lazily built caches outside the comparison
    default = transient_bytes()
    thresholds = gc.get_threshold()
    try:
        for lowered in ((50, 2, 2), (1, 1, 1)):
            gc.set_threshold(*lowered)
            assert transient_bytes() == default, lowered
    finally:
        gc.set_threshold(*thresholds)
    assert gc.isenabled()
