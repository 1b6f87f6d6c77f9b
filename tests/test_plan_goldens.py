"""Plan goldens for the Figure 5 workload, pinned on the enumerator the compiled
join graph replaced.

Each of the seven ``figure5_queries()`` runs end to end through the interleaved
driver under every planning strategy (and, where the plan re-optimizes, under
every :class:`ReoptimizationMode`).  A run is fingerprinted by the digest of
``plan_to_xml`` of every plan it produced (rules stripped), the rule names of
each plan, the ``nodes_visited`` the optimizer reported after every
``optimize`` / ``reoptimize`` call, and the completion time and time to first
tuple on the virtual clock.  The goldens were recorded before the rewrite; the
only difference allowed is the one rule fix that came with it: the final
fragment of a ``MATERIALIZE_REPLAN`` plan no longer carries a ``replan-*``
rule (there is nothing left to re-plan after it).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.core.interleaving import InterleavedExecutionDriver
from repro.datagen.workload import figure5_queries
from repro.engine.context import EngineConfig
from repro.network.profiles import lan
from repro.network.source import DataSource
from repro.optimizer.optimizer import (
    Optimizer,
    OptimizerConfig,
    PlanningStrategy,
    ReoptimizationMode,
)
from repro.plan.planio import plan_to_xml
from repro.query.reformulation import Reformulator
from repro.storage.memory import MB

from helpers import digest

#: The Figure 5 bench's spill prices; a pool as large as the 0.3 MB data set.
ENGINE_CONFIG = EngineConfig(disk_page_read_ms=2.0, disk_page_write_ms=2.5)
POOL_BYTES = int(0.3 * MB)

SAVED = ReoptimizationMode.SAVED_STATE
CASES = [
    (PlanningStrategy.PIPELINE, SAVED),
    (PlanningStrategy.MATERIALIZE, SAVED),
    *((PlanningStrategy.MATERIALIZE_REPLAN, mode) for mode in ReoptimizationMode),
    *((PlanningStrategy.PARTIAL, mode) for mode in ReoptimizationMode),
]


def plan_digest(plan) -> str:
    """Digest of the plan's XML with every ``<rule>`` element removed."""
    root = ET.fromstring(plan_to_xml(plan))
    for fragment in root.iter("fragment"):
        for rule in fragment.findall("rule"):
            fragment.remove(rule)
    return digest(ET.tostring(root, encoding="unicode"))


def rule_names(plan, strategy) -> str:
    """Digest of the plan's rule names, with the final fragment's ``replan-*``
    rule put back where the enumerator's rule generation had it.

    Before the fix, rules were generated before the plan marked its last
    fragment final, so under ``MATERIALIZE_REPLAN`` a final fragment with an
    unreliable estimate got a re-plan rule like every other fragment.
    """
    names = []
    for fragment in plan.fragments:
        names.extend(rule.name for rule in fragment.rules)
        if (
            fragment.is_final
            and strategy == PlanningStrategy.MATERIALIZE_REPLAN
            and not fragment.estimate_reliable
            and fragment.estimated_cardinality is not None
        ):
            assert not any(rule.name.startswith("replan-") for rule in fragment.rules)
            names.insert(len(names) - len(fragment.rules), f"replan-{fragment.fragment_id}")
    return digest(names)


def fingerprint(tables, query, strategy, mode):
    catalog = DataSourceCatalog()
    for name in tables.names:
        catalog.register_source(DataSource(name, tables[name], lan()))
    optimizer = Optimizer(catalog, OptimizerConfig(memory_pool_bytes=POOL_BYTES))
    nodes = []
    for name in ("optimize", "reoptimize"):
        def recorded(*args, _method=getattr(optimizer, name), **kwargs):
            result = _method(*args, **kwargs)
            nodes.append(result.state.nodes_visited)
            return result

        setattr(optimizer, name, recorded)
    driver = InterleavedExecutionDriver(
        catalog, optimizer, engine_config=ENGINE_CONFIG, reoptimization_mode=mode
    )
    result = driver.run(Reformulator(catalog).reformulate(query), strategy=strategy)
    assert result.succeeded, result.error
    return (
        tuple(plan_digest(plan) for plan in result.plans),
        tuple(rule_names(plan, strategy) for plan in result.plans),
        tuple(nodes),
        result.total_time_ms,
        result.time_to_first_tuple_ms,
    )


#: (query, strategy, mode) -> :func:`fingerprint`, recorded on the enumerator
#: that walked frozensets (every plan, allotment and virtual number).
GOLDENS: dict[tuple[str, str, str], tuple] = {
    ('Q1', 'pipeline', 'saved_state'): (('185d6f64c2092e9d',), ('ab076e22edf5d1b0',), (10,), 45.20999999999928, 5.161999999999999),
    ('Q2', 'pipeline', 'saved_state'): (('57ad2c7273bece76',), ('9db3f6293872abf9',), (12,), 44.85699999999945, 7.087999999999991),
    ('Q3', 'pipeline', 'saved_state'): (('69827db4e4c52088',), ('5029739eb1e6f22d',), (12,), 18.693999999999843, 14.001999999999843),
    ('Q4', 'pipeline', 'saved_state'): (('92a1477eea860000',), ('cd69024d2b2b9fef',), (12,), 8.674249999999999, 6.877000000000008),
    ('Q5', 'pipeline', 'saved_state'): (('cc2dc8e81384071d',), ('9d103c020aa7bace',), (10,), 77.10499999999946, 6.985999999999992),
    ('Q6', 'pipeline', 'saved_state'): (('a08bd53124d90fa1',), ('4299e4ea0eb10ef7',), (10,), 18.661999999999843, 10.127999999999933),
    ('Q7', 'pipeline', 'saved_state'): (('17a3ffea09f08226',), ('aa022f814c69a019',), (10,), 16.145999999999844, 10.043999999999933),
    ('Q1', 'materialize', 'saved_state'): (('1b1f7f1842b950b6',), ('30b454f0658cab49',), (10,), 62.384999999999245, 58.79299999999924),
    ('Q2', 'materialize', 'saved_state'): (('590e628dd07170e9',), ('5b73af6cabea1060',), (12,), 60.472249999999256, 59.960249999999256),
    ('Q3', 'materialize', 'saved_state'): (('75b76ceedc942665',), ('266c9559cd8d1310',), (12,), 34.025250000000355, 29.553250000000357),
    ('Q4', 'materialize', 'saved_state'): (('43c2a51f291de7cf',), ('48fa641b5e05cbce',), (12,), 20.96100000000008, 20.913000000000082),
    ('Q5', 'materialize', 'saved_state'): (('73a9aa156059f68f',), ('f41a3a82c585a474',), (10,), 104.92524999999915, 62.88524999999912),
    ('Q6', 'materialize', 'saved_state'): (('3bfda7d6a75b0122',), ('b9945b6f12b3c27a',), (10,), 40.421249999999624, 35.94924999999962),
    ('Q7', 'materialize', 'saved_state'): (('672911fcb03f2a6b',), ('a6c9b31e3efb7690',), (10,), 36.07999999999986, 34.167999999999864),
    ('Q1', 'materialize_replan', 'saved_state'): (('1b1f7f1842b950b6', '4f8af49229bf21da', 'ad8c1336469beee2'), ('ba730f46b9e2c739', 'fe84bd51bd4b75c7', '10149c0185f3eef3'), (10, 13, 14), 59.14499999999919, 30.96999999999995),
    ('Q2', 'materialize_replan', 'saved_state'): (('590e628dd07170e9', '3006a6054010a034', 'b2ca422d6b9d6501'), ('c0ff2e596a00af60', '94bce6af2a16037d', '5da0bb16e9b00cbb'), (12, 15, 16), 60.00824999999916, 31.833249999999914),
    ('Q3', 'materialize_replan', 'saved_state'): (('75b76ceedc942665', '26caec8d41c00ca0', 'd6d7d6442ad23eae'), ('701268625ea557e5', '6786f2010c9054e0', '2f5ee53cd5028aa1'), (12, 15, 16), 34.025250000000355, 29.553250000000357),
    ('Q4', 'materialize_replan', 'saved_state'): (('43c2a51f291de7cf', '576f5ef7bd533609', '640389a903d8e9ee'), ('3ac8797e66c4dc3c', 'd72875077872b862', 'c7fe43ea9835a779'), (12, 15, 16), 20.96100000000008, 20.913000000000082),
    ('Q5', 'materialize_replan', 'saved_state'): (('73a9aa156059f68f', 'cdfa9a77f5620110', 'e565f779029c1e18'), ('9ae0a07ff4e8ad93', 'a4ccbe1085727777', 'b3f234b072c778a3'), (10, 13, 14), 83.54225000000001, 40.66224999999997),
    ('Q6', 'materialize_replan', 'saved_state'): (('3bfda7d6a75b0122', '312297abfaaf0f15', '921b0f23b4bdba7b'), ('971d4a79e006904a', 'd3f1f33d6e037e1a', '1acae263ea9412e1'), (10, 13, 14), 42.981249999999946, 38.509249999999945),
    ('Q7', 'materialize_replan', 'saved_state'): (('672911fcb03f2a6b', '0a1a2ec9aebe095c', '3149f4c7abca027e'), ('6a98d7b2249c1676', '67e8bb244a4e7f26', '5e455553b616835a'), (10, 13, 14), 36.07999999999987, 34.16799999999987),
    ('Q1', 'materialize_replan', 'saved_state_no_pointers'): (('1b1f7f1842b950b6', '4f8af49229bf21da', 'ad8c1336469beee2'), ('ba730f46b9e2c739', 'fe84bd51bd4b75c7', '10149c0185f3eef3'), (10, 23, 34), 59.14499999999919, 30.96999999999995),
    ('Q2', 'materialize_replan', 'saved_state_no_pointers'): (('590e628dd07170e9', '3006a6054010a034', 'b2ca422d6b9d6501'), ('c0ff2e596a00af60', '94bce6af2a16037d', '5da0bb16e9b00cbb'), (12, 27, 40), 60.00824999999916, 31.833249999999914),
    ('Q3', 'materialize_replan', 'saved_state_no_pointers'): (('75b76ceedc942665', '26caec8d41c00ca0', 'd6d7d6442ad23eae'), ('701268625ea557e5', '6786f2010c9054e0', '2f5ee53cd5028aa1'), (12, 27, 40), 34.025250000000355, 29.553250000000357),
    ('Q4', 'materialize_replan', 'saved_state_no_pointers'): (('43c2a51f291de7cf', '576f5ef7bd533609', '640389a903d8e9ee'), ('3ac8797e66c4dc3c', 'd72875077872b862', 'c7fe43ea9835a779'), (12, 27, 40), 20.96100000000008, 20.913000000000082),
    ('Q5', 'materialize_replan', 'saved_state_no_pointers'): (('73a9aa156059f68f', 'cdfa9a77f5620110', 'e565f779029c1e18'), ('9ae0a07ff4e8ad93', 'a4ccbe1085727777', 'b3f234b072c778a3'), (10, 23, 34), 83.54225000000001, 40.66224999999997),
    ('Q6', 'materialize_replan', 'saved_state_no_pointers'): (('3bfda7d6a75b0122', '312297abfaaf0f15', '921b0f23b4bdba7b'), ('971d4a79e006904a', 'd3f1f33d6e037e1a', '1acae263ea9412e1'), (10, 23, 34), 42.981249999999946, 38.509249999999945),
    ('Q7', 'materialize_replan', 'saved_state_no_pointers'): (('672911fcb03f2a6b', '0a1a2ec9aebe095c', '3149f4c7abca027e'), ('6a98d7b2249c1676', '67e8bb244a4e7f26', '5e455553b616835a'), (10, 23, 34), 36.07999999999987, 34.16799999999987),
    ('Q1', 'materialize_replan', 'scratch'): (('1b1f7f1842b950b6', '4f8af49229bf21da', 'ad8c1336469beee2'), ('ba730f46b9e2c739', 'fe84bd51bd4b75c7', '10149c0185f3eef3'), (10, 6, 6), 59.14499999999919, 30.96999999999995),
    ('Q2', 'materialize_replan', 'scratch'): (('590e628dd07170e9', '3006a6054010a034', 'b2ca422d6b9d6501'), ('c0ff2e596a00af60', '94bce6af2a16037d', '5da0bb16e9b00cbb'), (12, 6, 6), 60.00824999999916, 31.833249999999914),
    ('Q3', 'materialize_replan', 'scratch'): (('75b76ceedc942665', '26caec8d41c00ca0', 'd6d7d6442ad23eae'), ('701268625ea557e5', '6786f2010c9054e0', '2f5ee53cd5028aa1'), (12, 6, 6), 34.025250000000355, 29.553250000000357),
    ('Q4', 'materialize_replan', 'scratch'): (('43c2a51f291de7cf', '576f5ef7bd533609', '640389a903d8e9ee'), ('3ac8797e66c4dc3c', 'd72875077872b862', 'c7fe43ea9835a779'), (12, 6, 6), 20.96100000000008, 20.913000000000082),
    ('Q5', 'materialize_replan', 'scratch'): (('73a9aa156059f68f', 'cdfa9a77f5620110', 'e565f779029c1e18'), ('9ae0a07ff4e8ad93', 'a4ccbe1085727777', 'b3f234b072c778a3'), (10, 6, 6), 83.54225000000001, 40.66224999999997),
    ('Q6', 'materialize_replan', 'scratch'): (('3bfda7d6a75b0122', '312297abfaaf0f15', '921b0f23b4bdba7b'), ('971d4a79e006904a', 'd3f1f33d6e037e1a', '1acae263ea9412e1'), (10, 6, 6), 42.981249999999946, 38.509249999999945),
    ('Q7', 'materialize_replan', 'scratch'): (('672911fcb03f2a6b', '0a1a2ec9aebe095c', '3149f4c7abca027e'), ('6a98d7b2249c1676', '67e8bb244a4e7f26', '5e455553b616835a'), (10, 6, 6), 36.07999999999987, 34.16799999999987),
    ('Q1', 'partial', 'saved_state'): (('32b13910293913dc', '4f8af49229bf21da'), ('7741efb74a34a4f7', '84659dfacca3d8dd'), (10, 13), 59.14499999999919, 5.152),
    ('Q2', 'partial', 'saved_state'): (('46772d6527c6cd5a', '3006a6054010a034'), ('e9406d97652c8221', 'a2e3a3956fa96da1'), (12, 15), 60.00824999999916, 8.658250000000002),
    ('Q3', 'partial', 'saved_state'): (('64193cddf93c0f41', '26caec8d41c00ca0'), ('be11c309a4ff42d2', 'a207b3d0cca0674b'), (12, 15), 34.025250000000355, 6.8770000000000095),
    ('Q4', 'partial', 'saved_state'): (('72da0ae55ddcad4a', '576f5ef7bd533609'), ('ade88634afb04cc5', '3aa08404a5c1a065'), (12, 15), 20.96100000000008, 6.8770000000000095),
    ('Q5', 'partial', 'saved_state'): (('2aea7539f48a20ad', 'cdfa9a77f5620110'), ('dcf898637b6da945', 'b7e6a21587fd4c65'), (10, 13), 85.76624999999952, 8.658250000000002),
    ('Q6', 'partial', 'saved_state'): (('de20f7d3c7be18ec', '312297abfaaf0f15'), ('0eb3d28250dc34d7', 'debe6eea12e71d7d'), (10, 13), 42.981249999999946, 5.151999999999999),
    ('Q7', 'partial', 'saved_state'): (('3d0c93a47f8aa36a', '0a1a2ec9aebe095c'), ('932e1a6ad0f4845f', '32568ba81465ecd5'), (10, 13), 36.07999999999987, 5.151999999999999),
    ('Q1', 'partial', 'saved_state_no_pointers'): (('32b13910293913dc', '4f8af49229bf21da'), ('7741efb74a34a4f7', '84659dfacca3d8dd'), (10, 23), 59.14499999999919, 5.152),
    ('Q2', 'partial', 'saved_state_no_pointers'): (('46772d6527c6cd5a', '3006a6054010a034'), ('e9406d97652c8221', 'a2e3a3956fa96da1'), (12, 27), 60.00824999999916, 8.658250000000002),
    ('Q3', 'partial', 'saved_state_no_pointers'): (('64193cddf93c0f41', '26caec8d41c00ca0'), ('be11c309a4ff42d2', 'a207b3d0cca0674b'), (12, 27), 34.025250000000355, 6.8770000000000095),
    ('Q4', 'partial', 'saved_state_no_pointers'): (('72da0ae55ddcad4a', '576f5ef7bd533609'), ('ade88634afb04cc5', '3aa08404a5c1a065'), (12, 27), 20.96100000000008, 6.8770000000000095),
    ('Q5', 'partial', 'saved_state_no_pointers'): (('2aea7539f48a20ad', 'cdfa9a77f5620110'), ('dcf898637b6da945', 'b7e6a21587fd4c65'), (10, 23), 85.76624999999952, 8.658250000000002),
    ('Q6', 'partial', 'saved_state_no_pointers'): (('de20f7d3c7be18ec', '312297abfaaf0f15'), ('0eb3d28250dc34d7', 'debe6eea12e71d7d'), (10, 23), 42.981249999999946, 5.151999999999999),
    ('Q7', 'partial', 'saved_state_no_pointers'): (('3d0c93a47f8aa36a', '0a1a2ec9aebe095c'), ('932e1a6ad0f4845f', '32568ba81465ecd5'), (10, 23), 36.07999999999987, 5.151999999999999),
    ('Q1', 'partial', 'scratch'): (('32b13910293913dc', '4f8af49229bf21da'), ('7741efb74a34a4f7', '84659dfacca3d8dd'), (10, 6), 59.14499999999919, 5.152),
    ('Q2', 'partial', 'scratch'): (('46772d6527c6cd5a', '3006a6054010a034'), ('e9406d97652c8221', 'a2e3a3956fa96da1'), (12, 6), 60.00824999999916, 8.658250000000002),
    ('Q3', 'partial', 'scratch'): (('64193cddf93c0f41', '26caec8d41c00ca0'), ('be11c309a4ff42d2', 'a207b3d0cca0674b'), (12, 6), 34.025250000000355, 6.8770000000000095),
    ('Q4', 'partial', 'scratch'): (('72da0ae55ddcad4a', '576f5ef7bd533609'), ('ade88634afb04cc5', '3aa08404a5c1a065'), (12, 6), 20.96100000000008, 6.8770000000000095),
    ('Q5', 'partial', 'scratch'): (('2aea7539f48a20ad', 'cdfa9a77f5620110'), ('dcf898637b6da945', 'b7e6a21587fd4c65'), (10, 6), 85.76624999999952, 8.658250000000002),
    ('Q6', 'partial', 'scratch'): (('de20f7d3c7be18ec', '312297abfaaf0f15'), ('0eb3d28250dc34d7', 'debe6eea12e71d7d'), (10, 6), 42.981249999999946, 5.151999999999999),
    ('Q7', 'partial', 'scratch'): (('3d0c93a47f8aa36a', '0a1a2ec9aebe095c'), ('932e1a6ad0f4845f', '32568ba81465ecd5'), (10, 6), 36.07999999999987, 5.151999999999999),
}


@pytest.mark.parametrize("strategy, mode", CASES, ids=lambda v: v.value)
def test_figure5_plans_match_the_parent_goldens(tiny_tpcd, strategy, mode):
    for query in figure5_queries():
        key = (query.name, strategy.value, mode.value)
        assert fingerprint(tiny_tpcd, query, strategy, mode) == GOLDENS[key], key


def run_replanning(tables, query):
    catalog = DataSourceCatalog()
    for name in tables.names:
        catalog.register_source(DataSource(name, tables[name], lan()))
    optimizer = Optimizer(catalog, OptimizerConfig(memory_pool_bytes=POOL_BYTES))
    driver = InterleavedExecutionDriver(catalog, optimizer, engine_config=ENGINE_CONFIG)
    return driver.run(
        Reformulator(catalog).reformulate(query), strategy=PlanningStrategy.MATERIALIZE_REPLAN
    )


def test_no_final_fragment_carries_a_replan_rule(tiny_tpcd):
    """Nothing is left to re-plan after a plan's last fragment."""
    for query in figure5_queries():
        result = run_replanning(tiny_tpcd, query)
        for plan in result.plans:
            final = plan.fragments[-1]
            assert final.is_final
            assert not [rule.name for rule in final.rules if rule.name.startswith("replan-")]
            assert all(
                any(rule.name == f"replan-{fragment.fragment_id}" for rule in fragment.rules)
                for fragment in plan.fragments[:-1]
                if not fragment.estimate_reliable
            )


def test_rule_firings_accumulate_across_replans(tiny_tpcd):
    """Each plan runs under its own executor on one context; a query that
    re-plans twice reports both firings, not only its last plan's."""
    result = run_replanning(tiny_tpcd, figure5_queries()[0])
    assert result.reoptimizations == 2
    assert result.stats.rules_fired == 2
    # Every fragment emits an opened and a closed event, each processed once.
    fragments = len(result.stats.fragment_stats)
    assert result.stats.events_processed >= 2 * fragments
