"""A larger-scale end-to-end exercise: 8 sites, 48 items, rolling outages.

Not a microbenchmark — a breadth test that the protocol's machinery
(detection, exclusion, recovery, copiers, identification) composes at a
size no other test reaches, with full correctness checks at the end.
"""

import random

from repro.core import RowaaConfig, RowaaSystem
from repro.core.nominal import db_item_filter
from repro.histories import check_one_sr, check_theorem3
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.storage import Catalog
from repro.txn import TxnConfig
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec


def test_eight_site_rolling_outages():
    n_sites, n_items = 8, 48
    kernel = Kernel(seed=2024)
    spec = WorkloadSpec(n_items=n_items, ops_per_txn=3, write_fraction=0.35,
                        zipf_s=0.7)
    catalog = Catalog.random_placement(
        list(range(1, n_sites + 1)), spec.item_names(), 3, random.Random(12)
    )
    system = RowaaSystem(
        kernel,
        n_sites=n_sites,
        items=spec.initial_items(),
        catalog=catalog,
        latency=ConstantLatency(1.0),
        detection_delay=5.0,
        config=TxnConfig(rpc_timeout=30.0),
        rowaa_config=RowaaConfig(identify_mode="fail-locks", copier_mode="both"),
    )
    system.boot()

    pool = ClientPool(
        system, WorkloadGenerator(spec, random.Random(3)),
        n_clients=10, think_time=4.0, retries=2,
    )
    pool.start(1500.0)

    def rolling_outages():
        for wave, victim in enumerate((2, 5, 7, 3), start=1):
            yield kernel.timeout(150.0)
            if len(system.cluster.operational_sites()) > 2:
                system.crash(victim)
            yield kernel.timeout(120.0)
            if system.cluster.site(victim).is_down:
                yield system.power_on(victim)

    kernel.process(rolling_outages())
    kernel.run(until=1600.0)
    # Quiesce fully.
    for site_id in system.cluster.site_ids:
        if system.cluster.site(site_id).is_down:
            system.power_on(site_id)
    kernel.run(until=2400.0)
    system.stop()
    kernel.run(until=2420.0)

    # The run did substantial work...
    assert pool.stats.committed > 300
    # ...every recovery eventually succeeded...
    assert all(r.succeeded for r in system.recovery_records() if r.operational_at)
    assert system.cluster.operational_sites() == list(range(1, n_sites + 1))
    # ...no staleness remains...
    assert all(count == 0 for count in system.unreadable_counts().values())
    # ...replicas converged...
    for item in spec.item_names():
        values = {
            system.copy_value(site, item) for site in catalog.sites_of(item)
        }
        assert len(values) == 1, (item, values)
    # ...and the whole history is one-serializable.
    assert check_theorem3(system.recorder).ok
    verdict = check_one_sr(system.recorder, item_filter=db_item_filter)
    assert verdict.ok, verdict
