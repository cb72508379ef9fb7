"""Read-heavy product catalog with on-demand copiers.

Models a retail catalog: a skewed (zipfian) read-mostly workload over a
partially replicated item set. A storage site crashes during the rush;
after it rejoins, reads at that site transparently redirect away from
stale copies while *demand-triggered* copiers renovate exactly the
products customers actually look at — the §3.2 on-demand strategy.

Run:  python examples/inventory_catalog.py
"""

import random

from repro.core import RowaaConfig, RowaaSystem
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.storage import Catalog
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec

N_SITES = 4
N_PRODUCTS = 40
REPLICATION = 2


def main():
    kernel = Kernel(seed=2026)
    spec = WorkloadSpec(
        n_items=N_PRODUCTS,
        ops_per_txn=3,
        write_fraction=0.05,   # mostly browsing, occasional restock
        zipf_s=1.1,            # strong bestseller skew
    )
    catalog = Catalog.random_placement(
        list(range(1, N_SITES + 1)),
        spec.item_names(),
        REPLICATION,
        random.Random(5),
    )
    system = RowaaSystem(
        kernel,
        n_sites=N_SITES,
        items=spec.initial_items(100),   # 100 units of everything
        catalog=catalog,
        latency=ConstantLatency(1.0),
        detection_delay=5.0,
        rowaa_config=RowaaConfig(
            copier_mode="demand",            # renovate only what is read
            identify_mode="fail-locks",      # mark only what went stale
        ),
    )
    system.boot()

    pool = ClientPool(
        system,
        WorkloadGenerator(spec, random.Random(7)),
        n_clients=8,
        think_time=3.0,
        retries=2,
    )
    pool.start(1200.0)

    def crash_and_recover():
        yield kernel.timeout(300.0)
        print(f"[t={kernel.now:7.1f}] site 4 crashes mid-rush")
        system.crash(4)
        yield kernel.timeout(200.0)
        print(f"[t={kernel.now:7.1f}] site 4 reboots")
        record = yield system.power_on(4)
        print(f"[t={kernel.now:7.1f}] site 4 operational again after "
              f"{record.time_to_operational:.1f} (marked {record.marked_items} "
              f"of {len(catalog.items_at(4))} resident copies stale)")

    kernel.process(crash_and_recover())
    kernel.run(until=1300.0)
    system.stop()
    kernel.run(until=kernel.now + 10)

    stats = pool.stats
    print(f"\ncustomer transactions: attempted={stats.attempted} "
          f"committed={stats.committed} aborted={stats.aborted} "
          f"refused={stats.refused}")
    print(f"availability through the incident: {stats.availability:.3f}")

    copiers = system.copiers[4]
    dm = system.dms[4]
    print(f"\non-demand copiers at site 4: performed={copiers.stats.copies_performed} "
          f"version-skips={copiers.stats.copies_skipped_version}")
    print(f"reads redirected away from stale copies: "
          f"{dm.stats_unreadable_rejections}")
    leftover = [item for item in system.cluster.site(4).copies.unreadable_items()
                if not item.startswith("NS[")]
    print(f"cold products still awaiting a copier: {len(leftover)} "
          "(they renovate on first read or next restock)")


if __name__ == "__main__":
    main()
