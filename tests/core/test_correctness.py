"""Serializability of live executions (§1 example + §4 Theorem 3).

These are the reproduction's correctness centerpiece: the simulator
runs the real protocol (or a baseline) under crashes, records the
physical history, and the §4 machinery delivers the verdict.
"""

import random

import pytest

from repro.audit import attach_auditor
from repro.baselines import NaiveAvailableCopies
from repro.core import RowaaSystem
from repro.core.nominal import db_item_filter
from repro.errors import TransactionAborted
from repro.histories import check_one_sr, check_sr, check_theorem3
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.storage import Catalog
from repro.system import DatabaseSystem
from repro.txn import TxnConfig
from repro.workload import ClientPool, FailureSchedule, WorkloadGenerator, WorkloadSpec


def paper_example_scenario(system, kernel):
    """Drive the §1 history: Ra[x1] Rb[y1] (site 1 crashes) Wa[y2] Wb[x2].

    Both transactions home at site 3 (which holds no copies), so reads
    hit site 1 and writes — after the crash — only reach site 2.
    Returns the two transaction processes.
    """

    def txn_a(ctx):
        value = yield from ctx.read("X")  # x1
        yield kernel.timeout(50)  # crash + detection happen here
        yield from ctx.write("Y", value if isinstance(value, int) else 0)

    def txn_b(ctx):
        value = yield from ctx.read("Y")  # y1
        yield kernel.timeout(50)
        yield from ctx.write("X", value if isinstance(value, int) else 0)

    proc_a = system.submit(3, txn_a)
    proc_b = system.submit(3, txn_b)
    kernel.run(until=5)
    system.crash(1)
    return proc_a, proc_b


def two_copy_catalog():
    catalog = Catalog([1, 2, 3])
    catalog.add_item("X", [1, 2])
    catalog.add_item("Y", [1, 2])
    return catalog


class TestPaperExampleLive:
    def test_naive_scheme_commits_non_1sr_execution(self):
        """The §1 anomaly, reproduced end to end under the naive scheme."""
        kernel = Kernel(seed=42)
        system = DatabaseSystem(
            kernel,
            n_sites=3,
            items={"X": 0, "Y": 0},
            catalog=two_copy_catalog(),
            strategy_factory=lambda s: NaiveAvailableCopies(s.cluster),
            latency=ConstantLatency(1.0),
            detection_delay=5.0,
            config=TxnConfig(rpc_timeout=20.0),
        )
        system.boot()
        auditor = attach_auditor(system)
        proc_a, proc_b = paper_example_scenario(system, kernel)
        kernel.run(proc_a)
        kernel.run(proc_b)
        # Both committed — and the execution is NOT one-serializable,
        # exactly as the paper's example warns.
        assert check_sr(system.recorder).ok  # physically serializable...
        verdict = check_one_sr(system.recorder)
        assert not verdict.ok
        assert verdict.method == "exhaustive-no-order"
        # The auditor sees it live: one critical alert naming both
        # transactions, which later checks do not repeat.
        kernel.run(until=kernel.now + 100)
        system.stop()
        auditor.summary()
        (alert,) = auditor.alerts.alerts
        assert (alert.rule, alert.severity) == ("onesr.cycle", "critical")
        committed = tuple(sorted(system.recorder.committed))
        assert len(committed) == 2 and alert.txn_ids == committed

    def test_rowaa_prevents_the_anomaly(self):
        """Same scenario under the paper's protocol: the stale-view
        writers abort (their write set includes the crashed site), so
        the history stays one-serializable."""
        kernel = Kernel(seed=42)
        system = RowaaSystem(
            kernel,
            n_sites=3,
            items={"X": 0, "Y": 0},
            catalog=two_copy_catalog(),
            latency=ConstantLatency(1.0),
            detection_delay=5.0,
            config=TxnConfig(rpc_timeout=20.0),
        )
        system.boot()
        auditor = attach_auditor(system)
        proc_a, proc_b = paper_example_scenario(system, kernel)
        outcomes = []
        for proc in (proc_a, proc_b):
            try:
                kernel.run(proc)
                outcomes.append("committed")
            except TransactionAborted as exc:
                outcomes.append(exc.reason)
        assert outcomes == ["rpc-timeout", "rpc-timeout"]
        assert check_one_sr(system.recorder, item_filter=db_item_filter).ok
        assert check_theorem3(system.recorder).ok
        system.stop()
        assert auditor.summary()["critical"] == 0, auditor.alerts.render_summary()


def run_soak(seed, n_sites=4, n_items=12, duration=2500.0, write_fraction=0.4):
    """Random workload + random failures on the full protocol."""
    kernel = Kernel(seed=seed)
    spec = WorkloadSpec(
        n_items=n_items, ops_per_txn=3, write_fraction=write_fraction, zipf_s=0.6
    )
    system = RowaaSystem(
        kernel,
        n_sites=n_sites,
        items=spec.initial_items(),
        latency=ConstantLatency(1.0),
        detection_delay=5.0,
        config=TxnConfig(rpc_timeout=30.0),
    )
    system.boot()
    rng = random.Random(seed * 31 + 7)
    schedule = FailureSchedule.random_failures(
        system.cluster.site_ids, rng, horizon=duration * 0.8, mtbf=600, mttr=150
    )
    schedule.apply(system)
    generator = WorkloadGenerator(spec, rng)
    pool = ClientPool(system, generator, n_clients=6, think_time=5.0, retries=2)
    pool.start(duration)
    kernel.run(until=duration)
    # Quiesce: stop injecting, let every site recover and copiers drain.
    for site_id in system.cluster.site_ids:
        if system.cluster.site(site_id).is_down:
            system.power_on(site_id)
    kernel.run(until=duration + 1500)
    system.stop()
    kernel.run(until=duration + 1600)
    return kernel, system, pool


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
class TestRandomizedSoak:
    def test_protocol_histories_are_one_serializable(self, seed):
        _kernel, system, pool = run_soak(seed)
        assert pool.stats.committed > 50  # the run did real work
        assert check_theorem3(system.recorder).ok
        verdict = check_one_sr(system.recorder, item_filter=db_item_filter)
        assert verdict.ok, verdict

    def test_replicas_converge_after_quiescence(self, seed):
        _kernel, system, _pool = run_soak(seed)
        for item in (name for name in system.items if not name.startswith("NS[")):
            versions = {}
            for site_id in system.catalog.sites_of(item):
                site = system.cluster.site(site_id)
                if site.is_down:
                    continue
                copy = site.copies.get(item)
                if copy.unreadable:
                    continue
                versions[site_id] = (copy.version, copy.value)
            assert versions, f"no readable copy of {item}"
            top_version = max(version for version, _value in versions.values())
            values = {
                value
                for version, value in versions.values()
                if version == top_version
            }
            assert len(values) == 1
            # And every readable copy is at the top version (copiers done):
            assert all(version == top_version for version, _ in versions.values())
