"""Directed fault injection for the quorum-commit audit rules.

Complements ``test_fault_injection.py``: each test breaks one piece of
the async_quorum machinery and asserts the matching rule fires —
``quorum.majority`` (commit decided below the per-item majority of
durably prepared write sites) and ``quorum.drain_uncovered`` (drain gave
up on a site that never crashed, so no recovery pass will cover the
missing write). The clean-run silence of both rules is covered by the
E10 entries in ``test_sweep.py`` plus the positive tests here.
"""

from repro.audit import attach_auditor
from repro.audit import auditor as auditor_module
from repro.errors import TransactionError
from repro.harness.runner import build_traced_scheme
from repro.txn import TxnConfig
from repro.txn import manager as manager_module
from repro.txn.transaction import TxnStatus


def _write(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def _build(**kwargs):
    kwargs.setdefault(
        "txn_config", TxnConfig(rpc_timeout=20.0, commit_mode="async_quorum")
    )
    kernel, system = build_traced_scheme(
        "rowaa", 11, 3, {"X": 0, "Y": 0}, **kwargs
    )
    auditor = attach_auditor(system)
    return kernel, system, auditor


class TestQuorumMajority:
    def test_under_quorum_decision_fires(self):
        """Simulate a commit decided with a single durable prepare: the
        independently recomputed majority threshold catches it."""
        kernel, system, auditor = _build()
        tm = system.tms[1]
        original_finish = tm._finish

        def finish_tampered(txn, status, version, reason=None):
            if status is TxnStatus.COMMITTED:
                txn.prepared_sites = set(sorted(txn.prepared_sites)[:1])
            original_finish(txn, status, version, reason)

        tm._finish = finish_tampered
        kernel.run(system.submit(1, _write("X", 1)))
        assert auditor.alerts.count(rule="quorum.majority") == 1
        alert = auditor.alerts.by_rule()["quorum.majority"][0]
        assert alert.severity == "critical"
        assert alert.details["needed"] == 2

    def test_majority_decision_stays_silent(self):
        kernel, system, auditor = _build()
        kernel.run(system.submit(1, _write("X", 1)))
        kernel.run(until=kernel.now + 100)
        assert auditor.alerts.count(rule="quorum.majority") == 0
        assert not auditor.alerts.has_critical


class TestDrainCoverage:
    def test_drain_abandoning_healthy_site_fires(self):
        """Break site 3's commit application (it stays up, it just
        refuses): the drain gives it up, but no crash means no recovery
        pass — the auditor must flag the uncovered write."""
        kernel, system, auditor = _build()

        def refuse(payload, src):
            raise TransactionError("injected apply failure")

        system.cluster.site(3).rpc._handlers["dm.commit"] = refuse
        kernel.run(system.submit(1, _write("X", 5)))
        kernel.run(until=kernel.now + 200)  # drain retries, then gives up
        assert auditor.alerts.count(rule="quorum.drain_uncovered") >= 1
        alert = auditor.alerts.by_rule()["quorum.drain_uncovered"][0]
        assert alert.severity == "critical"
        assert alert.site == 3

    def test_drain_abandoning_crashed_site_stays_silent(self):
        """The same give-up is sound when the site actually crashed:
        marks + recovery cover the miss, so no alert."""
        kernel, system, auditor = _build()
        tm = system.tms[1]
        original_finish = tm._finish

        def finish_then_crash(txn, status, version, reason=None):
            if (
                status is TxnStatus.COMMITTED
                and not system.cluster.site(3).is_down
            ):
                system.crash(3)
            original_finish(txn, status, version, reason)

        tm._finish = finish_then_crash
        kernel.run(system.submit(1, _write("X", 5)))
        kernel.run(until=kernel.now + 200)
        assert auditor.alerts.count(rule="quorum.drain_uncovered") == 0
        system.power_on(3)
        kernel.run(until=kernel.now + 300)
        assert not auditor.alerts.has_critical
        assert system.copy_value(3, "X") == 5


class TestDrainWatchdog:
    def test_slow_drain_overruns_budget(self, monkeypatch):
        """A drain held up past ``DRAIN_BUDGET`` trips the liveness
        watchdog (warning — slow, not wrong)."""
        monkeypatch.setattr(auditor_module, "WATCHDOG_INTERVAL", 5.0)
        monkeypatch.setattr(auditor_module, "DRAIN_BUDGET", 10.0)
        monkeypatch.setattr(manager_module, "DRAIN_RETRY_DELAY", 30.0)
        kernel, system, auditor = _build(
            txn_config=TxnConfig(rpc_timeout=60.0, commit_mode="async_quorum"),
        )

        def stall(payload, src):
            yield kernel.timeout(50)
            raise TransactionError("injected apply failure")

        system.cluster.site(3).rpc._handlers["dm.commit"] = stall
        kernel.run(system.submit(1, _write("X", 5)))
        kernel.run(until=kernel.now + 40)
        assert auditor.alerts.count(rule="liveness.drain_overrun") >= 1
        assert auditor.alerts.by_rule()["liveness.drain_overrun"][0].severity == (
            "warning"
        )
