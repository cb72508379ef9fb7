"""Liveness watchdog tests: stalls must fire, clean runs must not."""

from repro.audit import attach_auditor
from repro.audit import auditor as auditor_module
from repro.harness.runner import build_traced_scheme


def _build(monkeypatch, **budgets):
    """An audited system whose watchdog ticks every 10 units, with the
    named budgets (``DRAIN_STALL_BUDGET=40.0`` …) shortened to match."""
    monkeypatch.setattr(auditor_module, "WATCHDOG_INTERVAL", 10.0)
    for name, value in budgets.items():
        monkeypatch.setattr(auditor_module, name, value)
    kernel, system = build_traced_scheme("rowaa", 13, 3, {"X": 0, "Y": 0})
    return kernel, system, attach_auditor(system)


class TestDrainAndCopierWatchdogs:
    def test_undrained_unreadable_copy_fires_both(self, monkeypatch):
        kernel, system, auditor = _build(
            monkeypatch, DRAIN_STALL_BUDGET=40.0, COPIER_STALL_BUDGET=40.0
        )
        # Mark a copy unreadable behind the copier's back: nothing ever
        # enqueues a refresh, so the count never drains and the copier's
        # counters stay frozen with work pending.
        system.cluster.sites[1].copies.mark_unreadable("X")
        kernel.run(until=kernel.now + 150)
        assert auditor.alerts.count(rule="liveness.drain_stall") == 1
        assert auditor.alerts.count(rule="liveness.copier_starved") == 1
        # Watchdogs warn; they must never trip the critical-only CI gate.
        assert not auditor.alerts.has_critical

    def test_quiet_system_stays_silent(self, monkeypatch):
        kernel, system, auditor = _build(
            monkeypatch, DRAIN_STALL_BUDGET=40.0, COPIER_STALL_BUDGET=40.0,
            TWOPC_BUDGET=30.0,
        )
        kernel.run(until=kernel.now + 150)
        assert auditor.alerts.count() == 0

    def test_stop_halts_the_watchdog_process(self, monkeypatch):
        kernel, system, auditor = _build(monkeypatch, DRAIN_STALL_BUDGET=20.0)
        auditor.stop()
        system.cluster.sites[1].copies.mark_unreadable("X")
        kernel.run(until=kernel.now + 100)
        assert auditor.alerts.count(rule="liveness.drain_stall") == 0

    def test_system_stop_ends_the_watchdog(self):
        """``system.stop()`` stops the auditor too, so an audited system
        drains like a plain one: nothing is left on the kernel's queues."""
        kernel, system = build_traced_scheme("rowaa", 13, 3, {"X": 0, "Y": 0})
        attach_auditor(system)
        kernel.run(until=50)
        system.stop()
        kernel.run(until=kernel.now + 1000)
        assert kernel.peek() == float("inf")


class TestTwoPcWatchdog:
    def test_open_2pc_span_past_budget_fires_once(self, monkeypatch):
        kernel, system, auditor = _build(monkeypatch, TWOPC_BUDGET=30.0)
        span = system.obs.spans.start("2pc", "2pc", 1, txn_id="T9@9")
        kernel.run(until=kernel.now + 100)
        assert auditor.alerts.count(rule="liveness.twopc_overrun") == 1
        alert = auditor.alerts.by_rule()["liveness.twopc_overrun"][0]
        assert alert.severity == "warning"
        assert alert.span_id == span.span_id
        assert alert.txn_ids == ("T9@9",)

    def test_closed_2pc_span_does_not_fire(self, monkeypatch):
        kernel, system, auditor = _build(monkeypatch, TWOPC_BUDGET=30.0)
        span = system.obs.spans.start("2pc", "2pc", 1)
        kernel.run(until=kernel.now + 15)
        system.obs.spans.finish(span)
        kernel.run(until=kernel.now + 100)
        assert auditor.alerts.count(rule="liveness.twopc_overrun") == 0
