"""Directed fault injection: every critical invariant monitor must fire.

Each test breaks exactly one protocol mechanism (skips the session
check, installs a stale NS value, silently regresses a copy, drops a
write-all fan-out leg, under-populates a missing list, corrupts the
durable image, drops a record from replay) and asserts the matching
rule fires — the auditor has no false negatives. The complementary
no-false-positives property is ``test_sweep.py`` (E1–E9 under the
auditor, zero alerts).
"""

from repro.audit import attach_auditor
from repro.core.config import RowaaConfig
from repro.core.nominal import ns_item
from repro.core.rowaa import RowaaStrategy
from repro.harness.runner import build_traced_scheme
from repro.txn.transaction import TxnKind
from repro.wal.log import CHECKPOINT_ITEM_PREFIX


def _write(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def _read(item):
    def program(ctx):
        value = yield from ctx.read(item)
        return value

    return program


def _build(**kwargs):
    kernel, system = build_traced_scheme(
        "rowaa", 11, 3, {"X": 0, "Y": 0}, **kwargs
    )
    auditor = attach_auditor(system)
    return kernel, system, auditor


#: Both schedulers feed the auditor through the same DM tails
#: (``_serve_read`` / ``_write_applied``). Under timestamp ordering the
#: apply tap used to be missing, so the oracle stayed empty and the
#: three rules it feeds could never fire.
SCHEDULERS = ("2pl", "to")


def _assert_oracle_current(system, auditor, *items):
    """The oracle holds the latest committed version of every written
    item (as an up site's copy store has it)."""
    copies = system.cluster.sites[1].copies
    for item in items:
        assert auditor._oracle[item] == copies.get(item).version, item


class TestSessionCoherence:
    def test_skipped_session_check_fires(self):
        kernel, system, auditor = _build()
        dm = system.dms[3]
        dm.session_check_enabled = False  # the injected protocol bug
        dm.actual_session = 99
        kernel.run(system.submit(1, _write("X", 1)))
        assert auditor.alerts.count(rule="session.check") >= 1
        alert = auditor.alerts.by_rule()["session.check"][0]
        assert alert.severity == "critical"
        assert alert.site == 3
        assert alert.details["actual"] == 99

    def test_non_monotonic_ns_announcement_fires(self):
        def announce(value):
            def program(ctx):
                yield from ctx.dm_write(
                    1, ns_item(2), value, expected=None, privileged=True
                )

            return program

        for concurrency in SCHEDULERS:
            kernel, system, auditor = _build(concurrency=concurrency)
            kernel.run(system.submit(1, announce(5), kind=TxnKind.CONTROL))
            assert auditor.alerts.count(rule="session.ns_monotonic") == 0
            kernel.run(system.submit(1, announce(3), kind=TxnKind.CONTROL))
            assert auditor.alerts.count(rule="session.ns_monotonic") == 1, concurrency
            _assert_oracle_current(system, auditor, ns_item(2))


class TestOracleStaleness:
    def test_silently_regressed_copy_fires_on_read(self):
        for concurrency in SCHEDULERS:
            kernel, system, auditor = _build(concurrency=concurrency)
            site3 = system.cluster.sites[3]
            old = site3.copies.get("X")
            old_value, old_version = old.value, old.version
            kernel.run(system.submit(1, _write("X", 7)))
            _assert_oracle_current(system, auditor, "X")
            # Regress site 3's copy behind the DM's back (no unreadable mark).
            copy = site3.copies.get("X")
            copy.value, copy.version = old_value, old_version
            kernel.run(system.submit(3, _read("X")))  # local read preference
            assert auditor.alerts.count(rule="oracle.stale_read") == 1, concurrency
            assert auditor.alerts.alerts[0].site == 3

    def test_under_populated_missing_list_fires(self):
        for concurrency in SCHEDULERS:
            kernel, system, auditor = _build(
                rowaa_config=RowaaConfig(identify_mode="missing-lists"),
                concurrency=concurrency,
            )
            system.crash(3)
            kernel.run(until=kernel.now + 40)  # detection + type-2 exclusion
            kernel.run(system.submit_with_retry(1, _write("X", 42)))
            _assert_oracle_current(system, auditor, "X")

            policy = system.policies[3]
            original = policy.collect_stale

            def lossy(manager, original=original):
                stale = yield from original(manager)
                return [item for item in stale if item != "X"]  # drop one entry

            policy.collect_stale = lossy
            system.power_on(3)
            kernel.run(until=kernel.now + 120)
            assert auditor.alerts.count(rule="missinglist.conservatism") >= 1, concurrency
            alert = auditor.alerts.by_rule()["missinglist.conservatism"][0]
            assert alert.site == 3
            assert alert.details["item"] == "X"

    def test_faithful_missing_list_stays_silent(self):
        kernel, system, auditor = _build(
            rowaa_config=RowaaConfig(identify_mode="missing-lists")
        )
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.submit_with_retry(1, _write("X", 42)))
        system.power_on(3)
        kernel.run(until=kernel.now + 120)
        assert auditor.alerts.count(rule="missinglist.conservatism") == 0
        assert not auditor.alerts.has_critical


class TestWriteCoverage:
    def test_dropped_fanout_leg_fires(self, monkeypatch):
        kernel, system, auditor = _build()

        def dropping_write(self, ctx, item, value):
            resident = ctx.tm.catalog.sites_of(item)
            targets = [
                (site, ctx.view[site])
                for site in resident
                if ctx.view.get(site, 0) != 0
            ]
            assert len(targets) > 1
            yield from ctx.dm_write_all(targets[:-1], item, value)

        monkeypatch.setattr(RowaaStrategy, "write", dropping_write)
        kernel.run(system.submit(1, _write("X", 1)))
        assert auditor.alerts.count(rule="rowaa.write_coverage") == 1
        alert = auditor.alerts.alerts[-1]
        assert alert.details["item"] == "X"
        assert alert.details["missing"] == [3]


class TestWalCoherence:
    def test_checkpoint_beyond_durable_lsn_fires(self):
        kernel, system, auditor = _build()
        wal = system.cluster.sites[2].wal
        wal.last_checkpoint_lsn = wal.log.durable_lsn + 5  # corrupt claim
        kernel.run(system.submit(1, _write("X", 1)))  # group commit -> hook
        assert auditor.alerts.count(rule="wal.checkpoint_bound") >= 1

    def test_durable_lsn_regression_fires(self):
        kernel, system, auditor = _build()
        for value in range(3):
            kernel.run(system.submit(1, _write("X", value)))
        log = system.cluster.sites[2].wal.log
        assert log.durable_lsn >= 3
        log.durable_lsn -= 3  # simulate a lost durable tail
        log.next_lsn = log.durable_lsn + 1
        kernel.run(system.submit(1, _write("X", 9)))
        assert auditor.alerts.count(rule="wal.durable_monotonic") >= 1

    def test_corrupted_checkpoint_fails_replay_fingerprint(self):
        kernel, system, auditor = _build()
        kernel.run(system.submit(1, _write("X", 7)))
        site = system.cluster.sites[3]
        site.wal.checkpoint()
        system.crash(3)
        key = CHECKPOINT_ITEM_PREFIX + "X"
        value, version, unreadable, tail = site.stable.get(key)
        site.stable.put(key, (999999, version, unreadable, tail))
        system.power_on(3)
        assert auditor.alerts.count(rule="wal.replay_fingerprint") == 1
        kernel.run(until=kernel.now + 60)  # let the recovery drain

    def test_restore_dropping_an_unstale_record_fails_replay_fingerprint(self):
        kernel, system, auditor = _build(
            rowaa_config=RowaaConfig(identify_mode="fail-locks")
        )
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.submit_with_retry(1, _write("X", 7), attempts=5))
        assert kernel.run(system.power_on(3)).succeeded
        kernel.run(until=kernel.now + 60)  # site 3's stale.clear lands
        site = system.cluster.sites[1]
        wal = site.wal
        assert ("X", 3) not in wal.stale_table
        assert "unstale" in {r.kind for r in wal.log.records_after(wal.last_checkpoint_lsn)}
        system.crash(1)
        replay = wal.log.records_after
        wal.log.records_after = lambda lsn: (
            record for record in replay(lsn) if record.kind != "unstale"
        )
        system.power_on(1)
        del wal.log.records_after
        assert ("X", 3) in wal.stale_table  # the dropped record's entry is back
        assert auditor.alerts.count(rule="wal.replay_fingerprint") == 1

    def test_clean_crash_recovery_fingerprint_silent(self):
        kernel, system, auditor = _build()
        kernel.run(system.submit(1, _write("X", 7)))
        site = system.cluster.sites[3]
        site.wal.checkpoint()
        system.crash(3)
        system.power_on(3)
        kernel.run(until=kernel.now + 120)
        assert auditor.alerts.count(rule="wal.replay_fingerprint") == 0
        assert not auditor.alerts.has_critical


class TestAttachment:
    def test_attach_is_idempotent(self):
        kernel, system, auditor = _build()
        assert attach_auditor(system) is auditor
        assert system.obs.audit is auditor

    def test_no_auditor_means_empty_hooks(self):
        """A freshly built un-probed system has every ``kernel.probes``
        slot empty — so its kernel takes the bare drain loop."""
        from repro.harness.runner import build_scheme
        from repro.sim.probes import EVENTS

        kernel, system = build_scheme("rowaa", 7, 3, {"X": 0})
        assert system.obs.audit is None
        assert all(getattr(kernel.probes, event) == [] for event in EVENTS)
        assert not kernel.probes
        kernel.run(system.submit(1, _write("X", 1)))
        assert not kernel.probes  # running load attaches nothing
        attach_auditor(system)
        assert kernel.probes and kernel.probes.apply and not kernel.probes.tiebreak

    def test_summary_shape(self):
        kernel, system, auditor = _build()
        kernel.run(system.submit(1, _write("X", 1)))
        summary = auditor.summary()
        assert set(summary) == {"alerts", "critical", "warning", "by_rule", "checks"}
        assert summary["alerts"] == 0
        assert summary["checks"] > 0
        snapshot = system.obs.registry.snapshot()
        assert snapshot["global"]["audit.alerts"] == 0.0
        assert snapshot["global"]["audit.checks"] > 0
