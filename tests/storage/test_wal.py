"""Unit tests for the durability subsystem: RedoLog, SiteWal, StableStorage."""

import pickle
import pickletools

import pytest

from repro.core import RowaaConfig, RowaaSystem
from repro.core.identify import StaleTracker
from repro.net import ConstantLatency, Network
from repro.sim import Kernel
from repro.site import Site
from repro.storage.copies import Version
from repro.storage.stable import StableStorage
from repro.txn import TxnConfig
from repro.wal import RedoLog, SiteWal, WalConfig
from repro.wal.log import (
    CHECKPOINT_ITEM_PREFIX,
    CHECKPOINT_KEY,
    DIRECTORY_KEY,
    META_KEY,
    SEGMENT_PREFIX,
)
from repro.wal.records import LogRecord, from_row, to_row
from tests.core.conftest import write_program


def v(commit, ts=None):
    return Version(float(commit) if ts is None else ts, commit, 0)


class TestStableStorageIsolation:
    """Satellite: values cross a serialize boundary on put AND get."""

    def test_put_snapshots_value(self):
        stable = StableStorage()
        value = {"a": [1, 2]}
        stable.put("k", value)
        value["a"].append(3)  # mutating after put must not alter stable state
        assert stable.get("k") == {"a": [1, 2]}

    def test_get_returns_private_copies(self):
        stable = StableStorage()
        stable.put("k", [1, 2])
        first = stable.get("k")
        first.append(3)
        assert stable.get("k") == [1, 2]

    def test_bytes_written_counts_serialized_size(self):
        stable = StableStorage()
        size = stable.put("k", "x" * 100)
        assert size > 100
        assert stable.bytes_written == size
        stable.put("k2", "y")
        assert stable.bytes_written > size
        assert stable.writes == 2

    def test_size_of_and_delete(self):
        stable = StableStorage()
        stable.put("k", 1)
        assert stable.size_of("k") > 0
        assert "k" in stable
        stable.delete("k")
        assert stable.size_of("k") == 0
        assert "k" not in stable


def class_opcodes(blob):
    """The opcodes of a pickle ``blob`` that name a class (and so make
    ``pickle.loads`` import and call Python code)."""
    return [
        (op.name, arg) for op, arg, _pos in pickletools.genops(blob)
        if op.name in ("GLOBAL", "STACK_GLOBAL", "INST", "OBJ")
    ]


class TestLogRecordPickle:
    """A record is a ``NamedTuple``; what stable storage holds is its
    *row* — the same fields as a plain tuple, the version a bare triple —
    so a segment blob names no class."""

    RECORDS = (
        LogRecord(1, "write", "X", 5, v(3)),
        LogRecord(2, "mark", "Y"),
        LogRecord(3, "session", session=4, session_started_at=12.5),
        LogRecord(
            4, "prepare", "X", {"nested": [1, 2]}, v(7), txn_id="T9", txn_seq=9,
            coordinator=1, participants=(1, 2, 3), applied_sites=(1, 2),
            missed_sites=(3,),
        ),
        LogRecord(5, "resolve", txn_id="T9", outcome="committed"),
    )

    def test_state_is_the_generic_dataclass_state(self):
        """The row is the record's fields in order, as plain data, and
        :func:`from_row` gives the record back, version and all."""
        assert LogRecord._fields == (
            "lsn", "kind", "item", "value", "version", "session",
            "session_started_at", "txn_id", "txn_seq", "coordinator",
            "participants", "applied_sites", "missed_sites", "outcome",
        )
        assert LogRecord(0, "k") == (0, "k", None, None, None, None, None, None,
                                     0, None, (), (), (), None)
        for record in self.RECORDS:
            row = to_row(record)
            assert type(row) is tuple and row == tuple(record)
            assert record.version is None or type(row[4]) is tuple
            back = from_row(row)
            assert type(back) is LogRecord and back == record
            assert type(back.version) is type(record.version)
            with pytest.raises(AttributeError):
                record.lsn = 99
            with pytest.raises(AttributeError):
                del record.kind

    def test_blob_equals_the_generic_blob_and_round_trips(self):
        """A flushed segment is the pickle of its rows: no class opcode,
        and reading it back yields the records appended."""
        stable = StableStorage()
        log = RedoLog(stable)
        for record in self.RECORDS:
            log.append(*record[1:])
        log.flush()
        blob = stable._blobs[f"{SEGMENT_PREFIX}1"]
        rows = tuple(to_row(record) for record in self.RECORDS)
        assert blob == pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
        assert class_opcodes(blob) == []
        assert class_opcodes(stable._blobs[META_KEY]) == []
        assert list(log.records_after(0)) == list(self.RECORDS)
        assert list(RedoLog(stable).records_after(0)) == list(self.RECORDS)


class TestRedoLog:
    def test_lsns_strictly_increase(self):
        log = RedoLog(StableStorage())
        records = [log.append("write", item="X", value=i, version=v(i)) for i in (1, 2, 3)]
        assert [r.lsn for r in records] == [1, 2, 3]
        assert log.high_commit == 3

    def test_flush_is_one_segment_write(self):
        stable = StableStorage()
        log = RedoLog(stable)
        for i in (1, 2, 3):
            log.append("write", item="X", value=i, version=v(i))
        writes_before = stable.writes
        assert log.flush() == 3
        # One segment blob + one metadata write: the group-commit cost.
        assert stable.writes == writes_before + 2
        assert log.durable_lsn == 3
        assert log.buffered == 0

    def test_records_after_in_lsn_order(self):
        log = RedoLog(StableStorage())
        for i in range(1, 7):
            log.append("write", item="X", value=i, version=v(i))
            if i % 2 == 0:
                log.flush()  # three segments of two records each
        lsns = [r.lsn for r in log.records_after(2)]
        assert lsns == [3, 4, 5, 6]

    def test_discard_unflushed_reissues_lsns(self):
        log = RedoLog(StableStorage())
        log.append("write", item="X", value=1, version=v(1))
        log.flush()
        log.append("write", item="X", value=2, version=v(2))
        assert log.discard_unflushed() == 1
        record = log.append("write", item="X", value=3, version=v(3))
        assert record.lsn == 2  # the lost LSN was never durable

    def test_truncate_drops_whole_segments_and_tracks_commits(self):
        stable = StableStorage()
        log = RedoLog(stable)
        for i in range(1, 5):
            log.append("write", item="X" if i < 3 else "Y", value=i, version=v(i))
            log.flush()  # one record per segment
        assert log.truncate(2) == 2
        assert log.truncated_through_lsn == log.truncated_records == 2
        assert [r.lsn for r in log.records_after(0)] == [3, 4]
        # Truncation below the watermark is a no-op.
        assert log.truncate(1) == 0
        # The dropped segment blobs are gone from stable storage.
        segment_keys = [k for k in stable.keys() if k.startswith(SEGMENT_PREFIX)]
        assert len(segment_keys) == 2

    def test_meta_roundtrip_survives_reload(self):
        stable = StableStorage()
        log = RedoLog(stable)
        for i in range(1, 4):
            log.append("write", item="X", value=i, version=v(i))
            log.flush()  # one record per segment so truncate(1) can bite
        log.truncate(1)
        reloaded = RedoLog(stable)  # fresh instance over the same stable store
        assert reloaded.next_lsn == log.next_lsn
        assert reloaded.durable_lsn == log.durable_lsn
        assert reloaded.segments == log.segments
        assert reloaded.truncated_through_lsn == reloaded.truncated_records == 1
        assert reloaded.high_commit == 3
        assert [r.value for r in reloaded.records_after(0)] == [2, 3]

    def test_flush_leaves_the_directory_alone(self):
        """Stable layout: a flush rewrites ``wal.meta`` (four counters) and
        never ``wal.dir`` (two integers); only a truncation that drops
        something does."""
        stable = StableStorage()
        log = RedoLog(stable)
        for i in range(1, 5):
            log.append("write", item="X", value=i, version=v(i))
            log.flush()
        assert DIRECTORY_KEY not in stable  # nothing truncated yet
        # next LSN, durable LSN, next segment id, high commit
        assert stable.get(META_KEY) == (5, 4, 5, 4)
        log.truncate(2)
        directory_blob = stable._blobs[DIRECTORY_KEY]
        # first retained segment, truncated-through LSN
        assert stable.get(DIRECTORY_KEY) == (3, 2)
        log.append("write", item="X", value=5, version=v(5))
        log.flush()
        log.truncate(2)  # below the watermark: drops nothing, writes nothing
        assert stable._blobs[DIRECTORY_KEY] is directory_blob

    def test_reload_reassembles_prefix_and_tail(self):
        """The directory a restart reads back from the retained segments,
        with uneven sizes, a truncation and a dropped volatile tail in
        between."""
        stable = StableStorage()
        log = RedoLog(stable)
        commit = 0
        for size in (1, 3, 2, 5, 1, 4, 2):
            for _ in range(size):
                commit += 1
                log.append("write", item=f"X{commit % 3}", value=commit, version=v(commit))
            log.flush()
            if commit == 11:
                log.truncate(4)  # drops segments 1-2
                log.append("write", item="X0", value=-1, version=v(99))
                assert log.discard_unflushed() == 1  # crash: LSN 12 re-issued
        assert [entry[0] for entry in log.segments] == [3, 4, 5, 6, 7]
        reloaded = RedoLog(stable)
        assert reloaded.segments == log.segments
        assert reloaded.segments[0][1] == reloaded.truncated_through_lsn + 1 == 5
        assert reloaded.segments[-1][2] == reloaded.durable_lsn == 18
        assert reloaded.truncated_records == log.truncated_records == 4
        assert reloaded.next_lsn == log.next_lsn == 19
        assert reloaded.high_commit == log.high_commit == 99
        assert [r.lsn for r in reloaded.records_after(0)] == list(range(5, 19))


def make_site(wal_config=None):
    kernel = Kernel(seed=3)
    net = Network(kernel, latency=ConstantLatency(1.0))
    return Site(kernel, net, 1, wal_config=wal_config)


class TestSiteWal:
    def test_journal_hooked_into_copy_store(self):
        site = make_site()
        # The WAL is the first subscriber of the store's mutation stream.
        assert site.copies.subscribers == [site.wal._journal]
        site.copies.create("X", 0)
        site.copies.apply_write("X", 5, v(1))
        site.copies.mark_unreadable("X")
        site.copies.clear_unreadable("X")
        # The restore path's ops ride the same stream and are not redo.
        site.copies.install("Y", 7, v(2))
        site.copies.reset()
        assert site.wal.stats.records_appended == 3
        kinds = [r.kind for r in site.wal.log._buffer]
        assert kinds == ["write", "mark", "clear"]

    def test_group_commit_one_flush_per_commit(self):
        site = make_site()
        for name in ("X", "Y", "Z"):
            site.copies.create(name, 0)
        for i, name in enumerate(("X", "Y", "Z"), start=1):
            site.copies.apply_write(name, i, v(i))
        site.wal.on_commit()  # the whole "transaction" in one segment
        assert site.wal.stats.flushes == 1
        assert site.wal.stats.records_flushed == 3
        assert site.wal.stats.bytes_flushed > 0

    def test_checkpoint_truncates_behind_retention(self):
        site = make_site(WalConfig(checkpoint_every=4, retain_records=2))
        site.copies.create("X", 0)
        for i in range(1, 7):
            site.copies.apply_write("X", i, v(i))
            site.wal.on_commit()
        assert site.wal.stats.checkpoints >= 1
        assert site.wal.log.truncated_records > 0
        # The retained tail still serves the shipping window.
        retained = list(site.wal.log.records_after(site.wal.log.truncated_through_lsn))
        assert retained

    def test_crash_drops_volatile_tail(self):
        site = make_site()
        site.power_on()
        site.become_operational()
        site.copies.create("X", 0)
        site.copies.apply_write("X", 1, v(1))
        site.wal.on_commit()
        site.copies.apply_write("X", 2, v(2))  # never flushed
        site.crash()
        assert site.wal.stats.records_lost_unflushed == 1
        assert site.wal.log.buffered == 0

    def test_restore_without_checkpoint_is_noop(self):
        site = make_site()
        site.copies.create("X", 7)
        assert site.wal.restore() is None
        assert site.copies.get("X").value == 7  # legacy semantics kept

    def test_restore_rebuilds_from_checkpoint_and_replay(self):
        site = make_site(WalConfig(checkpoint_every=1000, retain_records=1000))
        site.copies.create("X", 0)
        site.copies.create("Y", 0)
        site.copies.apply_write("X", 1, v(1))
        site.copies.apply_write("Y", 1, v(2))
        site.wal.on_commit()
        site.wal.checkpoint()
        # Post-checkpoint activity lives only in the log.
        site.copies.apply_write("X", 9, v(3))
        site.wal.on_commit()
        site.copies.mark_unreadable("Y")
        site.wal.flush()
        site.wal.log_session(4)
        # Corrupt ALL volatile state: restore must not consult it.
        site.copies.reset()
        site.copies.create("X", -999)
        site.wal.session_last = -1
        result = site.wal.restore()
        assert result is not None
        assert result.records_replayed >= 3
        assert site.copies.get("X").value == 9
        assert site.copies.get("X").version == v(3)
        assert not site.copies.get("X").unreadable
        assert site.copies.get("Y").unreadable
        assert site.wal.session_last == 4
        assert site.wal.restore_high_commit == 3

    def test_power_on_restores_only_after_a_crash(self):
        site = make_site()
        site.copies.create("X", 0)
        site.copies.apply_write("X", 1, v(1))
        site.wal.on_commit()
        site.wal.checkpoint()
        site.power_on()  # installation boot: no crash yet, no replay
        assert site.wal.stats.replays == 0
        site.become_operational()
        site.copies.apply_write("X", 2, v(2))
        site.wal.on_commit()
        site.crash()
        site.copies.get("X").value = -1  # simulate volatile corruption
        site.power_on()
        assert site.wal.stats.replays == 1
        assert site.copies.get("X").value == 2

    def test_checkpoint_key_layout(self):
        site = make_site()
        site.copies.create("X", 0)
        site.copies.apply_write("X", 1, v(1))
        site.wal.on_commit()
        site.wal.checkpoint()
        checkpoint = site.stable.get(CHECKPOINT_KEY)
        assert checkpoint == {
            "lsn": site.wal.log.durable_lsn,
            "high_commit": 1,
            "session_last": 0,
            "session_started_at": None,
            "stale_table": {},
            "decided": {},
            "in_doubt": {},
            "stale_cut": 0.0,
        }
        # Every stable key is the log's.
        assert all(key.startswith("wal.") for key in site.stable.keys())
        image = site.stable.get(CHECKPOINT_ITEM_PREFIX + "X")
        assert image == (1, (1.0, 1, 0), False, ())
        assert type(image[1]) is tuple  # plain tuples, not a Version
        assert site.stable.get(META_KEY) is not None


ITEM_NAMES = [f"X{index:04d}" for index in range(4096)]


def _flush_bytes_per_commit(n_items, config, warmup_records, commits):
    """Bytes each of ``commits`` identical 4-write commits adds to
    ``wal.bytes_flushed``, after a warm-up that writes (and, config
    permitting, truncates) every item of an ``n_items`` store.

    The warm-up has the same record count whatever the store size, so
    both stores number the measured commits' LSNs, segments and versions
    alike — and every one of them stays in pickle's two-byte integer
    band, where equal shapes serialize to equal sizes.
    """
    site = make_site(config)
    names = ITEM_NAMES[:n_items]
    for name in names:
        site.copies.create(name, 0)
    site.wal.checkpoint()
    commit = 0
    for index in range(warmup_records):
        commit += 1
        site.copies.apply_write(names[index % n_items], 0, v(commit))
        site.wal.on_commit()
    deltas = []
    for _ in range(commits):
        for name in names[:4]:
            commit += 1
            site.copies.apply_write(name, 0, v(commit))
        before = site.wal.stats.bytes_flushed
        site.wal.on_commit()
        deltas.append(site.wal.stats.bytes_flushed - before)
    assert 256 < site.wal.log._next_segment and site.wal.log.next_lsn < 65536
    return deltas, site


class TestFlushCostIsSizeIndependent:
    """A group commit costs the segment plus O(1) metadata: the same bytes
    on a small and a large store, with a short or a long retained log."""

    def test_same_bytes_per_commit_on_16_and_4096_items(self):
        config = WalConfig(checkpoint_every=512, retain_records=64)
        small, small_site = _flush_bytes_per_commit(16, config, 4096, 200)
        large, large_site = _flush_bytes_per_commit(4096, config, 4096, 200)
        assert large_site.wal.stats.checkpoints == small_site.wal.stats.checkpoints > 1
        assert small == large
        assert len(set(large)) == 1  # across checkpoints and truncations too

    def test_bytes_per_commit_do_not_grow_with_the_retained_log(self):
        never = WalConfig(checkpoint_every=10**9, retain_records=10**9)
        deltas, site = _flush_bytes_per_commit(16, never, 300, 300)
        assert site.wal.stats.checkpoints == 1  # the genesis one only
        assert len(site.wal.log.segments) == 600  # all of it retained
        assert len(set(deltas)) == 1


class TestSiteStateLivesInTheLog:
    """The session number (§3.1) and the durable §5 stale-copy table are
    redo records: the WAL's attributes mirror them, the checkpoint
    header snapshots them, and restore alone rebuilds them."""

    def test_restore_rebuilds_session_state_and_stale_table(self):
        site = make_site(WalConfig(checkpoint_every=1000, retain_records=1000))
        tracker = StaleTracker(site, durable=True)
        site.wal.checkpoint()
        site.wal.log_session(1)
        site.wal.log_session(1, started_at=5.0)
        tracker.on_commit_write("X", (1,), (2, 3), value=7, version=v(1))
        site.wal.flush()
        site.wal.checkpoint()  # the header carries all three from here
        site.wal.log_session(2)
        tracker.on_commit_write("Y", (1,), (3,), value=8, version=v(2))
        tracker.on_commit_write("X", (1, 2), (), value=9, version=v(3))
        tracker.on_commit_write("Z", (), (2,))  # a miss reported without its write
        site.wal.flush()
        table = {("X", 3): (7, (1.0, 1, 0)), ("Y", 3): (8, (2.0, 2, 0)), ("Z", 2): (None, None)}
        assert site.wal.stale_table == table
        # Corrupt the volatile mirrors: restore must not consult them.
        site.wal.session_last, site.wal.session_started_at = -1, -1.0
        site.wal.stale_table[("bogus", 9)] = (0, None)
        result = site.wal.restore()
        assert result.records_replayed == 4  # session, stale, unstale, stale
        assert (site.wal.session_last, site.wal.session_started_at) == (2, 5.0)
        assert site.wal.stale_table == table
        assert list(site.wal.stale_table) == list(table)  # change order
        restored = site.wal.stale_table.values()
        assert all(type(version) is not Version for _value, version in restored)
        assert tracker.entries() == table

    @staticmethod
    def _one_change_costs(entries):
        """Stable bytes and puts of one stale and one unstale change,
        each made durable, with ``entries`` in the table. The table is
        filled by one write that missed ``entries`` sites: one record,
        so every later LSN (and its pickled width) is the same."""
        site = make_site(WalConfig(checkpoint_every=10**9, retain_records=0))
        tracker = StaleTracker(site, durable=True)
        site.wal.checkpoint()
        tracker.on_commit_write("X", (), tuple(range(4, 4 + entries)), 1, v(1))
        site.wal.flush()
        site.wal.checkpoint()  # the big table is in the header now
        costs = []
        for applied, missed in (((), (2,)), ((2,), ())):
            bytes_before, puts_before = site.stable.bytes_written, site.stable.writes
            tracker.on_commit_write("Y", applied, missed, 2, v(2))
            site.wal.flush()
            stable = site.stable
            costs.append((stable.bytes_written - bytes_before, stable.writes - puts_before))
        assert len(site.wal.stale_table) == entries
        return costs

    def test_a_stale_change_costs_the_same_at_10_100_and_256_entries(self):
        costs = [self._one_change_costs(entries) for entries in (10, 100, 256)]
        assert costs[0] == costs[1] == costs[2]
        assert all(puts == 2 for _bytes, puts in costs[0])  # a segment and wal.meta


class TestRestoreRoundTripsTheDirectory:
    def test_crash_restore_reassembles_segments_and_truncated_commits(self):
        """The directory (segments, truncation watermark) a power-on
        rebuilds from stable storage equals the one the crash dropped."""
        site = make_site(WalConfig(checkpoint_every=16, retain_records=6))
        site.power_on()
        site.become_operational()
        for name in ITEM_NAMES[:8]:
            site.copies.create(name, 0)
        site.wal.checkpoint()
        commit = 0
        for size in (1, 3, 2, 4) * 7:  # 70 records: several checkpoints, then a tail
            for _ in range(size):
                commit += 1
                site.copies.apply_write(ITEM_NAMES[commit % 8], commit, v(commit))
            site.wal.on_commit()
        site.copies.mark_unreadable(ITEM_NAMES[3])
        site.wal.flush()
        site.copies.mark_unreadable(ITEM_NAMES[5])  # never flushed
        site.copies.apply_write(ITEM_NAMES[0], -1, v(commit + 1))  # never flushed
        log = site.wal.log
        # Segments from before the last checkpoint and after it.
        assert log.segments[0][0] == site.stable.get(DIRECTORY_KEY)[0]
        assert log.segments[0][2] <= site.wal.last_checkpoint_lsn < log.durable_lsn
        assert 0 < log.truncated_records == log.segments[0][1] - 1
        expected = (list(log.segments), log.truncated_through_lsn, log.durable_lsn)
        site.crash()
        # Corrupt the volatile directory: restore must rebuild it from stable.
        log.segments = [(99, 1, 1)]
        log.truncated_through_lsn = -1
        site.power_on()
        assert site.wal.stats.replays == 1
        assert (log.segments, log.truncated_through_lsn, log.durable_lsn) == expected
        assert log.next_lsn == log.durable_lsn + 1
        assert site.copies.get(ITEM_NAMES[commit % 8]).value == commit
        # The rebuilt store's mark index matches the marks replay restored.
        assert site.copies.unreadable_items() == [ITEM_NAMES[3]]
        assert site.copies.unreadable_count() == 1
        assert not site.copies.get(ITEM_NAMES[5]).unreadable

    def test_crash_between_truncations_matches_a_crash_free_twin(self):
        """The directory a power-on rebuilds from the retained segments
        is the one the crash-free twin kept since its flushes: every
        later truncation moves both alike."""
        twins = []
        for _ in range(2):
            site = make_site(WalConfig(checkpoint_every=16, retain_records=6))
            site.power_on()
            site.become_operational()
            for name in ITEM_NAMES[:8]:
                site.copies.create(name, 0)
            site.wal.checkpoint()
            twins.append(site)
        crashed, twin = twins
        commit = 0
        truncated_at_crash = None
        for step, size in enumerate((1, 3, 2, 4) * 8):
            for site in twins:
                for offset in range(1, size + 1):
                    name = ITEM_NAMES[(commit + offset) * 5 % 8]
                    site.copies.apply_write(name, commit + offset, v(commit + offset))
                site.wal.on_commit()
            commit += size
            if step == 12:
                truncated_at_crash = crashed.wal.log.truncated_records
                crashed.crash()
                crashed.power_on()
                assert crashed.wal.stats.replays == 1
            logs = [site.wal.log for site in twins]
            assert len({
                (tuple(log.segments), log.truncated_through_lsn, log.truncated_records)
                for log in logs
            }) == 1, step
        # Truncations on both sides of the crash.
        assert 0 < truncated_at_crash < crashed.wal.log.truncated_records

    def test_segment_put_without_its_meta_put_is_invisible(self):
        """A flush torn between its segment put and its ``wal.meta`` put
        leaves a segment the reload does not see: not replayed, not in
        the directory or the truncation count, overwritten by the next
        flush."""
        site = make_site(WalConfig(checkpoint_every=10**9, retain_records=0))
        site.power_on()
        site.become_operational()
        for name in ("X", "Y"):
            site.copies.create(name, 0)
        site.wal.checkpoint()
        for commit in (1, 2, 3):
            site.copies.apply_write("X", commit, v(commit))
            site.wal.on_commit()
        log = site.wal.log
        torn = f"{SEGMENT_PREFIX}{log._next_segment}"
        site.stable.put(torn, (to_row(LogRecord(log.next_lsn, "write", "Y", 9, v(99))),))
        site.crash()
        site.power_on()
        assert site.copies.get("Y").value == 0
        assert [record.item for record in log.records_after(0)] == ["X"] * 3
        assert log.high_commit == 3
        site.wal.checkpoint()  # retains nothing: truncates every segment
        assert log.segments == []
        assert log.truncated_records == log.durable_lsn
        assert torn in site.stable  # outside the directory: not truncated either
        site.copies.apply_write("X", 4, v(4))
        site.wal.on_commit()
        assert [from_row(row).version for row in site.stable.get(torn)] == [v(4)]


class TestTruncationSummary:
    def test_checkpoint_reads_no_segment(self):
        """Truncation reads the directory's LSN bounds: a checkpoint gets
        no ``wal.seg.*`` blob, however much it truncates."""
        site = make_site(WalConfig(checkpoint_every=10**9, retain_records=4))
        for name in ("X", "Y"):
            site.copies.create(name, 0)
        for commit in range(1, 41):
            site.copies.apply_write("X" if commit % 3 else "Y", commit, v(commit))
            site.wal.on_commit()
        stable = site.stable
        segment_gets = []
        real_get = stable.get

        def get(key, default=None):
            if key.startswith(SEGMENT_PREFIX):
                segment_gets.append(key)
            return real_get(key, default)

        stable.get = get
        try:
            site.wal.checkpoint()
        finally:
            del stable.get
        assert segment_gets == []
        log = site.wal.log
        assert log.truncated_records == 36
        assert stable.get(DIRECTORY_KEY) == (37, 36)


class TestNoBlobNamesAClass:
    def test_faillocks_world_through_a_crash_and_a_recovery(self):
        """Every blob of the log (whose segments and checkpoint header
        carry the fail-lock tables and the commit decisions) is plain
        data: unpickling it runs no Python code."""
        kernel = Kernel(seed=1)
        system = RowaaSystem(
            kernel, n_sites=3, items={f"X{index}": 0 for index in range(8)},
            latency=ConstantLatency(1.0),
            rowaa_config=RowaaConfig(identify_mode="fail-locks"),
            config=TxnConfig(rpc_timeout=30.0),
            wal_config=WalConfig(checkpoint_every=8, retain_records=4),
        )
        system.boot()
        system.crash(3)
        kernel.run(until=40)
        for index in range(6):
            kernel.run(system.submit_with_retry(
                1, write_program(f"X{index}", index + 1), attempts=5
            ))
        for site_id in (1, 2):  # a dict in commit order: no hash seed moves its bytes
            site = system.cluster.site(site_id)
            assert site.wal.stats.checkpoints > 1  # the header carries the table
            header = site.stable.get(CHECKPOINT_KEY)["stale_table"]
            assert list(header)[:2] == [("X0", 3), ("X1", 3)]
            assert list(site.wal.stale_table)[:2] == [("X0", 3), ("X1", 3)]
        assert kernel.run(system.power_on(3)).succeeded
        kernel.run(until=kernel.now + 100)
        prefixes = ("wal.seg.", "wal.meta", "wal.dir", "wal.ckpt")
        seen = set()
        for site_id in system.cluster.site_ids:
            site = system.cluster.site(site_id)
            assert site.wal.stats.checkpoints > 1 and site.wal.log.truncated_records
            for key, blob in site.stable._blobs.items():
                prefix = next((p for p in prefixes if key.startswith(p)), None)
                if prefix is not None:
                    seen.add(prefix)
                    assert class_opcodes(blob) == [], key
        assert seen == set(prefixes)
        assert system.cluster.site(3).wal.stats.replays == 1

    def test_in_doubt_prepares_cross_the_header_as_rows(self):
        site = make_site(WalConfig(checkpoint_every=10**9, retain_records=0))
        site.power_on()
        site.become_operational()
        site.copies.create("X", 0)
        prepare = site.wal.log_prepare("T7", 7, 2, (1, 2), "X", 5, v(4), (1, 2), ())
        site.wal.checkpoint()  # truncates the prepare: only the header has it
        assert site.wal.log.truncated_records == 1
        assert class_opcodes(site.stable._blobs[CHECKPOINT_KEY]) == []
        site.crash()
        site.power_on()
        assert site.wal.unresolved_prepares() == {"T7": (prepare,)}
        restored = site.wal.unresolved_prepares()["T7"][0]
        assert type(restored) is LogRecord and type(restored.version) is Version
