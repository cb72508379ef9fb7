"""Incremental fuzzy checkpoints: per-item images, dirty set, torn writes.

A checkpoint rewrites only the ``wal.ckpt.item.<name>`` blobs of items
whose image moved since the last one. The tests here pin the three
things that make this safe: the image assembled from stable keys is the full
image of the live state at every checkpoint (differential), the cost
follows the dirty count and not the database size, and a checkpoint torn
after any prefix of its stable puts still restores the pre-crash durable
state. The same-seed determinism test lives here too: it hashes the
blobs these tests pin, so one flipped byte of one of them must move it.
"""

import functools
import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import attach_auditor
from repro.harness.runner import build_traced_scheme, run_traced, traced_scenario
from repro.mvcc import MultiVersionStore
from repro.net import ConstantLatency, Network
from repro.sim import Kernel
from repro.site import Site
from repro.storage.copies import Version
from repro.wal import WalConfig
from repro.wal.log import (
    CHECKPOINT_ITEM_PREFIX,
    CHECKPOINT_KEY,
    DIRECTORY_KEY,
    META_KEY,
    RedoLog,
)

NEVER = WalConfig(checkpoint_every=10**9, retain_records=10**9)


def v(commit):
    return Version(float(commit), commit, 0)


def make_site(config=NEVER, mvcc=False):
    kernel = Kernel(seed=3)
    site = Site(kernel, Network(kernel, latency=ConstantLatency(1.0)), 1,
                wal_config=config)
    if mvcc:
        site.mvcc = MultiVersionStore(kernel, site)
    site.power_on()
    site.become_operational()
    return site


def item_keys(stable):
    return [key for key in stable.keys() if key.startswith(CHECKPOINT_ITEM_PREFIX)]


def assert_assembled_image_is_the_full_image(site):
    """Header + item blobs read back from stable keys alone equal the
    whole-database image (copies in creation order, every mvcc chain, the
    session state, the stale-copy table, the commit decisions, the
    in-doubt prepares) computed from live state."""
    stable, wal, mvcc = site.stable, site.wal, site.mvcc
    assembled, tails = {}, {}
    for key in item_keys(stable):
        value, version, unreadable, tail = stable.get(key)
        name = key[len(CHECKPOINT_ITEM_PREFIX):]
        assembled[name] = (value, version, unreadable)
        tails[name] = tail
    full = {
        name: (copy.value, tuple(copy.version), copy.unreadable)
        for name, copy in ((n, site.copies.get(n)) for n in site.copies.items())
    }
    assert assembled == full
    assert list(assembled) == list(full)  # restore reinstalls in this order
    if mvcc is None:
        assert not any(tails.values())
    else:
        for name, (value, version, _unreadable) in assembled.items():
            merged = sorted(
                tails[name] + ((*version, value),), key=lambda rec: rec[:2]
            )
            chain = mvcc.chain(name)
            if chain is None:  # created after the store, not yet written
                assert tails[name] == ()
                continue
            assert merged == [
                (*rec.version, rec.value) for rec in chain.records
            ], name
    assert stable.get(CHECKPOINT_KEY) == {
        "lsn": wal.log.durable_lsn,
        "high_commit": wal.log.high_commit,
        "session_last": wal.session_last,
        "session_started_at": wal.session_started_at,
        "stale_table": wal.stale_table,
        "decided": wal.decided,
        "in_doubt": wal.unresolved_prepares(),
        "stale_cut": mvcc.stale_cut if mvcc is not None else 0.0,
    }


class TestCreatedAfterGenesis:
    def test_copy_created_after_a_checkpoint_survives_a_crash(self):
        site = make_site()
        site.copies.create("X", 0)
        site.wal.checkpoint()
        site.copies.create("LATE", 41)  # never written: no log record names it
        site.wal.checkpoint()
        assert site.wal.stats.checkpoint_items == 2
        site.crash()
        site.power_on()
        assert list(site.copies.items()) == ["X", "LATE"]
        late = site.copies.get("LATE")
        assert (late.value, late.version, late.unreadable) == (
            41, Version.initial(), False
        )

    def test_creation_is_not_journaled(self):
        site = make_site()
        site.copies.create("X", 0)
        assert site.wal.log.buffered == 0 and site.wal.stats.records_appended == 0


class TestRestoreKeepsSweptVersionsSwept:
    def test_replayed_versions_below_the_restored_horizon_are_trimmed(self):
        site = make_site(mvcc=True)
        site.copies.create("X", 0)
        site.copies.apply_write("X", 1, v(1))
        site.wal.checkpoint()
        for commit in range(2, 7):
            site.copies.apply_write("X", commit, v(commit))
        site.wal.flush()
        store = site.mvcc
        assert len(store.chain("X")) == 6
        site.kernel.run(until=20.0)
        assert store.sweep() == 5  # the horizon is now - D = 18
        site.crash()
        site.power_on()
        # Replay re-inserted v(2)..v(5); the restore's closing trim at the
        # stale cut (crash 20 - D) reclaims them again, and counts nothing:
        # the sweep before the crash counted them.
        assert store.versions_retained() == 1
        assert store.stats.gc_reclaimed == 5
        assert store.sweep() == 0
        assert store.stats.gc_reclaimed == 5


class TestDifferentialAgainstTheFullImage:
    @pytest.mark.parametrize("every", [None, 4])
    @pytest.mark.parametrize("name", ["e9", "e10", "e11"])
    def test_traced_scenarios(self, name, every):
        """Each scenario as traced, and again checkpointing every 4
        records over a 4-record retained tail (as traced, e9 stays under
        the default 64 and only takes the final checkpoint below)."""
        checked = []

        def probe(system, site_id):
            assert_assembled_image_is_the_full_image(system.cluster.site(site_id))
            checked.append(site_id)

        def scenario(build, seed):
            def probed_build(*args, **kwargs):
                if every is not None:
                    kwargs["wal_config"] = WalConfig(every, retain_records=4)
                kernel, system = build(*args, **kwargs)
                kernel.probes.wal_checkpoint.append(
                    functools.partial(probe, system)
                )
                return kernel, system

            return traced_scenario(name)(probed_build, seed)

        run = run_traced(scenario, seed=3, audit=True)
        assert not run.obs.audit.alerts.has_critical
        assert checked or (name, every) == ("e9", None)
        for site_id in run.system.cluster.site_ids:
            # ... and every site's stable image is still restorable now.
            site = run.system.cluster.site(site_id)
            site.wal.checkpoint()
            assert_assembled_image_is_the_full_image(site)

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 5)),
            st.tuples(st.just("mark"), st.integers(0, 5)),
            st.tuples(st.just("clear"), st.integers(0, 5)),
            st.tuples(st.just("create"), st.just(0)),
            st.tuples(st.just("advance"), st.integers(1, 8)),
            st.tuples(st.just("sweep"), st.just(0)),
            st.tuples(st.just("flush"), st.just(0)),
            st.tuples(st.just("checkpoint"), st.just(0)),
            st.tuples(st.just("crash"), st.just(0)),
        ),
        max_size=40,
    )

    @pytest.mark.parametrize("mvcc", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    def test_bare_site_sequences(self, mvcc, ops):
        site = make_site(WalConfig(checkpoint_every=10**9, retain_records=2), mvcc)
        names = [f"X{index}" for index in range(6)]
        for name in names:
            site.copies.create(name, 0)
        site.wal.checkpoint()
        commit = 0
        for op, arg in ops:
            if op == "write":
                commit += 1
                # ts follows the clock so a sweep has something to reclaim
                site.copies.apply_write(
                    names[arg], commit, Version(site.kernel.now, commit, 0)
                )
            elif op == "mark":
                site.copies.mark_unreadable(names[arg])
            elif op == "clear":
                site.copies.clear_unreadable(names[arg])
            elif op == "create":
                names.append(f"X{len(names)}")
                site.copies.create(names[-1], 0)
            elif op == "advance":
                site.kernel.run(until=site.kernel.now + arg)
            elif op == "sweep":
                if site.mvcc is not None:
                    site.mvcc.sweep()
            elif op == "flush":
                site.wal.flush()
            elif op == "checkpoint":
                site.wal.checkpoint()
                assert_assembled_image_is_the_full_image(site)
            elif op == "crash":
                site.crash()
                site.power_on()
                site.become_operational()
                # Copies created since the last checkpoint and never
                # written are gone, as under the full image.
                names = list(site.copies.items())
                commit = max(commit, site.wal.log.high_commit)
        site.wal.checkpoint()
        assert_assembled_image_is_the_full_image(site)


def _checkpoint_cost(n_items, dirtied):
    """(stable bytes, stable puts, item images) of one checkpoint taken
    after writing ``dirtied`` items of an ``n_items`` store."""
    site = make_site()
    names = [f"X{index:04d}" for index in range(n_items)]
    for name in names:
        site.copies.create(name, 0)
    site.wal.checkpoint()
    for commit, name in enumerate(names[:dirtied], start=1):
        site.copies.apply_write(name, 0, v(commit))
    site.wal.flush()
    stable, stats = site.stable, site.wal.stats
    before = (stable.bytes_written, stable.writes, stats.checkpoint_items)
    site.wal.checkpoint()
    after = (stable.bytes_written, stable.writes, stats.checkpoint_items)
    return tuple(b - a for a, b in zip(before, after)), site


class TestCheckpointCostIsSizeIndependent:
    @pytest.mark.parametrize("dirtied", [0, 1, 8, 64])
    def test_same_bytes_and_puts_on_64_and_4096_items(self, dirtied):
        small, _ = _checkpoint_cost(64, dirtied)
        large, _ = _checkpoint_cost(4096, dirtied)
        assert small == large
        assert small[1:] == (dirtied + 1, dirtied)  # the images + the header

    def test_nothing_dirty_writes_the_header_only(self):
        (size, puts, images), site = _checkpoint_cost(4096, 0)
        assert (puts, images) == (1, 0)
        assert size == site.stable.size_of(CHECKPOINT_KEY) < 200

    def test_genesis_images_every_item(self):
        _, site = _checkpoint_cost(64, 0)
        assert len(item_keys(site.stable)) == 64


class _Torn(Exception):
    pass


def _run_to_checkpoint(tear_after=None):
    """A three-site system whose site 3 is about to checkpoint dirty
    items over a log the checkpoint will truncate; the checkpoint's
    stable puts raise after ``tear_after`` of them. Returns the puts the
    checkpoint made (or got through) and what the restart needs."""
    kernel, system = build_traced_scheme(
        "rowaa", 11, 3, {name: 0 for name in "ABCD"},
        wal_config=WalConfig(checkpoint_every=10**9, retain_records=0),
    )
    auditor = attach_auditor(system)

    def write(item, value):
        def program(ctx):
            yield from ctx.write(item, value)

        return program

    for value, item in enumerate("ABCABA", start=1):
        kernel.run(system.submit(1, write(item, value)))
    site = system.cluster.site(3)
    stable = site.stable
    puts = []
    real_put = stable.put

    def put(key, value):
        if tear_after is not None and len(puts) >= tear_after:
            raise _Torn(key)
        puts.append(key)
        return real_put(key, value)

    stable.put = put
    try:
        site.wal.checkpoint()
    except _Torn:
        pass
    finally:
        del stable.put
    return kernel, system, auditor, site, puts


class TestTornCheckpoint:
    def test_write_order_is_items_then_header_then_truncation(self):
        *_, site, puts = _run_to_checkpoint()
        header = puts.index(CHECKPOINT_KEY)
        assert header >= 3  # A, B, C at least
        assert all(key.startswith(CHECKPOINT_ITEM_PREFIX) for key in puts[:header])
        assert puts[header + 1:] == ["wal.dir"]  # the truncation, last

    def test_every_prefix_of_the_puts_restores_the_durable_state(self):
        total = len(_run_to_checkpoint()[-1])
        for tear_after in range(total + 1):
            kernel, system, auditor, site, puts = _run_to_checkpoint(tear_after)
            assert len(puts) == min(tear_after, total)
            system.crash(3)
            expected = auditor._durable_fingerprint(site)
            system.power_on(3)
            assert auditor._state_fingerprint(site) == expected, tear_after
            assert auditor.alerts.count(rule="wal.replay_fingerprint") == 0
            # Nothing replay needs was truncated: the log still holds
            # every record behind the header that was actually written.
            log = site.wal.log
            lsn = site.stable.get(CHECKPOINT_KEY)["lsn"]
            assert [record.lsn for record in log.records_after(lsn)] == list(
                range(lsn + 1, log.durable_lsn + 1)
            ), tear_after
            assert site.copies.get("A").value == 6
            kernel.run(until=kernel.now + 120)  # recovery drains cleanly
            assert not auditor.alerts.has_critical, tear_after


def checkpoint_digest(stable):
    """Hash of the checkpoint header blob and every item blob, in key order."""
    blobs = stable._blobs
    digest = hashlib.sha256(blobs.get(CHECKPOINT_KEY, b""))
    for key in sorted(blobs):
        if key.startswith(CHECKPOINT_ITEM_PREFIX):
            digest.update(key.encode())
            digest.update(blobs[key])
    return digest.hexdigest()


def site_durable_state(site):
    """Everything that must be reproducible about one site's durability."""
    wal = site.wal
    return {
        "durable_lsn": wal.log.durable_lsn,
        "next_lsn": wal.log.next_lsn,
        "truncated_through": wal.log.truncated_through_lsn,
        "meta_blob": site.stable._blobs.get(META_KEY),
        "directory_blob": site.stable._blobs.get(DIRECTORY_KEY),
        # ``wal.dir`` names only the first retained segment; the directory
        # a restart reassembles from the segments themselves covers them all.
        "segments": RedoLog(site.stable).segments,
        "checkpoint_digest": checkpoint_digest(site.stable),
        "session_last": wal.session_last,
        "stale_table": wal.stale_table,
        "copies": sorted(
            (name, copy.value, tuple(copy.version), copy.unreadable)
            for name, copy in (
                (name, site.copies.get(name)) for name in site.copies.items()
            )
        ),
        # Multiversion chain image (repro.mvcc): the rebuilt version
        # chains and the durable snapshot cut must replay identically too.
        "mvcc": site.mvcc.digest_state() if site.mvcc is not None else None,
    }


class TestCrashReplayDeterminism:
    """§3.4's restart replays the same way: the traced log-shipping
    recovery (E9) run twice at one seed leaves byte-identical durable
    state at every site — LSNs, the log's meta and directory blobs, the
    checkpoint header and item blobs, the segment directory a fresh
    RedoLog reloads, the session number, the stale-copy table, the
    reconstructed copies and the mvcc image. Anything unseeded that reaches a durable blob
    (record order, checkpoint contents, truncation watermarks) shows
    up here before it shows up as a flaky recovery."""

    @staticmethod
    def durable_digests(seed):
        system = run_traced("e9", seed=seed).system
        return {
            site_id: hashlib.sha256(pickle.dumps(
                site_durable_state(system.cluster.site(site_id)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )).hexdigest()
            for site_id in system.cluster.site_ids
        }

    def test_same_seed_same_durable_state(self):
        assert self.durable_digests(3) == self.durable_digests(3)


class TestDeterminismDigestCoversItemBlobs:
    def test_one_flipped_byte_of_one_item_blob_moves_the_digest(self):
        site = make_site()
        for name in ("X", "Y"):
            site.copies.create(name, 0)
        site.copies.apply_write("X", 1, v(1))
        site.wal.on_commit()
        site.wal.checkpoint()
        before = site_durable_state(site)
        key = CHECKPOINT_ITEM_PREFIX + "Y"
        blob = bytearray(site.stable._blobs[key])
        blob[-2] ^= 0x01
        site.stable._blobs[key] = bytes(blob)
        after = site_durable_state(site)
        assert before["checkpoint_digest"] != after["checkpoint_digest"]
        del before["checkpoint_digest"], after["checkpoint_digest"]
        assert before == after  # nothing else in the digest saw it
