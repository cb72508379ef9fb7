"""State bounded by the work in flight, not by the history (ROADMAP 15 (i)).

The rule for per-transaction state: **no reference cycles per
transaction.** What a transaction leaves behind when it commits or aborts
— its lock requests, futures, processes, exceptions and generator
frames — is freed by reference counting the moment the last reference
goes, so the cyclic collector finds nothing a run made, however long it
runs (``test_no_cyclic_garbage_per_transaction``). The one cycle kept on
purpose is a system's own graph (site, RPC node, data manager), freed
once when the whole system is thrown away.

A steady 3-site world with 8 closed-loop clients runs at a horizon and at
four times it. At both, the kernel's pending entries stay at a small
constant (one armed entry per deadline stream, not one timer per RPC
call or orphan-watch sleep), and after quiesce no lock state and no
deadline is left: the lock table keeps only items someone holds or
waits for, and a deadline queue drops every entry it has passed.

Some state must grow with the history. Each such container, and where
its retention rule comes from:

* the history recorder's op log — §4's check builds the 1-STG over every
  physical read and write, so it keeps one row per op; held here to a
  fixed cost per op (``test_history_costs_bytes_not_objects``);
* the recorder's per-transaction table (id, seq, kind, outcome) — one
  row per transaction for the same check; it is in that same budget;
* the DM's ``_decided`` — a participant's answers to its in-doubt peers
  (cooperative termination); the coordinator's own decisions are not
  here: it forgets one once every write site has acknowledged it (the
  presumed-abort rule, DESIGN.md §6), so they are work in flight;
* the TM stats' latency lists (``commit_latencies``, ``ack_latencies``)
  — one sample per commit, the benchmark's and experiments' input; kept
  for the run.

Stable storage holds five key families, all the redo log's, and a
fail-locks crash/recover world writes exactly these
(``test_stable_key_families``). The log is the only durable format for
site state: the session number, the §5 stale-copy table and the
coordinator's commit decisions are redo records and parts of the
checkpoint header, not keys of their own. Each family's retention rule:

* ``wal.seg.<n>`` — one segment per group commit; a checkpoint's
  truncation deletes every segment wholly behind its ``retain_records``
  tail, so about ``checkpoint_every + retain_records`` records stay;
* ``wal.meta`` — one key, four counters, rewritten by every flush;
* ``wal.dir`` — one key, rewritten by every truncation; its per-item
  truncated-commit map has at most one entry per item;
* ``wal.ckpt`` — one key, the checkpoint header, rewritten by every
  checkpoint; its stale-copy table has at most one entry per (item,
  site), and its in-doubt prepares and commit decisions are work in
  flight (a decision is kept past its last acknowledgement only when an
  acknowledgement was lost, or when a restart replayed it);
* ``wal.ckpt.item.<name>`` — one image per copy, rewritten in place.
"""

import collections
import gc
import random
import tracemalloc

import pytest

from repro.baselines import build_rowaa_system
from repro.core import RowaaConfig
from repro.harness.runner import quiesce
from repro.net.latency import ConstantLatency
from repro.sim import Kernel
from repro.storage.stable import StableStorage
from repro.wal import WalConfig
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec

HORIZON = 150.0
#: Pending kernel entries (heap, sampled at every schedule) a steady
#: world of this size never exceeds; a timer per call in flight took
#: over a thousand.
HEAP_BOUND = 64


def run_steady(horizon):
    kernel = Kernel(seed=5)
    spec = WorkloadSpec(n_items=256, ops_per_txn=4, write_fraction=0.3)
    system = build_rowaa_system(
        kernel, 3, spec.initial_items(), latency=ConstantLatency(1.0), detection_delay=5.0
    )
    peak = [0]

    def sample(_seq):
        if len(kernel._heap) > peak[0]:
            peak[0] = len(kernel._heap)

    kernel.probes.subscribe(scheduled=sample)
    pool = ClientPool(
        system, WorkloadGenerator(spec, random.Random(5)), 8, per_client_streams=True
    )
    pool.start(horizon)
    kernel.run(until=horizon)
    committed = sum(tm.stats.committed for tm in system.tms.values())
    quiesce(kernel, system)
    return kernel, system, peak[0], committed


@pytest.mark.parametrize("horizon", [HORIZON, 4 * HORIZON])
def test_state_is_bounded_by_the_work_in_flight(horizon):
    _kernel, system, peak, committed = run_steady(horizon)
    assert committed > horizon / 10  # the world did real work
    assert peak <= HEAP_BOUND
    for site_id, dm in system.dms.items():
        assert dm.lock_manager._table == {}, site_id
        assert len(dm._orphans) == 0, site_id
        rpc = system.cluster.site(site_id).rpc
        assert all(len(queue) == 0 for queue in rpc._deadlines.values()), site_id
        assert rpc._pending == {}, site_id


#: Traced bytes the history recorder holds per recorded op: one row of
#: typed columns (34 B) plus its share of the transaction and item
#: tables. An ``Op`` named tuple per op, with its index int, was ≈ 184.
BYTES_PER_OP = 48


@pytest.mark.parametrize("horizon", [HORIZON, 4 * HORIZON])
def test_history_costs_bytes_not_objects(horizon):
    # Two frames, so a block a constructor allocates on the recorder's
    # behalf (a named tuple's generated ``__new__``) is charged to it.
    tracemalloc.start(2)
    try:
        _kernel, system, _peak, _committed = run_steady(horizon)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Every live block either of whose two innermost frames is the recorder's.
    recorder_file = tracemalloc.Filter(True, "*histories/recorder.py", all_frames=True)
    held = sum(trace.size for trace in snapshot.filter_traces([recorder_file]).traces)
    ops = len(system.recorder.ops)
    assert ops > 10 * horizon  # the log is not empty
    assert held / ops <= BYTES_PER_OP, (held, ops)


#: Objects the cyclic collector may find after a whole run. Each broken
#: cycle left thousands per run (a queued lock request and its abandon
#: hook, a failed process's own stepping frame, a protocol exception
#: caught inside a generator); with none left, nothing per transaction
#: reaches the collector.
CYCLIC_GARBAGE_BOUND = 0


def run_world(world, horizon, **system_kwargs):
    """An abort-heavy world (16 items, zipf 1.0, half writes), or a
    crash/recover one (site 3 down for the middle third of the load);
    ``system_kwargs`` go to the system."""
    kernel = Kernel(seed=7)
    if world == "abort_heavy":
        spec = WorkloadSpec(n_items=16, ops_per_txn=4, write_fraction=0.5, zipf_s=1.0)
    else:
        spec = WorkloadSpec(n_items=64, ops_per_txn=4, write_fraction=0.5)
    system = build_rowaa_system(
        kernel, 3, spec.initial_items(), latency=ConstantLatency(1.0), detection_delay=5.0,
        **system_kwargs,
    )
    pool = ClientPool(
        system, WorkloadGenerator(spec, random.Random(7)), 8, per_client_streams=True
    )
    pool.start(horizon)
    if world == "crash_recover":
        kernel.run(until=horizon / 3)
        system.crash(3)
        kernel.run(until=2 * horizon / 3)
        system.power_on(3)
    kernel.run(until=horizon)
    quiesce(kernel, system)
    return system


@pytest.mark.parametrize("horizon", [HORIZON, 4 * HORIZON])
@pytest.mark.parametrize("world", ["abort_heavy", "crash_recover"])
def test_no_cyclic_garbage_per_transaction(world, horizon):
    gc.collect()
    gc.disable()
    try:
        system = run_world(world, horizon)
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        census = collections.Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    aborted = sum(tm.stats.aborted for tm in system.tms.values())
    assert aborted > 0  # the abort path ran
    assert found <= CYCLIC_GARBAGE_BOUND, census.most_common(12)


#: Every stable key family a system writes (see the module docstring).
STABLE_FAMILIES = {"wal.seg.*", "wal.meta", "wal.dir", "wal.ckpt", "wal.ckpt.item.*"}
#: Small enough that both horizons truncate the log many times.
FAMILY_WAL = WalConfig(checkpoint_every=16, retain_records=16)


def family(key):
    for prefix in ("wal.seg.", "wal.ckpt.item."):
        if key.startswith(prefix):
            return prefix + "*"
    return key


def stable_families(horizon):
    """(families written, live keys and live bytes per family) of a
    fail-locks crash/recover world run to ``horizon``."""
    written = set()
    put = StableStorage.put

    def counting_put(stable, key, value):
        written.add(family(key))
        return put(stable, key, value)

    StableStorage.put = counting_put
    try:
        system = run_world(
            "crash_recover", horizon,
            rowaa_config=RowaaConfig(identify_mode="fail-locks"), wal_config=FAMILY_WAL,
        )
    finally:
        StableStorage.put = put
    keys = collections.Counter()
    size = collections.Counter()
    for site_id in system.cluster.site_ids:
        stable = system.cluster.site(site_id).stable
        for key in stable.keys():
            keys[family(key)] += 1
            size[family(key)] += stable.size_of(key)
    copies = sum(len(system.cluster.site(s).copies.items()) for s in system.cluster.site_ids)
    return system, written, keys, size, copies


def test_stable_key_families():
    short, long = stable_families(HORIZON), stable_families(4 * HORIZON)
    for system, written, keys, _size, copies in (short, long):
        assert written == set(keys) == STABLE_FAMILIES
        assert all(site.wal.log.truncated_records for site in system.cluster.sites.values())
        assert keys["wal.ckpt.item.*"] == copies
        for name in ("wal.meta", "wal.dir", "wal.ckpt"):
            assert keys[name] == len(system.cluster.site_ids)
        segments = 2 * (FAMILY_WAL.checkpoint_every + FAMILY_WAL.retain_records)
        assert keys["wal.seg.*"] <= len(system.cluster.site_ids) * segments
        for site in system.cluster.sites.values():
            assert len(site.wal.decided) <= FAMILY_WAL.checkpoint_every
    short_size, long_size = short[3], long[3]
    # Four times the history: no family grows with it.
    for name in STABLE_FAMILIES:
        assert long_size[name] <= 2 * short_size[name], name
