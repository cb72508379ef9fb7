"""Per-layer micro-drivers: time calls into one layer's public functions
in isolation, from the benchmark's side.

Each driver is a function returning ``(elapsed_seconds, operations)``
for one batch; set-up is outside the timed part. :func:`run_drivers`
repeats each batch until ``slice_s`` host seconds are covered, does that
``repeats`` times and reports the median cost per operation — so the
numbers say which layer a regression sits in, which the end-to-end
workloads cannot.

The workloads' own per-layer counters come from the program's metrics
registry (see :mod:`benchmarks.perf.run`); these drivers are the cost
side: ns or µs of host time per operation.
"""

from __future__ import annotations

import random
import statistics
import time
import typing

from repro.baselines import build_rowaa_system
from repro.core.config import RowaaConfig
from repro.histories import check_one_sr
from repro.mvcc import MultiVersionStore
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.rpc import RpcNode
from repro.sim import Kernel, Queue
from repro.site.site import Site
from repro.storage.copies import CopyStore, Version
from repro.storage.stable import StableStorage
from repro.txn.config import TxnConfig
from repro.txn.locks import LockManager, LockMode
from repro.wal import WalConfig
from repro.workload import WorkloadGenerator, WorkloadSpec

from benchmarks.perf import catalog
from benchmarks.perf.spans import SpanRecorder

Batch = typing.Callable[[], tuple[float, int]]
_clock = time.perf_counter


def _noop() -> None:
    return None


# -- sim ----------------------------------------------------------------------


def sim_event() -> tuple[float, int]:
    """10k staggered timeouts scheduled and drained."""
    kernel = Kernel(seed=0)
    start = _clock()
    for index in range(10_000):
        kernel.timeout(index % 97)
    kernel.run()
    return _clock() - start, kernel.events_processed


def sim_switch() -> tuple[float, int]:
    """Two processes ping-ponging over a pair of queues: one switch per put."""
    kernel = Kernel(seed=0)
    ping, pong = Queue(kernel, "ping"), Queue(kernel, "pong")
    rounds = 2_000

    def server():
        while True:
            item = yield ping.get()
            pong.put(item)

    def client():
        for index in range(rounds):
            ping.put(index)
            yield pong.get()

    kernel.process(server(), name="server").defuse()
    done = kernel.process(client(), name="client")
    start = _clock()
    kernel.run(done)
    return _clock() - start, 2 * rounds


def sim_cancelled_timer() -> tuple[float, int]:
    """The RPC timeout pattern: schedule 10k timers, cancel 90%, drain."""
    kernel = Kernel(seed=0)
    count = 10_000
    start = _clock()
    timers = [kernel.schedule_callback(5.0 + index % 13, _noop) for index in range(count)]
    for index, timer in enumerate(timers):
        if index % 10:
            timer.cancel()
    kernel.run()
    return _clock() - start, count


# -- net ------------------------------------------------------------------------


def _rpc_nodes(kernel: Kernel, count: int) -> list[RpcNode]:
    network = Network(kernel, latency=ConstantLatency(1.0))
    nodes = [RpcNode(kernel, network, site_id) for site_id in range(1, count + 1)]
    for node in nodes:
        node.register("echo", lambda payload, src: payload)
        node.start()
    return nodes


def net_rpc() -> tuple[float, int]:
    """Sequential ``RpcNode.call`` round trips with a (cancelled) timeout."""
    kernel = Kernel(seed=0)
    caller = _rpc_nodes(kernel, 2)[0]
    rounds = 1_000

    def client():
        for index in range(rounds):
            yield caller.call(2, "echo", index, timeout=50.0)

    done = kernel.process(client(), name="client")
    start = _clock()
    kernel.run(done)
    return _clock() - start, rounds


def net_call_many() -> tuple[float, int]:
    """``call_many`` to three peers, all replies awaited: one op per fan-out."""
    kernel = Kernel(seed=0)
    caller = _rpc_nodes(kernel, 4)[0]
    rounds = 400

    def client():
        for index in range(rounds):
            for _dst, future in caller.call_many((2, 3, 4), "echo", index, timeout=50.0):
                yield future

    done = kernel.process(client(), name="client")
    start = _clock()
    kernel.run(done)
    return _clock() - start, rounds


# -- storage --------------------------------------------------------------------


def storage_apply_write() -> tuple[float, int]:
    """``CopyStore.apply_write`` on a bare store (no journal, no version hooks)."""
    store = CopyStore(1)
    for index in range(256):
        store.create(f"X{index}", 0)
    count = 20_000
    versions = [Version(float(index), index, index) for index in range(count)]
    start = _clock()
    for index in range(count):
        store.apply_write(f"X{index & 255}", index, versions[index])
    return _clock() - start, count


def storage_stable_put() -> tuple[float, int]:
    stable = StableStorage()
    count = 5_000
    start = _clock()
    for index in range(count):
        stable.put(f"key{index & 63}", (index, "value"))
    return _clock() - start, count


# -- txn.locks --------------------------------------------------------------------


def locks_acquire_release() -> tuple[float, int]:
    """Uncontended X lock taken and dropped."""
    manager = LockManager(Kernel(seed=0), 1)
    count = 10_000
    start = _clock()
    for index in range(count):
        manager.acquire("T1", f"X{index & 255}", LockMode.X)
        manager.release_all("T1")
    return _clock() - start, count


def _queued_waiters(kernel: Kernel, items: int) -> LockManager:
    """``items`` items each held in X by one txn with eight more queued."""
    manager = LockManager(kernel, 1)
    for item in range(items):
        for txn in range(9):
            manager.acquire(f"T{item}.{txn}", f"X{item}", LockMode.X)
    return manager


def locks_contended_handoff() -> tuple[float, int]:
    """Release under an 8-deep queue: one op hands the lock to the next waiter."""
    kernel = Kernel(seed=0)
    items = 100
    manager = _queued_waiters(kernel, items)
    start = _clock()
    for txn in range(9):
        for item in range(items):
            manager.release_all(f"T{item}.{txn}")
    kernel.run()
    return _clock() - start, 9 * items


def locks_wait_edges() -> tuple[float, int]:
    """The deadlock sweep's input over 16 items with 8 waiters each."""
    manager = _queued_waiters(Kernel(seed=0), 16)
    count = 50
    start = _clock()
    for _ in range(count):
        manager.wait_edges()
    return _clock() - start, count


# -- txn (TM / DM / 2PC) ---------------------------------------------------------------


def _small_system(commit_mode: str = "sync_2pc", rowaa: RowaaConfig | None = None, items: int = 8):
    kernel = Kernel(seed=0)
    system = build_rowaa_system(
        kernel,
        3,
        {f"X{index}": 0 for index in range(items)},
        rowaa_config=rowaa,
        config=TxnConfig(commit_mode=commit_mode),
        latency=ConstantLatency(1.0),
        detection_delay=5.0,
    )
    return kernel, system


def _txn_loop(commit_mode: str, program: typing.Callable):
    """One client at site 1 running ``rounds`` transactions back to back."""
    kernel, system = _small_system(commit_mode)
    rounds = 100

    def client():
        for _ in range(rounds):
            yield from system.tms[1].run(program)

    done = kernel.process(client(), name="client")
    start = _clock()
    kernel.run(done)
    elapsed = _clock() - start
    kernel.run(until=kernel.now + 100.0)  # async drains, outside the timed part
    system.stop()
    return elapsed, rounds


def _rmw(ctx):
    value = yield from ctx.read("X0")
    yield from ctx.write("X0", value + 1)


def _read4(ctx):
    for item in ("X0", "X1", "X2", "X3"):
        yield from ctx.read(item)


def txn_commit_sync() -> tuple[float, int]:
    return _txn_loop("sync_2pc", _rmw)


def txn_commit_async() -> tuple[float, int]:
    return _txn_loop("async_quorum", _rmw)


def txn_locking_read() -> tuple[float, int]:
    return _txn_loop("sync_2pc", _read4)


# -- wal -----------------------------------------------------------------------------


def _bare_site(items: int = 256) -> Site:
    """A site with a WAL and a genesis checkpoint, outside any system. It
    never checkpoints on its own, so a restore replays all that was logged."""
    kernel = Kernel(seed=0)
    site = Site(
        kernel, Network(kernel), 1,
        wal_config=WalConfig(checkpoint_every=10**9, retain_records=10**9),
    )
    for index in range(items):
        site.copies.create(f"X{index}", 0)
    site.wal.checkpoint()
    return site


def wal_append() -> tuple[float, int]:
    """``apply_write`` on a journaled store: the redo append rides the journal hook."""
    site = _bare_site()
    count = 5_000
    versions = [Version(float(index), index, index) for index in range(1, count + 1)]
    start = _clock()
    for index in range(count):
        site.copies.apply_write(f"X{index & 255}", index, versions[index])
    elapsed = _clock() - start
    site.wal.flush()
    return elapsed, count


def wal_flush() -> tuple[float, int]:
    """Group commit of four buffered records."""
    site = _bare_site()
    count = 300
    elapsed = 0.0
    commit = 0
    for _ in range(count):
        for _record in range(4):
            commit += 1
            site.copies.apply_write(f"X{commit & 255}", commit, Version(float(commit), commit, 0))
        start = _clock()
        site.wal.flush()
        elapsed += _clock() - start
    return elapsed, count


def wal_checkpoint() -> tuple[float, int]:
    site = _bare_site()
    count = 20
    start = _clock()
    for _ in range(count):
        site.wal.checkpoint()
    return _clock() - start, count


def _restore_seconds(records: int) -> float:
    site = _bare_site()
    for commit in range(1, records + 1):
        site.copies.apply_write(f"X{commit & 255}", commit, Version(float(commit), commit, 0))
    site.wal.flush()
    start = _clock()
    result = site.wal.restore()
    elapsed = _clock() - start
    if result is None or result.records_replayed != records:
        raise RuntimeError(f"restore replayed {result} instead of {records} records")
    return elapsed


def wal_replayed_record() -> tuple[float, int]:
    """Slope of ``SiteWal.restore`` between 64 and 576 replayed records, so
    the fixed checkpoint-install cost cancels."""
    return max(0.0, _restore_seconds(576) - _restore_seconds(64)), 576 - 64


# -- core (recovery, copiers) -------------------------------------------------------------


def _write(item: str, value: int):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def core_recovery_empty() -> tuple[float, int]:
    """§3.4 with nothing missed: crash, detect, power on, operational."""
    kernel, system = _small_system(rowaa=RowaaConfig(identify_mode="fail-locks"))
    rounds = 5
    elapsed = 0.0
    for _ in range(rounds):
        system.crash(3)
        kernel.run(until=kernel.now + 40.0)
        start = _clock()
        kernel.run(system.power_on(3))
        elapsed += _clock() - start
    system.stop()
    return elapsed, rounds


def _copier_refresh(catchup_mode: str) -> tuple[float, int]:
    missed = 64
    kernel, system = _small_system(
        rowaa=RowaaConfig(catchup_mode=catchup_mode), items=missed  # type: ignore[arg-type]
    )
    system.crash(3)
    kernel.run(until=kernel.now + 40.0)
    for index in range(missed):
        kernel.run(system.submit_with_retry(1, _write(f"X{index}", index + 1), attempts=4))
    kernel.run(system.power_on(3))
    start = _clock()
    while system.copiers[3].drained_at is None and kernel.now < 50_000.0:
        kernel.run(until=kernel.now + 20.0)
    elapsed = _clock() - start
    system.stop()
    if any(system.copy_value(3, f"X{index}") != index + 1 for index in range(missed)):
        raise RuntimeError(f"{catchup_mode} catch-up left site 3 stale")
    return elapsed, missed


def core_copier_refresh() -> tuple[float, int]:
    return _copier_refresh("item_copy")


def core_copier_refresh_logship() -> tuple[float, int]:
    return _copier_refresh("log_ship")


# -- mvcc -------------------------------------------------------------------------------


def _mvcc_store(chain_length: int) -> MultiVersionStore:
    site = _bare_site(items=64)
    store = MultiVersionStore(site.kernel, site)
    for commit in range(1, chain_length):
        for index in range(64):
            store_version = Version(float(commit), commit * 64 + index, 0)
            site.copies.apply_write(f"X{index}", commit, store_version)
    return store


def _mvcc_read_at(chain_length: int) -> tuple[float, int]:
    store = _mvcc_store(chain_length)
    count = 20_000
    cuts = [(float(index % chain_length), 10**9) for index in range(count)]
    start = _clock()
    for index in range(count):
        store.read_at(f"X{index & 63}", cuts[index])
    return _clock() - start, count


def mvcc_read_at_1() -> tuple[float, int]:
    return _mvcc_read_at(1)


def mvcc_read_at_64() -> tuple[float, int]:
    return _mvcc_read_at(64)


def mvcc_version_insert() -> tuple[float, int]:
    """The writer tax: ``apply_write`` on a journaled store with version chains
    attached (compare ``wal.ns_per_append``, the same write without them)."""
    site = _bare_site(items=64)
    MultiVersionStore(site.kernel, site)
    count = 5_000
    versions = [Version(float(index), index, 0) for index in range(1, count + 1)]
    start = _clock()
    for index in range(count):
        site.copies.apply_write(f"X{index & 63}", index, versions[index])
    return _clock() - start, count


def mvcc_ro_txn() -> tuple[float, int]:
    """``run_ro`` of a four-item snapshot read at a current site."""
    kernel, system = _small_system()
    kernel.run(until=10.0)
    rounds = 300
    names = ("X0", "X1", "X2", "X3")

    def ro_program(ctx):
        return (yield from ctx.read_many(names))

    def client():
        for _ in range(rounds):
            yield from system.tms[1].run_ro(ro_program)

    done = kernel.process(client(), name="client")
    start = _clock()
    kernel.run(done)
    elapsed = _clock() - start
    system.stop()
    return elapsed, rounds


# -- workload / histories (the benchmark's own costs) ----------------------------------------


def workload_program() -> tuple[float, int]:
    """``next_program`` on the ``steady_rw`` spec; a workload's own share of
    its rep is ``workload.generator_share``."""
    spec = WorkloadSpec(n_items=256, ops_per_txn=4, write_fraction=0.3, read_modify_write=True)
    generator = WorkloadGenerator(spec, random.Random(0))
    count = 5_000
    start = _clock()
    for _ in range(count):
        generator.next_program()
    return _clock() - start, count


def histories_check() -> tuple[float, int]:
    """``check_one_sr`` over the history of 100 three-site RMW commits."""
    kernel, system = _small_system()

    def client():
        for _ in range(100):
            yield from system.tms[1].run(_rmw)

    kernel.run(kernel.process(client(), name="client"))
    system.stop()
    start = _clock()
    result = check_one_sr(system.recorder)
    elapsed = _clock() - start
    if not result.ok:
        raise RuntimeError("driver history is not 1-SR")
    return elapsed, 1


DRIVERS: tuple[tuple[str, Batch], ...] = (
    ("sim.ns_per_event", sim_event),
    ("sim.ns_per_switch", sim_switch),
    ("sim.ns_per_cancelled_timer", sim_cancelled_timer),
    ("net.us_per_rpc", net_rpc),
    ("net.us_per_call_many", net_call_many),
    ("storage.ns_per_apply_write", storage_apply_write),
    ("storage.ns_per_stable_put", storage_stable_put),
    ("locks.ns_per_acquire_release", locks_acquire_release),
    ("locks.us_per_contended_handoff", locks_contended_handoff),
    ("locks.us_per_wait_edges", locks_wait_edges),
    ("txn.us_per_commit_sync", txn_commit_sync),
    ("txn.us_per_commit_async", txn_commit_async),
    ("txn.us_per_locking_read_txn", txn_locking_read),
    ("wal.ns_per_append", wal_append),
    ("wal.us_per_flush", wal_flush),
    ("wal.us_per_checkpoint", wal_checkpoint),
    ("wal.us_per_replayed_record", wal_replayed_record),
    ("core.us_per_recovery_empty", core_recovery_empty),
    ("core.us_per_copier_refresh", core_copier_refresh),
    ("core.us_per_copier_refresh_logship", core_copier_refresh_logship),
    ("mvcc.ns_per_read_at_1", mvcc_read_at_1),
    ("mvcc.ns_per_read_at_64", mvcc_read_at_64),
    ("mvcc.ns_per_version_insert", mvcc_version_insert),
    ("mvcc.us_per_ro_txn", mvcc_ro_txn),
    ("workload.ns_per_program", workload_program),
    ("histories.ms_per_check", histories_check),
)

_PER_SECOND = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def measure(batch: Batch, slice_s: float, repeats: int) -> float:
    """Median over ``repeats`` of seconds per operation. Each repeat runs
    batches for ``slice_s`` host seconds, set-up included, so a driver
    with a costly set-up cannot stretch the run."""
    samples = []
    for _ in range(repeats):
        elapsed, operations = 0.0, 0
        deadline = _clock() + slice_s
        while operations == 0 or _clock() < deadline:
            batch_elapsed, batch_operations = batch()
            elapsed += batch_elapsed
            operations += batch_operations
        samples.append(elapsed / operations)
    return statistics.median(samples)


def run_drivers(spans: SpanRecorder, slice_s: float, repeats: int) -> dict[str, float]:
    """Every ``D`` metric, by name, in the unit ``BENCHMARK.json`` declares."""
    values = {}
    for name, batch in DRIVERS:
        with spans.span(f"driver:{name}"):
            seconds_per_op = measure(batch, slice_s, repeats)
        values[name] = seconds_per_op * _PER_SECOND[catalog.metrics()[name].unit]
    return values
