"""Log-shipping catch-up: stream the missed log suffix vs per-item copy."""

from repro.core import RowaaConfig, RowaaSystem
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.txn import TxnConfig
from repro.wal import ShipRequest, WalConfig
from tests.core.conftest import write_program

N_ITEMS = 12


def run_outage(catchup_mode, seed=21, missed=6, wal_config=None):
    """Crash site 3, land ``missed`` writes elsewhere, recover site 3."""
    kernel = Kernel(seed=seed)
    system = RowaaSystem(
        kernel,
        n_sites=3,
        items={f"I{i}": 0 for i in range(N_ITEMS)},
        latency=ConstantLatency(1.0),
        rowaa_config=RowaaConfig(
            copier_mode="eager", catchup_mode=catchup_mode, log_ship_batch=4
        ),
        config=TxnConfig(rpc_timeout=30.0),
        wal_config=wal_config,
    )
    system.boot()
    system.crash(3)
    kernel.run(until=kernel.now + 40)
    for i in range(missed):
        kernel.run(system.submit(1, write_program(f"I{i % N_ITEMS}", 100 + i)))
    bytes_before = system.cluster.network.stats.bytes_sent
    kernel.run(system.power_on(3))
    kernel.run(until=kernel.now + 400)
    system.stop()
    catchup_bytes = system.cluster.network.stats.bytes_sent - bytes_before
    return kernel, system, catchup_bytes


def assert_site3_current(system):
    site1 = system.cluster.site(1)
    site3 = system.cluster.site(3)
    assert system.unreadable_counts()[3] == 0
    for i in range(N_ITEMS):
        item = f"I{i}"
        assert site3.copies.get(item).value == site1.copies.get(item).value
        assert site3.copies.get(item).version == site1.copies.get(item).version


class TestLogShipCatchup:
    def test_ends_identical_to_item_copy(self):
        _, ship_system, _ = run_outage("log_ship")
        _, copy_system, _ = run_outage("item_copy")
        assert_site3_current(ship_system)
        assert_site3_current(copy_system)
        for i in range(N_ITEMS):
            item = f"I{i}"
            assert ship_system.copy_value(3, item) == copy_system.copy_value(3, item)

    def test_ships_strictly_fewer_bytes_for_short_outage(self):
        _, ship_system, ship_bytes = run_outage("log_ship", missed=4)
        _, copy_system, copy_bytes = run_outage("item_copy", missed=4)
        stats = ship_system.copiers[3].stats
        assert stats.ship_batches > 0
        assert stats.copies_performed == 0  # no per-item fallback needed
        assert copy_system.copiers[3].stats.copies_performed > 0
        assert ship_bytes < copy_bytes

    def test_ship_counters_cover_all_marked_items(self):
        _, system, _ = run_outage("log_ship", missed=6)
        stats = system.copiers[3].stats
        assert stats.records_shipped >= 6
        # Touched items applied from the stream, untouched ones cleared
        # via the final versions map — together draining every mark.
        assert stats.ship_applied >= 1
        assert stats.ship_applied + stats.ship_validated >= N_ITEMS
        assert stats.ship_fallback_items == 0

    def test_truncated_peer_forces_item_copy_fallback(self):
        """A peer that truncated every record still streams: its final
        ``versions`` map clears the untouched items, and exactly the
        missed ones fall back to per-item copy."""
        missed = 10
        _, system, _ = run_outage(
            "log_ship",
            missed=missed,
            wal_config=WalConfig(checkpoint_every=4, retain_records=0),
        )
        stats = system.copiers[3].stats
        assert stats.records_shipped == stats.ship_applied == 0
        assert stats.ship_validated == N_ITEMS - missed
        assert stats.ship_fallback_items == stats.copies_performed == missed
        assert stats.copies_skipped_version == 0
        assert_site3_current(system)

    def test_handler_refuses_while_not_operational(self):
        kernel = Kernel(seed=22)
        system = RowaaSystem(
            kernel,
            n_sites=3,
            items={"X": 0},
            latency=ConstantLatency(1.0),
            rowaa_config=RowaaConfig(catchup_mode="log_ship"),
            config=TxnConfig(rpc_timeout=30.0),
        )
        system.boot()
        system.crash(2)
        request = ShipRequest(requester=3, after_commit=0, cursor_lsn=0, batch=4)
        reply = system.copiers[2]._handle_ship(request, src=3)
        assert not reply.serving
        system.stop()

    def test_handler_flags_truncation_only_for_requester_items(self):
        """Truncation flags nothing: a peer that truncated records still
        serves its retained suffix and, on the final page, its current
        version of every item the requester hosts."""
        kernel = Kernel(seed=23)
        system = RowaaSystem(
            kernel,
            n_sites=3,
            items={"X": 0, "Y": 0},
            latency=ConstantLatency(1.0),
            rowaa_config=RowaaConfig(catchup_mode="log_ship"),
            config=TxnConfig(rpc_timeout=30.0),
            wal_config=WalConfig(checkpoint_every=10**9, retain_records=1),
        )
        system.boot()
        for value in (1, 2, 3):
            kernel.run(system.submit(1, write_program("X", value)))
        site = system.cluster.site(1)
        site.wal.checkpoint()  # retains the last segment only
        assert site.wal.log.truncated_records > 0
        request = ShipRequest(requester=3, after_commit=0, cursor_lsn=0, batch=4)
        reply = system.copiers[1]._handle_ship(request, src=3)
        assert reply.serving and reply.done
        # The retained suffix holds the last write to X only, and it is current.
        assert [(r.item, r.value, r.current) for r in reply.records] == [("X", 3, True)]
        assert reply.versions == {
            item: site.copies.get(item).version for item in ("X", "Y")
        }
        system.stop()
