"""Restart-by-replay: power-on reconstructs purely from checkpoint + log.

The seed's crash model kept committed copies alive in memory across a
crash ("stable by construction"). With the WAL, the restore path resets
the in-memory store and rebuilds it — these tests corrupt the volatile
structures while the site is down to prove nothing "magically survives".
"""

from repro.core import RowaaConfig, RowaaSystem
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.storage.copies import Version
from repro.txn import TxnConfig
from repro.wal import WalConfig
from tests.core.conftest import write_program


def build_wal_system(seed=11, wal_config=None, rowaa_config=None, items=None):
    kernel = Kernel(seed=seed)
    system = RowaaSystem(
        kernel,
        n_sites=3,
        items=items if items is not None else {"X": 0, "Y": 0, "Z": 0},
        latency=ConstantLatency(1.0),
        rowaa_config=rowaa_config if rowaa_config is not None else RowaaConfig(),
        config=TxnConfig(rpc_timeout=30.0),
        wal_config=wal_config,
    )
    system.boot()
    return kernel, system


class TestGenesis:
    def test_boot_writes_a_genesis_checkpoint_everywhere(self):
        _kernel, system = build_wal_system()
        for site_id in system.cluster.site_ids:
            wal = system.cluster.site(site_id).wal
            assert wal is not None
            assert wal.stats.checkpoints >= 1
            from repro.wal.log import CHECKPOINT_KEY

            assert system.cluster.site(site_id).stable.get(CHECKPOINT_KEY) is not None


class TestRestartByReplay:
    def test_restart_survives_corrupted_volatile_state(self):
        """The old shortcut path is deliberately poisoned while down."""
        kernel, system = build_wal_system(seed=12)
        kernel.run(system.submit(1, write_program("X", 7)))
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.submit(1, write_program("Y", 8)))
        # Corrupt everything the legacy path would have read back.
        victim = system.cluster.site(3)
        victim.copies.reset()
        victim.copies.create("X", -999)
        victim.copies.install("Y", -999, Version(999.0, 10**9, 0))
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 200)
        system.stop()
        assert victim.wal.stats.replays == 1
        for item in ("X", "Y", "Z"):
            assert system.copy_value(3, item) == system.copy_value(1, item)
            assert (
                victim.copies.get(item).version
                == system.cluster.site(1).copies.get(item).version
            )
        assert system.unreadable_counts()[3] == 0

    def test_unreadable_marks_are_durable(self):
        """Marks set during recovery survive a crash mid-recovery."""
        kernel, system = build_wal_system(seed=13)
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.submit(1, write_program("X", 1)))
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 200)
        # Fully recovered. Crash again and also nuke the volatile store:
        # the durable image must still carry the *cleared* marks.
        system.crash(3)
        victim = system.cluster.site(3)
        victim.copies.reset()
        kernel.run(until=kernel.now + 40)
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 200)
        system.stop()
        assert system.unreadable_counts()[3] == 0
        assert system.copy_value(3, "X") == 1

    def test_group_commit_loses_nothing_in_clean_runs(self):
        kernel, system = build_wal_system(seed=14)
        for value in range(5):
            kernel.run(system.submit(1, write_program("X", value)))
        system.crash(2)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.power_on(2))
        kernel.run(until=kernel.now + 200)
        system.stop()
        for site_id in system.cluster.site_ids:
            wal = system.cluster.site(site_id).wal
            # Every commit group-flushed before acknowledging: a crash
            # between transactions finds an empty volatile tail.
            assert wal.stats.records_lost_unflushed == 0

    def test_checkpoints_bound_replay_work(self):
        kernel, system = build_wal_system(
            seed=15, wal_config=WalConfig(checkpoint_every=8, retain_records=16)
        )
        for value in range(30):
            kernel.run(system.submit(1, write_program("X", value)))
        site = system.cluster.site(1)
        assert site.wal.stats.checkpoints >= 2
        assert site.wal.checkpoint_lag < 30
        system.crash(1)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.power_on(1))
        kernel.run(until=kernel.now + 200)
        system.stop()
        # Replay touched only the post-checkpoint suffix, not the epoch.
        assert site.wal.stats.records_replayed <= site.wal.config.checkpoint_every + 16
        assert system.copy_value(1, "X") == 29
