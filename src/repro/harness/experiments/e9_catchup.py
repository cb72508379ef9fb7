"""E9 — catch-up transports: log-shipping vs per-item copy.

The paper's copiers (§3.2) move one item per transaction, reading a full
remote copy even when the recovering site missed a single update. With a
per-site redo log (``repro.wal``) the recovering site can instead stream
exactly the log suffix it missed from one nominally-up peer.

Design: crash a site, land ``missed`` committed updates elsewhere,
reboot, and measure the network bytes the catch-up phase moves under
each ``catchup_mode`` until the site is fully current. A third cell
variant aggressively truncates the peers' logs (``retain_records=0``)
so the stream carries none of the missed updates and log-shipping must
fall back to per-item copy for them — correctness is preserved, the
byte advantage is not.
"""

from __future__ import annotations

from repro.core.config import RowaaConfig
from repro.harness.parallel import Cell
from repro.harness.runner import build_scheme, outage, tagged_seed, wind_down
from repro.harness.tables import Claim, Table
from repro.sim.rng import sha256
from repro.wal import WalConfig

MODES = ("log_ship", "item_copy")


def plan(
    seed: int = 0,
    n_sites: int = 3,
    n_items: int = 24,
    missed_updates: tuple[int, ...] = (4, 16),
) -> list[Cell]:
    """mode x missed grid, plus one truncated-peer cell per mode."""

    def cell(mode: str, missed: int, truncate: bool) -> Cell:
        return Cell(
            "e9",
            _one_cell,
            dict(
                seed=seed, seed_tag=("e9", mode, missed, truncate),
                n_sites=n_sites, n_items=n_items, missed=missed, mode=mode,
                truncate=truncate, log_ship_batch=8, drain=600.0,
            ),
            dict(mode=mode, missed=missed, truncated=truncate),
        )

    return [cell(mode, missed, False) for mode in MODES for missed in missed_updates] + [
        cell(mode, max(missed_updates), True) for mode in MODES
    ]


def assemble(
    cells: list[Cell], results: list, n_items: int = 24, **_params
) -> Table:
    table = Table(
        f"E9: catch-up transport (items={n_items})",
        [
            "mode",
            "missed",
            "truncated",
            "net_bytes",
            "shipped",
            "applied",
            "validated",
            "copied",
            "skips",
            "fell_back",
            "t_fully_current",
            "state",
        ],
    )
    for cell, result in zip(cells, results):
        table.add_row(
            mode=cell.tag["mode"],
            missed=cell.tag["missed"],
            truncated=cell.tag["truncated"],
            **result,
        )
    return table


def claims(table: Table) -> list[Claim]:
    """Bytes and end state of the two transports, truncated log or not."""
    row = table.by("mode", "missed", "truncated")
    missed = [r["missed"] for r in table.where(mode="log_ship", truncated=False)]

    def both(column: str, n: int, truncated: bool = False) -> tuple:
        return tuple(row[mode, n, truncated][column] for mode in MODES)  # log_ship first

    def read(column: str) -> dict:
        return {f"{mode}@{n}": row[mode, n, False][column] for n in missed for mode in MODES}

    truncated = row["log_ship", max(missed), True]
    ship_state, copy_state = both("state", max(missed), True)
    return [
        Claim("e9.fewer-bytes", "§3.2", "log shipping moves fewer bytes than item copy at "
              "every missed-update count",
              all(ship < copy for ship, copy in (both("net_bytes", n) for n in missed)),
              read("net_bytes")),
        Claim("e9.same-state", "§3.2", "log shipping and item copy end in the same state at "
              "every missed-update count",
              all(ship == copy for ship, copy in (both("state", n) for n in missed)),
              read("state")),
        Claim("e9.truncated-fallback", "§3.2", "against a truncated log, log shipping falls "
              "back once and ends in item copy's state",
              truncated["fell_back"] == 1 and ship_state == copy_state,
              {"fell_back": truncated["fell_back"], "log_ship": ship_state,
               "item_copy": copy_state}),
    ]


def _state_fingerprint(system, site_id, n_items):
    """Order-independent digest of the site's user-item values."""
    text = ";".join(
        f"X{i}={system.copy_value(site_id, f'X{i}')!r}" for i in range(n_items)
    )
    return sha256(text.encode()).hex()[:12]


def _one_cell(**params):
    """The grid's cell: the world under the plain builder, result only."""
    return scenario(build_scheme, **params)[2]


def scenario(
    build, seed, seed_tag, mode, truncate, n_sites, n_items, missed,
    log_ship_batch, drain,
):
    """The last site misses ``missed`` updates, reboots, and gets
    ``drain`` units to catch up over the ``mode`` transport.

    Under ``log_ship`` a trace shows the wal.ship RPC pages, the
    copier-kind apply transactions, and the wal.checkpoint/restore
    spans around them.
    """
    items = {f"X{i}": 0 for i in range(n_items)}
    rowaa_config = RowaaConfig(
        copier_mode="eager", catchup_mode=mode, log_ship_batch=log_ship_batch
    )
    wal_config = (
        WalConfig(checkpoint_every=4, retain_records=0) if truncate else WalConfig()
    )
    kernel, system = build(
        "rowaa", tagged_seed(seed_tag, seed), n_sites, items,
        rowaa_config=rowaa_config, wal_config=wal_config,
    )
    victim = n_sites
    writes = [(f"X{index % n_items}", 100 + index) for index in range(missed)]
    drill = outage(kernel, system, victim, writes)
    kernel.run(until=kernel.now + drain)
    wind_down(kernel, system)
    copiers = system.copiers[victim]
    stats = copiers.stats
    drained = copiers.drained_at
    return kernel, system, {
        "net_bytes": system.cluster.network.stats.bytes_sent - drill.bytes_before,
        "shipped": stats.records_shipped,
        "applied": stats.ship_applied,
        "validated": stats.ship_validated,
        "copied": stats.copies_performed,
        "skips": stats.copies_skipped_version,
        "fell_back": int(stats.ship_fallback_items > 0),
        "t_fully_current": (drained - drill.power_at) if drained is not None else None,
        "state": _state_fingerprint(system, victim, n_items),
    }
