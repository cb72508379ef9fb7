"""Shared path scopes for the rule set.

Paths are relative to the lint root (``src/``), so entries read
``repro/<package>``. The groupings mirror the architecture layers in
DESIGN.md §4:

* ``SIM_TIME`` — code that runs *inside* simulated time: everything a
  scenario executes between ``kernel.run()`` entering and returning.
  Wall-clock reads here are run-to-run nondeterminism, which breaks
  the same-seed durable-state test (``TestCrashReplayDeterminism``)
  and seed-reproducibility of every experiment table. (Hash-order
  iteration is the same failure; ``tests/test_hash_seed.py`` sees it by
  running child interpreters under different hash seeds and comparing
  their bytes.)
* ``PROTOCOL`` — the replication protocol proper (session/ROWAA/copier
  machinery, TM/DM, baselines, workload drivers). These may touch a
  remote site's state only through the net RPC layer.
* ``DURABLE`` — layers where *all* durable state must flow through the
  StableStorage/WAL API (direct file I/O would dodge crash semantics
  and the byte-accounting model).

The harness/obs/cli layers are deliberately outside SIM_TIME/DURABLE:
they run in real time around the simulation (timing walls, exporting
artifacts) and may legitimately read clocks and write files.
"""

from __future__ import annotations

SIM_TIME: tuple[str, ...] = (
    "repro/sim",
    "repro/net",
    "repro/txn",
    "repro/wal",
    "repro/core",
    "repro/site",
    "repro/storage",
    "repro/workload",
    "repro/baselines",
    "repro/histories",
    "repro/audit",
)

PROTOCOL: tuple[str, ...] = (
    "repro/core",
    "repro/txn",
    "repro/baselines",
    "repro/workload",
)

DURABLE: tuple[str, ...] = (
    "repro/sim",
    "repro/net",
    "repro/txn",
    "repro/wal",
    "repro/core",
    "repro/site",
    "repro/storage",
    "repro/workload",
    "repro/baselines",
    "repro/histories",
)
