"""Crash-replay determinism check (CI gate).

Runs the traced log-shipping recovery scenario twice with the same seed
and asserts the durable outcome is **byte-identical**: per-site final
LSNs, the serialized log metadata, truncation and checkpoint
blobs (``wal.meta`` / ``wal.dir`` / ``wal.ckpt`` and every
``wal.ckpt.item.*``), the reconstructed copies (value, version,
unreadable mark), and the stable session state. Any nondeterminism in the journal/replay path — record
ordering, fuzzy-checkpoint contents, truncation watermarks — shows up
as a digest mismatch here long before it shows up as a flaky recovery.

Usage::

    python -m repro.wal.determinism [--seed N] [--cross-schedule]

Exit code 0 on byte-identical runs, 1 on divergence.

``--cross-schedule`` asserts a *robustness* property instead of a
reproducibility one: the crash/resume scenario (E2) run under two
different same-timestamp tie-break salts (see
:mod:`repro.sanitize.policy`) must converge to **identical committed
state fingerprints** — same values, same unreadable marks, same stable
session numbers. Unlike the byte-level digest above, physical version
stamps and WAL layout are excluded: legal schedules may commit the same
values in a different physical order, and that is not a divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import pickle
import typing

from repro.wal.log import (
    CHECKPOINT_ITEM_PREFIX,
    CHECKPOINT_KEY,
    DIRECTORY_KEY,
    META_KEY,
    RedoLog,
)


def checkpoint_digest(stable: typing.Any) -> str:
    """Hash of the checkpoint header blob and every item blob, in key order."""
    blobs = stable._blobs
    digest = hashlib.sha256(blobs.get(CHECKPOINT_KEY, b""))
    for key in sorted(blobs):
        if key.startswith(CHECKPOINT_ITEM_PREFIX):
            digest.update(key.encode())
            digest.update(blobs[key])
    return digest.hexdigest()


def site_durable_state(site: typing.Any) -> dict:
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
        "session_last": site.stable.get("session.last"),
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


def run_digest(seed: int) -> tuple[str, dict]:
    """One scenario run -> (hex digest, per-site summary for diagnostics)."""
    from repro.harness.runner import run_traced

    run = run_traced("e9", seed=seed)
    system, summary = run.system, run.summary
    state = {
        site_id: site_durable_state(system.cluster.site(site_id))
        for site_id in system.cluster.site_ids
    }
    blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    lsns = {
        site_id: entry["durable_lsn"] for site_id, entry in state.items()
    }
    return hashlib.sha256(blob).hexdigest(), {"summary": summary, "lsns": lsns}


def check(seed: int = 3) -> bool:
    """Run twice, compare. Prints a verdict; True iff byte-identical."""
    first, info_a = run_digest(seed)
    second, info_b = run_digest(seed)
    print(f"run 1: digest={first[:16]} lsns={info_a['lsns']}")
    print(f"run 2: digest={second[:16]} lsns={info_b['lsns']}")
    if first == second:
        print(f"crash-replay determinism: OK (seed={seed})")
        return True
    print(f"crash-replay determinism: DIVERGED (seed={seed})  << REGRESSION")
    return False


def cross_schedule_digest(seed: int, salt: int) -> tuple[str, int]:
    """One E2 run under shuffle ``salt`` -> (fingerprint, choice points).

    Salt 0 runs the canonical (FIFO) schedule with the tie-break seam
    engaged, so the comparison also covers the seam itself.
    """
    from repro.harness.runner import run_traced
    from repro.sanitize.fingerprint import fingerprint, system_state
    from repro.sanitize.policy import ScheduleSpec

    mode = "canonical" if salt == 0 else "shuffle"
    run = run_traced("e2", seed=seed, schedule=ScheduleSpec(mode=mode, salt=salt))
    # strict_values: E2 is a single-writer recovery drill, so even the
    # committed *values* must be schedule-independent — a stronger claim
    # than the agreement-partition gate schedfuzz applies to contended
    # workloads.
    return (
        fingerprint(system_state(run.system, strict_values=True)),
        len(run.obs.policy.decisions),
    )


def check_cross_schedule(seed: int = 3, salts: tuple[int, ...] = (0, 1, 2)) -> bool:
    """Same seed, different tie-break salts, identical committed state."""
    digests = []
    for salt in salts:
        digest, choices = cross_schedule_digest(seed, salt)
        label = "canonical" if salt == 0 else f"shuffle[{salt}]"
        print(f"{label}: fingerprint={digest[:16]} choice_points={choices}")
        digests.append(digest)
    if len(set(digests)) == 1:
        print(f"cross-schedule determinism: OK (seed={seed}, "
              f"{len(salts)} schedules)")
        return True
    print(f"cross-schedule determinism: DIVERGED (seed={seed})  << REGRESSION")
    return False


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert crash-replay recovery is byte-identical "
        "across same-seed runs."
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--cross-schedule", action="store_true",
        help="instead: assert E2 committed state is identical across "
        "perturbed same-timestamp tie-break schedules",
    )
    args = parser.parse_args(argv)
    if args.cross_schedule:
        return 0 if check_cross_schedule(args.seed) else 1
    return 0 if check(args.seed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
