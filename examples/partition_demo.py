"""Why the paper excludes network partitions — demonstrated.

"The algorithm presented in this paper does not handle partition
failures" (§1); §6 sketches how nominal session numbers might extend to
partition *merging* as future work.

This demo partitions a 3-site ROWAA system into {1} vs {2, 3} and shows
the exact boundary behaviour:

* the failure detector stays silent (it is sound for *crashes* only, and
  nobody crashed), so no type-2 exclusion ever runs;
* every write therefore still targets all three nominal copies and
  blocks/aborts on the unreachable side — the system is SAFE but
  (write-)UNAVAILABLE on both sides — no split brain, no divergence;
* majority quorum, by contrast, keeps committing in the majority
  partition and stays consistent after healing — availability under
  partitions is exactly what quorums buy.

After healing, the ROWAA system resumes at full availability with zero
recovery work: no copy ever diverged.

Run:  python examples/partition_demo.py
"""

from repro.baselines import build_system
from repro.core import RowaaSystem
from repro.errors import TransactionAborted
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.txn import TxnConfig


def write_program(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def read_program(item):
    def program(ctx):
        value = yield from ctx.read(item)
        return value

    return program


def attempt(kernel, system, site, program):
    try:
        result = kernel.run(system.submit(site, program))
        return f"committed ({result})" if result is not None else "committed"
    except TransactionAborted as exc:
        return f"aborted: {exc.reason}"


def main():
    print("=== ROWAA under a partition: safe, but writes block ===")
    kernel = Kernel(seed=5)
    rowaa = RowaaSystem(
        kernel, n_sites=3, items={"X": 0},
        latency=ConstantLatency(1.0), detection_delay=5.0,
        config=TxnConfig(rpc_timeout=15.0),
    )
    rowaa.boot()
    rowaa.cluster.network.set_partition([{1}, {2, 3}])
    print("partitioned into {1} | {2, 3}")
    print(f"  write at site 1:  {attempt(kernel, rowaa, 1, write_program('X', 1))}")
    print(f"  write at site 2:  {attempt(kernel, rowaa, 2, write_program('X', 2))}")
    print(f"  read  at site 1:  {attempt(kernel, rowaa, 1, read_program('X'))}")
    print(f"  read  at site 3:  {attempt(kernel, rowaa, 3, read_program('X'))}")
    print(f"  nominal views unchanged: {rowaa.nominal_view(1)} / "
          f"{rowaa.nominal_view(2)} — the crash-only detector never fired,")
    print("  so no type-2 exclusion: writes keep addressing all copies and")
    print("  time out. Nothing diverges; write availability is the price.")

    rowaa.cluster.network.heal_partition()
    print("healed.")
    print(f"  write at site 1:  {attempt(kernel, rowaa, 1, write_program('X', 10))}")
    values = {s: rowaa.copy_value(s, 'X') for s in (1, 2, 3)}
    print(f"  copies after heal: {values}  (consistent, no recovery needed)\n")

    print("=== majority quorum under the same partition ===")
    kernel2 = Kernel(seed=5)
    quorum = build_system(
        "quorum", kernel2, 3, {"X": 0},
        latency=ConstantLatency(1.0), detection_delay=5.0,
        config=TxnConfig(rpc_timeout=15.0),
    )
    quorum.cluster.network.set_partition([{1}, {2, 3}])
    print("partitioned into {1} | {2, 3}")
    print(f"  write at site 1 (minority):  "
          f"{attempt(kernel2, quorum, 1, write_program('X', 1))}")
    print(f"  write at site 2 (majority):  "
          f"{attempt(kernel2, quorum, 2, write_program('X', 2))}")
    quorum.cluster.network.heal_partition()
    print("healed.")
    print(f"  read at site 1: {attempt(kernel2, quorum, 1, read_program('X'))}")
    print("  The majority side progressed; the version vote serves its value")
    print("  everywhere after healing — availability under partitions is the")
    print("  quorum trade (paid for on every operation, as E1/E3 show).")
    print()
    print("§6's future-work direction: treat each partition like a failed")
    print("site set and drive the merge with the session machinery. This")
    print("sketch is the paper's own; this repository does not build it.")


if __name__ == "__main__":
    main()
