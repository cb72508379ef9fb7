"""The paper's §1 counter-example, reproduced live — twice.

    "Transaction T_a reads X and writes Y, transaction T_b reads Y and
     writes X. Both X and Y have two copies at site 1 and site 2. ...
     A history  Ra[x1] Rb[y1] (site 1 crashes) Wa[y2] Wb[x2]  is
     acceptable by a concurrency control algorithm that concerns only
     the serializability of physical operations. ... When site 1
     recovers, x1 and y1 may be updated by copier transactions. No
     matter how the copiers are scheduled, the database cannot be
     brought up to a consistent state."

First under the naive write-all-available scheme: both transactions
commit and the execution is provably not one-serializable. Then under
the paper's ROWAA protocol: both transactions abort (their views still
name the crashed site), and consistency is preserved.

Run:  python examples/paper_example.py
"""

from repro.baselines import build_system
from repro.core import RowaaSystem
from repro.errors import TransactionAborted
from repro.histories import check_one_sr, check_sr
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.storage import Catalog
from repro.txn import TxnConfig


def two_copy_catalog():
    catalog = Catalog([1, 2, 3])
    catalog.add_item("X", [1, 2])
    catalog.add_item("Y", [1, 2])
    return catalog


def txn_a(kernel):
    def program(ctx):
        x = yield from ctx.read("X")        # Ra[x1]
        yield kernel.timeout(50)            # ... site 1 crashes here ...
        yield from ctx.write("Y", x)        # Wa[y*]
        return "committed"

    return program


def txn_b(kernel):
    def program(ctx):
        y = yield from ctx.read("Y")        # Rb[y1]
        yield kernel.timeout(50)
        yield from ctx.write("X", y)        # Wb[x*]
        return "committed"

    return program


def drive(system, kernel):
    """Submit both transactions at site 3 and crash site 1 mid-flight."""
    proc_a = system.submit(3, txn_a(kernel))
    proc_b = system.submit(3, txn_b(kernel))
    kernel.run(until=5)
    system.crash(1)
    outcomes = []
    for proc in (proc_a, proc_b):
        try:
            outcomes.append(kernel.run(proc))
        except TransactionAborted as exc:
            outcomes.append(f"aborted ({exc.reason})")
    return outcomes


def main():
    print("=== naive write-all-available (the scheme of the example) ===")
    kernel = Kernel(seed=42)
    naive = build_system(
        "naive", kernel, 3, {"X": 0, "Y": 0}, catalog=two_copy_catalog(),
        latency=ConstantLatency(1.0), detection_delay=5.0,
        config=TxnConfig(rpc_timeout=20.0),
    )
    outcomes = drive(naive, kernel)
    print(f"T_a: {outcomes[0]},  T_b: {outcomes[1]}")
    physical = check_sr(naive.recorder)
    logical = check_one_sr(naive.recorder)
    print(f"physically serializable: {physical.ok} ({physical.method})")
    print(f"one-serializable:        {logical.ok} ({logical.method})")
    print("-> both committed, the copies can never be reconciled.\n")

    print("=== the paper's ROWAA protocol ===")
    kernel = Kernel(seed=42)
    rowaa = RowaaSystem(
        kernel, 3, {"X": 0, "Y": 0}, catalog=two_copy_catalog(),
        latency=ConstantLatency(1.0), detection_delay=5.0,
        config=TxnConfig(rpc_timeout=20.0),
    )
    rowaa.boot()
    outcomes = drive(rowaa, kernel)
    print(f"T_a: {outcomes[0]},  T_b: {outcomes[1]}")
    logical = check_one_sr(rowaa.recorder)
    print(f"one-serializable: {logical.ok} ({logical.method})")
    print("-> the writers' views still named the crashed site, so the")
    print("   write-all-available interpretation could not complete and")
    print("   both transactions aborted. A retry after the type-2")
    print("   exclusion would commit safely against site 2 alone.")


if __name__ == "__main__":
    main()
