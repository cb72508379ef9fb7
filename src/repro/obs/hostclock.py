"""The sanctioned host monotonic clock (the REP001 seam).

Everything in the repository runs on *simulated* time (``kernel.now``);
replint's REP001 rule bans wall clocks inside SIM_TIME scope so no
protocol decision can ever depend on host timing. The package's one
consumer of real time — the ``(... wall)`` footer :mod:`repro.cli`
prints under ``repro eN`` / ``repro all`` — takes its clock from here
instead of reaching for ``time.perf_counter`` itself, so there is one
obvious place to audit. (The host profiler brings its own timer:
``cProfile``'s.)
"""

from __future__ import annotations

import time

#: Monotonic high-resolution host clock, in fractional seconds.
now = time.perf_counter
