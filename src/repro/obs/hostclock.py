"""The sanctioned host monotonic clock (the REP001 seam).

Everything in the repository runs on *simulated* time (``kernel.now``);
replint's REP001 rule bans wall clocks inside SIM_TIME scope so no
protocol decision can ever depend on host timing. The two legitimate
consumers of real time — the experiment grid's per-cell wall timing
(``repro eN`` / ``repro all``, :mod:`repro.harness.parallel`) and the
host-CPU profiler behind ``repro profile`` — take their clock
from here instead of reaching for ``time.perf_counter`` themselves.
One module means one obvious place to audit, and the profiler can hand
the kernel a clock callable without the kernel ever importing ``time``.
"""

from __future__ import annotations

import time

#: Monotonic high-resolution host clock, in fractional seconds. The
#: bare ``perf_counter`` function object (not a wrapper) so hot loops
#: pay no extra call frame per read.
now = time.perf_counter
