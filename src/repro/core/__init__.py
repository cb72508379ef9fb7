"""The paper's contribution: session-number-based site recovery.

Package map (paper section in parentheses):

* :mod:`repro.core.nominal` — nominal session numbers ``NS[k]`` as fully
  replicated data items (§3.1).
* :mod:`repro.core.session` — actual session numbers ``as[k]``: shared
  TM/DM variable + stable storage of the last used number (§3.1).
* :mod:`repro.core.rowaa` — the ROWAA interpretation of logical
  operations with the implicit nominal-session-vector read (§3.2).
* :mod:`repro.core.control` — control transactions of types 1 and 2
  (§3.3) and the service that initiates type 2 on failure detection.
* :mod:`repro.core.copier` — copier transactions, eager and on-demand
  scheduling, and the §5 version-skip optimisation (§3.2, §5).
* :mod:`repro.core.identify` — mark-all and the one §5 stale-copy table
  (fail-locks when durable, missing lists when not): the policies for
  identifying out-of-date copies at recovery (§3.4 step 2, §5).
* :mod:`repro.core.recovery` — the four-step site recovery procedure
  with crash-during-recovery retries (§3.4).
* :mod:`repro.core.system` — :class:`~repro.core.system.RowaaSystem`,
  the fully assembled protocol on top of
  :class:`~repro.system.DatabaseSystem`.
"""

from repro.core.config import RowaaConfig
from repro.core.copier import CopierService
from repro.core.nominal import is_ns_item, ns_item, ns_site
from repro.core.recovery import RecoveryManager
from repro.core.rowaa import RowaaStrategy
from repro.core.session import SessionManager
from repro.core.system import RowaaSystem

__all__ = [
    "CopierService",
    "RecoveryManager",
    "RowaaConfig",
    "RowaaStrategy",
    "RowaaSystem",
    "SessionManager",
    "is_ns_item",
    "ns_item",
    "ns_site",
]
