"""Online protocol auditing: live invariant monitors, alerts, watchdogs.

See :mod:`repro.audit.auditor` for the invariant catalog and
``docs/OBSERVABILITY.md`` ("Auditor") for the operator-facing view.
"""

from repro.audit.alerts import SEVERITIES, Alert, AlertLog
from repro.audit.auditor import ProtocolAuditor, attach_auditor

__all__ = [
    "Alert",
    "AlertLog",
    "ProtocolAuditor",
    "SEVERITIES",
    "attach_auditor",
]
