"""Rule implementations; importing this package registers them all."""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    rep001_determinism,
    rep003_isolation,
    rep004_durability,
    rep005_floateq,
    rep007_stale_yield,
)
