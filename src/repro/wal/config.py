"""Configuration of the per-site durability (WAL) layer."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class WalConfig:
    """Knobs of the redo log / checkpoint subsystem.

    The log itself is not one of them: every site journals its committed
    mutations, so a restart is always checkpoint + REDO.

    Attributes
    ----------
    checkpoint_every:
        Take a fuzzy checkpoint after this many records have been
        group-committed since the last one. Smaller values shorten
        replay at the cost of more checkpoint writes (and of a shorter
        shippable log tail).
    retain_records:
        How many LSNs of log to keep *behind* the checkpoint when
        truncating. The retained tail is what log-shipping catch-up
        serves from; ``0`` truncates everything behind the checkpoint
        (forcing recovering peers onto per-item copy whenever they
        crashed before it).
    """

    checkpoint_every: int = 64
    retain_records: int = 512
