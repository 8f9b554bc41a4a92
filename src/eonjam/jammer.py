"""Attacker model and the emulated physical-measurement feed.

The attacker injects a high-power signal into fixed slot ranges of one
fibre (both directions).  Each jammed range behaves like one channel
whose power is the normal per-channel launch power plus an extra
``epsilon``; with ``epsilon_db = 0`` the attack is physically inert.

:class:`GroundTruth` is what the real network would expose through a
measurement interface: the attacked link, the jammer channels, and the
extra linear power.  The simulator's control plane only sees it through
the measured-SNR comparison in the detection step.
"""

from __future__ import annotations

from ._value import Value
from .phy import TX_POWER_W, Channel, channel_for_block, db_to_linear, jamming_psd
from .spectrum import SLOT_COUNT, SlotBlock

__all__ = [
    "MOST_USED",
    "LEAST_USED",
    "DEFAULT_JAMMED_RANGES",
    "MAX_EPSILON_DB",
    "JammerConfig",
    "GroundTruth",
    "resolve_target",
    "ground_truth_channels",
]

MOST_USED = "most_used"
LEAST_USED = "least_used"

DEFAULT_JAMMED_RANGES: tuple[SlotBlock, ...] = (
    SlotBlock(50, 10),
    SlotBlock(140, 10),
    SlotBlock(230, 10),
)

#: Largest extra jamming power, in dB over the launch power: 10 MW at 0 dBm,
#: far below the ~1,570 dB where the jamming noise terms overflow a float.
MAX_EPSILON_DB = 100.0


class JammerConfig(Value):
    """Which link is attacked, where in the spectrum, and how hard.

    ``target`` is ``"most_used"``, ``"least_used"`` or an explicit link
    id.  Ranges must be disjoint and inside the grid, and ``epsilon_db``
    lies between 0 and :data:`MAX_EPSILON_DB`.
    """

    _fields = ("target", "jammed_ranges", "epsilon_db")

    def __init__(
        self,
        target: str,
        jammed_ranges: tuple[SlotBlock, ...] = DEFAULT_JAMMED_RANGES,
        epsilon_db: float = 0.0,
    ) -> None:
        if not isinstance(target, str) or not target:
            raise ValueError("target: required (most_used, least_used or a link id)")
        if not 0.0 <= epsilon_db <= MAX_EPSILON_DB:
            raise ValueError(
                f"epsilon_db must be finite, >= 0 and <= {MAX_EPSILON_DB}, got {epsilon_db}"
            )
        if not jammed_ranges:
            raise ValueError("at least one jammed range is required")
        ordered = sorted(jammed_ranges, key=lambda b: b.start)
        for block in ordered:
            if block.end > SLOT_COUNT:
                raise ValueError(f"jammed range {block} exceeds the {SLOT_COUNT}-slot grid")
        for left, right in zip(ordered, ordered[1:]):
            if left.end > right.start:
                raise ValueError(f"jammed ranges {left} and {right} overlap")
        self._store(target=target, jammed_ranges=jammed_ranges, epsilon_db=epsilon_db)

    @property
    def uses_selector(self) -> bool:
        return self.target in (MOST_USED, LEAST_USED)


class GroundTruth(Value):
    """Resolved attack state: the emulated measurement-plane view.

    An attack is fixed for the whole run, so the jamming noise of a
    launch-power channel depends only on its block and on the span count
    of the attacked link; :meth:`jamming_psd` prices each such pair once
    and keeps it in ``_psds``, by ``(block, span_count)``, which is not
    compared.
    """

    _fields = ("link_id", "channels", "epsilon_w", "jammed_ranges")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._store(_psds={})

    def ranges_overlapping(self, block: SlotBlock) -> tuple[SlotBlock, ...]:
        return tuple(r for r in self.jammed_ranges if r.overlaps(block))

    def jamming_psd(self, channel: Channel, span_count: int) -> float:
        """``phy.jamming_psd`` of ``channel`` on the attacked link of ``span_count`` spans.

        Computed on the first call for the channel's block and the span
        count and read from the table after that.  ``channel`` is the
        launch-power channel of its block.
        """
        key = (channel.block, span_count)
        psd = self._psds.get(key)
        if psd is None:
            psd = self._psds[key] = jamming_psd(channel, span_count, self.channels, self.epsilon_w)
        return psd


def resolve_target(config: JammerConfig, utilization_ranking) -> str:
    """Pick the attacked link id from a descending utilization ranking."""
    if config.target == MOST_USED:
        if not utilization_ranking:
            raise ValueError("most_used selector needs a non-empty ranking")
        return utilization_ranking[0][0]
    if config.target == LEAST_USED:
        if not utilization_ranking:
            raise ValueError("least_used selector needs a non-empty ranking")
        return utilization_ranking[-1][0]
    return config.target


def ground_truth_channels(
    config: JammerConfig,
    target_link_id: str | None = None,
) -> GroundTruth:
    """Materialise the jammer channels for a resolved target link.

    Each jammed range becomes one jammer channel centred on the range
    with bandwidth ``width * slot_width`` and power ``P + epsilon``.
    ``target_link_id`` must be given when the config uses a selector.
    """
    if target_link_id is None:
        if config.uses_selector:
            raise ValueError("selector-based jammer needs target_link_id resolved first")
        target_link_id = config.target
    epsilon_w = TX_POWER_W * (db_to_linear(config.epsilon_db) - 1.0)
    channels = tuple(
        channel_for_block(block, power_w=TX_POWER_W + epsilon_w, is_jammer=True)
        for block in config.jammed_ranges
    )
    return GroundTruth(
        link_id=target_link_id,
        channels=channels,
        epsilon_w=epsilon_w,
        jammed_ranges=tuple(config.jammed_ranges),
    )
