"""Aggregation of replication statistics.

Blocking probability is request-count based (blocked / offered).  The
per-slot histograms are exact time-averages of each slot's reserved
indicator (used, or inside the guardband shadow of the circuit below
it, see :class:`~eonjam.spectrum.SlotGrid`), averaged over every
directed grid, with a per-link breakdown for inspection; counting the
shadowed guardband slots is what makes the First Fit decay signature
visible instead of a packing comb.  Link mean
utilization counts carried traffic only (used slots), and the ranking it
feeds is what the attacker's most/least-used selector consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._value import Value

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ReplicationResult",
    "blocking_probability",
    "utilization_ranking",
    "slot_histogram",
    "results_equal",
]


class ReplicationResult(Value):
    """Statistics of one seeded replication.

    ``slot_utilization`` (and its per-link breakdown) counts a slot as
    busy while it is used or guard-locked; ``slot_used_by_link`` counts
    carried traffic only, which is what attack-avoidance assertions
    about "always free" slots need.  The per-link maps default to new
    empty dicts.  ``==`` is :func:`results_equal`; results are not
    hashable.
    """

    _fields = (
        "requests",
        "blocked_by_reason",
        "slot_utilization",
        "slot_utilization_by_link",
        "slot_used_by_link",
        "established",
        "horizon_s",
    )

    def __init__(
        self,
        requests: int,
        blocked_by_reason: dict[str, int],
        slot_utilization: np.ndarray,
        slot_utilization_by_link: dict[str, np.ndarray] | None = None,
        slot_used_by_link: dict[str, np.ndarray] | None = None,
        established: int = 0,
        horizon_s: float = 0.0,
    ) -> None:
        self._store(
            requests=requests,
            blocked_by_reason=blocked_by_reason,
            slot_utilization=slot_utilization,
            slot_utilization_by_link={} if slot_utilization_by_link is None else slot_utilization_by_link,
            slot_used_by_link={} if slot_used_by_link is None else slot_used_by_link,
            established=established,
            horizon_s=horizon_s,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplicationResult):
            return NotImplemented
        return results_equal(self, other)

    __hash__ = None

    @property
    def link_mean_utilization(self) -> dict[str, float]:
        """Mean carried-traffic utilization of each link."""
        import numpy as np

        return {link_id: float(np.mean(v)) for link_id, v in self.slot_used_by_link.items()}

    @property
    def total_blocked(self) -> int:
        return sum(self.blocked_by_reason.values())


def blocking_probability(result: ReplicationResult) -> float:
    """Blocked fraction of offered requests."""
    if result.requests == 0:
        raise ValueError("no data: replication offered zero requests")
    return result.total_blocked / result.requests


def utilization_ranking(results) -> list[tuple[str, float]]:
    """Links ordered by descending mean utilization over replications.

    Ties break on the link id so the ordering is deterministic; the
    most-used link is the first entry and the least-used the last.
    """
    if not results:
        raise ValueError("no replication results to rank")
    totals: dict[str, float] = {}
    for result in results:
        for link_id, value in result.link_mean_utilization.items():
            totals[link_id] = totals.get(link_id, 0.0) + value
    count = len(results)
    return sorted(
        ((link_id, total / count) for link_id, total in totals.items()),
        key=lambda item: (-item[1], item[0]),
    )


def slot_histogram(results) -> np.ndarray:
    """Per-slot utilization averaged over links and replications."""
    import numpy as np

    if not results:
        raise ValueError("no replication results to aggregate")
    return np.mean(np.stack([r.slot_utilization for r in results]), axis=0)


def results_equal(a: ReplicationResult, b: ReplicationResult) -> bool:
    """Exact (bitwise) equality of two replication results."""
    import numpy as np

    if a.requests != b.requests or a.established != b.established:
        return False
    if a.blocked_by_reason != b.blocked_by_reason:
        return False
    if a.horizon_s != b.horizon_s:
        return False
    if not np.array_equal(a.slot_utilization, b.slot_utilization):
        return False
    for field_name in ("slot_utilization_by_link", "slot_used_by_link"):
        left = getattr(a, field_name)
        right = getattr(b, field_name)
        if set(left) != set(right):
            return False
        if not all(np.array_equal(left[k], right[k]) for k in left):
            return False
    return True
