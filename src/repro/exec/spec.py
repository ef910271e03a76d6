"""The unit of campaign work: a picklable trial spec.

The execution engine hands each worker the
:class:`~repro.faults.campaign.FaultCampaign` itself **once** (inherited
through fork, or pickled once per worker), so the test matrix, detector
bound and preconditioner factors reach a worker once, not once per trial.
The work itself is a stream of tiny :class:`TrialSpec` values — one per
faulted solve — partitioned into shards.  A trial spec is a plain frozen
dataclass, so it crosses process boundaries with any start method.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TrialSpec"]


@dataclass(frozen=True)
class TrialSpec:
    """One unit of campaign work: a single faulted nested solve.

    Attributes
    ----------
    index : int
        Position of this trial in the campaign's canonical (serial) order.
        Results are reassembled by this index, which is what makes parallel
        output trial-for-trial identical to serial output.
    fault_class : str
        Key into the campaign's ``fault_classes`` mapping.
    aggregate_inner_iteration : int
        The injection location (x-axis of the paper's Figures 3 and 4).
    """

    index: int
    fault_class: str
    aggregate_inner_iteration: int
