"""Section VII-E summary statistics: the detector's effect on worst cases.

The paper summarizes its sweeps with a handful of headline numbers:

* faulting early in the first inner solve's orthogonalization is universally
  bad (33 % worst-case increase in time-to-solution for Poisson, 14 % for the
  circuit problem);
* with the Hessenberg-bound detector the worst-case increase in outer
  iterations is about 2; without it, about 5 (Poisson, combining first/last
  positions);
* typically one extra outer iteration is the penalty for a single SDC event.

:func:`summarize_campaign` condenses one campaign into those statistics and
:func:`detector_comparison` builds the with/without-detector comparison.

The statistics are computed through the
:class:`~repro.results.query.TrialQuery` filter/group/aggregate API, so they
work identically on a live :class:`~repro.faults.campaign.CampaignResult`
and on one rebuilt from a :class:`~repro.results.store.RunStore` — any
summary regenerates from a stored run with zero new solves.
"""

from __future__ import annotations

from repro.faults.campaign import CampaignResult

__all__ = ["summarize_campaign", "detector_comparison", "worst_case_increase"]


def worst_case_increase(campaign: CampaignResult, fault_classes=None) -> int:
    """Worst-case increase in outer iterations over the failure-free count."""
    query = campaign.query()
    if fault_classes is not None:
        query = query.filter(lambda t: t.fault_class in fault_classes)
    if not query:
        return 0
    return max(int(query.max("outer_iterations")) - campaign.failure_free_outer, 0)


def summarize_campaign(campaign: CampaignResult) -> dict:
    """Condense one campaign into the Section VII-E headline statistics.

    The shared worst/increase/percent/detection numbers come from
    :meth:`CampaignResult.summary` (the one implementation of those
    formulas); this adds the distribution statistics the Section VII-E text
    quotes on top.
    """
    baseline = campaign.failure_free_outer
    shared = campaign.summary()
    per_class = {}
    for cls, query in campaign.query().group_by("fault_class").items():
        stats = dict(shared[cls])
        del stats["trials"]
        per_class[cls] = {
            **stats,
            "median_increase": query.median("outer_iterations") - baseline,
            "fraction_no_penalty": query.rate(
                lambda t: t.outer_iterations <= baseline),
        }
    worst = worst_case_increase(campaign)
    return {
        "problem": campaign.problem_name,
        "mgs_position": campaign.mgs_position,
        "detector_enabled": campaign.detector_enabled,
        "failure_free_outer": campaign.failure_free_outer,
        "worst_case_increase": worst,
        "worst_case_percent": (100.0 * worst / campaign.failure_free_outer
                               if campaign.failure_free_outer else 0.0),
        "non_converged_trials": len(campaign.non_converged()),
        "per_class": per_class,
    }


def detector_comparison(without_detector: CampaignResult,
                        with_detector: CampaignResult) -> dict:
    """The paper's with/without-detector comparison for matching sweeps.

    Parameters
    ----------
    without_detector, with_detector : CampaignResult
        Two campaigns on the same problem and MGS position, differing only in
        whether the Hessenberg-bound detector (with a filtering response) was
        enabled for the inner solves.

    Returns
    -------
    dict
        Both summaries plus the headline claim check: the worst case with
        the detector should be no worse than without it.
    """
    summary_without = summarize_campaign(without_detector)
    summary_with = summarize_campaign(with_detector)
    return {
        "without_detector": summary_without,
        "with_detector": summary_with,
        "worst_case_without": summary_without["worst_case_increase"],
        "worst_case_with": summary_with["worst_case_increase"],
        "detector_helps": summary_with["worst_case_increase"]
        <= summary_without["worst_case_increase"],
    }
