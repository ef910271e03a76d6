"""Fault-injection framework.

The paper's experimental methodology (Section VII) is: run the nested solver
once without faults, then rerun it once per possible injection location,
corrupting exactly one Hessenberg coefficient with a multiplicative error of
a chosen class.  This package generalizes that methodology:

* :mod:`repro.faults.models`    — what a corrupted value looks like
  (multiplicative scaling — the paper's three classes — plus bit flips,
  absolute overwrites, offsets, zeroing, NaN/Inf).  A model is a pure
  function ``corrupt(value, rng)``: a random bit comes from the trial's
  generator, which a campaign seeds from the problem seed and the trial's
  location, so it reproduces on every backend and on resume;
* :mod:`repro.faults.schedule`  — when and where the corruption strikes
  (site, aggregate inner iteration, MGS position, transient/sticky/persistent);
* :mod:`repro.faults.injector`  — the object solvers consult at every
  injection site (kernel outputs included: the ``spmv`` and ``precond``
  sites corrupt the operator and preconditioner products).  FT-GMRES hands
  it to the inner solves only, which is the paper's reliability model;
* :mod:`repro.faults.bitflip`   — IEEE-754 bit manipulation helpers;
* :mod:`repro.faults.campaign`  — sweep drivers that run a solver over every
  injection location and fault class (the engine behind Figures 3 and 4);
* :mod:`repro.faults.chaos`     — infrastructure fault injection (worker
  kills, hangs, torn store appends) for the sharded supervisor's tests.
"""

from repro.faults.bitflip import flip_bit, random_bit_flip
from repro.faults.models import (
    FaultModel,
    ScalingFault,
    AbsoluteFault,
    AdditiveFault,
    ZeroFault,
    NaNFault,
    InfFault,
    BitFlipFault,
    MultiBitFault,
    BurstFault,
    StuckAtFault,
    PAPER_FAULT_CLASSES,
)
from repro.faults.schedule import (
    KNOWN_SITES,
    FaultRateSchedule,
    InjectionSchedule,
    Persistence,
)
from repro.faults.injector import FaultInjector
from repro.faults.campaign import (
    CampaignResult,
    FaultCampaign,
    TrialRecord,
)
from repro.faults.chaos import ChaosError, ChaosPolicy

__all__ = [
    "flip_bit",
    "random_bit_flip",
    "FaultModel",
    "ScalingFault",
    "AbsoluteFault",
    "AdditiveFault",
    "ZeroFault",
    "NaNFault",
    "InfFault",
    "BitFlipFault",
    "MultiBitFault",
    "BurstFault",
    "StuckAtFault",
    "PAPER_FAULT_CLASSES",
    "KNOWN_SITES",
    "InjectionSchedule",
    "FaultRateSchedule",
    "Persistence",
    "FaultInjector",
    "CampaignResult",
    "ChaosError",
    "ChaosPolicy",
    "FaultCampaign",
    "TrialRecord",
]
