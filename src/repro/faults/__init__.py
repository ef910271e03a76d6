"""Fault-injection framework.

The paper's experimental methodology (Section VII) is: run the nested solver
once without faults, then rerun it once per possible injection location,
corrupting exactly one Hessenberg coefficient with a multiplicative error of
a chosen class.  This package generalizes that methodology:

* :mod:`repro.faults.models`    — what a corrupted value looks like
  (multiplicative scaling — the paper's three classes — plus bit flips,
  absolute overwrites, offsets, zeroing, NaN/Inf);
* :mod:`repro.faults.schedule`  — when and where the corruption strikes
  (site, aggregate inner iteration, MGS position, transient/sticky/persistent);
* :mod:`repro.faults.injector`  — the object solvers consult at every
  injection site (kernel outputs included: the ``spmv`` and ``precond``
  sites corrupt the operator and preconditioner products);
* :mod:`repro.faults.sandbox`   — the sandbox reliability model: injectors
  attached to a sandbox only act while the sandbox is active;
* :mod:`repro.faults.bitflip`   — IEEE-754 bit manipulation helpers;
* :mod:`repro.faults.campaign`  — sweep drivers that run a solver over every
  injection location and fault class (the engine behind Figures 3 and 4);
* :mod:`repro.faults.chaos`     — infrastructure fault injection (worker
  kills, hangs, torn store appends) for the sharded supervisor's tests.
"""

from repro.faults.bitflip import flip_bit, flip_bit_in_array, random_bit_flip
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
from repro.faults.injector import FaultInjector, NullInjector
from repro.faults.sandbox import Sandbox, reliable_region
from repro.faults.campaign import (
    CampaignResult,
    FaultCampaign,
    TrialRecord,
    sweep_injection_locations,
)
from repro.faults.chaos import ChaosError, ChaosPolicy

__all__ = [
    "flip_bit",
    "flip_bit_in_array",
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
    "NullInjector",
    "Sandbox",
    "reliable_region",
    "CampaignResult",
    "ChaosError",
    "ChaosPolicy",
    "FaultCampaign",
    "TrialRecord",
    "sweep_injection_locations",
]
