"""Stepwise multiple-testing procedures controlling k-FWER and k-FDR.

Critical-value schedules through the k-th order joint null distribution F_k
of the p-values, a stepup/stepdown engine, F_k models (equicorrelated, or an
empirical ``x,fk`` grid) with inversion and a reproducible Monte Carlo harness.
``make_schedule(name, n, k, alpha, model)`` builds the schedule of every
named procedure in ``kfdr.schedules.PROCEDURES``; ``rescaled_stepup``
builds one from an arbitrary base sequence.
"""

from .engine import DecisionOutcome, PValueSample, decide, k_fdp, sample_from
from .fk_models import (
    FkModel,
    equicorrelated_fk,
    fk_eval,
    fk_invert,
    independent_fk,
    load_empirical_csv,
    save_empirical_csv,
)
from .schedules import CriticalValueSchedule, make_schedule, rescaled_stepup
from .simulation import (
    ProcedureEstimates,
    SimulationConfig,
    SimulationSummary,
    counterexample_bound,
    draw_sample,
    figure_sweep,
    run_experiment,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalValueSchedule",
    "DecisionOutcome",
    "FkModel",
    "PValueSample",
    "ProcedureEstimates",
    "SimulationConfig",
    "SimulationSummary",
    "counterexample_bound",
    "decide",
    "draw_sample",
    "equicorrelated_fk",
    "figure_sweep",
    "fk_eval",
    "fk_invert",
    "independent_fk",
    "k_fdp",
    "load_empirical_csv",
    "make_schedule",
    "rescaled_stepup",
    "run_experiment",
    "sample_from",
    "save_empirical_csv",
    "write_sweep_csv",
]
