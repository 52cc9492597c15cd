"""Stepwise multiple-testing procedures controlling k-FWER and k-FDR.

Critical-value schedules defined through the k-th order joint null
distribution of the p-values, a stepup/stepdown decision engine, joint null
models with numerical inversion and a reproducible Monte Carlo harness.
"""

from .engine import DecisionOutcome, PValueSample, decide, k_fdp, sample_from
from .fk_models import (
    FkModel,
    equicorrelated_fk,
    fit_empirical_fk,
    fk_eval,
    fk_invert,
    independent_fk,
    load_empirical_csv,
    save_empirical_csv,
)
from .numerics import (
    equicorrelated_min_survivor,
    invert_min_survivor,
    std_normal_cdf,
    std_normal_quantile,
)
from .schedules import (
    CriticalValueSchedule,
    bh_classic,
    gen_bh,
    gen_by,
    gen_hochberg_stepup,
    gen_holm_stepdown,
    gen_simes,
    lehmann_romano_stepdown,
    make_schedule,
    rescaled_stepup,
    s_prime,
)
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
    "bh_classic",
    "counterexample_bound",
    "decide",
    "draw_sample",
    "equicorrelated_fk",
    "equicorrelated_min_survivor",
    "figure_sweep",
    "fit_empirical_fk",
    "fk_eval",
    "fk_invert",
    "gen_bh",
    "gen_by",
    "gen_hochberg_stepup",
    "gen_holm_stepdown",
    "gen_simes",
    "independent_fk",
    "invert_min_survivor",
    "k_fdp",
    "lehmann_romano_stepdown",
    "load_empirical_csv",
    "make_schedule",
    "rescaled_stepup",
    "run_experiment",
    "s_prime",
    "sample_from",
    "save_empirical_csv",
    "std_normal_cdf",
    "std_normal_quantile",
    "write_sweep_csv",
]
