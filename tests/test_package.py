import kfdr

PUBLIC = [
    "CriticalValueSchedule", "DecisionOutcome", "FkModel", "PValueSample", "ProcedureEstimates",
    "SimulationConfig", "SimulationSummary", "counterexample_bound", "decide", "draw_sample",
    "equicorrelated_fk", "figure_sweep", "fk_eval", "fk_invert",
    "independent_fk", "k_fdp", "load_empirical_csv", "make_schedule", "rescaled_stepup",
    "run_experiment", "sample_from", "save_empirical_csv", "write_sweep_csv",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(kfdr.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(kfdr, name)
