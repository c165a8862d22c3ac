"""The package's Python contract: the names ``uwfde`` exports."""

import uwfde

CONTRACT = {"SimConfig", "GridPoint", "BerRecord", "ExperimentResult",
            "run_ber_sweep", "run_convergence", "run_placement_sweep",
            "run_multirelay", "SvParams", "sv_profile"}


def test_star_import_binds_exactly_the_contract():
    namespace = {}
    exec("from uwfde import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == CONTRACT
    assert sorted(uwfde.__all__) == sorted(CONTRACT)
