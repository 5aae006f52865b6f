"""The public surface: the names the ``twotime`` package re-exports, pinned as one sorted list
so that adding or dropping a name shows as an explicit diff of this file."""

import types

import twotime

PUBLIC_NAMES = [
    "BlochVector",
    "ChannelFamily",
    "ComplementarityReport",
    "CorrelatorInstance",
    "DensityMatrix",
    "FreeParticle",
    "GaussianPrep",
    "IrrealityReport",
    "LambdaReport",
    "MinFormReport",
    "Observable",
    "PrecessionConfig",
    "SIGMA",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "TorquePair",
    "TwoTimeOperator",
    "UncertaintyReport",
    "binary_entropy",
    "bloch_lambda_nu",
    "bloch_to_state",
    "bound_rhs",
    "complementarity_bound_check",
    "dephase",
    "displacement_stats",
    "figure1_scan",
    "finite_torque",
    "heisenberg_correlator",
    "instantaneous_torque",
    "irreality",
    "lambda_operator",
    "min_form_check",
    "pauli_heisenberg",
    "position_spread",
    "precession_channel",
    "prepare_eigenstate",
    "qutrit_gap_fixture",
    "random_density_matrix",
    "random_hermitian",
    "realize",
    "relative_entropy",
    "row_angles",
    "torque_irreality_pair",
    "tpm_correlator",
    "tpm_joint_distribution",
    "uncertainty_report",
    "von_neumann_entropy",
]


def test_package_reexports_exactly_the_pinned_public_names():
    # Submodules (``twotime.cli`` appears once some test imports it) are not re-exports.
    names = [name for name, value in vars(twotime).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(names) == PUBLIC_NAMES
