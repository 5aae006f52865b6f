"""Finite-dimensional toolkit for two-time quantum observables.

Builds two-time operators from Heisenberg-picture constituents, simulates the
two-point sequential-measurement protocol, quantifies how far a preparation
is from granting an observable a definite value (irreality, in nats), and
ships closed-form spin-1/2 and free-particle scenarios plus a CLI that
regenerates every scan deterministically.
"""

from .correlators import (
    CorrelatorInstance,
    LambdaReport,
    TwoTimeOperator,
    heisenberg_correlator,
    lambda_operator,
    prepare_eigenstate,
    qutrit_gap_fixture,
    realize,
    tpm_correlator,
    tpm_joint_distribution,
)
from .dynamics import ChannelFamily, KrausChannel, evolve_observable, evolve_state
from .gaussian import (
    FreeParticle,
    GaussianPrep,
    UncertaintyReport,
    displacement_stats,
    position_spread,
    uncertainty_report,
)
from .qcore import (
    SIGMA,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    DensityMatrix,
    Observable,
    binary_entropy,
    bloch_to_state,
    random_bloch_states,
    random_density_matrix,
    random_hermitian,
    relative_entropy,
    spectral_decompose,
    state_to_bloch,
    von_neumann_entropy,
)
from .realism import (
    ComplementarityReport,
    IrrealityReport,
    MinFormReport,
    complementarity_bound_check,
    dephase,
    irreality,
    min_form_check,
)
from .spinlab import (
    PrecessionConfig,
    TorquePair,
    bloch_lambda_nu,
    bound_rhs,
    figure1_scan,
    finite_torque,
    instantaneous_torque,
    pauli_heisenberg,
    precession_channel,
    row_angles,
    torque_irreality_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "ChannelFamily",
    "ComplementarityReport",
    "CorrelatorInstance",
    "DensityMatrix",
    "FreeParticle",
    "GaussianPrep",
    "IrrealityReport",
    "KrausChannel",
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
    "evolve_observable",
    "evolve_state",
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
    "random_bloch_states",
    "random_density_matrix",
    "random_hermitian",
    "realize",
    "relative_entropy",
    "row_angles",
    "spectral_decompose",
    "state_to_bloch",
    "tpm_correlator",
    "tpm_joint_distribution",
    "torque_irreality_pair",
    "uncertainty_report",
    "von_neumann_entropy",
]
