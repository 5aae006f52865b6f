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
from .dynamics import ChannelFamily
from .gaussian import (
    FreeParticle,
    GaussianPrep,
    UncertaintyReport,
    displacement_stats,
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
    random_density_matrix,
    random_hermitian,
    relative_entropy,
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
    instantaneous_torque,
    pauli_heisenberg,
    precession_channel,
    row_angles,
    torque_irreality_pair,
)

__version__ = "0.1.0"
