"""Identifiability and parameter reconstruction for open quantum systems.

The package converts GKSL generators into linear/bilinear coherence-vector
dynamics, tests identifiability of the sampled dynamics, rebuilds
continuous-time system matrices from multirate samples, and recovers the
Hamiltonian and Kossakowski parameters from the reconstructed drift.
"""

from .gksl import (
    CoherenceSystem,
    EmbeddedSystem,
    GkslParams,
    assemble_system,
    coherence_to_rho,
    embed_standard_form,
    liouvillian_superoperator,
    rho_to_coherence,
)
from .identify import (
    AccessibleSet,
    BilinearSpanResult,
    IdentifiabilityReport,
    LinearRankResult,
    SamplingPolicyReport,
    accessible_set,
    bilinear_span_test,
    hankel_matrix,
    identifiability_report,
    linear_rank_test,
    persistency_check,
    pulse_family_check,
    sampling_policy_check,
)
from .ldsrec import (
    ContinuousModel,
    DiscreteMultirateModel,
    SingleRateFamily,
    exact_multirate_model,
    fit_multirate,
    reconstruct_continuous,
    single_rate_models,
    van_loan_integral,
)
from .liealg import (
    LieBasis,
    SparsityReport,
    StructureTensors,
    build_basis,
    pauli_words,
    structure_constants,
    verify_sparsity,
)
from .paramrec import (
    GammaIndexMap,
    ReconstructionMatrices,
    RecoveredParams,
    build_reconstruction_matrices,
    error_bound,
    reconstruct_general,
    reconstruct_symmetric,
)
from .simulate import (
    MeasurementRecord,
    Pulse,
    SamplingSchedule,
    golden_schedule,
    make_pulse_family,
    simulate,
)
from .jsonio import (
    SchemaError,
    read_basis,
    read_contsys,
    read_model,
    read_params,
    read_params_hat,
    read_pulses,
    read_record,
    read_report,
    read_schedule,
    read_system,
    write_basis,
    write_contsys,
    write_model,
    write_params,
    write_params_hat,
    write_pulses,
    write_record,
    write_report,
    write_schedule,
    write_system,
)

__version__ = "0.1.0"
