"""Exact simulator for remote quantum processing by linear-combination
circuits: LCC postselection circuits, KAK/Cartan decompositions, the
teleportation-based client-server protocol with decoy-state privacy,
and process-tomography verification.
"""

from .qcore import (ATOL_ROUNDTRIP, ATOL_STRUCT, DimensionMismatchError,
                    HADAMARD, ID2, InvalidInputError, MeasurementOutcome,
                    PAULIS, QuantumState, SX, SY, SZ, apply_to_subsystems,
                    basis_state, format_matrix, format_state,
                    haar_random_unitary, is_unitary, kron, measure_postselect,
                    parse_matrix, parse_state, partial_trace, pauli_coefficients,
                    phase_aligned_distance, state_fidelity, statevector,
                    tensor, vector_phase_distance)
from .lcc import (LccRunResult, LinearCombinationSpec, build_control_state,
                  cu_linear_spec, embed_input, lcc_success_probability,
                  run_lcc, run_lcc_controlled_form, spec_from_json,
                  spec_to_json, subspace_swap, sum_operation)
from .kak import (DecompositionError, KakDecomposition, PauliDecomposition,
                  alphas_from_core, alphas_from_k, kak_decompose,
                  lcu_spec_from_kak, pauli_decompose, simultaneous_svd,
                  su8_two_term_combine)
from .gates import A_GATE, B_GATE, COMBINATIONS, GATES, combination_spec, gate
from .protocol import (ProtocolTranscript, RoundRecord, SendPolicy,
                       ServerBehavior, WitnessReport, cheating_server_state,
                       empirical_server_average, epr_pair,
                       intercept_detection_rate, make_decoy,
                       monte_carlo_success, no_cloning_witness, run_session,
                       schmidt_rank, success_probability_account,
                       teleport_corrected, teleport_postselected,
                       verify_decoy_identity)
from .tomography import (BASIS_LABELS, ChiMatrix, MleResult, PREP_LABELS,
                         TomographyDataset, bootstrap_fidelity,
                         depolarize_chi, ideal_chi, linear_inversion,
                         measurement_matrix, process_fidelity,
                         reconstruct_mle, simulate_dataset)

__version__ = "0.1.0"
