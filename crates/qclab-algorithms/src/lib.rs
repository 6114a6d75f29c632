//! # qclab-algorithms
//!
//! Quantum algorithm constructors built on `qclab-core`, covering the
//! four worked examples of the QCLAB paper (Sec. 5) plus the standard
//! algorithms used as benchmark workloads:
//!
//! * [`teleportation`] — paper Sec. 5.1 (mid-circuit measurements),
//! * [`tomography`](mod@tomography) — paper Sec. 5.2 (multi-basis measurement, `counts`),
//! * [`grover`] — paper Sec. 5.3 (modular blocks), generalized to `n`
//!   qubits with a success-probability sweep,
//! * [`qec`] — paper Sec. 5.4 (repetition codes, multi-controlled gates),
//! * [`qft`](mod@qft), [`phase_estimation`], [`ghz`], [`bernstein_vazirani`],
//!   [`deutsch_jozsa`] — further standard circuits.

pub mod amplitude_estimation;
pub mod bernstein_vazirani;
pub mod block_encoding;
pub mod deutsch_jozsa;
pub mod ghz;
pub mod grover;
pub mod phase_estimation;
pub mod qec;
pub mod qft;
pub mod state_preparation;
pub mod teleportation;
pub mod tomography;
pub mod trotter;
pub mod vqe;

pub use amplitude_estimation::{count_marked, estimate_amplitude, AmplitudeEstimate};
pub use bernstein_vazirani::bernstein_vazirani as bernstein_vazirani_circuit;
pub use block_encoding::{encoded_block, fable, BlockEncoding};
pub use deutsch_jozsa::{deutsch_jozsa as deutsch_jozsa_circuit, DjOracle};
pub use ghz::{bell_circuit, ghz_circuit};
pub use grover::{grover_circuit, grover_diffuser, grover_oracle, optimal_iterations};
pub use phase_estimation::{estimate_phase, phase_estimation_circuit};
pub use qec::{
    analytic_logical_error_rate, bit_flip_circuit, bit_flip_circuit_ancilla_reuse,
    correct_by_pauli_frame, logical_error_rate, majority_decode, phase_flip_circuit,
    repetition_code_circuit, shor_code_circuit, shor_code_fidelity, InjectedError, PauliError,
};
pub use qft::{iqft, qft};
pub use state_preparation::{prepare_and_verify, prepare_state};
pub use teleportation::{teleport, teleportation_circuit};
pub use tomography::{tomography, Tomography};
pub use trotter::{evolve, exact_evolution, trotter_step, TrotterOrder};
pub use vqe::{ansatz, energy, exact_ground_energy, vqe_minimize, VqeResult};
