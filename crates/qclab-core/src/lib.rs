//! # qclab-core
//!
//! Quantum circuit construction and state-vector simulation — the Rust
//! equivalent of the MATLAB QCLAB object model (paper Secs. 2–3).
//!
//! * [`gates`] — the gate zoo and MATLAB-style factories,
//! * [`measurement`] — single-qubit measurements in Z/X/Y/custom bases,
//! * [`circuit`] — [`QCircuit`] with `push_back`,
//!   sub-circuits/blocks, adjoints and `to_matrix`,
//! * [`program`] — the compile/execute split: circuits lower once to a
//!   flat [`CompiledProgram`] IR (plan-cached by structural
//!   fingerprint) that every backend executes,
//! * [`sim`] — branching state-vector simulation on in-place kernels
//!   à la QCLAB++, with the sparse Kronecker product of QCLAB as its
//!   test oracle ([`sim::kron::simulate`]),
//! * [`reduced`] — reduced state vectors of partially measured registers.

pub mod circuit;
pub mod decompose;
pub mod error;
pub mod gates;
pub mod measurement;
pub mod observable;
pub mod optimize;
pub mod program;
pub mod reduced;
pub mod service;
pub mod sim;
pub mod synthesis;

pub use circuit::{CircuitItem, QCircuit};
pub use decompose::{controlled_to_basic, zyz, Zyz};
pub use error::QclabError;
pub use gates::Gate;
pub use measurement::{Basis, Measurement};
pub use observable::{Observable, Pauli, PauliString};
pub use optimize::{optimize, OptimizeStats};
pub use program::{
    BackendChoice, BackendRequest, CompiledProgram, PlanCacheStats, PlanOptions, PlanStats,
    ProgramOp, ShotPlan,
};
pub use reduced::{contract_qubit, reduced_statevector};
pub use service::{
    ErrorKind, JobError, JobHandle, JobOutput, JobResult, JobSpec, JobTelemetry, Scheduler,
    ServiceConfig, ServiceStats,
};
pub use sim::density::{DensityState, NoiseChannel, NoiseModel};
pub use sim::sparse::SparseState;
pub use sim::stabilizer::{run_stabilizer, MeasureOutcome, StabilizerRun, StabilizerState};
pub use sim::{Branch, RoutedState, SimOptions, Simulation};

/// Everything needed to write paper-style circuit code.
pub mod prelude {
    pub use crate::circuit::{CircuitItem, QCircuit};
    pub use crate::error::QclabError;
    pub use crate::gates::factories::*;
    pub use crate::gates::Gate;
    pub use crate::measurement::{Basis, Measurement};
    pub use crate::reduced::reduced_statevector;
    pub use crate::sim::{SimOptions, Simulation};
}
