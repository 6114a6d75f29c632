//! # qclab
//!
//! A Rust reproduction of **QCLAB** (Keip, Camps, Van Beeumen, 2025): an
//! object-oriented toolbox for constructing, representing and simulating
//! quantum circuits, with ASCII/LaTeX visualization and OpenQASM export.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`math`] — complex dense/sparse linear algebra substrate,
//! * [`core`] — gates, circuits, measurements, state-vector simulation,
//! * [`qasm`] — OpenQASM 2.0 export and import,
//! * [`draw`] — terminal and LaTeX circuit rendering,
//! * [`algorithms`] — teleportation, tomography, Grover, QEC, QFT, …
//!
//! ## Quickstart
//!
//! The paper's running example — a Bell circuit with measurements —
//! translates almost verbatim:
//!
//! ```
//! use qclab::prelude::*;
//!
//! let mut circuit = QCircuit::new(2);
//! circuit.push_back(Hadamard::new(0));
//! circuit.push_back(CNOT::new(0, 1));
//! circuit.push_back(Measurement::z(0));
//! circuit.push_back(Measurement::z(1));
//!
//! let simulation = circuit.simulate_bitstring("00").unwrap();
//! assert_eq!(simulation.results(), &["00", "11"]);
//! assert!((simulation.probabilities()[0] - 0.5).abs() < 1e-12);
//! ```

pub use qclab_algorithms as algorithms;
pub use qclab_core as core;
pub use qclab_draw as draw;
pub use qclab_math as math;
pub use qclab_qasm as qasm;

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// Convenience re-exports covering the whole public API surface.
pub mod prelude {
    pub use qclab_core::prelude::*;
    pub use qclab_draw::{draw_circuit, to_tex};
    pub use qclab_math::{CMat, CVec, DensityMatrix, C64};
    pub use qclab_qasm::{from_qasm, to_qasm};
}
