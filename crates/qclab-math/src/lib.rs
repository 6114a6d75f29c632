//! # qclab-math
//!
//! Complex linear-algebra substrate for the `qclab` workspace.
//!
//! QCLAB, the MATLAB toolbox this workspace reproduces, leans on MATLAB's
//! built-in dense and sparse complex linear algebra. This crate provides the
//! equivalent foundation in pure Rust:
//!
//! * [`scalar`] — the `C64` complex scalar and tolerance-aware comparisons,
//! * [`dense`] — dense complex matrices ([`CMat`]) with the operations a
//!   state-vector simulator needs (products, adjoints, Kronecker products,
//!   unitarity checks),
//! * [`vector`] — complex vectors ([`CVec`]) used as quantum state vectors,
//! * [`sparse`] — compressed-sparse-row matrices ([`CsrMat`]) mirroring the
//!   sparse extended-unitary representation QCLAB builds for gate
//!   application,
//! * [`eig`] — a cyclic Jacobi eigensolver for Hermitian matrices,
//! * [`density`] — density matrices, trace distance and fidelity,
//! * [`bits`] — the bit-manipulation helpers QCLAB uses to index basis
//!   states during measurement and collapse,
//! * [`rng`] — the seeded generator every sampled bit is drawn from.
//!
//! Everything here is deterministic and allocation-conscious; the simulator
//! hot paths in `qclab-core` build directly on these types.

pub mod bits;
pub mod dense;
pub mod density;
pub mod eig;
pub mod rng;
pub mod scalar;
pub mod sparse;
pub mod vector;

pub use dense::CMat;
pub use density::DensityMatrix;
pub use scalar::{approx_eq_c, approx_eq_f, C64, DEFAULT_TOL};
pub use sparse::CsrMat;
pub use vector::CVec;
