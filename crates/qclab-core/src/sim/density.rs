//! Density-matrix simulation with noise channels.
//!
//! Extends the toolbox beyond the paper's pure-state simulator so that
//! noisy circuits — the regime QEC (paper Sec. 5.4) actually targets —
//! can be studied quantitatively. The density matrix is stored
//! **vectorized**: `ρ` on `n` qubits becomes a `4^n` vector indexed by a
//! `2n`-qubit register (row qubits `0..n`, column qubits `n..2n`), so
//! `ρ → U ρ U†` reuses the optimized state-vector kernels verbatim —
//! apply `U` on the row qubits and `U*` on the column qubits. Kraus
//! channels `ρ → Σ K_i ρ K_i†` apply each (non-unitary) `K_i` the same
//! way and sum. [`run_noisy`] is the one circuit entry, under an
//! [`ExecutionControl`].
//!
//! ```
//! use qclab_core::sim::density::{DensityState, NoiseChannel};
//! use qclab_math::CVec;
//!
//! // a pure |0> decoheres toward maximally mixed under depolarizing noise
//! let mut rho = DensityState::from_pure(&CVec::basis_state(2, 0));
//! assert!((rho.purity() - 1.0).abs() < 1e-12);
//! rho.apply_channel(0, &NoiseChannel::Depolarizing(0.3));
//! assert!(rho.purity() < 1.0);
//! assert!((rho.trace().re - 1.0).abs() < 1e-12); // trace preserved
//! ```

use crate::circuit::QCircuit;
use crate::error::QclabError;
use crate::gates::Gate;
use crate::program::{PlanOptions, ProgramOp};
use crate::sim::control::ExecutionControl;
use crate::sim::kernel::{self, KernelConfig};
use qclab_math::scalar::{cr, zero, C64};
use qclab_math::{CMat, CVec, DensityMatrix};

/// A standard single-qubit noise channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NoiseChannel {
    /// X with probability `p`.
    BitFlip(f64),
    /// Z with probability `p`.
    PhaseFlip(f64),
    /// X, Y or Z each with probability `p/3`.
    Depolarizing(f64),
    /// Energy relaxation `|1> → |0>` with probability `gamma`.
    AmplitudeDamping(f64),
}

impl NoiseChannel {
    /// The error probability (or damping rate) of the channel.
    pub fn probability(&self) -> f64 {
        match *self {
            NoiseChannel::BitFlip(p)
            | NoiseChannel::PhaseFlip(p)
            | NoiseChannel::Depolarizing(p)
            | NoiseChannel::AmplitudeDamping(p) => p,
        }
    }

    /// Checks that the probability lies in `[0, 1]` — [`kraus`](Self::kraus)
    /// requires this, so validate before building channels from user input.
    pub fn validate(&self) -> Result<(), QclabError> {
        let p = self.probability();
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(())
        } else {
            Err(QclabError::InvalidNoiseSpec(format!(
                "channel probability {p} outside [0, 1]"
            )))
        }
    }

    /// The Kraus operators of the channel (`Σ K_i† K_i = I`).
    pub fn kraus(&self) -> Vec<CMat> {
        use crate::gates::matrices as m;
        match *self {
            NoiseChannel::BitFlip(p) => {
                assert!((0.0..=1.0).contains(&p));
                vec![
                    CMat::identity(2).scale(cr((1.0 - p).sqrt())),
                    m::pauli_x().scale(cr(p.sqrt())),
                ]
            }
            NoiseChannel::PhaseFlip(p) => {
                assert!((0.0..=1.0).contains(&p));
                vec![
                    CMat::identity(2).scale(cr((1.0 - p).sqrt())),
                    m::pauli_z().scale(cr(p.sqrt())),
                ]
            }
            NoiseChannel::Depolarizing(p) => {
                assert!((0.0..=1.0).contains(&p));
                let q = (p / 3.0).sqrt();
                vec![
                    CMat::identity(2).scale(cr((1.0 - p).sqrt())),
                    m::pauli_x().scale(cr(q)),
                    m::pauli_y().scale(cr(q)),
                    m::pauli_z().scale(cr(q)),
                ]
            }
            NoiseChannel::AmplitudeDamping(gamma) => {
                assert!((0.0..=1.0).contains(&gamma));
                vec![
                    CMat::mat2(cr(1.0), cr(0.0), cr(0.0), cr((1.0 - gamma).sqrt())),
                    CMat::mat2(cr(0.0), cr(gamma.sqrt()), cr(0.0), cr(0.0)),
                ]
            }
        }
    }
}

/// A density matrix in vectorized form, evolving under gates and
/// channels.
#[derive(Clone, Debug)]
pub struct DensityState {
    nb_qubits: usize,
    /// `4^n` amplitudes: entry `i * 2^n + j` is `ρ[i][j]`.
    vec: CVec,
}

impl DensityState {
    /// Initializes `ρ = |ψ⟩⟨ψ|` after checking the `4^n` allocation
    /// against `limits` (the density matrix lives on a doubled register,
    /// so under the default limits this refuses registers the trajectory
    /// backend still handles comfortably).
    pub fn try_from_pure(
        psi: &CVec,
        limits: &crate::sim::guard::ResourceLimits,
    ) -> Result<Self, QclabError> {
        limits.check_matrix(psi.nb_qubits())?;
        Ok(Self::from_pure(psi))
    }

    /// Initializes `ρ = |ψ⟩⟨ψ|`.
    pub fn from_pure(psi: &CVec) -> Self {
        let n = psi.nb_qubits();
        let dim = psi.len();
        let mut vec = CVec::zeros(dim * dim);
        for i in 0..dim {
            for j in 0..dim {
                vec[i * dim + j] = psi[i] * psi[j].conj();
            }
        }
        DensityState { nb_qubits: n, vec }
    }

    /// Initializes from an explicit density matrix.
    pub fn from_density_matrix(rho: &DensityMatrix) -> Self {
        let n = rho.nb_qubits();
        let dim = rho.dim();
        let mut vec = CVec::zeros(dim * dim);
        for i in 0..dim {
            for j in 0..dim {
                vec[i * dim + j] = rho.matrix()[(i, j)];
            }
        }
        DensityState { nb_qubits: n, vec }
    }

    /// Number of qubits.
    pub fn nb_qubits(&self) -> usize {
        self.nb_qubits
    }

    /// Extracts the density matrix.
    pub fn to_density_matrix(&self) -> DensityMatrix {
        let dim = 1usize << self.nb_qubits;
        let m = CMat::from_fn(dim, dim, |i, j| self.vec[i * dim + j]);
        DensityMatrix::from_matrix(m)
    }

    /// `Tr ρ` (1 for a physical state; preserved by gates and channels).
    pub fn trace(&self) -> C64 {
        let dim = 1usize << self.nb_qubits;
        (0..dim).map(|i| self.vec[i * dim + i]).sum()
    }

    /// Purity `Tr ρ²` — computable directly from the vectorization as
    /// the squared 2-norm.
    pub fn purity(&self) -> f64 {
        self.vec.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Fidelity `⟨ψ|ρ|ψ⟩` with a pure state.
    pub fn fidelity_with_pure(&self, psi: &CVec) -> f64 {
        let dim = 1usize << self.nb_qubits;
        assert_eq!(psi.len(), dim);
        let mut acc = zero();
        for i in 0..dim {
            for j in 0..dim {
                acc += psi[i].conj() * self.vec[i * dim + j] * psi[j];
            }
        }
        acc.re
    }

    /// Applies a unitary gate: `ρ → U ρ U†` via the state-vector kernels
    /// on the doubled register.
    pub fn apply_gate(&mut self, gate: &Gate) {
        let n = self.nb_qubits;
        let nn = 2 * n;
        // U on the row qubits
        kernel::apply_gate(gate, &mut self.vec, nn, &KernelConfig::default());
        // U* on the column qubits
        let conj = conjugated_gate(gate).shifted(n);
        kernel::apply_gate(&conj, &mut self.vec, nn, &KernelConfig::default());
    }

    /// Applies a single-qubit Kraus channel to `qubit`:
    /// `ρ → Σ K_i ρ K_i†`.
    pub fn apply_channel(&mut self, qubit: usize, channel: &NoiseChannel) {
        self.apply_kraus(qubit, &channel.kraus());
    }

    /// Applies arbitrary single-qubit Kraus operators to `qubit`.
    pub fn apply_kraus(&mut self, qubit: usize, kraus: &[CMat]) {
        assert!(qubit < self.nb_qubits);
        let n = self.nb_qubits;
        let nn = 2 * n;
        let mut acc = CVec::zeros(self.vec.len());
        for k in kraus {
            assert_eq!(k.rows(), 2, "single-qubit Kraus operator expected");
            let mut term = self.vec.clone();
            let left = Gate::Custom {
                name: "K".into(),
                qubits: vec![qubit],
                matrix: k.clone(),
            };
            let right = Gate::Custom {
                name: "K*".into(),
                qubits: vec![qubit + n],
                matrix: k.conj(),
            };
            kernel::apply_gate(&left, &mut term, nn, &KernelConfig::default());
            kernel::apply_gate(&right, &mut term, nn, &KernelConfig::default());
            for (a, t) in acc.iter_mut().zip(term.iter()) {
                *a += t;
            }
        }
        self.vec = acc;
    }

    /// Born probabilities `(P(0), P(1))` of a Z measurement of `qubit`
    /// (no collapse).
    pub fn measure_probabilities(&self, qubit: usize) -> (f64, f64) {
        let dim = 1usize << self.nb_qubits;
        let mut p0 = 0.0;
        let mut p1 = 0.0;
        for i in 0..dim {
            let d = self.vec[i * dim + i].re;
            if qclab_math::bits::qubit_bit(i, qubit, self.nb_qubits) == 0 {
                p0 += d;
            } else {
                p1 += d;
            }
        }
        (p0, p1)
    }

    /// Non-selective Z measurement (decoherence in the computational
    /// basis): `ρ → P₀ρP₀ + P₁ρP₁`.
    pub fn dephase_measure(&mut self, qubit: usize) {
        let p0 = CMat::diag(&[cr(1.0), cr(0.0)]);
        let p1 = CMat::diag(&[cr(0.0), cr(1.0)]);
        self.apply_kraus(qubit, &[p0, p1]);
    }

    /// Reset of `qubit` to `|0⟩` (the channel `Σ |0⟩⟨b| ρ |b⟩⟨0|`).
    pub fn reset(&mut self, qubit: usize) {
        let k0 = CMat::mat2(cr(1.0), cr(0.0), cr(0.0), cr(0.0));
        let k1 = CMat::mat2(cr(0.0), cr(1.0), cr(0.0), cr(0.0));
        self.apply_kraus(qubit, &[k0, k1]);
    }
}

/// The gate with its target matrix complex-conjugated (controls kept),
/// used for the column-space half of `ρ → U ρ U†`.
fn conjugated_gate(g: &Gate) -> Gate {
    let conj = Gate::Custom {
        name: format!("{}*", g.name()),
        qubits: g.targets(),
        matrix: g.target_matrix().conj(),
    };
    let controls = g.controls();
    if controls.is_empty() {
        conj
    } else {
        let (qs, ss): (Vec<usize>, Vec<u8>) = controls.into_iter().unzip();
        Gate::Controlled {
            controls: qs,
            control_states: ss,
            target: Box::new(conj),
        }
    }
}

/// Per-gate noise specification for [`run_noisy`]: the channel is applied
/// to every qubit a gate touches, right after the gate.
#[derive(Clone, Copy, Debug)]
pub struct NoiseModel {
    /// Channel applied after every gate (per touched qubit).
    pub after_gate: Option<NoiseChannel>,
}

/// Runs a circuit on a density matrix: gates evolve `ρ` unitarily
/// (plus the noise model), measurements dephase non-selectively, resets
/// re-initialize. Returns the final [`DensityState`]. The per-op loop
/// polls `control` at op boundaries, so a long density run stops
/// cooperatively with [`QclabError::DeadlineExceeded`] /
/// [`QclabError::Cancelled`].
pub fn run_noisy(
    circuit: &QCircuit,
    initial: &DensityState,
    noise: &NoiseModel,
    control: &ExecutionControl,
) -> Result<DensityState, QclabError> {
    if let Some(ch) = noise.after_gate {
        ch.validate()?;
    }
    let mut state = initial.clone();
    // lower unfused: the noise model attaches a channel to every gate,
    // so fusing gates would change the noise locations
    let program = crate::program::compile(circuit, &PlanOptions::unfused());
    let mut ticker = control.ticker();
    for op in program.ops() {
        match op {
            ProgramOp::Gate(g) => {
                state.apply_gate(g);
                if let Some(ch) = noise.after_gate {
                    for q in g.qubits() {
                        state.apply_channel(q, &ch);
                    }
                }
            }
            ProgramOp::Fence(_) => {}
            ProgramOp::Measure(m) => state.dephase_measure(m.qubit()),
            ProgramOp::Reset(q) => state.reset(*q),
            // unfused lowering never relabels (PlanOptions::unfused()
            // switches the locality pass off with fusion)
            ProgramOp::Permute { .. } => {
                unreachable!("density backend executes unremapped plans only")
            }
        }
        ticker.tick()?;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::factories::*;
    use qclab_math::scalar::c;

    const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    fn paper_v() -> CVec {
        CVec(vec![cr(INV_SQRT2), c(0.0, INV_SQRT2)])
    }

    #[test]
    fn pure_state_round_trip() {
        let ds = DensityState::from_pure(&paper_v());
        assert!((ds.trace().re - 1.0).abs() < 1e-14);
        assert!((ds.purity() - 1.0).abs() < 1e-14);
        let rho = ds.to_density_matrix();
        assert!((rho.fidelity_with_pure(&paper_v()) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        // evolve both representations through the same circuit
        let gates = vec![
            Hadamard::new(0),
            CNOT::new(0, 1),
            RotationY::new(1, 0.7),
            CZ::new(1, 0),
            TGate::new(0),
        ];
        let mut psi = CVec::basis_state(4, 0);
        let mut ds = DensityState::from_pure(&psi);
        for g in &gates {
            kernel::apply_gate(g, &mut psi, 2, &KernelConfig::default());
            ds.apply_gate(g);
        }
        assert!((ds.fidelity_with_pure(&psi) - 1.0).abs() < 1e-12);
        assert!((ds.purity() - 1.0).abs() < 1e-12);
        assert!((ds.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kraus_completeness_for_all_channels() {
        for ch in [
            NoiseChannel::BitFlip(0.13),
            NoiseChannel::PhaseFlip(0.4),
            NoiseChannel::Depolarizing(0.2),
            NoiseChannel::AmplitudeDamping(0.35),
        ] {
            let mut sum = CMat::zeros(2, 2);
            for k in ch.kraus() {
                sum = &sum + &k.dagger().matmul(&k);
            }
            assert!(sum.is_identity(1e-12), "Kraus not complete for {ch:?}");
        }
    }

    #[test]
    fn channels_preserve_trace_and_physicality() {
        for ch in [
            NoiseChannel::BitFlip(0.2),
            NoiseChannel::PhaseFlip(0.3),
            NoiseChannel::Depolarizing(0.5),
            NoiseChannel::AmplitudeDamping(0.4),
        ] {
            let mut ds = DensityState::from_pure(&paper_v().kron(&CVec::basis_state(2, 0)));
            ds.apply_channel(0, &ch);
            ds.apply_channel(1, &ch);
            assert!(
                (ds.trace().re - 1.0).abs() < 1e-12,
                "{ch:?} broke the trace"
            );
            assert!(
                ds.to_density_matrix().is_physical(1e-10),
                "{ch:?} unphysical"
            );
        }
    }

    #[test]
    fn bit_flip_probability_one_is_x() {
        let mut ds = DensityState::from_pure(&CVec::basis_state(2, 0));
        ds.apply_channel(0, &NoiseChannel::BitFlip(1.0));
        let (p0, p1) = ds.measure_probabilities(0);
        assert!(p0.abs() < 1e-14);
        assert!((p1 - 1.0).abs() < 1e-14);
        assert!((ds.purity() - 1.0).abs() < 1e-13);
    }

    #[test]
    fn depolarizing_drives_to_maximally_mixed() {
        let mut ds = DensityState::from_pure(&CVec::basis_state(2, 0));
        for _ in 0..60 {
            ds.apply_channel(0, &NoiseChannel::Depolarizing(0.3));
        }
        let rho = ds.to_density_matrix();
        assert!(rho
            .matrix()
            .approx_eq(DensityMatrix::maximally_mixed(1).matrix(), 1e-6));
    }

    #[test]
    fn amplitude_damping_relaxes_excited_state() {
        let mut ds = DensityState::from_pure(&CVec::basis_state(2, 1));
        for _ in 0..80 {
            ds.apply_channel(0, &NoiseChannel::AmplitudeDamping(0.2));
        }
        let (p0, _) = ds.measure_probabilities(0);
        assert!(p0 > 1.0 - 1e-6);
    }

    #[test]
    fn phase_flip_destroys_coherence_not_populations() {
        let plus = CVec(vec![cr(INV_SQRT2), cr(INV_SQRT2)]);
        let mut ds = DensityState::from_pure(&plus);
        ds.apply_channel(0, &NoiseChannel::PhaseFlip(0.5)); // full dephasing
        let rho = ds.to_density_matrix();
        assert!(rho.matrix()[(0, 1)].norm() < 1e-14);
        assert!((rho.matrix()[(0, 0)].re - 0.5).abs() < 1e-14);
        assert!((ds.purity() - 0.5).abs() < 1e-13);
    }

    #[test]
    fn nonselective_measurement_and_reset() {
        let plus = CVec(vec![cr(INV_SQRT2), cr(INV_SQRT2)]);
        let mut ds = DensityState::from_pure(&plus);
        ds.dephase_measure(0);
        assert!((ds.purity() - 0.5).abs() < 1e-13);
        ds.reset(0);
        let (p0, _) = ds.measure_probabilities(0);
        assert!((p0 - 1.0).abs() < 1e-13);
        assert!((ds.purity() - 1.0).abs() < 1e-13);
    }

    #[test]
    fn noiseless_run_matches_pure_simulation() {
        let mut circuit = QCircuit::new(2);
        circuit.push_back(Hadamard::new(0));
        circuit.push_back(CNOT::new(0, 1));
        let init = DensityState::from_pure(&CVec::basis_state(4, 0));
        let out = run_noisy(
            &circuit,
            &init,
            &NoiseModel { after_gate: None },
            &ExecutionControl::none(),
        )
        .unwrap();
        let bell = CVec(vec![cr(INV_SQRT2), cr(0.0), cr(0.0), cr(INV_SQRT2)]);
        assert!((out.fidelity_with_pure(&bell) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_run_degrades_fidelity_monotonically() {
        let mut circuit = QCircuit::new(2);
        circuit.push_back(Hadamard::new(0));
        circuit.push_back(CNOT::new(0, 1));
        let bell = CVec(vec![cr(INV_SQRT2), cr(0.0), cr(0.0), cr(INV_SQRT2)]);
        let init = DensityState::from_pure(&CVec::basis_state(4, 0));
        let mut last = 1.1;
        for p in [0.0, 0.01, 0.05, 0.15] {
            let noise = NoiseModel {
                after_gate: Some(NoiseChannel::Depolarizing(p)),
            };
            let out = run_noisy(&circuit, &init, &noise, &ExecutionControl::none()).unwrap();
            let f = out.fidelity_with_pure(&bell);
            assert!(f < last, "fidelity did not degrade at p = {p}");
            last = f;
        }
    }
}
