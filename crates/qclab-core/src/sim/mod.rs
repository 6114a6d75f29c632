//! Full state-vector simulation with mid-circuit measurement branching
//! (paper Sec. 3).
//!
//! A simulation starts from one branch (the initial state with probability
//! 1). Unitary items evolve every live branch; each measurement splits a
//! branch into the outcomes with nonzero probability, exactly as the paper
//! describes: "the system is described by a probabilistic distribution
//! over the possible post-measurement states". The final [`Simulation`]
//! exposes per-branch results, probabilities and state vectors, sampled
//! `counts`, and reduced states of unmeasured qubits.
//!
//! Two interchangeable gate-application backends are provided:
//! [`Backend::Kron`] (sparse extended unitary — the MATLAB QCLAB
//! strategy) and [`Backend::Kernel`] (in-place kernels — the QCLAB++
//! strategy). They are property-tested against each other
//! (`tests/backend_equivalence.rs`); their speed gap is recorded in
//! EXPERIMENTS.md F1.

pub mod bytecode;
pub mod collapse;
pub mod control;
pub mod density;
pub mod frame;
pub mod fusion;
pub mod guard;
pub mod kernel;
pub mod kron;
pub mod sampler;
pub(crate) mod simd;
pub mod sparse;
pub mod stabilizer;
pub mod trajectory;
pub mod walk;

use crate::circuit::QCircuit;
use crate::error::QclabError;
use crate::gates::Gate;
use crate::measurement::{Basis, Measurement};
use crate::program::{self, BackendChoice, BackendRequest, PlanOptions, ProgramOp};
use crate::reduced::contract_qubit;
use qclab_math::CVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Gate-application strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Build the sparse register-wide unitary per gate and multiply
    /// (MATLAB QCLAB, paper Sec. 3.2).
    Kron,
    /// Apply gates in place with specialized kernels (QCLAB++).
    Kernel,
}

/// Options controlling a simulation run.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Gate-application backend (default: [`Backend::Kernel`]).
    pub backend: Backend,
    /// Measurement outcomes with probability below this threshold are
    /// pruned instead of spawning a branch.
    pub branch_tol: f64,
    /// Kernel dispatch configuration: the gate-fusion pre-pass
    /// (`kernel.fuse` / `kernel.max_fused_qubits`, honoured by both
    /// backends) and the locality pass and parallel/SIMD switches
    /// (kernel backend only).
    pub kernel: kernel::KernelConfig,
    /// Resource limits checked before the state allocation; oversized
    /// registers come back as [`QclabError::ResourceExhausted`] instead
    /// of aborting the process.
    pub limits: guard::ResourceLimits,
    /// Cooperative deadline/cancellation, polled at op boundaries. The
    /// default ([`control::ExecutionControl::none`]) is a no-op and
    /// leaves results bit-identical to runs without control.
    pub control: control::ExecutionControl,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            backend: Backend::Kernel,
            branch_tol: 1e-12,
            kernel: kernel::KernelConfig::default(),
            limits: guard::ResourceLimits::default(),
            control: control::ExecutionControl::none(),
        }
    }
}

/// One post-measurement branch of a simulation.
#[derive(Clone, Debug)]
pub struct Branch {
    result: String,
    probability: f64,
    state: CVec,
    /// Last known single-qubit state of each measured qubit: the
    /// basis-change matrix column selected by the observed bit.
    measured: BTreeMap<usize, (Vec<qclab_math::C64>, u8)>,
}

impl Branch {
    /// Concatenated measurement outcomes of this branch, in execution
    /// order (e.g. `"01"`).
    pub fn result(&self) -> &str {
        &self.result
    }

    /// Probability of observing this branch.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Full-register state vector of this branch.
    pub fn state(&self) -> &CVec {
        &self.state
    }

    /// Qubits measured on this branch, ascending.
    pub fn measured_qubits(&self) -> Vec<usize> {
        self.measured.keys().copied().collect()
    }
}

/// The result of simulating a circuit (`circuit.simulate(...)`).
#[derive(Clone, Debug)]
pub struct Simulation {
    nb_qubits: usize,
    branches: Vec<Branch>,
}

impl Simulation {
    /// Number of register qubits.
    pub fn nb_qubits(&self) -> usize {
        self.nb_qubits
    }

    /// All branches (unique measurement histories).
    pub fn branches(&self) -> &[Branch] {
        &self.branches
    }

    /// The observed measurement result strings, one per branch
    /// (`simulation.results` in QCLAB).
    pub fn results(&self) -> Vec<&str> {
        self.branches.iter().map(|b| b.result.as_str()).collect()
    }

    /// Branch probabilities (`simulation.probabilities`).
    pub fn probabilities(&self) -> Vec<f64> {
        self.branches.iter().map(|b| b.probability).collect()
    }

    /// Final state vectors, one per branch (`simulation.states`).
    pub fn states(&self) -> Vec<&CVec> {
        self.branches.iter().map(|b| &b.state).collect()
    }

    /// Samples `shots` repetitions of the experiment, returning
    /// `(result string, frequency)` pairs sorted by result string —
    /// QCLAB's `counts` function with MATLAB's `rng(seed)` replaced by a
    /// seeded PRNG.
    pub fn counts(&self, shots: u64, seed: u64) -> Vec<(String, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.counts_with_rng(shots, &mut rng)
    }

    /// [`counts`](Self::counts) with a caller-supplied RNG.
    ///
    /// Draws go through [`sampler::CdfTable`] — the one sampler every
    /// shot path uses — so sampling costs
    /// `O(branches + shots · log branches)`.
    pub fn counts_with_rng(&self, shots: u64, rng: &mut impl Rng) -> Vec<(String, u64)> {
        let mut tally: BTreeMap<String, u64> = BTreeMap::new();
        // make every possible outcome visible even at zero frequency
        for b in &self.branches {
            tally.entry(b.result.clone()).or_insert(0);
        }
        let weights: Vec<f64> = self.branches.iter().map(|b| b.probability).collect();
        // branch probabilities are positive and sum to ~1 by construction,
        // so the sampler build cannot fail for a simulation result
        let sampler =
            sampler::CdfTable::new(weights).expect("branch probabilities are a distribution");
        for _ in 0..shots {
            let chosen = sampler.sample(rng);
            *tally
                .entry(self.branches[chosen].result.clone())
                .or_insert(0) += 1;
        }
        tally.into_iter().collect()
    }

    /// The marginal probability that the measurement at `position` in
    /// the record (0 = first measurement executed) returned `bit`,
    /// summed over all branches.
    pub fn marginal_probability(&self, position: usize, bit: u8) -> f64 {
        let want = if bit == 0 { '0' } else { '1' };
        self.branches
            .iter()
            .filter(|b| b.result.chars().nth(position) == Some(want))
            .map(|b| b.probability)
            .sum()
    }

    /// Reduced states of the unmeasured qubits, one per branch
    /// (`simulation.reducedStates`). Fails if no qubit was left
    /// unmeasured, if every qubit was measured, or if a measured qubit was
    /// re-entangled by later gates.
    pub fn reduced_states(&self) -> Result<Vec<CVec>, QclabError> {
        let mut out = Vec::with_capacity(self.branches.len());
        for b in &self.branches {
            if b.measured.is_empty() {
                return Err(QclabError::Unavailable(
                    "no measurements in the circuit — the full state is the result".into(),
                ));
            }
            if b.measured.len() == self.nb_qubits {
                return Err(QclabError::Unavailable(
                    "all qubits were measured — no reduced state remains".into(),
                ));
            }
            // contract from the highest measured qubit downward
            let mut cur = b.state.clone();
            let mut n = self.nb_qubits;
            for (&q, (known, _bit)) in b.measured.iter().rev() {
                cur = contract_qubit(&cur, n, q, known);
                n -= 1;
            }
            let norm = cur.norm();
            if (norm - 1.0).abs() > 1e-6 {
                return Err(QclabError::Unavailable(format!(
                    "measured qubits were modified after measurement \
                     (branch '{}', overlap {norm:.6})",
                    b.result
                )));
            }
            cur.normalize();
            out.push(cur);
        }
        Ok(out)
    }
}

impl QCircuit {
    /// Simulates the circuit from an initial state vector with default
    /// options (`circuit.simulate(v)`).
    pub fn simulate(&self, initial: &CVec) -> Result<Simulation, QclabError> {
        self.simulate_with(initial, &SimOptions::default())
    }

    /// Simulates from a basis state given as a bitstring
    /// (`circuit.simulate('00')`).
    pub fn simulate_bitstring(&self, bits: &str) -> Result<Simulation, QclabError> {
        self.simulate_bitstring_with(bits, &SimOptions::default())
    }

    /// Simulates from a basis-state bitstring with explicit
    /// [`SimOptions`].
    pub fn simulate_bitstring_with(
        &self,
        bits: &str,
        opts: &SimOptions,
    ) -> Result<Simulation, QclabError> {
        if bits.len() != self.nb_qubits() {
            return Err(QclabError::InvalidBitstring(bits.to_string()));
        }
        // guard before `from_bitstring` allocates its 2^len buffer
        opts.limits.check_register(bits.len())?;
        let initial = CVec::from_bitstring(bits)
            .ok_or_else(|| QclabError::InvalidBitstring(bits.to_string()))?;
        self.simulate_with(&initial, opts)
    }

    /// Simulates with explicit [`SimOptions`].
    pub fn simulate_with(
        &self,
        initial: &CVec,
        opts: &SimOptions,
    ) -> Result<Simulation, QclabError> {
        let dim = opts.limits.check_register(self.nb_qubits())?;
        if initial.len() != dim {
            return Err(QclabError::DimensionMismatch {
                expected: dim,
                actual: initial.len(),
            });
        }
        let norm = initial.norm();
        if (norm - 1.0).abs() > 1e-6 {
            return Err(QclabError::NotNormalized { norm });
        }

        let mut branches = vec![Branch {
            result: String::new(),
            probability: 1.0,
            state: initial.clone(),
            measured: BTreeMap::new(),
        }];
        // lower through the shared compile/execute split — the plan
        // cache makes repeated simulation of one circuit lower once
        let n = self.nb_qubits();
        let mut plan_opts = crate::program::PlanOptions::from(&opts.kernel);
        // op-boundary deadline/cancel checks; a no-op for the default
        // (disabled) control, so results are unaffected by its presence
        let mut ticker = opts.control.ticker();
        match opts.backend {
            Backend::Kernel => {
                let bc = self.compile_with(&plan_opts).bytecode();
                bytecode::execute_dense(&bc, &mut branches, opts, &mut ticker)?;
            }
            // the test oracle: register-wide sparse unitaries, one op at
            // a time; index-bit locality buys it nothing
            Backend::Kron => {
                plan_opts.remap = false;
                for op in self.compile_with(&plan_opts).ops() {
                    match op {
                        ProgramOp::Gate(g) => {
                            for b in branches.iter_mut() {
                                apply_backend(g, &mut b.state, n, opts);
                            }
                        }
                        ProgramOp::Fence(_) => {}
                        ProgramOp::Measure(m) => {
                            branches = measure_branches(&branches, m, opts, n, None)
                        }
                        ProgramOp::Reset(q) => {
                            branches = reset_branches(&branches, *q, opts, n, None)
                        }
                        // invariant: only the locality pass emits
                        // permutes, and this plan was lowered with it off
                        ProgramOp::Permute { .. } => unreachable!("remap is off for kron plans"),
                    }
                    ticker.tick()?;
                }
            }
        }
        Ok(Simulation {
            nb_qubits: n,
            branches,
        })
    }
}

/// A simulation that ran on whichever state representation the
/// dense/sparse chooser picked — the return type of
/// [`QCircuit::simulate_bitstring_routed`].
#[derive(Clone, Debug)]
pub enum DispatchedSimulation {
    /// Ran on the dense engine ([`Simulation`]).
    Dense(Simulation),
    /// Ran on the sparse executor ([`sparse::SparseSimulation`]).
    Sparse(sparse::SparseSimulation),
}

impl DispatchedSimulation {
    /// Number of register qubits.
    pub fn nb_qubits(&self) -> usize {
        match self {
            DispatchedSimulation::Dense(s) => s.nb_qubits(),
            DispatchedSimulation::Sparse(s) => s.nb_qubits(),
        }
    }

    /// The observed measurement result strings, one per branch.
    pub fn results(&self) -> Vec<&str> {
        match self {
            DispatchedSimulation::Dense(s) => s.results(),
            DispatchedSimulation::Sparse(s) => s.results(),
        }
    }

    /// Branch probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        match self {
            DispatchedSimulation::Dense(s) => s.probabilities(),
            DispatchedSimulation::Sparse(s) => s.probabilities(),
        }
    }

    /// Sampled counts — both representations use the same sampler and
    /// tally shape, so for one seed the draws match when the branch
    /// distributions do.
    pub fn counts(&self, shots: u64, seed: u64) -> Vec<(String, u64)> {
        match self {
            DispatchedSimulation::Dense(s) => s.counts(shots, seed),
            DispatchedSimulation::Sparse(s) => s.counts(shots, seed),
        }
    }

    /// `true` when the sparse executor ran.
    pub fn is_sparse(&self) -> bool {
        matches!(self, DispatchedSimulation::Sparse(_))
    }
}

impl QCircuit {
    /// Simulates from a basis-state bitstring on the backend a
    /// [`BackendRequest`] resolves to: `Auto` lets
    /// [`program::choose_backend`] pick dense or sparse per program
    /// (using the lowering-time support bound), `Dense`/`Sparse` pin
    /// the executor and fail if its guard refuses. This is the routing
    /// entry the CLI `--backend` flag drives.
    pub fn simulate_bitstring_routed(
        &self,
        bits: &str,
        opts: &SimOptions,
        request: BackendRequest,
    ) -> Result<DispatchedSimulation, QclabError> {
        if bits.len() != self.nb_qubits() {
            return Err(QclabError::InvalidBitstring(bits.to_string()));
        }
        // the support bound is computed on the unfused stream, so any
        // plan of this circuit reports the same estimate; lowering the
        // sparse-tagged plan avoids building dense fused blocks for a
        // register the dense engine may not even admit
        let probe = self.compile_with(&PlanOptions::sparse());
        let choice =
            program::resolve_backend(request, probe.stats(), self.nb_qubits(), &opts.limits)?;
        let run_sparse = || -> Result<DispatchedSimulation, QclabError> {
            let initial = sparse::SparseState::from_bitstring(bits)
                .ok_or_else(|| QclabError::InvalidBitstring(bits.to_string()))?;
            let sopts = sparse::SparseOptions {
                branch_tol: opts.branch_tol,
                limits: opts.limits,
                ..sparse::SparseOptions::default()
            };
            Ok(DispatchedSimulation::Sparse(sparse::execute_controlled(
                &probe,
                initial,
                &sopts,
                &opts.control,
            )?))
        };
        match choice {
            BackendChoice::Dense => match self.simulate_bitstring_with(bits, opts) {
                Ok(sim) => Ok(DispatchedSimulation::Dense(sim)),
                // graceful degradation: under Auto, a dense run that was
                // refused mid-flight (allocation) or overran its deadline
                // falls back to the sparse executor — if the chooser's
                // sparse guard admits the program — before giving up. A
                // post-timeout retry keeps the original deadline: sparse
                // ops are cheap enough that a small program can finish
                // before the next check fires, and otherwise the retry
                // stops within one check interval.
                Err(
                    err @ (QclabError::ResourceExhausted { .. } | QclabError::DeadlineExceeded(_)),
                ) if request == BackendRequest::Auto => {
                    if program::resolve_backend(
                        BackendRequest::Sparse,
                        probe.stats(),
                        self.nb_qubits(),
                        &opts.limits,
                    )
                    .is_ok()
                    {
                        run_sparse()
                    } else {
                        Err(err)
                    }
                }
                Err(err) => Err(err),
            },
            BackendChoice::Sparse { .. } => run_sparse(),
        }
    }
}

pub(crate) fn apply_backend(gate: &Gate, state: &mut CVec, n: usize, opts: &SimOptions) {
    match opts.backend {
        Backend::Kron => kron::apply_gate(gate, state, n),
        Backend::Kernel => kernel::apply_gate_with(gate, state, n, &opts.kernel),
    }
}

/// Splits every branch on a measurement outcome. `map` is the active
/// logical→physical layout (`None` = identity): the measurement's qubit
/// is *logical*, so probabilities and collapse go through the mapped
/// collapse routines and any basis rotation targets the physical slot.
pub(crate) fn measure_branches(
    branches: &[Branch],
    m: &Measurement,
    opts: &SimOptions,
    n: usize,
    map: Option<&[usize]>,
) -> Vec<Branch> {
    let q = m.qubit();
    let pq = map.map_or(q, |m| m[q]);
    let v = m.basis().change_matrix();
    let needs_change = !matches!(m.basis(), Basis::Z);
    let mut out = Vec::with_capacity(branches.len() * 2);

    for b in branches {
        let mut pre = b.state.clone();
        if needs_change {
            // rotate the measured qubit into the computational basis
            let vdg = Gate::Custom {
                name: "V†".into(),
                qubits: vec![pq],
                matrix: v.dagger(),
            };
            apply_backend(&vdg, &mut pre, n, opts);
        }
        let (p0, p1) = match map {
            None => collapse::measure_probabilities(&pre, n, q),
            Some(m) => collapse::measure_probabilities_mapped(&pre, n, q, m),
        };
        for (bit, p) in [(0usize, p0), (1usize, p1)] {
            if p <= opts.branch_tol {
                continue;
            }
            let mut post = match map {
                None => collapse::collapse(&pre, n, q, bit, p),
                Some(m) => {
                    let mut post = CVec::zeros(0);
                    collapse::collapse_into_mapped(&pre, n, q, bit, p, m, &mut post);
                    post
                }
            };
            if needs_change {
                // rotate back so the post-measurement state is expressed
                // in the original basis (paper Sec. 3.3)
                let vg = Gate::Custom {
                    name: "V".into(),
                    qubits: vec![pq],
                    matrix: v.clone(),
                };
                apply_backend(&vg, &mut post, n, opts);
            }
            let mut measured = b.measured.clone();
            measured.insert(q, (v.col(bit), bit as u8));
            let mut result = b.result.clone();
            result.push(if bit == 0 { '0' } else { '1' });
            out.push(Branch {
                result,
                probability: b.probability * p,
                state: post,
                measured,
            });
        }
    }
    out
}

/// Resets a qubit to `|0>`: Z-measure it and flip on outcome 1. The
/// measurement outcome is *not* recorded in the result string. As with
/// [`measure_branches`], `q` is logical and `map` locates its physical
/// slot.
pub(crate) fn reset_branches(
    branches: &[Branch],
    q: usize,
    opts: &SimOptions,
    n: usize,
    map: Option<&[usize]>,
) -> Vec<Branch> {
    let pq = map.map_or(q, |m| m[q]);
    let mut out = Vec::with_capacity(branches.len());
    for b in branches {
        let (p0, p1) = match map {
            None => collapse::measure_probabilities(&b.state, n, q),
            Some(m) => collapse::measure_probabilities_mapped(&b.state, n, q, m),
        };
        for (bit, p) in [(0usize, p0), (1usize, p1)] {
            if p <= opts.branch_tol {
                continue;
            }
            let mut post = match map {
                None => collapse::collapse(&b.state, n, q, bit, p),
                Some(m) => {
                    let mut post = CVec::zeros(0);
                    collapse::collapse_into_mapped(&b.state, n, q, bit, p, m, &mut post);
                    post
                }
            };
            if bit == 1 {
                apply_backend(&Gate::PauliX(pq), &mut post, n, opts);
            }
            out.push(Branch {
                result: b.result.clone(),
                probability: b.probability * p,
                state: post,
                measured: b.measured.clone(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::factories::*;
    use qclab_math::scalar::{c, cr};

    const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    fn bell_with_measurements() -> QCircuit {
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(1));
        c
    }

    #[test]
    fn paper_circuit_one_results() {
        // paper Sec. 3: results {'00', '11'}, probabilities 0.5 each
        let sim = bell_with_measurements().simulate_bitstring("00").unwrap();
        assert_eq!(sim.results(), &["00", "11"]);
        let p = sim.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
        // collapsed states |00> and |11>
        let states = sim.states();
        assert!((states[0][0].re - 1.0).abs() < 1e-12);
        assert!((states[1][3].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simulate_from_vector_initial_state() {
        // paper: simulate(kron([1;0],[1;0])) equals simulate('00')
        let init = CVec::from_bitstring("0")
            .unwrap()
            .kron(&CVec::from_bitstring("0").unwrap());
        let sim = bell_with_measurements().simulate(&init).unwrap();
        assert_eq!(sim.results(), &["00", "11"]);
    }

    #[test]
    fn both_backends_agree_on_branching() {
        let circuit = bell_with_measurements();
        for backend in [Backend::Kron, Backend::Kernel] {
            let opts = SimOptions {
                backend,
                ..Default::default()
            };
            let init = CVec::from_bitstring("00").unwrap();
            let sim = circuit.simulate_with(&init, &opts).unwrap();
            assert_eq!(sim.results(), &["00", "11"]);
        }
    }

    #[test]
    fn deterministic_measurement_prunes_branch() {
        let mut c = QCircuit::new(1);
        c.push_back(PauliX::new(0));
        c.push_back(Measurement::z(0));
        let sim = c.simulate_bitstring("0").unwrap();
        assert_eq!(sim.results(), &["1"]);
        assert!((sim.probabilities()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_basis_measurement_of_plus_state() {
        // H|0> = |+> measured in X basis: deterministic outcome 0
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(Measurement::x(0));
        let sim = c.simulate_bitstring("0").unwrap();
        assert_eq!(sim.results(), &["0"]);
        assert!((sim.probabilities()[0] - 1.0).abs() < 1e-12);
        // post-measurement state is |+> in the original basis
        let s = sim.states()[0];
        assert!((s[0].re - INV_SQRT2).abs() < 1e-12);
        assert!((s[1].re - INV_SQRT2).abs() < 1e-12);
    }

    #[test]
    fn y_basis_measurement_of_paper_v() {
        // |v> = (1/√2, i/√2) is the +i eigenstate: Y measurement gives 0
        let v = CVec(vec![cr(INV_SQRT2), c(0.0, INV_SQRT2)]);
        let mut c = QCircuit::new(1);
        c.push_back(Measurement::y(0));
        let sim = c.simulate(&v).unwrap();
        assert_eq!(sim.results(), &["0"]);
        assert!((sim.probabilities()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_probabilities() {
        let sim = bell_with_measurements().simulate_bitstring("00").unwrap();
        // perfectly correlated outcomes
        for pos in 0..2 {
            assert!((sim.marginal_probability(pos, 0) - 0.5).abs() < 1e-12);
            assert!((sim.marginal_probability(pos, 1) - 0.5).abs() < 1e-12);
        }
        // deterministic case
        let mut c = QCircuit::new(1);
        c.push_back(PauliX::new(0));
        c.push_back(Measurement::z(0));
        let sim = c.simulate_bitstring("0").unwrap();
        assert!((sim.marginal_probability(0, 1) - 1.0).abs() < 1e-12);
        assert!(sim.marginal_probability(0, 0).abs() < 1e-12);
    }

    #[test]
    fn counts_are_deterministic_per_seed_and_sum_to_shots() {
        let sim = bell_with_measurements().simulate_bitstring("00").unwrap();
        let c1 = sim.counts(1000, 1);
        let c2 = sim.counts(1000, 1);
        assert_eq!(c1, c2);
        let total: u64 = c1.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 1000);
        // both outcomes occur with roughly half frequency
        for (_, n) in &c1 {
            assert!(*n > 400 && *n < 600, "counts {c1:?} not near 500/500");
        }
    }

    #[test]
    fn mid_circuit_measurement_branches_continue_evolving() {
        // measure then apply X: both branch states must be flipped
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(Measurement::z(0));
        c.push_back(PauliX::new(0));
        let sim = c.simulate_bitstring("0").unwrap();
        assert_eq!(sim.results(), &["0", "1"]);
        // branch '0' ended in |1>, branch '1' ended in |0>
        assert!((sim.states()[0][1].re - 1.0).abs() < 1e-12);
        assert!((sim.states()[1][0].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_returns_qubit_to_zero_without_recording() {
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(crate::circuit::CircuitItem::Reset(0));
        c.push_back(Measurement::z(0));
        let sim = c.simulate_bitstring("0").unwrap();
        // two internal branches, but both measure 0 after the reset
        assert!(sim.results().iter().all(|r| *r == "0"));
        let total: f64 = sim.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reduced_states_for_partial_end_measurement() {
        // Bell pair, measure only q0: reduced state of q1 follows q0
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        let sim = c.simulate_bitstring("00").unwrap();
        let reduced = sim.reduced_states().unwrap();
        assert_eq!(reduced.len(), 2);
        assert!((reduced[0][0].re - 1.0).abs() < 1e-12); // |0>
        assert!((reduced[1][1].re - 1.0).abs() < 1e-12); // |1>
    }

    #[test]
    fn reduced_states_error_cases() {
        // all qubits measured
        let sim = bell_with_measurements().simulate_bitstring("00").unwrap();
        assert!(sim.reduced_states().is_err());
        // no measurement at all
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        let sim = c.simulate_bitstring("00").unwrap();
        assert!(sim.reduced_states().is_err());
        // measured qubit re-entangled afterwards
        let mut c = QCircuit::new(2);
        c.push_back(Measurement::z(0));
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        let sim = c.simulate_bitstring("00").unwrap();
        assert!(sim.reduced_states().is_err());
    }

    #[test]
    fn invalid_initial_states_are_rejected() {
        let c = bell_with_measurements();
        assert!(matches!(
            c.simulate(&CVec::zeros(4)),
            Err(QclabError::NotNormalized { .. })
        ));
        assert!(matches!(
            c.simulate(&CVec::basis_state(8, 0)),
            Err(QclabError::DimensionMismatch { .. })
        ));
        assert!(c.simulate_bitstring("000").is_err());
        assert!(c.simulate_bitstring("0x").is_err());
    }

    #[test]
    fn probabilities_always_sum_to_one() {
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(Hadamard::new(1));
        c.push_back(CNOT::new(1, 2));
        c.push_back(Measurement::x(0));
        c.push_back(Measurement::z(1));
        c.push_back(Measurement::y(2));
        let sim = c.simulate_bitstring("000").unwrap();
        let total: f64 = sim.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        for s in sim.states() {
            assert!((s.norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn subcircuit_simulation_matches_inline() {
        let mut sub = QCircuit::new(2);
        sub.push_back(Hadamard::new(0));
        sub.push_back(CNOT::new(0, 1));

        let mut outer = QCircuit::new(3);
        outer.push_back_at(1, sub).unwrap();
        outer.push_back(Measurement::z(1));
        outer.push_back(Measurement::z(2));
        let sim = outer.simulate_bitstring("000").unwrap();
        assert_eq!(sim.results(), &["00", "11"]);
    }
}
