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
//! The branch tree is written once, generic over the state a branch
//! carries: a dense [`CVec`] or a [`sparse::SparseState`]. Each engine
//! keeps its own arithmetic behind the crate-private `BranchState` trait —
//! Z probabilities, collapse, gate application and the live size the
//! resource guard charges — while the measurement/reset split
//! (`split_branches`) and the op walk over a
//! [`CompiledProgram`](crate::program::CompiledProgram) (`walk_branches`) exist
//! once. The dense bytecode executor runs its own instruction stream of
//! in-place kernels (the QCLAB++ strategy) and calls the same split.
//!
//! A sampled run ([`trajectory`]) has one module per stage: [`route`] →
//! `prep` (one-time preparation) → `shots`, [`frame`] or [`sampler`].
//!
//! [`kron::simulate`] is the test oracle: the sparse extended unitary of
//! the MATLAB QCLAB strategy, run on the shared op walk. The two are
//! property-tested against each other (`tests/backend_equivalence.rs`);
//! their speed gap is recorded in EXPERIMENTS.md F1.

pub mod bytecode;
pub mod collapse;
pub mod control;
pub mod density;
pub mod frame;
pub mod fusion;
pub mod guard;
pub mod kernel;
pub mod kron;
mod par;
pub(crate) mod prep;
pub mod route;
pub mod sampler;
mod shots;
pub(crate) mod simd;
pub mod sparse;
pub mod stabilizer;
pub mod trajectory;
pub mod walk;

use crate::circuit::QCircuit;
use crate::error::QclabError;
use crate::gates::Gate;
use crate::measurement::Measurement;
use crate::program::{PlanOptions, ProgramOp};
use crate::reduced::contract_qubit;
use control::ControlTicker;
use guard::ResourceLimits;
use qclab_math::rng::Rng;
use qclab_math::CVec;
use route::BackendRequest;
use sparse::SparseState;
use std::collections::BTreeMap;

/// Measurement outcomes with probability at or below this are pruned
/// instead of spawning a branch.
const BRANCH_TOL: f64 = 1e-12;

/// Options controlling a simulation run.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Kernel dispatch configuration: the gate-fusion pre-pass
    /// (`kernel.fuse` / `kernel.max_fused_qubits`, honoured by the
    /// [`kron::simulate`] oracle too), the locality pass and the
    /// parallel/SIMD switches.
    pub kernel: kernel::KernelConfig,
    /// Resource limits checked before the state allocation; oversized
    /// registers come back as [`QclabError::ResourceExhausted`] instead
    /// of aborting the process.
    pub limits: ResourceLimits,
    /// Cooperative deadline/cancellation, polled at op boundaries. The
    /// default ([`control::ExecutionControl::none`]) is a no-op and
    /// leaves results bit-identical to runs without control.
    pub control: control::ExecutionControl,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            kernel: kernel::KernelConfig::default(),
            limits: ResourceLimits::default(),
            control: control::ExecutionControl::none(),
        }
    }
}

/// One post-measurement branch of a simulation.
#[derive(Clone, Debug)]
pub struct Branch<S = CVec> {
    result: String,
    probability: f64,
    state: S,
    /// Last known single-qubit state of each measured qubit: the
    /// basis-change matrix column selected by the observed bit.
    measured: BTreeMap<usize, (Vec<qclab_math::C64>, u8)>,
}

impl<S> Branch<S> {
    /// Concatenated measurement outcomes of this branch, in execution
    /// order (e.g. `"01"`).
    pub fn result(&self) -> &str {
        &self.result
    }

    /// Probability of observing this branch.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Full-register state of this branch.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Qubits measured on this branch, ascending.
    pub fn measured_qubits(&self) -> Vec<usize> {
        self.measured.keys().copied().collect()
    }
}

/// The result of simulating a circuit (`circuit.simulate(...)`): the
/// branch tree, whose states are dense vectors unless an executor says
/// otherwise.
#[derive(Clone, Debug)]
pub struct Simulation<S = CVec> {
    nb_qubits: usize,
    branches: Vec<Branch<S>>,
    peak_entries: usize,
}

impl<S> Simulation<S> {
    /// A run's tree before its first op: the initial state with
    /// probability 1 and an empty record.
    fn start(nb_qubits: usize, initial: S) -> Self {
        let root = Branch {
            result: String::new(),
            probability: 1.0,
            state: initial,
            measured: BTreeMap::new(),
        };
        Simulation {
            nb_qubits,
            branches: vec![root],
            peak_entries: 0,
        }
    }

    /// Number of register qubits.
    pub fn nb_qubits(&self) -> usize {
        self.nb_qubits
    }

    /// All branches (unique measurement histories).
    pub fn branches(&self) -> &[Branch<S>] {
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

    /// Final states, one per branch (`simulation.states`).
    pub fn states(&self) -> Vec<&S> {
        self.branches.iter().map(|b| &b.state).collect()
    }

    /// Largest live-entry total (summed over branches) the sparse
    /// executor held after any gate — the number its guard admitted. 0
    /// for dense states, which the guard charges per branch.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Samples `shots` repetitions of the experiment, returning
    /// `(result string, frequency)` pairs sorted by result string —
    /// QCLAB's `counts` function with MATLAB's `rng(seed)` replaced by a
    /// seeded PRNG.
    pub fn counts(&self, shots: u64, seed: u64) -> Vec<(String, u64)> {
        let mut rng = Rng::seed_from_u64(seed);
        self.counts_with_rng(shots, &mut rng)
    }

    /// [`counts`](Self::counts) with a caller-supplied RNG.
    ///
    /// Draws go through [`sampler::CdfTable`] — the one sampler every
    /// shot path uses — so sampling costs
    /// `O(branches + shots · log branches)`.
    pub fn counts_with_rng(&self, shots: u64, rng: &mut Rng) -> Vec<(String, u64)> {
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

    /// The same tree with every branch state passed through `f`.
    fn map_states<T>(
        self,
        mut f: impl FnMut(S) -> Result<T, QclabError>,
    ) -> Result<Simulation<T>, QclabError> {
        let mut branches = Vec::with_capacity(self.branches.len());
        for b in self.branches {
            branches.push(Branch {
                result: b.result,
                probability: b.probability,
                state: f(b.state)?,
                measured: b.measured,
            });
        }
        Ok(Simulation {
            nb_qubits: self.nb_qubits,
            branches,
            peak_entries: self.peak_entries,
        })
    }
}

impl Simulation {
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
        let mut sim = self.start(initial, &opts.limits)?;
        // lower through the shared compile/execute split — the plan
        // cache makes repeated simulation of one circuit lower once
        let bc = self
            .compile_with(&PlanOptions::from(&opts.kernel))
            .bytecode();
        // op-boundary deadline/cancel checks; a no-op for the default
        // (disabled) control, so results are unaffected by its presence
        let mut ticker = opts.control.ticker();
        bytecode::execute_dense(&bc, &mut sim.branches, opts, &mut ticker)?;
        Ok(sim)
    }

    /// The tree a dense run of this circuit starts from, once `initial`
    /// is admitted: a register the limits allow, a vector of its
    /// dimension, normalized.
    fn start(&self, initial: &CVec, limits: &ResourceLimits) -> Result<Simulation, QclabError> {
        let dim = limits.check_register(self.nb_qubits())?;
        check_initial(dim, initial.len(), initial.norm())?;
        Ok(Simulation::start(self.nb_qubits(), initial.clone()))
    }
}

/// Admits an initial state of `len` amplitudes and norm `norm` into a
/// register of dimension `dim` (the one the register guard admitted):
/// the dimensions must agree and `|norm − 1| ≤ 1e-6`. Every engine that
/// takes a caller's state checks it here.
pub(crate) fn check_initial(dim: usize, len: usize, norm: f64) -> Result<(), QclabError> {
    if len != dim {
        return Err(QclabError::DimensionMismatch {
            expected: dim,
            actual: len,
        });
    }
    if (norm - 1.0).abs() > 1e-6 {
        return Err(QclabError::NotNormalized { norm });
    }
    Ok(())
}

/// The state of one branch of a routed run, on whichever representation
/// [`route::resolve`] picked — the branch state of
/// [`QCircuit::simulate_bitstring_routed`]'s result.
#[derive(Clone, Debug)]
pub enum RoutedState {
    /// Ran on the dense engine.
    Dense(CVec),
    /// Ran on the sparse executor.
    Sparse(SparseState),
}

impl Simulation<RoutedState> {
    /// `true` when the sparse executor ran.
    pub fn is_sparse(&self) -> bool {
        matches!(
            self.branches.first().map(Branch::state),
            Some(RoutedState::Sparse(_))
        )
    }
}

impl QCircuit {
    /// Simulates from a basis-state bitstring on the engine
    /// [`route::resolve`] picks for `request`, with the branch tree's one
    /// fallback ([`route`]'s module doc). This is the routing entry the
    /// CLI `--backend` flag drives.
    pub fn simulate_bitstring_routed(
        &self,
        bits: &str,
        opts: &SimOptions,
        request: BackendRequest,
    ) -> Result<Simulation<RoutedState>, QclabError> {
        route::branch_tree(self, bits, opts, request)
    }
}

/// A state the branch tree can carry. Each engine keeps its own
/// arithmetic here; the split and the op walk over it exist once.
/// Measured and reset qubits are *logical*: `map` is the active
/// logical→physical layout (`None` = identity) of a state the locality
/// pass relabeled, and the engine resolves the qubit through it.
pub(crate) trait BranchState: Sized {
    /// What applying a gate takes beside the state: the kernel switches
    /// of a dense state, nothing for a sparse one or the oracle's.
    type Engine;

    /// Applies `gate` (physical qubits) in place.
    fn apply(&mut self, gate: &Gate, n: usize, engine: &Self::Engine);

    /// Moves the bit on qubit `q` to qubit `perm[q]`.
    fn permute(&mut self, perm: &[usize], n: usize, engine: &Self::Engine);

    /// `(P(0), P(1))` of a Z measurement of logical qubit `q`.
    fn z_probabilities(&self, n: usize, q: usize, map: Option<&[usize]>) -> (f64, f64);

    /// The state collapsed onto outcome `bit` (probability `p`) of a Z
    /// measurement of logical qubit `q`.
    fn collapsed(&self, n: usize, q: usize, bit: usize, p: f64, map: Option<&[usize]>) -> Self;

    /// The live size the guard charges per entry: 0 for a dense state,
    /// whose size the register fixes.
    fn live(&self) -> u128;

    /// Admits `kept` branches holding `live` entries in all: a dense
    /// engine charges `2^n · 16` B per branch, a sparse one 48 B per
    /// live entry.
    fn admit(limits: &ResourceLimits, n: usize, kept: usize, live: u128) -> Result<(), QclabError>;
}

impl BranchState for CVec {
    type Engine = kernel::KernelConfig;

    fn apply(&mut self, gate: &Gate, n: usize, cfg: &kernel::KernelConfig) {
        kernel::apply_gate_with(gate, self, n, cfg);
    }

    fn permute(&mut self, perm: &[usize], n: usize, cfg: &kernel::KernelConfig) {
        kernel::permute_state(self, n, perm, cfg.parallel_at(n));
    }

    fn z_probabilities(&self, n: usize, q: usize, map: Option<&[usize]>) -> (f64, f64) {
        collapse::measure_probabilities(self, n, q, map)
    }

    fn collapsed(&self, n: usize, q: usize, bit: usize, p: f64, map: Option<&[usize]>) -> Self {
        collapse::collapse(self, n, q, bit, p, map)
    }

    fn live(&self) -> u128 {
        0
    }

    fn admit(limits: &ResourceLimits, n: usize, kept: usize, _: u128) -> Result<(), QclabError> {
        limits.check_branches(n, kept)
    }
}

/// Live size of a branch set, summed.
fn total_live<S: BranchState>(branches: &[Branch<S>]) -> u128 {
    branches.iter().map(|b| b.state.live()).sum()
}

/// Splits every branch on a Z outcome of logical qubit `q` (see
/// [`BranchState`] for `map`). With `measurement`, the outcome is
/// recorded, and an X/Y basis is rotated into Z on the physical slot
/// first and back after the collapse (paper Sec. 3.3). Without, it is a
/// reset: the outcome goes unrecorded and outcome 1 is flipped back to
/// `|0>`.
///
/// Each new branch is admitted against `limits` with the branches alive
/// after it — the old ones not yet split and the new ones. A branch
/// splits into at least one, so that bounds the new set exactly. A dense
/// branch is charged before its `2^n` buffer exists, so memory stays
/// within the cap plus the branch being split; a sparse one once its
/// entries are known.
pub(crate) fn split_branches<S: BranchState>(
    branches: Vec<Branch<S>>,
    q: usize,
    measurement: Option<&Measurement>,
    engine: &S::Engine,
    limits: &ResourceLimits,
    n: usize,
    map: Option<&[usize]>,
) -> Result<Vec<Branch<S>>, QclabError> {
    let pq = map.map_or(q, |m| m[q]);
    // a measurement's basis-change matrix and, off Z, its (V†, V) gates
    let basis = measurement.map(|m| (m.basis().change_matrix(), m.basis().change_gates(pq)));
    let mut out = Vec::with_capacity(branches.len() * 2);
    let mut unsplit = branches.len();
    let mut live = total_live(&branches);
    for mut b in branches {
        unsplit -= 1;
        live -= b.state.live();
        if let Some((_, Some((vdg, _)))) = &basis {
            b.state.apply(vdg, n, engine);
        }
        let (p0, p1) = b.state.z_probabilities(n, q, map);
        for (bit, p) in [(0usize, p0), (1usize, p1)] {
            if p <= BRANCH_TOL {
                continue;
            }
            let kept = unsplit + out.len() + 1;
            S::admit(limits, n, kept, live)?;
            let mut post = b.state.collapsed(n, q, bit, p, map);
            let mut result = b.result.clone();
            let mut measured = b.measured.clone();
            match &basis {
                Some((v, rotation)) => {
                    if let Some((_, vg)) = rotation {
                        post.apply(vg, n, engine);
                    }
                    measured.insert(q, (v.col(bit), bit as u8));
                    result.push(if bit == 0 { '0' } else { '1' });
                }
                None if bit == 1 => post.apply(&Gate::PauliX(pq), n, engine),
                None => {}
            }
            live += post.live();
            S::admit(limits, n, kept, live)?;
            out.push(Branch {
                result,
                probability: b.probability * p,
                state: post,
                measured,
            });
        }
    }
    Ok(out)
}

/// The branch walk over a compiled op stream: gates evolve every branch
/// and the guard re-admits their live size, permutes relabel every
/// branch and adopt the op's layout map, measurements and resets split
/// ([`split_branches`]), fences do nothing. One control tick per op.
/// Returns the largest live size admitted after a gate (or held at the
/// start).
pub(crate) fn walk_branches<S: BranchState>(
    branches: &mut Vec<Branch<S>>,
    ops: &[ProgramOp],
    engine: &S::Engine,
    limits: &ResourceLimits,
    n: usize,
    ticker: &mut ControlTicker<'_>,
) -> Result<u128, QclabError> {
    let mut peak = total_live(branches);
    let mut map: Option<&[usize]> = None;
    for op in ops {
        match op {
            ProgramOp::Gate(g) => {
                for b in branches.iter_mut() {
                    b.state.apply(g, n, engine);
                }
                let now = total_live(branches);
                S::admit(limits, n, branches.len(), now)?;
                peak = peak.max(now);
            }
            ProgramOp::Fence(_) => {}
            ProgramOp::Permute { perm, map: layout } => {
                for b in branches.iter_mut() {
                    b.state.permute(perm, n, engine);
                }
                map = Some(layout.as_slice());
            }
            ProgramOp::Measure(m) => {
                let old = std::mem::take(branches);
                *branches = split_branches(old, m.qubit(), Some(m), engine, limits, n, map)?;
            }
            ProgramOp::Reset(q) => {
                let old = std::mem::take(branches);
                *branches = split_branches(old, *q, None, engine, limits, n, map)?;
            }
        }
        ticker.tick()?;
    }
    Ok(peak)
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
        let init = CVec::from_bitstring("00").unwrap();
        let opts = SimOptions::default();
        for sim in [
            circuit.simulate_with(&init, &opts).unwrap(),
            kron::simulate(&circuit, &init, &opts).unwrap(),
        ] {
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
        // the trajectory engine admits a caller's state by the same rule
        let config = trajectory::TrajectoryConfig::default();
        assert!(matches!(
            trajectory::run_trajectories_from(&c, &CVec::zeros(4), &config),
            Err(QclabError::NotNormalized { .. })
        ));
        assert!(matches!(
            trajectory::run_trajectories_from(&c, &CVec::basis_state(8, 0), &config),
            Err(QclabError::DimensionMismatch { .. })
        ));
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
    fn branch_set_cap_boundary_is_exact() {
        // `h q0; measure q0; ch q0, q1; measure q1` splits into three
        // branches (`0`, `10`, `11`); with both qubits in `|+⟩`, a
        // measurement of each — or a measurement and a reset — into four
        let mut three = QCircuit::new(2);
        three.push_back(Hadamard::new(0));
        three.push_back(Measurement::z(0));
        three.push_back(CH::new(0, 1));
        three.push_back(Measurement::z(1));
        let plus = || {
            let mut c = QCircuit::new(2);
            c.push_back(Hadamard::new(0));
            c.push_back(Hadamard::new(1));
            c.push_back(Measurement::z(0));
            c
        };
        let mut measured = plus();
        measured.push_back(Measurement::z(1));
        let mut reset = plus();
        reset.push_back(crate::circuit::CircuitItem::Reset(1));

        let state = guard::ResourceLimits::state_bytes(2).unwrap();
        let zero = CVec::from_bitstring("00").unwrap();
        for backend in ["kernel", "kron"] {
            let capped = |bytes: u128| SimOptions {
                limits: guard::ResourceLimits {
                    max_qubits: None,
                    max_state_bytes: bytes,
                },
                ..SimOptions::default()
            };
            let branches = |c: &QCircuit, bytes| {
                let opts = capped(bytes);
                match backend {
                    "kernel" => c.simulate_with(&zero, &opts),
                    _ => kron::simulate(c, &zero, &opts),
                }
                .map(|sim| sim.branches().len())
            };
            // three 2-qubit states (64 B each) exactly at the cap
            assert_eq!(branches(&three, 3 * state), Ok(3), "{backend:?}");
            // a fourth branch — of a measurement or of a reset — is one
            // over, and so is the third under a byte less
            for (c, bytes) in [
                (&measured, 3 * state),
                (&reset, 3 * state),
                (&three, 3 * state - 1),
            ] {
                assert!(
                    matches!(
                        branches(c, bytes),
                        Err(QclabError::ResourceExhausted { qubits: 2, .. })
                    ),
                    "{backend:?}"
                );
            }
            assert_eq!(branches(&measured, 4 * state), Ok(4), "{backend:?}");
            assert_eq!(branches(&reset, 4 * state), Ok(4), "{backend:?}");
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
