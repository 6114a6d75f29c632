//! Sparse statevector executor: a hashmap of nonzero amplitudes keyed
//! by basis index.
//!
//! Dense simulation pays `2^n` amplitudes no matter how many are zero;
//! Grover oracles, basis-state-heavy syndrome circuits and other
//! low-entanglement workloads keep all but a handful at exactly zero.
//! This executor stores only the nonzero support, so its memory and
//! per-gate cost scale with the *live-entry count* instead of `2^n` —
//! [`guard::ResourceLimits`] admission goes through
//! [`check_sparse_entries`](ResourceLimits::check_sparse_entries)
//! rather than the dense byte estimate, opening 30+ qubit registers the
//! dense engine guard-refuses.
//!
//! The executor consumes the same [`CompiledProgram`] as every dense
//! executor (gates, fences, permutes, mid-circuit measurements and
//! resets all supported) and mirrors the branching semantics of
//! [`simulate_with`](crate::circuit::QCircuit::simulate_with) exactly,
//! which is what the `sparse_equivalence` differential suite locks in.
//! Amplitudes whose magnitude drops to the pruning epsilon are removed,
//! so destructive interference (the uncompute half of an oracle) shrinks
//! the support back down instead of accumulating dead entries.
//!
//! Use [`PlanOptions::sparse()`](crate::program::PlanOptions::sparse)
//! when lowering for this executor: fusion would coarsen
//! support-preserving gate runs into dense blocks and the locality pass
//! optimizes a stride that a hashmap does not have. The automatic
//! dense/sparse dispatch lives in
//! [`choose_backend`](crate::program::choose_backend) and
//! [`simulate_bitstring_routed`](crate::circuit::QCircuit::simulate_bitstring_routed).

use std::collections::{BTreeMap, HashMap};

use super::control::ExecutionControl;
use super::guard::ResourceLimits;
use super::sampler::CdfTable;
use super::{Branch, Simulation};
use crate::error::QclabError;
use crate::gates::Gate;
use crate::measurement::{Basis, Measurement};
use crate::program::{CompiledProgram, ProgramOp};
use qclab_math::{bits, CVec, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default amplitude-pruning epsilon: entries with `|amp| ≤ eps` are
/// dropped after a general gate application. Two orders of magnitude
/// below the 1e-12 equivalence tolerance the differential suite
/// asserts, so pruning is invisible at that precision.
pub const DEFAULT_PRUNE_EPS: f64 = 1e-14;

/// Options of a sparse execution run.
#[derive(Clone, Copy, Debug)]
pub struct SparseOptions {
    /// Amplitude-pruning threshold (see [`DEFAULT_PRUNE_EPS`]).
    pub prune_eps: f64,
    /// Measurement outcomes with probability below this threshold are
    /// pruned instead of spawning a branch (matches
    /// [`SimOptions::branch_tol`](super::SimOptions::branch_tol)).
    pub branch_tol: f64,
    /// Resource limits; sparse admission charges live entries via
    /// [`ResourceLimits::check_sparse_entries`] after every op.
    pub limits: ResourceLimits,
}

impl Default for SparseOptions {
    fn default() -> Self {
        SparseOptions {
            prune_eps: DEFAULT_PRUNE_EPS,
            branch_tol: 1e-12,
            limits: ResourceLimits::default(),
        }
    }
}

/// `(mask, want)` test precomputed from a gate's control list: index `i`
/// satisfies the controls iff `i & mask == want`.
fn control_masks(controls: &[(usize, u8)], n: usize) -> (usize, usize) {
    let mut mask = 0usize;
    let mut want = 0usize;
    for &(q, s) in controls {
        let bit = 1usize << bits::qubit_shift(q, n);
        mask |= bit;
        if s == 1 {
            want |= bit;
        }
    }
    (mask, want)
}

/// A sparse `n`-qubit state: the nonzero amplitudes keyed by basis
/// index (qubit 0 is the most significant index bit, as everywhere in
/// the workspace).
#[derive(Clone, Debug, Default)]
pub struct SparseState {
    n: usize,
    amps: HashMap<usize, C64>,
}

impl SparseState {
    /// The basis state `|idx>` on `n` qubits — one live entry.
    pub fn basis_state(n: usize, idx: usize) -> Self {
        let mut amps = HashMap::with_capacity(1);
        amps.insert(idx, C64::new(1.0, 0.0));
        SparseState { n, amps }
    }

    /// The basis state written as a bitstring (`"010"`), like
    /// [`CVec::from_bitstring`] without the `2^n` allocation.
    pub fn from_bitstring(s: &str) -> Option<Self> {
        let idx = bits::bitstring_to_index(s)?;
        Some(Self::basis_state(s.len(), idx))
    }

    /// Builds a sparse state from a dense vector, dropping amplitudes
    /// with `|amp| ≤ eps`.
    pub fn from_dense(v: &CVec, eps: f64) -> Self {
        let n = v.nb_qubits();
        let eps2 = eps * eps;
        let amps = v
            .iter()
            .enumerate()
            .filter(|(_, z)| z.norm_sqr() > eps2)
            .map(|(i, &z)| (i, z))
            .collect();
        SparseState { n, amps }
    }

    /// Number of register qubits.
    pub fn nb_qubits(&self) -> usize {
        self.n
    }

    /// Number of live (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.amps.len()
    }

    /// The amplitude of basis state `idx` (zero when not live).
    pub fn amplitude(&self, idx: usize) -> C64 {
        self.amps.get(&idx).copied().unwrap_or(C64::new(0.0, 0.0))
    }

    /// Iterator over the live `(basis index, amplitude)` entries, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, C64)> + '_ {
        self.amps.iter().map(|(&i, &a)| (i, a))
    }

    /// 2-norm of the state.
    pub fn norm(&self) -> f64 {
        self.amps.values().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Densifies into a `2^n` vector, guard-checked against `limits`.
    pub fn to_dense(&self, limits: &ResourceLimits) -> Result<CVec, QclabError> {
        let dim = limits.check_register(self.n)?;
        let mut v = CVec::zeros(dim);
        for (&i, &a) in &self.amps {
            v[i] = a;
        }
        Ok(v)
    }

    /// Applies `gate` in place, pruning result amplitudes with
    /// `|amp| ≤ eps`.
    ///
    /// Diagonal gates (controls included) multiply live entries in
    /// place and can never grow or shrink the support; every other gate
    /// gathers the live entries into groups sharing their non-target
    /// bits, multiplies each group by the `2^k × 2^k` target matrix and
    /// scatters the nonzero results back — entries failing the control
    /// test pass through untouched.
    pub fn apply_gate(&mut self, gate: &Gate, eps: f64) {
        let n = self.n;
        let targets = gate.targets();
        let (cmask, cwant) = control_masks(&gate.controls(), n);
        let m = gate.target_matrix();

        if m.is_diagonal(0.0) {
            // unitary diagonal entries have unit magnitude: support and
            // entry magnitudes are preserved, no pruning needed
            for (&i, a) in self.amps.iter_mut() {
                if i & cmask == cwant {
                    let sub = bits::gather_bits(i, &targets, n);
                    *a *= m[(sub, sub)];
                }
            }
            return;
        }

        let k = targets.len();
        let dim = 1usize << k;
        let tmask: usize = targets
            .iter()
            .map(|&q| 1usize << bits::qubit_shift(q, n))
            .fold(0, |acc, b| acc | b);

        let mut out: HashMap<usize, C64> = HashMap::with_capacity(self.amps.len() * 2);
        let mut groups: HashMap<usize, Vec<C64>> = HashMap::new();
        for (&i, &a) in &self.amps {
            if i & cmask != cwant {
                out.insert(i, a);
                continue;
            }
            let base = i & !tmask;
            let sub = bits::gather_bits(i, &targets, n);
            groups
                .entry(base)
                .or_insert_with(|| vec![C64::new(0.0, 0.0); dim])[sub] = a;
        }
        let eps2 = eps * eps;
        for (base, vin) in groups {
            for row in 0..dim {
                let mut acc = C64::new(0.0, 0.0);
                for (col, &x) in vin.iter().enumerate() {
                    if x.re != 0.0 || x.im != 0.0 {
                        acc += m[(row, col)] * x;
                    }
                }
                if acc.norm_sqr() > eps2 {
                    out.insert(base | bits::scatter_bits(0, row, &targets, n), acc);
                }
            }
        }
        self.amps = out;
    }

    /// Applies a layout permutation by re-keying every live entry
    /// (matches [`super::kernel::permute_state`]: the bit on qubit `q`
    /// moves to qubit `perm[q]`).
    pub(crate) fn permute(&mut self, perm: &[usize]) {
        let n = self.n;
        self.amps = self
            .amps
            .drain()
            .map(|(i, a)| (bits::permute_index(i, perm, n), a))
            .collect();
    }

    /// Z-measurement outcome probabilities of qubit `q`.
    fn measure_probabilities(&self, q: usize) -> (f64, f64) {
        let shift = bits::qubit_shift(q, self.n);
        let mut p = [0.0f64; 2];
        for (&i, a) in &self.amps {
            p[(i >> shift) & 1] += a.norm_sqr();
        }
        (p[0], p[1])
    }

    /// The state collapsed onto outcome `bit` of a Z-measurement of `q`
    /// with probability `p`: entries on the other outcome drop, the
    /// rest rescale by `1/sqrt(p)`.
    fn collapsed(&self, q: usize, bit: usize, p: f64) -> SparseState {
        let shift = bits::qubit_shift(q, self.n);
        let scale = 1.0 / p.sqrt();
        let amps = self
            .amps
            .iter()
            .filter(|(&i, _)| (i >> shift) & 1 == bit)
            .map(|(&i, &a)| (i, a * scale))
            .collect();
        SparseState { n: self.n, amps }
    }
}

/// One post-measurement branch of a sparse simulation — the sparse
/// mirror of [`Branch`].
#[derive(Clone, Debug)]
pub struct SparseBranch {
    result: String,
    probability: f64,
    state: SparseState,
    measured: BTreeMap<usize, (Vec<C64>, u8)>,
}

impl SparseBranch {
    /// Concatenated measurement outcomes, in execution order.
    pub fn result(&self) -> &str {
        &self.result
    }

    /// Probability of observing this branch.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Sparse final state of this branch.
    pub fn state(&self) -> &SparseState {
        &self.state
    }
}

/// The result of a sparse execution — the sparse mirror of
/// [`Simulation`], with the same branch ordering, result strings and
/// probabilities (the differential suite asserts this).
#[derive(Clone, Debug)]
pub struct SparseSimulation {
    nb_qubits: usize,
    branches: Vec<SparseBranch>,
    peak_entries: usize,
}

impl SparseSimulation {
    /// Number of register qubits.
    pub fn nb_qubits(&self) -> usize {
        self.nb_qubits
    }

    /// All branches (unique measurement histories).
    pub fn branches(&self) -> &[SparseBranch] {
        &self.branches
    }

    /// Largest total live-entry count (summed over branches) reached
    /// after any op — the number the guard admitted against.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// The observed measurement result strings, one per branch.
    pub fn results(&self) -> Vec<&str> {
        self.branches.iter().map(|b| b.result.as_str()).collect()
    }

    /// Branch probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.branches.iter().map(|b| b.probability).collect()
    }

    /// Samples `shots` repetitions — same sampler, tally shape and
    /// result ordering as [`Simulation::counts`].
    pub fn counts(&self, shots: u64, seed: u64) -> Vec<(String, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.counts_with_rng(shots, &mut rng)
    }

    /// [`counts`](Self::counts) with a caller-supplied RNG.
    pub fn counts_with_rng(&self, shots: u64, rng: &mut impl Rng) -> Vec<(String, u64)> {
        let mut tally: BTreeMap<String, u64> = BTreeMap::new();
        for b in &self.branches {
            tally.entry(b.result.clone()).or_insert(0);
        }
        let weights: Vec<f64> = self.branches.iter().map(|b| b.probability).collect();
        let sampler = CdfTable::new(weights).expect("branch probabilities are a distribution");
        for _ in 0..shots {
            let chosen = sampler.sample(rng);
            *tally
                .entry(self.branches[chosen].result.clone())
                .or_insert(0) += 1;
        }
        tally.into_iter().collect()
    }

    /// Densifies every branch into a [`Simulation`], guard-checked
    /// against `limits` — the bridge the differential tests use to
    /// compare sparse and dense runs amplitude for amplitude.
    pub fn to_dense(&self, limits: &ResourceLimits) -> Result<Simulation, QclabError> {
        let mut branches = Vec::with_capacity(self.branches.len());
        for b in &self.branches {
            branches.push(Branch {
                result: b.result.clone(),
                probability: b.probability,
                state: b.state.to_dense(limits)?,
                measured: b.measured.clone(),
            });
        }
        Ok(Simulation {
            nb_qubits: self.nb_qubits,
            branches,
        })
    }
}

/// Executes a compiled program on a sparse initial state, mirroring the
/// dense branching walk of `simulate_with`: gates evolve every live
/// branch, measurements split branches (pruning outcomes below
/// `branch_tol`), resets Z-measure and flip without recording, fences
/// are no-ops and layout permutes re-key the support. After every gate
/// the total live-entry count is re-admitted against
/// [`ResourceLimits::check_sparse_entries`].
pub fn execute(
    program: &CompiledProgram,
    initial: SparseState,
    opts: &SparseOptions,
) -> Result<SparseSimulation, QclabError> {
    execute_controlled(program, initial, opts, &ExecutionControl::none())
}

/// [`execute`] under an [`ExecutionControl`]: the per-op loop polls the
/// deadline/cancel token at op boundaries (every
/// `control.check_every` ops), so a long sparse run stops cooperatively
/// with [`QclabError::DeadlineExceeded`] / [`QclabError::Cancelled`].
pub fn execute_controlled(
    program: &CompiledProgram,
    initial: SparseState,
    opts: &SparseOptions,
    control: &ExecutionControl,
) -> Result<SparseSimulation, QclabError> {
    let n = program.nb_qubits();
    opts.limits.check_sparse_register(n)?;
    if initial.nb_qubits() != n {
        return Err(QclabError::DimensionMismatch {
            expected: 1usize << n,
            actual: 1usize << initial.nb_qubits(),
        });
    }
    let norm = initial.norm();
    if (norm - 1.0).abs() > 1e-6 {
        return Err(QclabError::NotNormalized { norm });
    }

    let mut peak = initial.nnz();
    let mut branches = vec![SparseBranch {
        result: String::new(),
        probability: 1.0,
        state: initial,
        measured: BTreeMap::new(),
    }];
    let mut ticker = control.ticker();
    for op in program.ops() {
        match op {
            ProgramOp::Gate(g) => {
                for b in branches.iter_mut() {
                    b.state.apply_gate(g, opts.prune_eps);
                }
                let live: u128 = branches.iter().map(|b| b.state.nnz() as u128).sum();
                opts.limits.check_sparse_entries(n, live)?;
                peak = peak.max(live as usize);
            }
            ProgramOp::Fence(_) => {}
            ProgramOp::Permute { perm, .. } => {
                for b in branches.iter_mut() {
                    b.state.permute(perm);
                }
            }
            ProgramOp::Measure(m) => {
                branches = measure_sparse(branches, m, opts, n)?;
            }
            ProgramOp::Reset(q) => {
                branches = reset_sparse(branches, *q, opts, n)?;
            }
        }
        ticker.tick()?;
    }
    Ok(SparseSimulation {
        nb_qubits: n,
        branches,
        peak_entries: peak,
    })
}

/// Splits every branch on a measurement outcome — the sparse mirror of
/// the dense `measure_branches`, including the `V†`/`V` basis rotation
/// and the branch-tolerance pruning, so branch order and records match
/// the dense walk exactly. As each branch is added, the live entries —
/// of the old branches not yet split and of the new ones — are
/// re-admitted.
fn measure_sparse(
    branches: Vec<SparseBranch>,
    m: &Measurement,
    opts: &SparseOptions,
    n: usize,
) -> Result<Vec<SparseBranch>, QclabError> {
    let q = m.qubit();
    let v = m.basis().change_matrix();
    let needs_change = !matches!(m.basis(), Basis::Z);
    let mut out = Vec::with_capacity(branches.len() * 2);
    let mut live: u128 = branches.iter().map(|b| b.state.nnz() as u128).sum();
    for mut b in branches {
        live -= b.state.nnz() as u128;
        if needs_change {
            let vdg = Gate::Custom {
                name: "V†".into(),
                qubits: vec![q],
                matrix: v.dagger(),
            };
            b.state.apply_gate(&vdg, opts.prune_eps);
        }
        let (p0, p1) = b.state.measure_probabilities(q);
        for (bit, p) in [(0usize, p0), (1usize, p1)] {
            if p <= opts.branch_tol {
                continue;
            }
            let mut post = b.state.collapsed(q, bit, p);
            if needs_change {
                let vg = Gate::Custom {
                    name: "V".into(),
                    qubits: vec![q],
                    matrix: v.clone(),
                };
                post.apply_gate(&vg, opts.prune_eps);
            }
            live += post.nnz() as u128;
            opts.limits.check_sparse_entries(n, live)?;
            let mut measured = b.measured.clone();
            measured.insert(q, (v.col(bit), bit as u8));
            let mut result = b.result.clone();
            result.push(if bit == 0 { '0' } else { '1' });
            out.push(SparseBranch {
                result,
                probability: b.probability * p,
                state: post,
                measured,
            });
        }
    }
    Ok(out)
}

/// Resets a qubit to `|0>` on every branch: Z-measure and flip on
/// outcome 1, without recording — the sparse mirror of the dense
/// `reset_branches`, re-admitting live entries like [`measure_sparse`].
fn reset_sparse(
    branches: Vec<SparseBranch>,
    q: usize,
    opts: &SparseOptions,
    n: usize,
) -> Result<Vec<SparseBranch>, QclabError> {
    let mut out = Vec::with_capacity(branches.len());
    let mut live: u128 = branches.iter().map(|b| b.state.nnz() as u128).sum();
    for b in branches {
        live -= b.state.nnz() as u128;
        let (p0, p1) = b.state.measure_probabilities(q);
        for (bit, p) in [(0usize, p0), (1usize, p1)] {
            if p <= opts.branch_tol {
                continue;
            }
            let mut post = b.state.collapsed(q, bit, p);
            if bit == 1 {
                post.apply_gate(&Gate::PauliX(q), opts.prune_eps);
            }
            live += post.nnz() as u128;
            opts.limits.check_sparse_entries(n, live)?;
            out.push(SparseBranch {
                result: b.result.clone(),
                probability: b.probability * p,
                state: post,
                measured: b.measured.clone(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::QCircuit;
    use crate::gates::factories::*;
    use crate::program::{self, PlanOptions};

    fn run_sparse(c: &QCircuit, bits_str: &str) -> SparseSimulation {
        let program = program::compile(c, &PlanOptions::sparse());
        let initial = SparseState::from_bitstring(bits_str).unwrap();
        execute(&program, initial, &SparseOptions::default()).unwrap()
    }

    #[test]
    fn bell_branches_match_dense_semantics() {
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(1));
        let sim = run_sparse(&c, "00");
        assert_eq!(sim.results(), &["00", "11"]);
        let p = sim.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
        // collapsed support is a single basis state per branch
        assert_eq!(sim.branches()[0].state().nnz(), 1);
        assert!((sim.branches()[1].state().amplitude(3).re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncompute_prunes_support_back_to_one() {
        // H then H: the intermediate support is 2, the interference on
        // the way back must prune it to a single live entry
        let mut c = QCircuit::new(1);
        c.push_back(Hadamard::new(0));
        c.push_back(Hadamard::new(0));
        let sim = run_sparse(&c, "0");
        assert_eq!(sim.branches()[0].state().nnz(), 1);
        assert!((sim.branches()[0].state().amplitude(0).re - 1.0).abs() < 1e-12);
        assert_eq!(sim.peak_entries(), 2);
    }

    #[test]
    fn thirty_qubit_ghz_lives_on_two_entries() {
        let n = 30;
        let mut c = QCircuit::new(n);
        c.push_back(Hadamard::new(0));
        for q in 1..n {
            c.push_back(CNOT::new(q - 1, q));
        }
        for q in 0..n {
            c.push_back(Measurement::z(q));
        }
        // the dense engine guard-refuses this register outright
        assert!(ResourceLimits::default().check_register(n).is_err());
        let sim = run_sparse(&c, &"0".repeat(n));
        assert_eq!(sim.peak_entries(), 2);
        let mut results = sim.results();
        results.sort_unstable();
        assert_eq!(results, vec!["0".repeat(n), "1".repeat(n)]);
        for p in sim.probabilities() {
            assert!((p - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn live_entry_guard_refuses_dense_support() {
        // 20 H gates drive the support to 2^20 entries ≈ 48 MiB; a
        // 1 MiB cap must refuse mid-run with ResourceExhausted
        let n = 20;
        let mut c = QCircuit::new(n);
        for q in 0..n {
            c.push_back(Hadamard::new(q));
        }
        let program = program::compile(&c, &PlanOptions::sparse());
        let opts = SparseOptions {
            limits: ResourceLimits {
                max_qubits: None,
                max_state_bytes: 1 << 20,
            },
            ..SparseOptions::default()
        };
        let err = execute(&program, SparseState::basis_state(n, 0), &opts).unwrap_err();
        assert!(matches!(err, QclabError::ResourceExhausted { .. }));
    }

    #[test]
    fn branch_split_entry_cap_boundary_is_exact() {
        // measuring |0⟩ in the X basis splits one entry into two
        // branches, |+⟩ and |−⟩, of two entries each; two measurements
        // into four branches of eight entries in all
        let mut c = QCircuit::new(2);
        c.push_back(Measurement::x(0));
        c.push_back(Measurement::x(1));
        let program = program::compile(&c, &PlanOptions::sparse());
        let at = |entries: u128| SparseOptions {
            limits: ResourceLimits {
                max_qubits: None,
                max_state_bytes: entries * super::super::guard::SPARSE_ENTRY_BYTES,
            },
            ..SparseOptions::default()
        };
        let run = |entries| execute(&program, SparseState::basis_state(2, 0), &at(entries));
        let sim = run(16).unwrap();
        assert_eq!(sim.branches().len(), 4);
        let live: usize = sim.branches().iter().map(|b| b.state().nnz()).sum();
        assert_eq!(live, 16);
        // the last branch's entries are one over
        assert!(matches!(run(15), Err(QclabError::ResourceExhausted { .. })));
        // and a split whose first branch alone exceeds the cap stops there
        assert!(matches!(run(1), Err(QclabError::ResourceExhausted { .. })));
    }

    #[test]
    fn to_dense_round_trips() {
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(1));
        c.push_back(CNOT::new(1, 2));
        c.push_back(RotationZ::new(2, 0.3));
        let sparse = run_sparse(&c, "000");
        let dense = c.simulate_bitstring("000").unwrap();
        let densified = sparse.to_dense(&ResourceLimits::default()).unwrap();
        for (a, b) in densified.states()[0].iter().zip(dense.states()[0].iter()) {
            assert!((a - b).norm() < 1e-12);
        }
    }
}
