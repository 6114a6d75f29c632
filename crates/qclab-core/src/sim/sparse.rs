//! Sparse statevector executor: a hashmap of nonzero amplitudes keyed
//! by basis index.
//!
//! Dense simulation pays `2^n` amplitudes no matter how many are zero;
//! Grover oracles, basis-state-heavy syndrome circuits and other
//! low-entanglement workloads keep all but a handful at exactly zero.
//! This executor stores only the nonzero support, so its memory and
//! per-gate cost scale with the *live-entry count* instead of `2^n` —
//! [`ResourceLimits`] admission goes through
//! [`check_sparse_entries`](ResourceLimits::check_sparse_entries)
//! rather than the dense byte estimate, opening 30+ qubit registers the
//! dense engine guard-refuses.
//!
//! The executor consumes the same [`CompiledProgram`] as every dense
//! executor (gates, fences, permutes, mid-circuit measurements and
//! resets all supported). A [`SparseState`] is one more state the branch
//! tree carries: [`execute`] runs the shared op walk and measurement/reset
//! split of [`super`] over it and returns a [`Simulation<SparseState>`],
//! with the same records, probabilities and `counts` as the dense engine
//! — what the `sparse_equivalence` differential suite locks in. This
//! module supplies only the arithmetic. Amplitudes whose magnitude drops
//! to [`DEFAULT_PRUNE_EPS`] are removed, so destructive interference (the
//! uncompute half of an oracle) shrinks the support back down instead of
//! accumulating dead entries.
//!
//! Use [`PlanOptions::unfused()`](crate::program::PlanOptions::unfused)
//! when lowering for this executor: fusion would coarsen
//! support-preserving gate runs into dense blocks and the locality pass
//! optimizes a stride that a hashmap does not have. The automatic
//! dense/sparse dispatch, for the branch tree and for sampled runs, is
//! [`route::resolve`](crate::sim::route::resolve).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use super::control::ExecutionControl;
use super::guard::ResourceLimits;
use super::kernel::control_masks;
use super::{check_initial, walk_branches, BranchState, Simulation};
use crate::error::QclabError;
use crate::gates::Gate;
use crate::program::CompiledProgram;
use qclab_math::{bits, CVec, C64};

/// Amplitude-pruning epsilon: entries with `|amp|` at or below it are
/// dropped after a general gate application. Two orders of magnitude below the
/// 1e-12 equivalence tolerance the differential suite asserts, so
/// pruning is invisible at that precision.
pub const DEFAULT_PRUNE_EPS: f64 = 1e-14;

/// A map keyed by basis index, hashed with fixed keys: its order — and
/// every sum taken in it — is the same in every process, where std's
/// per-process random keys would move such sums in their last bits.
/// Fixed keys give up std's defence against crafted collisions; the
/// live-entry cap still bounds the map.
type Amps<V> = HashMap<usize, V, BuildHasherDefault<DefaultHasher>>;

/// A sparse `n`-qubit state: the nonzero amplitudes keyed by basis
/// index (qubit 0 is the most significant index bit, as everywhere in
/// the workspace).
#[derive(Clone, Debug, Default)]
pub struct SparseState {
    n: usize,
    amps: Amps<C64>,
}

impl SparseState {
    /// The basis state `|idx>` on `n` qubits — one live entry.
    pub fn basis_state(n: usize, idx: usize) -> Self {
        let mut amps = Amps::default();
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

    /// Iterator over the live `(basis index, amplitude)` entries, in the
    /// map's order: unspecified, but the same in every process.
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
    /// `|amp| ≤ `[`DEFAULT_PRUNE_EPS`].
    ///
    /// Diagonal gates (controls included) multiply live entries in
    /// place and can never grow or shrink the support; every other gate
    /// gathers the live entries into groups sharing their non-target
    /// bits, multiplies each group by the `2^k × 2^k` target matrix and
    /// scatters the nonzero results back — entries failing the control
    /// test pass through untouched.
    pub fn apply_gate(&mut self, gate: &Gate) {
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

        let mut out: Amps<C64> =
            Amps::with_capacity_and_hasher(self.amps.len() * 2, Default::default());
        let mut groups: Amps<Vec<C64>> = Amps::default();
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
        let eps2 = DEFAULT_PRUNE_EPS * DEFAULT_PRUNE_EPS;
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

impl BranchState for SparseState {
    type Engine = ();

    fn apply(&mut self, gate: &Gate, _n: usize, _: &()) {
        self.apply_gate(gate);
    }

    fn permute(&mut self, perm: &[usize], _n: usize, _: &()) {
        SparseState::permute(self, perm);
    }

    fn z_probabilities(&self, _n: usize, q: usize, map: Option<&[usize]>) -> (f64, f64) {
        self.measure_probabilities(map.map_or(q, |m| m[q]))
    }

    fn collapsed(&self, _n: usize, q: usize, bit: usize, p: f64, map: Option<&[usize]>) -> Self {
        SparseState::collapsed(self, map.map_or(q, |m| m[q]), bit, p)
    }

    fn live(&self) -> u128 {
        self.nnz() as u128
    }

    fn admit(limits: &ResourceLimits, n: usize, _: usize, live: u128) -> Result<(), QclabError> {
        limits.check_sparse_entries(n, live)
    }
}

impl Simulation<SparseState> {
    /// Densifies every branch into a dense [`Simulation`], guard-checked
    /// against `limits` — the bridge the differential tests use to
    /// compare sparse and dense runs amplitude for amplitude.
    pub fn to_dense(&self, limits: &ResourceLimits) -> Result<Simulation, QclabError> {
        self.clone().map_states(|s| s.to_dense(limits))
    }
}

/// Executes a compiled program on a sparse initial state: the branch
/// walk of [`super`] — gates evolve every live branch, measurements
/// split branches, resets Z-measure and flip without recording, fences
/// are no-ops and layout permutes re-key the support. After every gate
/// the total live-entry count is re-admitted against
/// [`ResourceLimits::check_sparse_entries`], and each new branch of a
/// split once its entries are known.
pub fn execute(
    program: &CompiledProgram,
    initial: SparseState,
    limits: &ResourceLimits,
) -> Result<Simulation<SparseState>, QclabError> {
    execute_controlled(program, initial, limits, &ExecutionControl::none())
}

/// [`execute`] under an [`ExecutionControl`]: the per-op loop polls the
/// deadline/cancel token at op boundaries (every
/// `control.check_every` ops), so a long sparse run stops cooperatively
/// with [`QclabError::DeadlineExceeded`] / [`QclabError::Cancelled`].
pub fn execute_controlled(
    program: &CompiledProgram,
    initial: SparseState,
    limits: &ResourceLimits,
    control: &ExecutionControl,
) -> Result<Simulation<SparseState>, QclabError> {
    let n = program.nb_qubits();
    limits.check_sparse_register(n)?;
    let width = initial.nb_qubits();
    // `n` passed the register check; `width` may not index at all
    let len = if width < usize::BITS as usize {
        1 << width
    } else {
        usize::MAX
    };
    check_initial(1 << n, len, initial.norm())?;
    let mut sim = Simulation::start(n, initial);
    let mut ticker = control.ticker();
    let peak = walk_branches(
        &mut sim.branches,
        program.ops(),
        &(),
        limits,
        n,
        &mut ticker,
    )?;
    sim.peak_entries = peak as usize;
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::QCircuit;
    use crate::gates::factories::*;
    use crate::measurement::Measurement;
    use crate::program::{self, PlanOptions};

    fn run_sparse(c: &QCircuit, bits_str: &str) -> Simulation<SparseState> {
        let program = program::compile(c, &PlanOptions::unfused());
        let initial = SparseState::from_bitstring(bits_str).unwrap();
        execute(&program, initial, &ResourceLimits::default()).unwrap()
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
        let program = program::compile(&c, &PlanOptions::unfused());
        let limits = ResourceLimits {
            max_qubits: None,
            max_state_bytes: 1 << 20,
        };
        let err = execute(&program, SparseState::basis_state(n, 0), &limits).unwrap_err();
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
        let program = program::compile(&c, &PlanOptions::unfused());
        let at = |entries: u128| ResourceLimits {
            max_qubits: None,
            max_state_bytes: entries * super::super::guard::SPARSE_ENTRY_BYTES,
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
    fn a_mismatched_initial_width_is_an_error_not_an_overflow() {
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        let program = program::compile(&c, &PlanOptions::unfused());
        let limits = ResourceLimits::default();
        for (width, actual) in [(3, 8), (70, usize::MAX)] {
            let err = execute(&program, SparseState::basis_state(width, 0), &limits).unwrap_err();
            assert_eq!(
                err,
                QclabError::DimensionMismatch {
                    expected: 4,
                    actual
                }
            );
        }
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
