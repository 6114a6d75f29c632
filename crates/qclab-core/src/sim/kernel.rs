//! In-place gate-application kernels (the QCLAB++ backend).
//!
//! QCLAB's MATLAB implementation multiplies the state vector with a sparse
//! extended unitary (see [`super::kron`]); QCLAB++ instead applies each
//! gate **in place** with specialized kernels and GPU parallelism. This
//! module reproduces that optimized code path on the CPU: bit-twiddling
//! index enumeration, per-gate-class kernels (diagonal / single-qubit /
//! controlled / SWAP / general k-qubit), and threads (`sim::par`)
//! standing in for the GPU (see DESIGN.md, substitutions).
//!
//! Every kernel has one form — the serial kernel over a `Part` of the
//! register — and one way of going parallel: above
//! [`PARALLEL_THRESHOLD_QUBITS`], `split` cuts the register into
//! disjoint parts and each thread runs that same kernel (vectorized
//! where the gate is eligible, see `sim::simd`) on its share. What is
//! computed for an amplitude group therefore never depends on the thread
//! count: **the dense state is bit-identical at any number of threads**
//! (`tests/thread_invariance.rs`).
//!
//! All kernels follow the register convention of [`qclab_math::bits`]:
//! qubit 0 is the most significant index bit.

use crate::gates::{shape, Gate, Shape};
use qclab_math::bits;
use qclab_math::scalar::C64;
use qclab_math::{CMat, CVec};

use super::par;

/// Number of register qubits from which kernels fan out over threads.
/// Below this the state fits comfortably in cache and thread fan-out
/// costs more than it saves.
pub const PARALLEL_THRESHOLD_QUBITS: usize = 18;

/// `(mask, want)` test precomputed from a gate's control list: index `i`
/// satisfies the controls iff `i & mask == want`.
type CtrlMasks = (usize, usize);

pub(crate) fn control_masks(controls: &[(usize, u8)], n: usize) -> CtrlMasks {
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

#[inline(always)]
fn ctrl_ok(i: usize, (mask, want): CtrlMasks) -> bool {
    i & mask == want
}

/// Dispatch configuration for the kernel backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelConfig {
    /// Allow multithreaded kernels from [`PARALLEL_THRESHOLD_QUBITS`] up.
    pub allow_parallel: bool,
    /// Allow the vectorized dense kernels where the CPU supports them.
    /// Switching this off falls back to the scalar kernels at runtime
    /// (graceful degradation; CLI `--no-simd`) — results are identical,
    /// only throughput changes.
    pub allow_simd: bool,
    /// Run the gate-fusion pre-pass ([`super::fusion`]) before
    /// simulation: causally-adjacent small gates merge into dense blocks,
    /// trading tiny matrix products for whole-state sweeps.
    pub fuse: bool,
    /// Qubit-footprint cap (controls included) for fused blocks, clamped
    /// to `1..=`[`super::fusion::MAX_FUSED_QUBITS_LIMIT`] by the pass.
    pub max_fused_qubits: usize,
    /// Run the locality pass (`qclab_core::program`'s logical→physical
    /// qubit remapping) during lowering and execute fence-delimited
    /// windows as cache-blocked sweeps. Switching this off reproduces
    /// the pre-remap engine bit for bit.
    pub remap: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            allow_parallel: true,
            allow_simd: true,
            fuse: true,
            max_fused_qubits: super::fusion::DEFAULT_MAX_FUSED_QUBITS,
            remap: true,
        }
    }
}

impl KernelConfig {
    /// Whether an `n`-qubit register's kernels fan out over threads.
    pub(crate) fn parallel_at(&self, n: usize) -> bool {
        self.allow_parallel && n >= PARALLEL_THRESHOLD_QUBITS
    }
}

/// Applies `gate` to `state` in place under the kernel switches of
/// `cfg`. `n` is the register size; the state must have length `2^n`.
pub fn apply_gate(gate: &Gate, state: &mut CVec, n: usize, cfg: &KernelConfig) {
    apply_prepared(&prepare_gate(gate, n), state, n, cfg);
}

/// Kernel class a gate resolves to, with every quantity the execution
/// loop would otherwise re-derive per application precomputed: control
/// masks, the dense target matrix, extracted diagonals, and the k-qubit
/// kernel's sorted shifts and scatter-offset table. This is the operand
/// payload of one bytecode instruction ([`super::bytecode`]); the
/// per-gate entry ([`apply_gate`]) builds it per call, so both
/// execute literally the same kernels on the same operands.
#[derive(Clone)]
pub(crate) struct PreparedOp {
    kind: PreparedKind,
    cm: CtrlMasks,
}

#[derive(Clone)]
enum PreparedKind {
    Swap { a: usize, b: usize },
    Diagonal(DiagWalk),
    OneQ { q: usize, m: CMat },
    Kq(KqPre),
}

/// Precomputed operands of the general k-qubit kernel: target shifts in
/// target order (SIMD dispatch), ascending (base-index construction),
/// and the scatter-index table `scatter_bits(0, sub, targets, n)` — on
/// plan-cache hits all of it lives in the cached bytecode.
#[derive(Clone)]
pub(crate) struct KqPre {
    targets: Vec<usize>,
    m: CMat,
    shifts: Vec<usize>,
    shifts_sorted: Vec<usize>,
    offsets: Vec<usize>,
}

impl KqPre {
    fn new(targets: Vec<usize>, m: CMat, n: usize) -> Self {
        let dim = 1usize << targets.len();
        debug_assert_eq!(m.rows(), dim);
        let shifts: Vec<usize> = targets.iter().map(|&q| bits::qubit_shift(q, n)).collect();
        let mut shifts_sorted = shifts.clone();
        shifts_sorted.sort_unstable();
        let offsets: Vec<usize> = (0..dim)
            .map(|sub| bits::scatter_bits(0, sub, &targets, n))
            .collect();
        KqPre {
            targets,
            m,
            shifts,
            shifts_sorted,
            offsets,
        }
    }
}

/// Classifies `gate` for an `n`-qubit register — uncontrolled SWAP, then
/// diagonal, then single-qubit, then general k-qubit — and precomputes
/// that kernel's operands. The [`KernelConfig`] flags are runtime
/// parameters of [`apply_prepared`], never of the classification.
pub(crate) fn prepare_gate(gate: &Gate, n: usize) -> PreparedOp {
    let controls = gate.controls();
    let cm = control_masks(&controls, n);

    // dedicated permutation kernel for the uncontrolled SWAP
    if let Gate::Swap(a, b) = gate {
        if controls.is_empty() {
            return PreparedOp {
                kind: PreparedKind::Swap { a: *a, b: *b },
                cm,
            };
        }
    }

    let targets = gate.targets();
    let matrix = gate.target_matrix();

    let kind = if shape(matrix.rows(), matrix.as_slice(), 0.0) == Shape::Diagonal {
        let diag: Vec<C64> = (0..matrix.rows()).map(|i| matrix[(i, i)]).collect();
        PreparedKind::Diagonal(DiagWalk::new(n, &targets, &diag, cm))
    } else if targets.len() == 1 {
        PreparedKind::OneQ {
            q: targets[0],
            m: matrix,
        }
    } else {
        PreparedKind::Kq(KqPre::new(targets, matrix, n))
    };
    PreparedOp { kind, cm }
}

/// Executes a [`PreparedOp`] against a `2^n`-amplitude slice. Runtime
/// flags (`allow_parallel`, `allow_simd`) come from `cfg`; the kernel
/// class and its operands were fixed by [`prepare_gate`].
pub(crate) fn apply_prepared(pre: &PreparedOp, state: &mut [C64], n: usize, cfg: &KernelConfig) {
    debug_assert_eq!(state.len(), 1usize << n);
    let parallel = cfg.parallel_at(n);
    match &pre.kind {
        PreparedKind::Swap { a, b } => apply_swap(state, n, *a, *b, parallel),
        PreparedKind::Diagonal(walk) => apply_diagonal(state, walk, parallel, cfg.allow_simd),
        PreparedKind::OneQ { q, m } => apply_1q(state, n, *q, m, pre.cm, parallel, cfg.allow_simd),
        PreparedKind::Kq(kq) => apply_kq(state, kq, pre.cm, parallel, cfg.allow_simd),
    }
}

/// Tile size (in qubits) of the cache-blocked sweep: `2^12` amplitudes =
/// 64 KiB, sized to keep one tile resident in L1/L2 across every gate of
/// a window.
pub const SWEEP_TILE_QUBITS: usize = 12;

/// Physically permutes the state vector in place: the amplitude at index
/// `i` moves to index [`bits::permute_index`]`(i, perm, n)` (the bit on
/// qubit `q` moves to qubit `perm[q]`). Realizes the locality pass's
/// layout changes without a second vector. Every permutation is the
/// product of two involutions (`involutions`), and an involution of the
/// index bits is one pair-exchange pass: the SWAP kernel for a single
/// transposition, `exchange_pass` for more. A window's layout change
/// (disjoint transpositions) is therefore one pass, any restore at most
/// two. A state with at most `2^n / 1024` nonzero amplitudes (a register
/// still near `|0…0⟩`) moves just those instead.
///
/// Pure data movement — no arithmetic — so it can never perturb a
/// single amplitude bit.
pub fn permute_state(state: &mut [C64], n: usize, perm: &[usize], parallel: bool) {
    // the passes index the register through raw pointers: a shorter
    // state would be written past its end
    assert_eq!(state.len(), 1usize << n);
    assert_eq!(perm.len(), n);
    if perm.iter().enumerate().all(|(q, &p)| q == p) || move_support(state, n, perm) {
        return;
    }
    let (first, second) = involutions(perm);
    for sigma in [first, second] {
        let moved: Vec<usize> = (0..n).filter(|&q| sigma[q] != q).collect();
        match moved[..] {
            [] => {}
            [a, b] => apply_swap(state, n, a, b, parallel),
            _ => exchange_pass(state, n, &sigma, &moved, parallel),
        }
    }
}

/// The sparse form of [`permute_state`]: when at most `2^n / 1024`
/// amplitudes are nonzero, clears them and writes each to its
/// destination, and returns `true`; otherwise changes nothing and returns
/// `false`. The scan stops at the first amplitude over that bound, which
/// keeps the list (24 B an entry) under 3 % of the state it spares a pass
/// over. Occupancy is tested on the bits (`-0.0` counts as occupied and moves
/// verbatim), so every other amplitude is `+0.0` and stays valid.
fn move_support(state: &mut [C64], n: usize, perm: &[usize]) -> bool {
    let cap = (state.len() >> 10).max(1);
    let mut nz: Vec<(usize, C64)> = Vec::new();
    let sparse = state.iter().enumerate().all(|(i, &z)| {
        if z.re.to_bits() != 0 || z.im.to_bits() != 0 {
            if nz.len() == cap {
                return false;
            }
            nz.push((i, z));
        }
        true
    });
    if sparse {
        for &(i, _) in &nz {
            state[i] = C64::new(0.0, 0.0);
        }
        for (i, z) in nz {
            state[bits::permute_index(i, perm, n)] = z;
        }
    }
    sparse
}

/// Splits the qubit permutation `perm` into two involutions `(first,
/// second)` with `second[first[q]] == perm[q]`, so permuting by `first`
/// and then by `second` permutes by `perm`. On each cycle
/// `c_0 → c_1 → … → c_{k−1}` of `perm`, `first` reflects `c_j ↔ c_{−j}`
/// and `second` reflects `c_j ↔ c_{1−j}` (indices mod `k`). An involution
/// comes back as `(identity, perm)`.
fn involutions(perm: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = perm.len();
    let mut first: Vec<usize> = (0..n).collect();
    let mut second = first.clone();
    let mut seen = vec![false; n];
    let mut cycle = Vec::new();
    for start in 0..n {
        cycle.clear();
        let mut q = start;
        while !seen[q] {
            seen[q] = true;
            cycle.push(q);
            q = perm[q];
        }
        let k = cycle.len();
        for (j, &c) in cycle.iter().enumerate() {
            first[c] = cycle[(k - j) % k];
            second[c] = cycle[(k + 1 - j) % k];
        }
    }
    (first, second)
}

/// One in-place pass of an involution `sigma` of the qubits (`moved` its
/// displaced ones): exchanges every amplitude pair `(i, P(i))` with
/// `P(i) > i`, `P` the index map of `sigma`, which is its own inverse —
/// the SWAP kernel generalised to several transpositions. `P` changes the
/// moved bits only, so a pair never leaves a [`split`] part of a gate on
/// them; inside a part the indices are walked in ascending order.
fn exchange_pass(state: &mut [C64], n: usize, sigma: &[usize], moved: &[usize], parallel: bool) {
    let tmask = moved
        .iter()
        .fold(0usize, |t, &q| t | 1 << bits::qubit_shift(q, n));
    // P distributes over disjoint bit sets, P(hi | lo) = P(hi) | P(lo):
    // one table per half of the index replaces the per-element bit loop
    let lo_bits = n / 2;
    let lo_mask = (1usize << lo_bits) - 1;
    let lo: Vec<usize> = (0..=lo_mask)
        .map(|j| bits::permute_index(j, sigma, n))
        .collect();
    let hi: Vec<usize> = (0..1usize << (n - lo_bits))
        .map(|h| bits::permute_index(h << lo_bits, sigma, n))
        .collect();
    split(state, tmask, parallel, |p| {
        // the part's indices: `r0` plus any setting of the range's bits
        // and of the target bits above it, enumerated in ascending order
        let free = (p.rlen - 1) | (tmask & !(p.rlen - 1));
        let mut x = 0usize;
        loop {
            let i = p.r0 | x;
            let j = hi[i >> lo_bits] | lo[i & lo_mask];
            if j > i {
                // SAFETY: `i` and `j` differ in target bits only, so both
                // belong to the group of `i`, which is based in `p`
                unsafe { std::ptr::swap(p.at(i), p.at(j)) };
            }
            if x == free {
                break;
            }
            x = ((x | !free) + 1) & free;
        }
    });
}

/// One gate of a cache-blocked sweep window, pre-lowered to the tile
/// register: `gate` is relabeled to the `b` tile-local qubits, and any
/// controls on qubits *outside* the tile (constant within it) are
/// stripped into a `(mask, want)` test on the tile's base index.
struct TileGate {
    gate: Gate,
    hi_mask: usize,
    hi_want: usize,
    /// `true` if controls were stripped: the full-vector kernel would
    /// have run the scalar path (controlled gates never vectorize), so
    /// the tile must too for the sweep to stay bit-identical to the
    /// per-gate walk.
    had_hi_controls: bool,
}

/// Whether `gate` may join a cache-blocked sweep window over the low
/// `b = `[`SWEEP_TILE_QUBITS`] index bits: every *target* must live
/// inside the tile (controls may sit anywhere — they are constant per
/// tile and become a base-index test).
pub(crate) fn sweepable(gate: &Gate, n: usize) -> bool {
    n > SWEEP_TILE_QUBITS
        && gate
            .targets()
            .iter()
            .all(|&q| bits::qubit_shift(q, n) < SWEEP_TILE_QUBITS)
}

/// Lowers `gate` (on the full `n`-qubit register, all targets inside the
/// tile) to a [`TileGate`] on the `b`-qubit tile register.
fn tile_gate(gate: &Gate, n: usize) -> TileGate {
    let b = SWEEP_TILE_QUBITS;
    let lo_qubit = n - b; // first qubit inside the tile
    let (mut hi_mask, mut hi_want) = (0usize, 0usize);
    let mut stripped = gate.clone();
    let mut had_hi_controls = false;
    if let Gate::Controlled {
        controls,
        control_states,
        target,
    } = gate
    {
        let mut keep_c = Vec::new();
        let mut keep_s = Vec::new();
        for (&c, &s) in controls.iter().zip(control_states) {
            if c < lo_qubit {
                let bit = 1usize << bits::qubit_shift(c, n);
                hi_mask |= bit;
                if s == 1 {
                    hi_want |= bit;
                }
                had_hi_controls = true;
            } else {
                keep_c.push(c);
                keep_s.push(s);
            }
        }
        stripped = if keep_c.is_empty() {
            (**target).clone()
        } else {
            Gate::Controlled {
                controls: keep_c,
                control_states: keep_s,
                target: target.clone(),
            }
        };
    }
    // relabel the remaining (in-tile) qubits down to the tile register;
    // qubits below `lo_qubit` are never referenced after stripping
    let map: Vec<usize> = (0..n).map(|q| q.saturating_sub(lo_qubit)).collect();
    TileGate {
        gate: stripped.relabeled(&map),
        hi_mask,
        hi_want,
        had_hi_controls,
    }
}

/// One window gate pre-lowered all the way to its executable form: the
/// tile-register [`PreparedOp`] plus the stripped-control base-index
/// test. This is the operand payload of a bytecode `Window` instruction.
#[derive(Clone)]
pub(crate) struct TilePre {
    pre: PreparedOp,
    hi_mask: usize,
    hi_want: usize,
    /// `true` if controls were stripped: the full-vector kernel would
    /// have run the scalar path (controlled gates never vectorize), so
    /// the tile must too for the sweep to stay bit-identical to the
    /// per-gate walk.
    scalar: bool,
}

/// Lowers a [`sweepable`] gate to its prepared tile form.
pub(crate) fn prepare_tile(gate: &Gate, n: usize) -> TilePre {
    let tg = tile_gate(gate, n);
    TilePre {
        pre: prepare_gate(&tg.gate, SWEEP_TILE_QUBITS),
        hi_mask: tg.hi_mask,
        hi_want: tg.hi_want,
        scalar: tg.had_hi_controls,
    }
}

/// Cache-blocked sweep (the bytecode `Window` instruction's execution
/// loop): applies a window of pre-lowered [`sweepable`] gates
/// tile-by-tile, so each `2^b`-amplitude tile stays cache-resident across
/// *all* gates of the window instead of the state being walked once per
/// gate. Tiles partition the register, so the threads share it out as
/// disjoint `&mut` chunks.
pub(crate) fn apply_window_pre(state: &mut CVec, n: usize, tgs: &[TilePre], cfg: &KernelConfig) {
    let b = SWEEP_TILE_QUBITS;
    let tile_len = 1usize << b;
    // the tiles are the parts here: inside one the kernels run serially,
    // vectorized wherever the full-vector walk would be (see `use_simd`)
    let cfg_tile = KernelConfig {
        allow_parallel: false,
        ..*cfg
    };
    let cfg_scalar = KernelConfig {
        allow_simd: false,
        ..cfg_tile
    };
    let run_tile = |ti: usize, tile: &mut [C64]| {
        // occupancy skip: window gates keep every target inside the
        // tile, so an exactly-zero tile stays exactly zero through the
        // whole window. Occupied tiles exit the scan at their first
        // nonzero amplitude; only dead tiles pay a full read. After a
        // remap this is where "hot qubits low" pays off structurally:
        // idle high-stride qubits leave the support packed into a few
        // contiguous tiles instead of scattered across all of them.
        if tile.iter().all(|z| z.re == 0.0 && z.im == 0.0) {
            return;
        }
        let base = ti * tile_len;
        for tg in tgs {
            if base & tg.hi_mask == tg.hi_want {
                let c = if tg.scalar { &cfg_scalar } else { &cfg_tile };
                apply_prepared(&tg.pre, tile, b, c);
            }
        }
    };
    par::for_each_chunk(par::width(cfg.parallel_at(n)), state, tile_len, run_tile);
}

/// One thread's share of a gate application: the aligned index range
/// `[r0, r0 + rlen)`, of which the kernel processes every group whose
/// *base index* (all target bits zero) lies inside. A target whose
/// stride is below `rlen` is enumerated inside the range, so when all of
/// them are the range is a self-contained sub-register. A target whose
/// stride is `rlen` or more is zero across the whole range and its
/// partner amplitudes sit at `base + stride`, outside it — which is why
/// a part carries a pointer to the whole register instead of a
/// sub-slice. The serial path is the single part `r0 = 0, rlen = len`.
#[derive(Clone, Copy)]
pub(crate) struct Part<'a> {
    ptr: *mut C64,
    len: usize,
    pub(crate) r0: usize,
    pub(crate) rlen: usize,
    /// Holds the register's exclusive borrow for as long as any part of
    /// it is around.
    register: std::marker::PhantomData<&'a mut [C64]>,
}

// SAFETY: `ptr`/`len` describe a register that is exclusively borrowed
// for `'a`; several parts of it exist at once only inside `split`, which
// hands the parts that run concurrently pairwise disjoint index sets
// (asserted there), and `at` obliges its caller to stay inside the
// part's set. `C64` is plain data; the other fields are integers.
unsafe impl Send for Part<'_> {}
unsafe impl Sync for Part<'_> {}

impl<'a> Part<'a> {
    /// The serial part: the whole register as one range.
    pub(crate) fn whole(state: &'a mut [C64]) -> Part<'a> {
        Part {
            ptr: state.as_mut_ptr(),
            len: state.len(),
            r0: 0,
            rlen: state.len(),
            register: std::marker::PhantomData,
        }
    }

    /// Length of the register (not of the range).
    pub(crate) fn len(self) -> usize {
        self.len
    }

    /// Same register, another range. A method rather than struct-update
    /// syntax so closures capture the whole `Sync` wrapper, not its raw
    /// pointer field (2021-edition closures capture disjoint fields).
    fn with_range(self, r0: usize, rlen: usize) -> Part<'a> {
        Part { r0, rlen, ..self }
    }

    /// Number of groups based in this part, for a gate with target bits
    /// `tmask`: one per setting of the range's non-target index bits.
    #[inline]
    pub(crate) fn groups(self, tmask: usize) -> usize {
        self.rlen >> (tmask & (self.rlen - 1)).count_ones()
    }

    /// Pointer to amplitude `i` of the register.
    ///
    /// # Safety
    /// `i` must be in bounds (checked under `debug_assertions`) and belong
    /// to a group based in this part: `i` with the gate's target bits
    /// cleared lies in `[r0, r0 + rlen)`. Parts of one [`split`] share no
    /// group, so accesses through them never alias.
    #[inline(always)]
    pub(crate) unsafe fn at(self, i: usize) -> *mut C64 {
        debug_assert!(i < self.len, "amplitude {i} outside {}", self.len);
        unsafe { self.ptr.add(i) }
    }
}

/// log2 of the number of parts a sweep over `width` threads is cut
/// into: none on one thread, else four per thread rounded up to a power
/// of two, so the pieces stay balanced at thread counts that are not
/// powers of two.
fn part_bits(width: usize) -> usize {
    if width == 1 {
        return 0;
    }
    (4 * width).next_power_of_two().trailing_zeros() as usize
}

/// The one parallel form of every pairing kernel: runs `kernel` — the
/// serial kernel — on disjoint [`Part`]s of the register. The cut is made
/// on the highest index bits that are not targets of the gate (`tmask`
/// has a bit set per target), so a gate on low qubits sees contiguous
/// aligned sub-registers and a gate on the top qubit(s) sees its group
/// range divided instead. Which groups land in which part changes with
/// the thread count; what is computed for a group does not.
fn split(state: &mut [C64], tmask: usize, parallel: bool, kernel: impl Fn(Part<'_>) + Send + Sync) {
    let whole = Part::whole(state);
    let width = par::width(parallel);
    let (mut p, mut cut, want) = (whole.len().trailing_zeros() as usize, 0, part_bits(width));
    while cut < want && p > 1 {
        p -= 1;
        cut += usize::from(tmask >> p & 1 == 0);
    }
    // part `v` starts where the bits of `v` sit on the cut positions:
    // shifted past the range, then spread around the targets above it
    let high = tmask >> p << p;
    let start = |v: usize| {
        let (mut r0, mut h) = (v << p, high);
        while h != 0 {
            r0 = bits::insert_bit(r0, h.trailing_zeros() as usize);
            h &= h - 1;
        }
        r0
    };
    // disjoint and covering: starts ascend on the cut bits alone, and
    // each part owns its range times every setting of the high targets
    debug_assert_eq!(((1usize << cut) << p) << high.count_ones(), whole.len());
    debug_assert!((0..1usize << cut).all(|v| {
        start(v) & (high | ((1 << p) - 1)) == 0 && (v == 0 || start(v - 1) < start(v))
    }));
    par::for_each(width, 1 << cut, |v| {
        kernel(whole.with_range(start(v), 1 << p))
    });
}

/// [`split`] for the diagonal kernel, which scales every amplitude on its
/// own: `kernel(base, chunk)` over aligned contiguous chunks, `base` the
/// register index of `chunk[0]`. No amplitude has a partner, so plain
/// disjoint `&mut` chunks do.
fn split_flat(state: &mut [C64], parallel: bool, kernel: impl Fn(usize, &mut [C64]) + Send + Sync) {
    let width = par::width(parallel);
    let chunk = (state.len() >> part_bits(width)).max(1);
    par::for_each_chunk(width, state, chunk, |ci, part| kernel(ci * chunk, part));
}

/// Whether the vectorized dense kernels take over. Nothing about the
/// thread count enters: every part of a [`split`] gate runs the same
/// kernel the serial path would, which is what makes the state
/// bit-identical at any number of threads.
#[cfg(target_arch = "x86_64")]
#[inline]
fn use_simd(allow: bool) -> bool {
    allow && super::simd::available()
}

/// Single-qubit kernel: walks the register in `(i, i + 2^s)` pairs and
/// applies the 2x2 matrix, skipping pairs whose control bits don't match.
fn apply_1q(
    state: &mut [C64],
    n: usize,
    q: usize,
    m: &CMat,
    cm: CtrlMasks,
    parallel: bool,
    simd: bool,
) {
    let s = bits::qubit_shift(q, n);
    let half = 1usize << s;
    let m = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
    #[cfg(target_arch = "x86_64")]
    let simd = cm.0 == 0 && use_simd(simd);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    split(state, half, parallel, |p| {
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: AVX2+FMA checked by `use_simd`; `p` is a part of a
            // gate with target bit `s`
            unsafe {
                if s >= 1 {
                    super::simd::apply_1q_dense(p, s, m);
                } else {
                    super::simd::apply_1q_dense_lsb(p, m);
                }
            }
            return;
        }
        let run = half.min(p.rlen);
        for a in (p.r0..p.r0 + p.rlen).step_by((half << 1).min(p.rlen)) {
            for i in a..a + run {
                if ctrl_ok(i, cm) {
                    // SAFETY: `i` has bit `s` clear and lies in the part
                    unsafe {
                        let (lo, hi) = (p.at(i), p.at(i + half));
                        let (x, y) = (*lo, *hi);
                        *lo = m[0] * x + m[1] * y;
                        *hi = m[2] * x + m[3] * y;
                    }
                }
            }
        }
    });
}

/// Lanes of the diagonal kernel's entry pattern: the amplitudes whose
/// index differs only in bits 0–2, four vector registers.
pub(crate) const DIAG_LANES: usize = 8;

/// A diagonal gate as the diagonal kernel walks it. Amplitude `i` is
/// scaled by the entry its target bits select, or left alone when its
/// controls do not match. Bits 0–2 of `i` pick one of [`DIAG_LANES`]
/// lanes; every other involved bit (target or control) is fixed along
/// an aligned run of `run` amplitudes, which therefore repeats one lane
/// pattern. So the controls on bits 0–2 fold into the pattern (their
/// mismatching lanes read one), the targets above pick it, and only the
/// controls above are tested, once per run.
#[derive(Clone)]
pub(crate) struct DiagWalk {
    /// Run length: the lowest involved bit at or above the lanes' bits,
    /// `usize::MAX` when there is none (a run is then the whole part).
    run: usize,
    /// The controls on bits above the lanes', tested once per run.
    ctrl: CtrlMasks,
    /// Target bits above the lanes', lowest first: bit `j` of a run's
    /// pattern index is bit `keys[j]` of its first amplitude's index.
    keys: Vec<usize>,
    /// Each run's lane entries, indexed as above; `None` where every
    /// entry is one, so the run is skipped.
    patterns: Vec<Option<[C64; DIAG_LANES]>>,
}

impl DiagWalk {
    /// Diagonal `diag` on `targets` (gate order, `diag` indexed as
    /// [`bits::gather_bits`] reads them), controls `cm`, `n` qubits.
    fn new(n: usize, targets: &[usize], diag: &[C64], cm: CtrlMasks) -> Self {
        // the index bits that pick a lane
        let low = DIAG_LANES - 1;
        let tmask = targets
            .iter()
            .fold(0usize, |t, &q| t | 1 << bits::qubit_shift(q, n));
        let above = (tmask | cm.0) & !low;
        let keys: Vec<usize> = (0..usize::BITS as usize)
            .filter(|&b| (tmask & !low) >> b & 1 == 1)
            .collect();
        let one = C64::new(1.0, 0.0);
        // an uncontrolled diagonal on no target is the identity
        let identity = targets.is_empty() && cm.0 == 0;
        let patterns = (0..1usize << keys.len())
            .map(|key| {
                let hi = keys
                    .iter()
                    .enumerate()
                    .fold(0, |i, (j, &b)| i | (key >> j & 1) << b);
                let lane = |l: usize| {
                    let i = hi | l;
                    if i & cm.0 & low == cm.1 & low {
                        diag[bits::gather_bits(i, targets, n)]
                    } else {
                        one
                    }
                };
                let entries: [C64; DIAG_LANES] = std::array::from_fn(lane);
                (!identity && entries.iter().any(|&d| d != one)).then_some(entries)
            })
            .collect();
        DiagWalk {
            run: if above == 0 {
                usize::MAX
            } else {
                1 << above.trailing_zeros()
            },
            ctrl: (cm.0 & !low, cm.1 & !low),
            keys,
            patterns,
        }
    }

    /// Calls `scale(run, lanes)` for every run of `part` (`base` the
    /// register index of `part[0]`) that holds an entry other than one:
    /// amplitude `j` of the run is to be scaled by `lanes[j % 8]`.
    #[inline(always)]
    pub(crate) fn for_each_run(
        &self,
        base: usize,
        part: &mut [C64],
        mut scale: impl FnMut(&mut [C64], &[C64; DIAG_LANES]),
    ) {
        let run = self.run.min(part.len());
        for (ri, chunk) in part.chunks_mut(run).enumerate() {
            let i0 = base + ri * run;
            if !ctrl_ok(i0, self.ctrl) {
                continue;
            }
            let key = self
                .keys
                .iter()
                .enumerate()
                .fold(0, |k, (j, &b)| k | (i0 >> b & 1) << j);
            if let Some(lanes) = &self.patterns[key] {
                scale(chunk, lanes);
            }
        }
    }
}

/// Diagonal kernel: Z, S, T, RZ, P, RZZ, diagonal fused blocks and all
/// their controlled versions, in one streaming pass that touches only
/// the runs with an entry other than one. Vectorized wherever the CPU
/// allows; the scalar loop (`--no-simd`) computes the same product, and
/// both leave a lane whose entry is one untouched, so the bits agree.
fn apply_diagonal(state: &mut [C64], walk: &DiagWalk, parallel: bool, simd: bool) {
    #[cfg(target_arch = "x86_64")]
    let simd = use_simd(simd);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    let one = C64::new(1.0, 0.0);
    split_flat(state, parallel, |base, part| {
        #[cfg(target_arch = "x86_64")]
        if simd && part.len().is_multiple_of(DIAG_LANES) {
            // SAFETY: AVX2+FMA checked by `use_simd`, and the part's
            // length checked just above
            return unsafe { super::simd::apply_diagonal(walk, base, part) };
        }
        walk.for_each_run(base, part, |run, lanes| {
            for chunk in run.chunks_mut(DIAG_LANES) {
                for (z, &d) in chunk.iter_mut().zip(lanes) {
                    if d != one {
                        *z *= d;
                    }
                }
            }
        });
    });
}

/// Uncontrolled SWAP kernel: exchanges amplitudes whose `a`/`b` bits
/// differ (a pure permutation — no arithmetic at all).
fn apply_swap(state: &mut [C64], n: usize, a: usize, b: usize, parallel: bool) {
    let sa = bits::qubit_shift(a, n);
    let sb = bits::qubit_shift(b, n);
    let (hi, lo) = (sa.max(sb), sa.min(sb));
    let tmask = (1usize << hi) | (1 << lo);
    // enumerate indices with bit hi = 1 and bit lo = 0; partner has them
    // exchanged. Two inserts build the index from a (n-2)-bit counter.
    split(state, tmask, parallel, |p| {
        for k in 0..p.groups(tmask) {
            let base = p.r0 | bits::insert_bit(bits::insert_bit(k, lo), hi);
            // SAFETY: both indices belong to the group based at `base`
            unsafe { std::ptr::swap(p.at(base | (1 << hi)), p.at(base | (1 << lo))) };
        }
    });
}

/// One gather–multiply–scatter group of the k-qubit kernel. `base` has
/// zero bits at every target position, so `base | offsets[sub]` is the
/// amplitude index holding sub-state `sub` of the group (`offsets` is the
/// precomputed scatter-index table `scatter_bits(0, sub, targets, n)`).
///
/// # Safety
/// `base` must be the base index of a group of part `p`.
#[inline]
unsafe fn kq_group(
    p: Part<'_>,
    base: usize,
    offsets: &[usize],
    m: &CMat,
    gathered: &mut [C64],
    out: &mut [C64],
) {
    for (g, &off) in gathered.iter_mut().zip(offsets) {
        *g = unsafe { *p.at(base | off) };
    }
    for (r, o) in out.iter_mut().enumerate() {
        let mut acc = C64::new(0.0, 0.0);
        let row = m.row(r);
        for (c, &g) in gathered.iter().enumerate() {
            acc += row[c] * g;
        }
        *o = acc;
    }
    for (&o, &off) in out.iter().zip(offsets) {
        unsafe {
            *p.at(base | off) = o;
        }
    }
}

/// General k-target-qubit kernel: gathers the `2^k` amplitudes of each
/// group, multiplies by the dense gate matrix, and scatters back. The
/// scatter-index table and sorted shifts come precomputed in [`KqPre`]
/// (once per *plan* in the bytecode, once per call through
/// [`apply_gate`]);
/// each group only pays one base-index construction plus an OR per
/// amplitude.
fn apply_kq(state: &mut [C64], kq: &KqPre, cm: CtrlMasks, parallel: bool, simd: bool) {
    let k = kq.targets.len();
    let dim = 1usize << k;
    let m = &kq.m;
    let tmask = kq.shifts.iter().fold(0usize, |t, &s| t | (1 << s));

    // uncontrolled two-qubit gates — in particular the dense blocks the
    // fusion pass emits — always vectorize; larger fused blocks (up to
    // the fusion cap) use the generic vectorized gather/matvec/scatter
    // when no target sits on the least significant qubit
    #[cfg(target_arch = "x86_64")]
    let simd = cm.0 == 0
        && use_simd(simd)
        && (k == 2
            || ((3..=4).contains(&k)
                && state.len() >> k >= 2
                && kq.shifts.iter().all(|&s| s >= 1)));
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;

    split(state, tmask, parallel, |p| {
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: AVX2+FMA checked by `use_simd`; `p` is a part of a
            // gate with target bits `kq.shifts`, and the shift conditions
            // of each kernel were checked above
            unsafe {
                if k > 2 {
                    super::simd::apply_kq_dense(p, &kq.shifts, m.as_slice());
                } else if kq.shifts[0].min(kq.shifts[1]) >= 1 {
                    super::simd::apply_2q_dense(p, kq.shifts[0], kq.shifts[1], m.as_slice());
                } else {
                    super::simd::apply_2q_dense_lsb(p, kq.shifts[0], kq.shifts[1], m.as_slice());
                }
            }
            return;
        }
        let mut gathered = vec![C64::new(0.0, 0.0); dim];
        let mut out = vec![C64::new(0.0, 0.0); dim];
        for mcount in 0..p.groups(tmask) {
            let mut base = mcount;
            for &s in &kq.shifts_sorted {
                base = bits::insert_bit(base, s);
            }
            let base = p.r0 | base;
            if ctrl_ok(base, cm) {
                // SAFETY: `base` has every target bit clear and lies in `p`
                unsafe { kq_group(p, base, &kq.offsets, m, &mut gathered, &mut out) };
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::factories::*;
    use qclab_math::scalar::cr;

    const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    /// Runs `f` with the kernels' fan-out capped at `threads`.
    fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the vendored pool always builds")
            .install(f)
    }

    fn apply_to_zero(gates: &[Gate], n: usize) -> CVec {
        let mut state = CVec::basis_state(1 << n, 0);
        for g in gates {
            apply_gate(g, &mut state, n, &KernelConfig::default());
        }
        state
    }

    #[test]
    fn hadamard_on_zero_gives_plus() {
        let s = apply_to_zero(&[Hadamard::new(0)], 1);
        assert!((s[0].re - INV_SQRT2).abs() < 1e-15);
        assert!((s[1].re - INV_SQRT2).abs() < 1e-15);
    }

    #[test]
    fn bell_state_via_kernels() {
        let s = apply_to_zero(&[Hadamard::new(0), CNOT::new(0, 1)], 2);
        assert!((s[0].re - INV_SQRT2).abs() < 1e-15);
        assert!((s[3].re - INV_SQRT2).abs() < 1e-15);
        assert!(s[1].norm() < 1e-15);
        assert!(s[2].norm() < 1e-15);
    }

    #[test]
    fn cnot_control_on_msb_qubit() {
        // |10> --CNOT(0,1)--> |11>
        let mut s = CVec::from_bitstring("10").unwrap();
        apply_gate(&CNOT::new(0, 1), &mut s, 2, &KernelConfig::default());
        assert!((s[3].re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn open_control_fires_on_zero() {
        // control state 0: |00> -> |01>
        let mut s = CVec::from_bitstring("00").unwrap();
        apply_gate(
            &CNOT::with_control_state(0, 1, 0),
            &mut s,
            2,
            &KernelConfig::default(),
        );
        assert!((s[1].re - 1.0).abs() < 1e-15);
        // and leaves |10> alone
        let mut s = CVec::from_bitstring("10").unwrap();
        apply_gate(
            &CNOT::with_control_state(0, 1, 0),
            &mut s,
            2,
            &KernelConfig::default(),
        );
        assert!((s[2].re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn swap_kernel_permutes() {
        let mut s = CVec::from_bitstring("10").unwrap();
        apply_gate(&SwapGate::new(0, 1), &mut s, 2, &KernelConfig::default());
        assert!((s[1].re - 1.0).abs() < 1e-15);
        // swap twice restores
        apply_gate(&SwapGate::new(0, 1), &mut s, 2, &KernelConfig::default());
        assert!((s[2].re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn swap_on_nonadjacent_qubits() {
        let mut s = CVec::from_bitstring("100").unwrap();
        apply_gate(&SwapGate::new(0, 2), &mut s, 3, &KernelConfig::default());
        assert_eq!(
            qclab_math::bits::index_to_bitstring(s.iter().position(|z| z.norm() > 0.5).unwrap(), 3),
            "001"
        );
    }

    #[test]
    fn mcx_paper_gate_fires_only_on_matching_controls() {
        // MCX([3,4], 2, [0,1]) on 5 qubits: flips q2 iff q3=0 and q4=1
        let g = MCX::new(&[3, 4], 2, &[0, 1]);
        let mut s = CVec::from_bitstring("00001").unwrap();
        apply_gate(&g, &mut s, 5, &KernelConfig::default());
        let idx = s.iter().position(|z| z.norm() > 0.5).unwrap();
        assert_eq!(qclab_math::bits::index_to_bitstring(idx, 5), "00101");
        // non-matching ancilla pattern leaves the state untouched
        let mut s = CVec::from_bitstring("00011").unwrap();
        apply_gate(&g, &mut s, 5, &KernelConfig::default());
        let idx = s.iter().position(|z| z.norm() > 0.5).unwrap();
        assert_eq!(qclab_math::bits::index_to_bitstring(idx, 5), "00011");
    }

    #[test]
    fn diagonal_kernel_matches_general_kernel() {
        // apply CZ via the diagonal path and via a Custom (dense) gate
        let cz = CZ::new(0, 1);
        let dense = CustomGate::new(
            "CZdense",
            &[0, 1],
            crate::circuit::QCircuit::to_matrix(&{
                let mut c = crate::circuit::QCircuit::new(2);
                c.push_back(CZ::new(0, 1));
                c
            })
            .unwrap(),
        )
        .unwrap();
        let mut s1 = CVec(vec![cr(0.5); 4]);
        let mut s2 = s1.clone();
        apply_gate(&cz, &mut s1, 2, &KernelConfig::default());
        apply_gate(&dense, &mut s2, 2, &KernelConfig::default());
        assert!(s1.approx_eq(&s2, 1e-14));
    }

    /// Every gate form's shape at floor 0, and the kernel class it
    /// selects: the diagonal kernel exactly when the shape is diagonal.
    /// At floor 0 the trig rounding of `cos(π/2)` and `sin(π)` counts,
    /// so an X or Y rotation is diagonal only at angle 0.
    #[test]
    fn the_diagonal_kernel_runs_exactly_the_diagonal_shapes() {
        use crate::gates::matrices;
        use crate::program::{self, PlanOptions, ProgramOp};
        use std::f64::consts::{PI, TAU};
        use Shape::{Dense, Diagonal, Permutation};

        let mut cases = vec![
            (IdentityGate::new(0), Diagonal),
            (Hadamard::new(0), Dense),
            (PauliX::new(0), Permutation),
            (PauliY::new(0), Permutation),
            (PauliZ::new(0), Diagonal),
            (SGate::new(0), Diagonal),
            (SdgGate::new(0), Diagonal),
            (TGate::new(0), Diagonal),
            (TdgGate::new(0), Diagonal),
            (SXGate::new(0), Dense),
            (SXdgGate::new(0), Dense),
            (U2Gate::new(0, 0.4, 0.7), Dense),
            (SwapGate::new(0, 2), Permutation),
            (ISwapGate::new(0, 2), Permutation),
            (CNOT::new(0, 1), Permutation),
            (CNOT::with_control_state(0, 1, 0), Permutation),
            (CY::new(2, 0), Permutation),
            (CZ::new(0, 1), Diagonal),
            (CH::new(1, 0), Dense),
            (CU::new(0, Hadamard::new(2)), Dense),
            (Toffoli::new(0, 1, 2), Permutation),
            (MCX::new(&[0, 2], 1, &[0, 1]), Permutation),
            (MCZ::new(&[1, 2], 0, &[1, 0]), Diagonal),
            (MCPhase::new(&[0, 1], 2, &[0, 0], 0.4), Diagonal),
            (
                CustomGate::new("D", &[2, 0], CMat::diag(&[cr(1.0), cr(-1.0)].repeat(2))).unwrap(),
                Diagonal,
            ),
            (
                CustomGate::new("P", &[1, 2], matrices::swap()).unwrap(),
                Permutation,
            ),
        ];
        // at angles 0.4, 0, π and 2π
        let (spreads, diagonal) = ([Dense, Diagonal, Dense, Dense], [Diagonal; 4]);
        type Rotation = fn(f64) -> Gate;
        let rotations: [(Rotation, [Shape; 4]); 13] = [
            (|t| RotationX::new(0, t), spreads),
            (|t| RotationY::new(1, t), spreads),
            (|t| RotationZ::new(2, t), diagonal),
            (|t| PhaseGate::new(0, t), diagonal),
            (|t| U3Gate::new(1, t, 0.3, 0.5), spreads),
            (|t| RotationXX::new(0, 1, t), spreads),
            (|t| RotationYY::new(1, 2, t), spreads),
            (|t| RotationZZ::new(0, 2, t), diagonal),
            (|t| CRX::new(0, 1, t), spreads),
            (|t| CRY::new(2, 1, t), spreads),
            (|t| CRZ::new(1, 0, t), diagonal),
            (|t| CPhase::new(0, 2, t), diagonal),
            (|t| RotationX::new(1, t).controlled(2, 0), spreads),
        ];
        for (make, shapes) in rotations {
            for (theta, want) in [0.4, 0.0, PI, TAU].into_iter().zip(shapes) {
                cases.push((make(theta), want));
            }
        }
        // fused 2-qubit blocks: a product of diagonals stays diagonal
        for (members, want) in [
            (
                vec![TGate::new(0), CZ::new(0, 1), RotationZ::new(1, 0.3)],
                Diagonal,
            ),
            (vec![Hadamard::new(0), CNOT::new(0, 1)], Dense),
        ] {
            let mut c = crate::circuit::QCircuit::new(2);
            for g in members {
                c.push_back(g);
            }
            let plan = program::compile(&c, &PlanOptions::default());
            let [ProgramOp::Gate(block)] = plan.ops() else {
                panic!("one fused block expected, got {:?}", plan.ops());
            };
            cases.push((block.clone(), want));
        }

        for (gate, want) in cases {
            let m = gate.target_matrix();
            assert_eq!(shape(m.rows(), m.as_slice(), 0.0), want, "{gate:?}");
            let diagonal = matches!(prepare_gate(&gate, 3).kind, PreparedKind::Diagonal(_));
            assert_eq!(diagonal, want == Diagonal, "{gate:?}");
        }
    }

    #[test]
    fn norm_preserved_by_random_gate_sequence() {
        let n = 5;
        let gates = vec![
            Hadamard::new(0),
            RotationX::new(1, 0.37),
            CNOT::new(0, 4),
            RotationZZ::new(1, 3, 1.1),
            MCX::new(&[0, 1], 2, &[1, 0]),
            ISwapGate::new(2, 4),
            TGate::new(3),
            CRY::new(4, 0, 2.2),
        ];
        let s = apply_to_zero(&gates, n);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_matches_to_matrix_for_two_qubit_gates() {
        // iSWAP applied via kernel equals its 4x4 matrix action
        let g = ISwapGate::new(0, 1);
        let m = g.target_matrix();
        for basis in 0..4 {
            let mut s = CVec::basis_state(4, basis);
            apply_gate(&g, &mut s, 2, &KernelConfig::default());
            let expected = m.col(basis);
            for i in 0..4 {
                assert!((s[i] - expected[i]).norm() < 1e-14);
            }
        }
    }

    #[test]
    fn large_register_parallel_path() {
        // cross the parallel threshold and verify a GHZ construction
        let n = PARALLEL_THRESHOLD_QUBITS;
        let mut gates = vec![Hadamard::new(0)];
        for q in 1..n {
            gates.push(CNOT::new(q - 1, q));
        }
        let s = apply_to_zero(&gates, n);
        let dim = 1usize << n;
        assert!((s[0].re - INV_SQRT2).abs() < 1e-12);
        assert!((s[dim - 1].re - INV_SQRT2).abs() < 1e-12);
        assert!((s.norm() - 1.0).abs() < 1e-12);
        // and the split must not show in the bits: exactly the state one
        // thread computes, at a width that divides the parts unevenly
        let one = with_threads(1, || apply_to_zero(&gates, n));
        assert!(with_threads(3, || apply_to_zero(&gates, n)) == one);
        assert!(s == one);
    }

    #[test]
    fn every_kernel_config_gives_identical_states() {
        // all 8 flag combinations must agree bit-for-bit in semantics;
        // the circuit goes through `simulate_with` so the `fuse` flag
        // exercises the fusion pre-pass, not just the per-gate dispatch
        use crate::sim::SimOptions;
        let n = 6;
        let mut circuit = crate::circuit::QCircuit::new(n);
        circuit
            .push_back(Hadamard::new(0))
            .push_back(RotationZ::new(2, 0.7))
            .push_back(CZ::new(1, 4))
            .push_back(SwapGate::new(0, 5))
            .push_back(CNOT::new(3, 2))
            .push_back(TGate::new(5))
            .push_back(RotationZZ::new(1, 3, 0.9))
            .push_back(MCX::new(&[0, 2], 4, &[1, 0]));
        let mut reference: Option<CVec> = None;
        for par in [true, false] {
            for (fuse, simd) in [(true, true), (true, false), (false, true), (false, false)] {
                let cfg = KernelConfig {
                    allow_parallel: par,
                    allow_simd: simd,
                    fuse,
                    ..KernelConfig::default()
                };
                let opts = SimOptions {
                    kernel: cfg,
                    ..SimOptions::default()
                };
                let init = CVec::basis_state(1 << n, 0);
                let sim = circuit.simulate_with(&init, &opts).unwrap();
                let state = sim.states()[0].clone();
                match &reference {
                    None => reference = Some(state),
                    Some(r) => {
                        assert!(state.approx_eq(r, 1e-12), "config {cfg:?} diverged")
                    }
                }
            }
        }
    }

    /// The per-amplitude diagonal the run walk replaced: amplitude `i`
    /// whose controls match is scaled by the entry its target bits
    /// select, unless that entry equals one.
    fn diagonal_reference(state: &mut [C64], n: usize, g: &Gate) {
        let (targets, cm) = (g.targets(), control_masks(&g.controls(), n));
        let m = g.target_matrix();
        let one = C64::new(1.0, 0.0);
        for (i, z) in state.iter_mut().enumerate() {
            let d = m[(
                bits::gather_bits(i, &targets, n),
                bits::gather_bits(i, &targets, n),
            )];
            if ctrl_ok(i, cm) && d != one {
                *z *= d;
            }
        }
    }

    #[test]
    fn diagonal_kernel_is_bit_identical_to_the_per_amplitude_product() {
        let one_neg = C64::new(1.0, -0.0);
        let entries = [
            C64::new(1.0, 0.0),
            one_neg,
            C64::new(0.6, -0.8),
            C64::new(-1.0, 0.0),
            C64::new(0.0, 1.0),
            C64::new(-0.0, -1.0),
            C64::new(0.28, 0.96),
        ];
        // for n = 6 qubit q sits on bit 5 - q: q5 is bit 0, q4 bit 1, q0
        // and q1 the high bits, q2 bit 3 (the first above the lanes)
        let target_sets: [&[usize]; 8] =
            [&[], &[5], &[4], &[1], &[5, 2], &[4, 0], &[2, 3], &[1, 0, 5]];
        let control_sets: [&[(usize, u8)]; 6] = [
            &[],
            &[(5, 1)],
            &[(4, 0)],
            &[(0, 1)],
            &[(2, 0), (5, 1)],
            &[(3, 1), (1, 0)],
        ];
        let mut case = 0;
        for n in [6, 2] {
            // a state with +0.0 and -0.0 components among the others
            let state: Vec<C64> = (0..1usize << n)
                .map(|i| {
                    let x = (i as f64 * 0.7).sin();
                    match i % 5 {
                        0 => C64::new(0.0, -0.0),
                        1 => C64::new(-0.0, x),
                        2 => C64::new(x, 0.0),
                        _ => C64::new(x, -(i as f64).cos()),
                    }
                })
                .collect();
            for targets in target_sets {
                for controls in control_sets {
                    let touched = |q: &usize| *q < n;
                    if !targets.iter().all(touched)
                        || !controls
                            .iter()
                            .all(|(q, _)| touched(q) && !targets.contains(q))
                    {
                        continue;
                    }
                    case += 1;
                    let diag: Vec<C64> = (0..1usize << targets.len())
                        .map(|k| entries[(k + case) % entries.len()])
                        .collect();
                    let mut g = Gate::Custom {
                        name: "D".into(),
                        qubits: targets.to_vec(),
                        matrix: CMat::diag(&diag),
                    };
                    if !controls.is_empty() {
                        g = Gate::Controlled {
                            controls: controls.iter().map(|c| c.0).collect(),
                            control_states: controls.iter().map(|c| c.1).collect(),
                            target: Box::new(g),
                        };
                    }
                    let mut want = state.clone();
                    if !(targets.is_empty() && controls.is_empty()) {
                        diagonal_reference(&mut want, n, &g);
                    }
                    for allow_simd in [true, false] {
                        let cfg = KernelConfig {
                            allow_simd,
                            ..KernelConfig::default()
                        };
                        let mut got = CVec(state.clone());
                        apply_gate(&g, &mut got, n, &cfg);
                        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                                "n {n}, targets {targets:?}, controls {controls:?}, simd {allow_simd}: \
                                 amplitude {i} is {a:?}, want {b:?}"
                            );
                        }
                    }
                }
            }
        }
        assert!(case > 30, "only {case} cases ran");
    }

    /// The out-of-place gather the in-place passes replaced: destination
    /// `d` reads source `permute_index(d, perm⁻¹)`.
    fn permute_gather(state: &[C64], n: usize, perm: &[usize]) -> Vec<C64> {
        let mut inv = vec![0usize; n];
        for (q, &p) in perm.iter().enumerate() {
            inv[p] = q;
        }
        (0..state.len())
            .map(|d| state[bits::permute_index(d, &inv, n)])
            .collect()
    }

    #[test]
    fn in_place_permutes_equal_the_gather() {
        use crate::sim::BranchState;
        use qclab_math::rng::Rng;
        let mut rng = Rng::seed_from_u64(31);
        let shuffled = |rng: &mut Rng, n: usize| {
            let mut qs: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                qs.swap(i, rng.below(i + 1));
            }
            qs
        };
        for n in [1usize, 2, 12, 13, 17, 19] {
            let identity: Vec<usize> = (0..n).collect();
            let mut perms = vec![(0..n).rev().collect::<Vec<_>>(), shuffled(&mut rng, n)];
            if n >= 2 {
                let qs = shuffled(&mut rng, n);
                let mut transposition = identity.clone();
                transposition.swap(qs[0], qs[1]);
                // disjoint transpositions over all but at most one qubit
                let mut involution = identity.clone();
                for pair in qs.chunks_exact(2) {
                    involution.swap(pair[0], pair[1]);
                }
                perms.extend([transposition, involution]);
            }
            if n >= 3 {
                let qs = shuffled(&mut rng, n);
                let mut cycle = identity.clone();
                (cycle[qs[0]], cycle[qs[1]], cycle[qs[2]]) = (qs[1], qs[2], qs[0]);
                perms.push(cycle);
            }
            let random: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.f64() - 0.5, rng.f64() - 0.5))
                .collect();
            let mut basis = vec![C64::new(0.0, 0.0); 1 << n];
            basis[rng.below(1 << n)] = C64::new(-0.0, 1.0);
            for state in [random, basis] {
                for perm in &perms {
                    let want = permute_gather(&state, n, perm);
                    for (threads, parallel, simd) in (1..=4)
                        .flat_map(|t| [(t, true, true), (t, true, false)])
                        .chain([(1, false, true)])
                    {
                        let cfg = KernelConfig {
                            allow_parallel: parallel,
                            allow_simd: simd,
                            ..KernelConfig::default()
                        };
                        let mut got = CVec(state.clone());
                        with_threads(threads, || got.permute(perm, n, &cfg));
                        assert!(
                            got.iter()
                                .zip(&want)
                                .all(|(a, b)| a.re.to_bits() == b.re.to_bits()
                                    && a.im.to_bits() == b.im.to_bits()),
                            "n = {n}, perm {perm:?}, {threads} threads, {cfg:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn involutions_compose_to_the_permutation() {
        for perm in [
            vec![0, 1, 2, 3, 4],
            vec![1, 0, 2, 3, 4],
            vec![1, 2, 0, 3, 4],
            vec![4, 3, 2, 1, 0],
            vec![1, 2, 3, 4, 0],
            vec![2, 0, 1, 4, 3],
        ] {
            let (first, second) = involutions(&perm);
            for sigma in [&first, &second] {
                assert!((0..5).all(|q| sigma[sigma[q]] == q), "{perm:?}: {sigma:?}");
            }
            assert!((0..5).all(|q| second[first[q]] == perm[q]), "{perm:?}");
        }
        // an involution is one pass: the first factor is the identity
        assert_eq!(involutions(&[3, 2, 1, 0]).0, vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_diagonal_and_controlled_paths() {
        let n = PARALLEL_THRESHOLD_QUBITS;
        let mut state = CVec::basis_state(1 << n, 0);
        apply_gate(
            &Hadamard::new(n - 1),
            &mut state,
            n,
            &KernelConfig::default(),
        );
        apply_gate(
            &CPhase::new(n - 1, 0, std::f64::consts::PI),
            &mut state,
            n,
            &KernelConfig::default(),
        );
        apply_gate(
            &CNOT::new(n - 1, 1),
            &mut state,
            n,
            &KernelConfig::default(),
        );
        assert!((state.norm() - 1.0).abs() < 1e-12);
    }
}
