//! Property tests: the locality pass (logical→physical qubit remapping
//! plus cache-blocked sweep execution) must be **bit-identical** to the
//! unmapped engine — not approximately equal. Every layout transition
//! is pure data movement, gate kernels are shift-independent per
//! amplitude pair, and the mapped collapse routines accumulate in
//! logical index order, so `remap: true` and `remap: false` must agree
//! with exact `==` on branch records, probabilities and every
//! amplitude, over random circuits that mix mid-circuit measurements
//! (all three bases), resets, barriers and nested sub-circuits.
//!
//! The workloads concentrate gates on a handful of "hot" qubits split
//! between the high-stride end (qubits 0..3, the most significant index
//! bits) and the tile-resident end, so the cost model actually adopts
//! layouts instead of staying inert.

mod common;

use common::{gate, nested_circuit};
use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions};
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::trajectory::{run_trajectories, Reference, ShotPath, TrajectoryConfig};
use qclab_core::CircuitItem;
use qclab_math::CVec;
use qclab_testkit::prelude::*;

/// Register size: two qubits above the sweep tile (12), so the pass has
/// genuinely far qubits to pull in and room for a non-trivial layout.
const N: usize = 14;

/// Physical homes of the 5 action qubits: three on the high-stride end
/// (outside the sweep tile's reach at `N = 14`) and two tile-resident,
/// so windows mix near and far targets.
const HOT: [usize; 5] = [0, 1, 2, 12, 13];

/// One circuit item on the hot qubits: mostly gates, with measurements
/// in all three bases, resets and barriers mixed in.
fn hot_item() -> impl Strategy<Value = CircuitItem> {
    // gate arm repeated so roughly two thirds of the items are unitary
    let hot_gate = || gate(HOT.len()).prop_map(|g| CircuitItem::Gate(g.relabeled(&HOT)));
    prop_oneof![
        hot_gate(),
        hot_gate(),
        hot_gate(),
        hot_gate(),
        hot_gate(),
        hot_gate(),
        (0..HOT.len(), 0u8..3).prop_map(|(q, b)| {
            CircuitItem::Measurement(match b {
                0 => Measurement::z(HOT[q]),
                1 => Measurement::x(HOT[q]),
                _ => Measurement::y(HOT[q]),
            })
        }),
        (0..HOT.len()).prop_map(|q| CircuitItem::Reset(HOT[q])),
        (0..HOT.len()).prop_map(|q| CircuitItem::Barrier(vec![HOT[q]])),
    ]
}

/// A random hot-qubit circuit of up to `max_items` items on `N` qubits.
fn hot_circuit(max_items: usize) -> impl Strategy<Value = QCircuit> {
    prop::collection::vec(hot_item(), 1..=max_items).prop_map(|items| {
        let mut c = QCircuit::new(N);
        for it in items {
            c.push_back(it);
        }
        c
    })
}

fn opts(remap: bool, max_fused: usize, simd: bool) -> SimOptions {
    SimOptions {
        kernel: KernelConfig {
            remap,
            max_fused_qubits: max_fused,
            allow_simd: simd,
            ..KernelConfig::default()
        },
        ..SimOptions::default()
    }
}

/// Exact equality of two simulations: identical branch records,
/// bit-identical probabilities, and `==` on every amplitude (which
/// tolerates `-0.0` vs `+0.0` — the one divergence pure movement plus
/// the zero-tile occupancy skip may legitimately introduce).
fn assert_bit_identical(a: &Simulation, b: &Simulation, what: &str) {
    assert_eq!(a.results(), b.results(), "{what}: branch records diverged");
    assert_eq!(
        a.probabilities(),
        b.probabilities(),
        "{what}: branch probabilities are not bit-identical"
    );
    let (sa, sb) = (a.states(), b.states());
    assert_eq!(sa.len(), sb.len(), "{what}: branch count diverged");
    for (bi, (x, y)) in sa.iter().zip(&sb).enumerate() {
        for (i, (za, zb)) in x.iter().zip(y.iter()).enumerate() {
            assert!(
                za.re == zb.re && za.im == zb.im,
                "{what}: branch {bi} amplitude {i} diverged: {za:?} vs {zb:?}"
            );
        }
    }
}

fn run_both(c: &QCircuit, max_fused: usize, simd: bool, what: &str) {
    let init = CVec::basis_state(1 << N, 0);
    let on = c
        .simulate_with(&init, &opts(true, max_fused, simd))
        .unwrap();
    let off = c
        .simulate_with(&init, &opts(false, max_fused, simd))
        .unwrap();
    assert_bit_identical(&on, &off, what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(64)))]

    /// Default engine configuration (fusion cap 2, SIMD on): remapped
    /// execution is bit-identical on circuits with mid-circuit
    /// measurements and resets.
    #[test]
    fn remap_is_bit_identical_default_config(c in hot_circuit(14)) {
        run_both(&c, 2, true, "default config");
    }

    /// Large fused blocks (cap 4) exercise the k-qubit kernels under
    /// relabeling. SIMD is off on this leg: the k>=3 vectorized kernels
    /// require every target shift >= 1, so a relabeling can move a block
    /// across the SIMD/scalar dispatch boundary — the scalar kernels are
    /// position-independent and must agree exactly at any cap.
    #[test]
    fn remap_is_bit_identical_cap4_scalar(c in hot_circuit(14)) {
        run_both(&c, 4, false, "cap 4, scalar");
    }

    /// Nested sub-circuits flatten through their offset before the pass
    /// runs; remap must stay bit-identical across that relabeling too.
    #[test]
    fn remap_is_bit_identical_with_subcircuits(c in nested_circuit(N, hot_item)) {
        run_both(&c, 2, true, "nested sub-circuits");
    }
}

/// A deterministic workload the cost model is guaranteed to accept:
/// many unfusable far-qubit gates. Guards against the proptest
/// distributions silently never firing the pass.
fn far_heavy_circuit(suffix: bool) -> QCircuit {
    let mut c = QCircuit::new(N);
    for rep in 0..12 {
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(RotationX::new(1, 0.3 + rep as f64));
        c.push_back(CNOT::new(1, 2));
        c.push_back(RotationZ::new(2, 0.7 * rep as f64));
        c.push_back(CNOT::new(2, 0));
    }
    c.push_back(Measurement::z(0));
    if suffix {
        // a gate after the measurement keeps the program non-terminal,
        // so the restore stays *after* the first measurement and the
        // deterministic prefix ends in a permuted layout
        c.push_back(Hadamard::new(1));
        c.push_back(Measurement::z(1));
    }
    c
}

#[test]
fn pass_fires_on_far_heavy_circuit() {
    let plan = program::compile(
        &far_heavy_circuit(false),
        &PlanOptions {
            fuse: false,
            remap: true,
            ..PlanOptions::default()
        },
    );
    let stats = plan.stats();
    assert!(
        stats.remap_windows >= 1,
        "cost model must adopt a layout on the far-heavy workload, got {stats:?}"
    );
    // bit-identity on the exact configuration the pass fires under
    let mk = |remap| SimOptions {
        kernel: KernelConfig {
            remap,
            fuse: false,
            ..KernelConfig::default()
        },
        ..SimOptions::default()
    };
    let c = far_heavy_circuit(false);
    let init = CVec::basis_state(1 << N, 0);
    let on = c.simulate_with(&init, &mk(true)).unwrap();
    let off = c.simulate_with(&init, &mk(false)).unwrap();
    assert_bit_identical(&on, &off, "far-heavy deterministic (unfused)");
}

/// The trajectory fork path snapshots the deterministic prefix *and*
/// the layout it ends in (`CompiledProgram::prefix_map`); forked shots
/// must reproduce the plain per-shot engine exactly.
#[test]
fn fork_path_resumes_under_the_prefix_layout() {
    let c = far_heavy_circuit(true);
    let kernel = KernelConfig {
        remap: true,
        fuse: false, // keep the far gates unfused so the pass fires
        ..KernelConfig::default()
    };

    // the prefix (everything before the first measurement) must end in
    // a non-identity layout for this test to mean anything
    let plan = program::compile(&c, &PlanOptions::from(&kernel));
    let map = plan
        .prefix_map()
        .expect("prefix must end in a permuted layout");
    assert!(
        map.iter().enumerate().any(|(q, &p)| q != p),
        "prefix_map must be non-identity"
    );

    let mk = |reference| TrajectoryConfig {
        shots: 200,
        seed: 7,
        reference,
        kernel,
        ..TrajectoryConfig::default()
    };
    let fast = run_trajectories(&c, &mk(Reference::Product)).unwrap();
    let slow = run_trajectories(&c, &mk(Reference::NoSharing)).unwrap();
    assert!(
        matches!(fast.path(), ShotPath::Forked { prefix_ops } if prefix_ops > 0),
        "expected the forked engine, got {:?}",
        fast.path()
    );
    assert_eq!(slow.path(), ShotPath::PerShot);
    assert_eq!(
        fast.counts(),
        slow.counts(),
        "forked shots diverged from the per-shot engine under a permuted prefix"
    );
    assert_eq!(fast.norm_stats(), slow.norm_stats());
}
