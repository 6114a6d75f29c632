//! A dense run's peak heap is its one state vector.
//!
//! This binary's global allocator counts live heap bytes and their
//! high-water mark (nothing else links it: the library and the CLI keep
//! the system allocator). A noiseless terminal run whose plan moves
//! three or more index bits at once and whose marginal table would be
//! over `RETAINED_BYTES_CAP` must peak at the `2^n` state plus small
//! change: the layout permutes work in place, and the draw streams over
//! the state instead of tabulating it.

use qclab::prelude::*;
use qclab_core::program::{ProgramOp, RETAINED_BYTES_CAP};
use qclab_core::sim::trajectory::{
    route, run_trajectories, TerminalDraw, TrajectoryConfig, TrajectoryResult,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's
// arguments; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `layers` layers of one random rotation per qubit and a random
/// CX/CZ pairing, then every qubit measured: the benchmark's dense shape.
fn random_layers(n: usize, layers: usize, seed: u64) -> QCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = QCircuit::new(n);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..layers {
        for q in 0..n {
            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
            match rng.gen_range(0..3) {
                0 => circuit.push_back(RotationX::new(q, angle)),
                1 => circuit.push_back(RotationY::new(q, angle)),
                _ => circuit.push_back(RotationZ::new(q, angle)),
            };
        }
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for pair in order.chunks_exact(2) {
            if rng.gen::<bool>() {
                circuit.push_back(CNOT::new(pair[0], pair[1]));
            } else {
                circuit.push_back(CZ::new(pair[0], pair[1]));
            }
        }
    }
    for q in 0..n {
        circuit.push_back(Measurement::z(q));
    }
    circuit
}

/// The heap a run adds at its peak over what was live before it.
fn peak_of(run: impl FnOnce() -> TrajectoryResult) -> (usize, TrajectoryResult) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let result = run();
    (PEAK.load(Relaxed) - before, result)
}

#[test]
fn a_dense_terminal_run_peaks_at_its_state_vector() {
    let n = 18;
    let (state, table) = (16usize << n, 8usize << n);
    let circuit = random_layers(n, 8, 1);
    let config = |shots| TrajectoryConfig {
        shots,
        seed: 3,
        ..TrajectoryConfig::default()
    };
    let routed = route(&circuit, &config(1000), None).unwrap();
    // the shape this pins: a layout permute that is no transposition,
    // and a marginal table no plan would keep
    let displaced = |perm: &[usize]| perm.iter().enumerate().filter(|&(q, &p)| q != p).count();
    assert!(
        routed.program.ops().iter().any(|op| matches!(
            op,
            ProgramOp::Permute { perm, .. } if displaced(perm) > 2
        )),
        "no general permute in the plan"
    );
    assert!(table > RETAINED_BYTES_CAP);
    assert_eq!(routed.draw, Some(TerminalDraw::Streamed));
    // a warm plan: what is measured is the run's own heap
    let cold = run_trajectories(&circuit, &config(1000)).unwrap();
    let (peak, warm) = peak_of(|| run_trajectories(&circuit, &config(1000)).unwrap());
    assert_eq!(warm.counts(), cold.counts());
    assert!(
        peak <= state + (256 << 10),
        "peak {peak} B over a {state} B state"
    );
    // the counter sees a table where there is one: at 2^18 shots the
    // sorted points would outweigh it, so the run tabulates
    let many = config(1 << 18);
    let routed = route(&circuit, &many, None).unwrap();
    assert_eq!(
        routed.draw,
        Some(TerminalDraw::Table {
            bytes: table as u128
        })
    );
    let (peak, _) = peak_of(|| run_trajectories(&circuit, &many).unwrap());
    assert!(peak >= state + table, "peak {peak} B");
}
