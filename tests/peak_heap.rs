//! A dense run's peak heap is its one state vector, and a one-off
//! request leaves no heap behind.
//!
//! This binary's global allocator counts live heap bytes and their
//! high-water mark (nothing else links it: the library and the CLI keep
//! the system allocator). A noiseless terminal run whose plan moves
//! three or more index bits at once and whose marginal table no later
//! run could draw from (over `RETAINED_BYTES_CAP`, or on a plan nothing
//! keeps) must peak at the `2^n` state plus small change: the layout permutes work in place, and the draw streams over
//! the state instead of tabulating it. A scheduler fed one-off circuits
//! and a few resubmitted ones must end holding the resubmitted plans
//! only: the plan cache keeps a plan when its circuit comes back.
//!
//! The counters are process-wide, so the tests take one lock.

use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions, ProgramOp, RETAINED_BYTES_CAP};
use qclab_core::service::{JobSpec, Scheduler, ServiceConfig};
use qclab_core::sim::guard::ResourceLimits;
use qclab_core::sim::route::{route, TerminalDraw};
use qclab_core::sim::trajectory::{run_trajectories, TrajectoryConfig, TrajectoryResult};
use qclab_math::rng::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `layers` layers of one random rotation per qubit and a random
/// CX/CZ pairing, then every qubit measured: the benchmark's dense shape.
fn random_layers(n: usize, layers: usize, seed: u64) -> QCircuit {
    let mut rng = Rng::seed_from_u64(seed);
    let mut circuit = QCircuit::new(n);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..layers {
        for q in 0..n {
            let angle = rng.f64() * std::f64::consts::TAU;
            match rng.below(3) {
                0 => circuit.push_back(RotationX::new(q, angle)),
                1 => circuit.push_back(RotationY::new(q, angle)),
                _ => circuit.push_back(RotationZ::new(q, angle)),
            };
        }
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for pair in order.chunks_exact(2) {
            if rng.bool() {
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
    let _g = serial();
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

/// The paper's QFT-16 of `|0…0⟩`, every qubit measured, 1 000 shots, as
/// a one-shot `qclab sample` runs it: on a plan neither resident nor held,
/// whose 512 KiB table no later run could draw from, the draw streams and
/// the run's heap is its 1 MiB state and small change: ≈ 129 KiB of plan
/// and bytecode, ≈ 120 KiB of points and tallies (state + 249 KiB in
/// all). Before the draw followed retention the same run peaked at
/// state + 673 KiB: the table on top. On a held plan, and on a resident
/// one, the run still builds its table, and the plan keeps it.
#[test]
fn a_one_off_run_pays_for_its_state_and_nothing_more() {
    let _g = serial();
    let n = 16;
    let (state, table) = (16usize << n, 8usize << n);
    let qft = from_qasm(include_str!("../benchmark/inputs/qft16.qasm")).unwrap();
    let config = TrajectoryConfig {
        shots: 1000,
        seed: 48,
        ..TrajectoryConfig::default()
    };
    program::clear_plan_cache();
    let (peak, one_off) = peak_of(|| run_trajectories(&qft, &config).unwrap());
    assert!(!one_off.prep_hit());
    assert!(
        peak <= state + (256 << 10),
        "peak {peak} B over a {state} B state"
    );
    // held: the route names the table, the run builds it and the plan
    // keeps it for the next run
    program::clear_plan_cache();
    let held = program::compile(&qft, &PlanOptions::default());
    let kept = Some(TerminalDraw::Table {
        bytes: table as u128,
    });
    assert_eq!(route(&qft, &config, None).unwrap().draw, kept);
    let (peak, first) = peak_of(|| run_trajectories(&qft, &config).unwrap());
    assert!(peak >= state + table, "peak {peak} B");
    let again = run_trajectories(&qft, &config).unwrap();
    assert!(!first.prep_hit() && again.prep_hit());
    assert_eq!(first.counts(), one_off.counts());
    assert_eq!(again.counts(), one_off.counts());
    drop(held);
    // resident: asked for again once nobody holds it, the plan stays in
    // the cache, and its first run there keeps a table too
    assert_eq!(route(&qft, &config, None).unwrap().draw, kept);
    assert_eq!(program::plan_cache_stats().entries, 1);
    let first = run_trajectories(&qft, &config).unwrap();
    let again = run_trajectories(&qft, &config).unwrap();
    assert!(!first.prep_hit() && again.prep_hit());
    assert_eq!(again.counts(), one_off.counts());
}

/// Six fair coins on 18 qubits, each measured mid-circuit: one batch of
/// 64 shots splits into up to 64 histories. A state the group walk keeps
/// waiting holds its amplitudes and no scratch, so the walk's heap is one
/// vector per state it holds and one scratch: under a cap that refuses a
/// third state, the run's start, the group's amplitudes and a lane's two,
/// and with every split admitted the start, `1 + ⌊log₂ 64⌋` states and
/// one scratch.
#[test]
fn a_group_walk_holds_one_vector_per_state_and_one_scratch() {
    let _g = serial();
    let n = 18;
    let state = 16usize << n;
    let mut c = QCircuit::new(n);
    for q in 0..6 {
        c.push_back(Hadamard::new(q));
    }
    for q in 0..6 {
        c.push_back(Measurement::z(q));
        c.push_back(CNOT::new(q, q + 6));
    }
    let config = |max_state_bytes| TrajectoryConfig {
        shots: 64,
        seed: 11,
        limits: ResourceLimits {
            max_state_bytes,
            ..ResourceLimits::default()
        },
        ..TrajectoryConfig::default()
    };
    let capped = config(3 * state as u128 - 1);
    let uncapped = config(u128::MAX);
    let cold = run_trajectories(&c, &capped).unwrap();
    let slack = 256 << 10;
    let (peak, walked) = peak_of(|| run_trajectories(&c, &capped).unwrap());
    assert_eq!(walked.counts(), cold.counts());
    assert!(
        peak <= 4 * state + slack,
        "capped: peak {peak} B, {state} B a state"
    );
    let (peak, walked) = peak_of(|| run_trajectories(&c, &uncapped).unwrap());
    assert_eq!(walked.counts(), cold.counts());
    assert!(
        peak <= (2 + 6 + 1) * state + slack,
        "peak {peak} B, {state} B a state"
    );
    assert!(peak > 5 * state, "peak {peak} B: the walk never nested");
}

/// Runs `circuits` through a one-worker scheduler, in order, to the end.
fn drain(circuits: Vec<QCircuit>) {
    let scheduler = Scheduler::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let handles: Vec<_> = (0u64..)
        .zip(circuits)
        .map(|(i, c)| {
            scheduler
                .submit(JobSpec::new(i.to_string(), c, 100, i))
                .unwrap()
        })
        .collect();
    for handle in handles {
        handle.wait().unwrap();
    }
    scheduler.shutdown();
}

#[test]
fn one_off_requests_leave_only_the_recurring_plans_behind() {
    let _g = serial();
    let hot: Vec<QCircuit> = (0..3).map(|k| random_layers(6, 40, 500 + k)).collect();
    // the first scheduler's one-time allocations are not the cache's
    drain((0..4).map(|k| random_layers(6, 40, 900 + k % 3)).collect());
    program::clear_plan_cache();
    // what a hot plan weighs once its run has retained its table: held
    // across its run, then let go
    let base = ServiceConfig::default().base;
    let mut plans = 0;
    for circuit in &hot {
        let before = LIVE.load(Relaxed);
        let plan = route(circuit, &base, None).unwrap().program;
        run_trajectories(circuit, &base).unwrap();
        plans += LIVE.load(Relaxed) - before;
        drop(plan);
    }
    program::clear_plan_cache();

    // 200 one-offs, and a hot circuit after every fourth: each hot one
    // comes back 14 distinct circuits later, well inside the ring
    let before = LIVE.load(Relaxed);
    let mut jobs = Vec::new();
    for i in 0..200 {
        jobs.push(random_layers(6, 40, 1000 + i as u64));
        if i % 4 == 3 {
            jobs.push(hot[(i / 4) % 3].clone());
        }
    }
    drain(jobs);
    // the ring of 32 keys asked for once (each a `Weak`'s emptied plan
    // allocation) and the rings' own buffers
    let slack = 64 << 10;
    let left = LIVE.load(Relaxed) - before;
    assert!(
        left <= plans + slack,
        "{left} B left over the starting heap; the hot plans weigh {plans} B"
    );
    let stats = program::plan_cache_stats();
    assert_eq!(stats.entries, 3, "only the resubmitted circuits are kept");
}
