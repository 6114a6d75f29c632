//! The dense kernels' threads are one team, started once per process.
//!
//! Every parallel stream instruction hands its pieces to the parked
//! workers of `sim::par` instead of starting threads of its own. So a
//! dense sample above the parallel threshold under a width-2 scope adds
//! exactly one thread to the process the first time, and none the second
//! time. This is its own test binary: no other test shares the process,
//! so the thread count in `/proc/self/task` is the team's alone.

use qclab::prelude::*;
use qclab_core::sim::kernel::{KernelConfig, PARALLEL_THRESHOLD_QUBITS};
use qclab_core::sim::trajectory::{run_trajectories, TrajectoryConfig};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("a Linux /proc")
        .count()
}

#[test]
fn a_dense_sample_starts_the_team_once() {
    let width = 2;
    // one instruction per gate (no fusion, no windows), every one of them
    // above the threshold: 5 layers of 19 Hadamards and 9 CNOTs
    let n = 19;
    assert!(n >= PARALLEL_THRESHOLD_QUBITS);
    let mut c = QCircuit::new(n);
    for layer in 0..5 {
        for q in 0..n {
            c.push_back(Hadamard::new(q));
        }
        for q in (layer % 2..n - 1).step_by(2) {
            c.push_back(CNOT::new(q, q + 1));
        }
    }
    for q in 0..n {
        c.push_back(Measurement::z(q));
    }
    let config = TrajectoryConfig {
        shots: 10,
        kernel: KernelConfig {
            fuse: false,
            remap: false,
            ..KernelConfig::default()
        },
        ..TrajectoryConfig::default()
    };
    let sample = || {
        rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("the vendored pool always builds")
            .install(|| run_trajectories(&c, &config).expect("a dense sample"))
    };

    let before = threads();
    let first = sample();
    let after_first = threads();
    let second = sample();
    let after_second = threads();
    assert_eq!(first.counts(), second.counts());
    assert_eq!(
        after_first - before,
        width - 1,
        "threads started by the first run"
    );
    assert_eq!(
        after_second, after_first,
        "threads started by the second run"
    );
}
