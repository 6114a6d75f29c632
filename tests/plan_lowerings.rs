//! No run lowers a plan twice: the plan-cache misses one CLI command
//! makes on a fresh cache — `sample` (noiseless, readout noise, gate
//! noise), `counts` and `simulate`, through the library calls the CLI
//! makes — on the benchmark's checked-in circuits under each
//! `--backend`. Every number here is the count the cache gave before it
//! kept plans only on recurrence, when every lowering stayed resident
//! and a second lookup was a hit, less the unfused plan a dense
//! `counts`/`simulate` no longer lowers (the `Dense` request reads no
//! support bound): a route or executor that drops a plan and looks it
//! up again would lower it twice and show here.
//!
//! One test function: the plan cache and its counters are process-wide.

use qclab::prelude::*;
use qclab_core::program;
use qclab_core::sim::control::ExecutionControl;
use qclab_core::sim::guard::ResourceLimits;
use qclab_core::sim::route::BackendRequest;
use qclab_core::sim::trajectory::{run_trajectories, NoiseSpec, PauliChannel, TrajectoryConfig};
use std::time::Duration;

const INPUTS: [&str; 5] = ["teleport", "grover2", "qec3", "qft16", "rep25"];

/// Misses per input, backend (dense, auto, sparse) and command (sample
/// noiseless, readout noise, gate noise; counts; simulate).
const MISSES: [[[u64; 5]; 3]; 5] = [
    [[1, 2, 2, 1, 1], [2, 2, 2, 2, 2], [1, 1, 1, 1, 1]],
    [[1, 2, 2, 1, 1], [2, 2, 2, 2, 2], [1, 1, 1, 1, 1]],
    [[1, 1, 1, 1, 1], [2, 2, 2, 1, 1], [1, 1, 1, 1, 1]],
    [[1, 1, 1, 1, 1], [2, 2, 2, 2, 2], [1, 1, 1, 1, 1]],
    [[0, 2, 2, 0, 0], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1]],
];

#[test]
fn each_command_lowers_each_plan_once() {
    // `--max-qubits 20`: the dense engine refuses rep25 instead of
    // allocating its 512 MiB register, and `--timeout 1` stops qft16's
    // 2^16-branch tree; a refused or stopped run has made its lowerings
    let limits = ResourceLimits::with_max_qubits(20);
    let opts = || SimOptions {
        limits,
        control: ExecutionControl::with_timeout(Duration::from_millis(1)),
        ..SimOptions::default()
    };
    let channel = Some(PauliChannel::BitFlip(0.01));
    let noises = [
        NoiseSpec::default(),
        NoiseSpec {
            before_measure: channel,
            ..NoiseSpec::default()
        },
        NoiseSpec {
            after_gate: channel,
            ..NoiseSpec::default()
        },
    ];
    let backends = [
        BackendRequest::Dense,
        BackendRequest::Auto,
        BackendRequest::Sparse,
    ];
    let mut seen = [[[0u64; 5]; 3]; 5];
    for (i, name) in INPUTS.iter().enumerate() {
        let path = format!(
            "{}/benchmark/inputs/{name}.qasm",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(path).unwrap();
        let zeros = "0".repeat(from_qasm(&text).unwrap().nb_qubits());
        for (b, &backend) in backends.iter().enumerate() {
            // a fresh parse and an empty cache per command, as in a
            // one-shot process
            let misses = |command: &dyn Fn(&QCircuit)| {
                program::clear_plan_cache();
                let before = program::plan_cache_stats().misses;
                command(&from_qasm(&text).unwrap());
                program::plan_cache_stats().misses - before
            };
            for (k, noise) in noises.iter().enumerate() {
                let config = TrajectoryConfig {
                    shots: 8,
                    seed: 1,
                    noise: *noise,
                    backend,
                    limits,
                    ..TrajectoryConfig::default()
                };
                seen[i][b][k] = misses(&|c| drop(run_trajectories(c, &config)));
            }
            seen[i][b][3] = misses(&|c| {
                if let Ok(sim) = c.simulate_bitstring_routed(&zeros, &opts(), backend) {
                    sim.counts(8, 1);
                }
            });
            seen[i][b][4] =
                misses(&|c| drop(c.simulate_bitstring_routed(&zeros, &opts(), backend)));
        }
    }
    assert_eq!(seen, MISSES, "{seen:?}");
}
