//! One circuit, one plan: a noisy state-vector run executes the plan its
//! noiseless twin executes, so the two share the plan-cache entry, the
//! bytecode on it and the retained terminal table. Alone in its binary,
//! because it reads the process-wide plan-cache counters. The cache
//! keeps a plan once it is asked for again, so the test asks for it once
//! before the runs.

use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions};
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, ShotPath, TrajectoryConfig,
};

#[test]
fn a_noisy_and_a_noiseless_run_share_one_plan_and_one_table() {
    // non-Clifford, ending in measurements of every qubit
    let mut c = QCircuit::new(5);
    for layer in 0..3 {
        for q in 0..5 {
            c.push_back(RotationY::new(q, 0.3 + 0.7 * (layer * 5 + q) as f64));
        }
        for q in (layer % 2..4).step_by(2) {
            c.push_back(CNOT::new(q, q + 1));
        }
    }
    for q in 0..5 {
        c.push_back(Measurement::z(q));
    }
    let cached = || {
        let stats = program::plan_cache_stats();
        (stats.entries, stats.misses)
    };
    assert_eq!(cached(), (0, 0));
    drop(program::compile(&c, &PlanOptions::default()));
    assert_eq!(cached(), (0, 1), "asked once: lowered, not kept");
    let base = TrajectoryConfig {
        shots: 64,
        seed: 5,
        ..TrajectoryConfig::default()
    };
    let noisy = TrajectoryConfig {
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.01)),
            idle: Some(PauliChannel::PhaseFlip(0.002)),
            before_measure: Some(PauliChannel::BitFlip(0.02)),
        },
        ..base.clone()
    };
    let first = run_trajectories(&c, &noisy).unwrap();
    assert_eq!(first.path(), ShotPath::PerShot);
    assert!(first.injected_errors() > 0);
    assert!(!first.prep_hit());
    let second = run_trajectories(&c, &base).unwrap();
    assert!(matches!(second.path(), ShotPath::AliasSampled { .. }));
    // the noiseless twin finds the table the noisy run's error-free
    // lanes drew from
    assert!(second.prep_hit(), "the terminal table was not shared");
    assert_eq!(
        cached(),
        (1, 2),
        "one circuit: one entry, lowered once more when kept"
    );
    // it is the plan `compile` reports
    let plan = program::compile(&c, &PlanOptions::default());
    assert!(plan.stats().fused_blocks > 0);
    assert_eq!(cached(), (1, 2));
    // in the other order the noisy run is the one that hits
    let again = run_trajectories(&c, &noisy).unwrap();
    assert!(again.prep_hit());
    assert_eq!(again.counts(), first.counts());
    assert_eq!(again.injected_errors(), first.injected_errors());
    assert_eq!(cached(), (1, 2));

    // a noisy Clifford circuit still routes to the frame sampler, which
    // executes source gates: its unfused plan is a lowering of its own,
    // beside the fused one its Clifford check reads — and one run keeps
    // neither
    let mut bell = QCircuit::new(2);
    bell.push_back(Hadamard::new(0));
    bell.push_back(CNOT::new(0, 1));
    bell.push_back(Measurement::z(0));
    bell.push_back(Measurement::z(1));
    let framed = run_trajectories(&bell, &noisy).unwrap();
    assert_eq!(framed.path(), ShotPath::PauliFrame);
    assert_eq!(cached(), (1, 4));
}
