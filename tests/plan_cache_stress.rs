//! Concurrency contract of the global plan cache: compilation is
//! single-flight. N threads racing on one fingerprint must produce
//! exactly one lowering (one recorded miss), and every thread must
//! receive the *same* `Arc<CompiledProgram>` — concurrent misses that
//! each re-lower and last-write-win would break both counts and
//! sharing.
//!
//! Everything lives in ONE test function: the cache and its counters
//! are process-global, and the parallel test runner would race them
//! across `#[test]`s. (Separate integration-test *files* are separate
//! processes, so this file cannot race `plan_cache_lru.rs`.)

#![allow(clippy::disallowed_methods)] // a test may let a refused thread panic

use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions};
use std::sync::{Arc, Barrier};

fn tagged_circuit(tag: f64) -> QCircuit {
    let mut c = QCircuit::new(4);
    c.push_back(Hadamard::new(0));
    c.push_back(RotationZ::new(1, tag));
    c.push_back(CNOT::new(0, 2));
    c.push_back(CNOT::new(2, 3));
    c.push_back(Measurement::z(3));
    c
}

#[test]
fn concurrent_compiles_are_single_flight() {
    const THREADS: usize = 16;
    const ROUNDS: usize = 20;

    program::clear_plan_cache();

    // same fingerprint from all threads: one miss per round, one Arc
    for round in 0..ROUNDS {
        let tag = 0.1 + round as f64;
        program::clear_plan_cache();
        let before = program::plan_cache_stats();
        let barrier = Arc::new(Barrier::new(THREADS));
        let plans: Vec<Arc<qclab_core::CompiledProgram>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        let circuit = tagged_circuit(tag);
                        barrier.wait();
                        program::compile(&circuit, &PlanOptions::default())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let after = program::plan_cache_stats();
        assert_eq!(
            after.misses,
            before.misses + 1,
            "round {round}: exactly one thread may lower; the rest must \
             wait on the in-flight slot"
        );
        assert_eq!(
            after.hits,
            before.hits + THREADS as u64 - 1,
            "round {round}: every waiter must be served as a hit"
        );
        for (i, plan) in plans.iter().enumerate() {
            assert!(
                Arc::ptr_eq(plan, &plans[0]),
                "round {round}: thread {i} got a different Arc — duplicate \
                 lowering under contention"
            );
        }
    }

    // distinct fingerprints under contention: no deadlock, no sharing,
    // and one lowering each
    program::clear_plan_cache();
    let before = program::plan_cache_stats();
    let barrier = Arc::new(Barrier::new(THREADS));
    let plans: Vec<Arc<qclab_core::CompiledProgram>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let circuit = tagged_circuit(100.0 + i as f64);
                    barrier.wait();
                    program::compile(&circuit, &PlanOptions::default())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = program::plan_cache_stats();
    assert_eq!(
        after.misses,
        before.misses + THREADS as u64,
        "distinct circuits must each lower once"
    );
    for i in 0..THREADS {
        for j in (i + 1)..THREADS {
            assert!(
                !Arc::ptr_eq(&plans[i], &plans[j]),
                "distinct fingerprints must not share a plan"
            );
        }
    }

    // mixed: half the threads compile fingerprint A, half fingerprint B
    program::clear_plan_cache();
    let before = program::plan_cache_stats();
    let barrier = Arc::new(Barrier::new(THREADS));
    let plans: Vec<(usize, Arc<qclab_core::CompiledProgram>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let which = i % 2;
                    let circuit = tagged_circuit(200.0 + which as f64);
                    barrier.wait();
                    (which, program::compile(&circuit, &PlanOptions::default()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = program::plan_cache_stats();
    assert_eq!(
        after.misses,
        before.misses + 2,
        "two fingerprints → two lowerings, regardless of contention"
    );
    let first_a = plans.iter().find(|(w, _)| *w == 0).unwrap();
    let first_b = plans.iter().find(|(w, _)| *w == 1).unwrap();
    for (which, plan) in &plans {
        let expect = if *which == 0 { &first_a.1 } else { &first_b.1 };
        assert!(Arc::ptr_eq(plan, expect), "same fingerprint, same Arc");
    }
    assert!(!Arc::ptr_eq(&first_a.1, &first_b.1));

    program::clear_plan_cache();
}
