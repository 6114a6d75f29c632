//! LRU behaviour of the global plan cache: filling it past
//! [`PLAN_CACHE_CAPACITY`] evicts the least-recently-used plan, a hit
//! refreshes an entry's position, a re-lowered plan after
//! [`clear_plan_cache`] is indistinguishable from the evicted one, and
//! the scheduler's dedup window follows the cache's capacity.
//!
//! Everything lives in ONE test function: the cache and its counters
//! are process-global, and the default parallel test runner would race
//! them across `#[test]`s.

use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions, PLAN_CACHE_CAPACITY};
use qclab_core::service::{JobSpec, Scheduler, ServiceConfig};

/// Circuits with pairwise-distinct fingerprints (the angle encodes `i`).
fn distinct_circuit(i: usize) -> QCircuit {
    let mut c = QCircuit::new(3);
    c.push_back(Hadamard::new(0));
    c.push_back(RotationZ::new(1, 0.01 * (i as f64 + 1.0)));
    c.push_back(CNOT::new(0, 1));
    c.push_back(Measurement::z(2));
    c
}

#[test]
fn plan_cache_is_lru_and_relowering_matches() {
    let opts = PlanOptions::default();
    program::clear_plan_cache();

    // fill exactly to capacity: circuits 0..CAP, front-to-back in age
    for i in 0..PLAN_CACHE_CAPACITY {
        program::compile(&distinct_circuit(i), &opts);
    }
    let full = program::plan_cache_stats();
    assert_eq!(full.entries, PLAN_CACHE_CAPACITY, "cache must be full");

    // a hit refreshes circuit 0's position (front -> back)
    let before = program::plan_cache_stats();
    let plan0 = program::compile(&distinct_circuit(0), &opts);
    let after = program::plan_cache_stats();
    assert_eq!(
        after.hits,
        before.hits + 1,
        "refill of a resident plan must hit"
    );
    assert_eq!(
        after.misses, before.misses,
        "refill of a resident plan must not lower"
    );

    // the 33rd distinct circuit evicts the *oldest* entry — which is
    // now circuit 1, because circuit 0 was just touched
    let before = program::plan_cache_stats();
    program::compile(&distinct_circuit(PLAN_CACHE_CAPACITY), &opts);
    let after = program::plan_cache_stats();
    assert_eq!(after.misses, before.misses + 1);
    assert_eq!(
        after.entries, PLAN_CACHE_CAPACITY,
        "insertion at capacity must evict, not grow"
    );

    // circuit 0 survived the eviction thanks to the LRU touch…
    let before = program::plan_cache_stats();
    program::compile(&distinct_circuit(0), &opts);
    let after = program::plan_cache_stats();
    assert_eq!(
        after.hits,
        before.hits + 1,
        "recently-used plan must survive eviction"
    );

    // …and circuit 1 (the true LRU) is gone: recompiling it misses
    let before = program::plan_cache_stats();
    program::compile(&distinct_circuit(1), &opts);
    let after = program::plan_cache_stats();
    assert_eq!(
        after.misses,
        before.misses + 1,
        "the LRU plan must have been evicted"
    );

    // re-lowering after a clear reproduces the cached plan exactly:
    // same ops, same stats, same shot classification
    let cached_ops = plan0.ops().to_vec();
    let cached_stats = *plan0.stats();
    let cached_shot = plan0.shot_plan().clone();
    program::clear_plan_cache();
    assert_eq!(program::plan_cache_stats().entries, 0);
    let fresh = program::compile(&distinct_circuit(0), &opts);
    assert_eq!(fresh.ops(), &cached_ops[..], "re-lowered ops diverged");
    assert_eq!(*fresh.stats(), cached_stats, "re-lowered stats diverged");
    assert_eq!(
        *fresh.shot_plan(),
        cached_shot,
        "re-lowered shot plan diverged"
    );

    // the cache key is the options: the same circuit lowered under the
    // defaults and unfused (the sparse executor's plan) are two distinct
    // entries — the second request must miss, not alias
    program::clear_plan_cache();
    let fused_plan = program::compile(&distinct_circuit(0), &PlanOptions::default());
    let before = program::plan_cache_stats();
    let unfused_plan = program::compile(&distinct_circuit(0), &PlanOptions::unfused());
    let after = program::plan_cache_stats();
    assert_eq!(
        after.misses,
        before.misses + 1,
        "an unfused lowering of a fused-cached circuit must miss"
    );
    assert_eq!(after.entries, 2, "fused and unfused plans must coexist");
    assert!(
        !std::sync::Arc::ptr_eq(&fused_plan, &unfused_plan),
        "fused and unfused requests must not share a plan"
    );
    // …and each variant hits its own entry afterwards, no cross-talk
    let before = program::plan_cache_stats();
    let fused_again = program::compile(&distinct_circuit(0), &PlanOptions::default());
    let unfused_again = program::compile(&distinct_circuit(0), &PlanOptions::unfused());
    let after = program::plan_cache_stats();
    assert_eq!(
        after.hits,
        before.hits + 2,
        "both variants must be resident"
    );
    assert_eq!(after.misses, before.misses, "no re-lowering on either side");
    assert!(std::sync::Arc::ptr_eq(&fused_plan, &fused_again));
    assert!(std::sync::Arc::ptr_eq(&unfused_plan, &unfused_again));
    // the support bound is computed on the flat unfused stream, so both
    // variants of one circuit report the same estimate
    assert_eq!(
        fused_plan.stats().sparse_entries,
        unfused_plan.stats().sparse_entries,
        "the sparse-entry bound must not depend on the plan variant"
    );

    // ---- configurable capacity + eviction accounting ----------------
    // shrink the cache to a non-default size; LRU order and the
    // eviction counter must track it exactly
    program::clear_plan_cache();
    program::set_plan_cache_capacity(4);
    assert_eq!(program::plan_cache_capacity(), 4);
    let evicted_before = program::plan_cache_stats().evictions;
    for i in 0..4 {
        program::compile(&distinct_circuit(i), &opts);
    }
    assert_eq!(program::plan_cache_stats().entries, 4);
    assert_eq!(
        program::plan_cache_stats().evictions,
        evicted_before,
        "filling to the new capacity must not evict"
    );
    // touch 0, insert a 5th: 1 (the LRU) is evicted and counted
    program::compile(&distinct_circuit(0), &opts);
    program::compile(&distinct_circuit(4), &opts);
    let st = program::plan_cache_stats();
    assert_eq!(st.entries, 4, "non-default capacity must be enforced");
    assert_eq!(st.evictions, evicted_before + 1, "one eviction expected");
    let before = program::plan_cache_stats();
    program::compile(&distinct_circuit(0), &opts);
    assert_eq!(
        program::plan_cache_stats().hits,
        before.hits + 1,
        "touched plan must survive at capacity 4"
    );
    let before = program::plan_cache_stats();
    program::compile(&distinct_circuit(1), &opts);
    assert_eq!(
        program::plan_cache_stats().misses,
        before.misses + 1,
        "LRU plan must be gone at capacity 4"
    );

    // shrinking below the resident count evicts down immediately
    let evicted_before = program::plan_cache_stats().evictions;
    program::set_plan_cache_capacity(2);
    let st = program::plan_cache_stats();
    assert_eq!(st.entries, 2, "shrink must evict down to the new cap");
    assert_eq!(st.evictions, evicted_before + 2);
    // the scheduler's dedup window is the plan cache's: at capacity 2,
    // A B C A evicts A's plan, and the second A is no dedup hit
    program::clear_plan_cache();
    let scheduler = Scheduler::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let submit = |i: usize| {
        let job = JobSpec::new(format!("c{i}"), distinct_circuit(i), 8, 1);
        scheduler
            .submit(job)
            .unwrap()
            .wait()
            .unwrap()
            .telemetry
            .dedup_hit
    };
    let before = program::plan_cache_stats();
    let hits: Vec<bool> = [0, 1, 2, 0].into_iter().map(submit).collect();
    assert_eq!(hits, [false, false, false, false], "A B C A at capacity 2");
    assert_eq!(
        program::plan_cache_stats().misses,
        before.misses + 4,
        "the second A lowers again"
    );
    assert!(submit(0), "A A is a hit");
    drop(scheduler);

    // clamp: capacity 0 is meaningless, it becomes 1
    program::set_plan_cache_capacity(0);
    assert_eq!(program::plan_cache_capacity(), 1);
    assert_eq!(program::plan_cache_stats().entries, 1);

    // restore the default so later suites see the documented behaviour
    program::set_plan_cache_capacity(PLAN_CACHE_CAPACITY);
    assert_eq!(program::plan_cache_capacity(), PLAN_CACHE_CAPACITY);
    program::clear_plan_cache();
}
