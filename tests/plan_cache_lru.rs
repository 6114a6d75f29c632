//! Admission and LRU behaviour of the process's plan cache: a plan is
//! kept only when its key is asked for again after its last holder
//! dropped it; residents fill up to [`PLAN_CACHE_CAPACITY`] and evict
//! the least-recently-used plan, a hit refreshes an entry's position, a
//! re-lowered plan after [`clear_plan_cache`] is indistinguishable from
//! the evicted one, and the scheduler's dedup window is
//! [`PLAN_CACHE_CAPACITY`] circuits wide, as the cache's ring of keys is.
//! (A smaller cache's LRU order is `program::cache`'s unit tests'.)
//!
//! Everything lives in ONE test function: the cache and its counters
//! are process-global, and the default parallel test runner would race
//! them across `#[test]`s.

use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions, PLAN_CACHE_CAPACITY};
use qclab_core::service::{JobSpec, Scheduler, ServiceConfig};
use qclab_core::CompiledProgram;
use std::sync::Arc;

/// Circuits with pairwise-distinct fingerprints (the angle encodes `i`).
fn distinct_circuit(i: usize) -> QCircuit {
    let mut c = QCircuit::new(3);
    c.push_back(Hadamard::new(0));
    c.push_back(RotationZ::new(1, 0.01 * (i as f64 + 1.0)));
    c.push_back(CNOT::new(0, 1));
    c.push_back(Measurement::z(2));
    c
}

/// Makes circuit `i`'s plan resident the way a caller does: asks for
/// it, lets go, and asks again.
fn resident(i: usize, opts: &PlanOptions) -> Arc<CompiledProgram> {
    drop(program::compile(&distinct_circuit(i), opts));
    program::compile(&distinct_circuit(i), opts)
}

#[test]
fn plan_cache_is_lru_and_relowering_matches() {
    let opts = PlanOptions::default();
    program::clear_plan_cache();

    // ---- admission on recurrence ------------------------------------
    // asked once, then dropped: nothing is kept but the key
    let before = program::plan_cache_stats();
    let once = program::compile(&distinct_circuit(0), &opts);
    // asked while held: the held plan, without lowering
    let held = program::compile(&distinct_circuit(0), &opts);
    assert!(Arc::ptr_eq(&once, &held), "a held plan must be shared");
    let after = program::plan_cache_stats();
    assert_eq!(
        after.misses,
        before.misses + 1,
        "a held plan must not lower"
    );
    assert_eq!(after.hits, before.hits + 1);
    drop((once, held));
    let after = program::plan_cache_stats();
    assert_eq!(
        (after.entries, after.prep_bytes),
        (0, 0),
        "a one-off is not kept"
    );
    assert_eq!(after.seen, 1, "only its key is remembered");
    // asked again after the drop: one miss, then resident, then hits
    let again = program::compile(&distinct_circuit(0), &opts);
    let st = program::plan_cache_stats();
    assert_eq!(st.misses, after.misses + 1, "a recurrence lowers once more");
    assert_eq!((st.entries, st.seen), (1, 0), "…and is kept");
    drop(again);
    let plan = program::compile(&distinct_circuit(0), &opts);
    let st = program::plan_cache_stats();
    assert_eq!((st.hits, st.misses), (after.hits + 1, after.misses + 1));
    assert_eq!(st.entries, 1, "a resident outlives its holders");
    drop(plan);

    // fill exactly to capacity: circuits 0..CAP, front-to-back in age
    program::clear_plan_cache();
    for i in 0..PLAN_CACHE_CAPACITY {
        resident(i, &opts);
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

    // the 33rd resident evicts the *oldest* entry — which is now
    // circuit 1, because circuit 0 was just touched
    let before = program::plan_cache_stats();
    resident(PLAN_CACHE_CAPACITY, &opts);
    let after = program::plan_cache_stats();
    assert_eq!(
        after.misses,
        before.misses + 2,
        "asked twice, lowered twice"
    );
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

    // the ring of keys asked for once never exceeds the capacity
    for i in 0..3 * PLAN_CACHE_CAPACITY {
        program::compile(&distinct_circuit(1000 + i), &opts);
        assert!(program::plan_cache_stats().seen <= PLAN_CACHE_CAPACITY);
    }
    assert_eq!(program::plan_cache_stats().seen, PLAN_CACHE_CAPACITY);
    // …so the oldest of them is a first sighting again, and the newest
    // a recurrence
    let before = program::plan_cache_stats();
    program::compile(&distinct_circuit(1000), &opts);
    program::compile(&distinct_circuit(1000 + 3 * PLAN_CACHE_CAPACITY - 1), &opts);
    let after = program::plan_cache_stats();
    assert_eq!(after.misses, before.misses + 2);
    assert_eq!(after.evictions, before.evictions + 1, "one became resident");

    // re-lowering after a clear reproduces the cached plan exactly:
    // same ops, same stats, same shot classification
    let cached_ops = plan0.ops().to_vec();
    let cached_stats = *plan0.stats();
    let cached_shot = plan0.shot_plan().clone();
    program::clear_plan_cache();
    let cleared = program::plan_cache_stats();
    assert_eq!((cleared.entries, cleared.seen), (0, 0));
    let fresh = program::compile(&distinct_circuit(0), &opts);
    assert_eq!(fresh.ops(), &cached_ops[..], "re-lowered ops diverged");
    assert_eq!(*fresh.stats(), cached_stats, "re-lowered stats diverged");
    assert_eq!(
        *fresh.shot_plan(),
        cached_shot,
        "re-lowered shot plan diverged"
    );
    drop((plan0, fresh));

    // the cache key is the options: the same circuit lowered under the
    // defaults and unfused (the sparse executor's plan) are two distinct
    // entries — the unfused request must miss, not alias
    program::clear_plan_cache();
    let fused_plan = resident(0, &PlanOptions::default());
    let before = program::plan_cache_stats();
    let unfused_plan = program::compile(&distinct_circuit(0), &PlanOptions::unfused());
    let after = program::plan_cache_stats();
    assert_eq!(
        after.misses,
        before.misses + 1,
        "an unfused lowering of a fused-cached circuit must miss"
    );
    assert!(
        !Arc::ptr_eq(&fused_plan, &unfused_plan),
        "fused and unfused requests must not share a plan"
    );
    drop(unfused_plan);
    let unfused_plan = program::compile(&distinct_circuit(0), &PlanOptions::unfused());
    assert_eq!(
        program::plan_cache_stats().entries,
        2,
        "fused and unfused plans must coexist"
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
    assert!(Arc::ptr_eq(&fused_plan, &fused_again));
    assert!(Arc::ptr_eq(&unfused_plan, &unfused_again));
    // the support bound is computed on the flat unfused stream, so both
    // variants of one circuit report the same estimate
    assert_eq!(
        fused_plan.stats().sparse_entries,
        unfused_plan.stats().sparse_entries,
        "the sparse-entry bound must not depend on the plan variant"
    );

    // the scheduler's dedup window is the plan cache's capacity: A, then
    // `PLAN_CACHE_CAPACITY` other circuits, forgets A, and the last A is
    // no dedup hit
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
    let order = std::iter::once(0).chain(1..=PLAN_CACHE_CAPACITY).chain([0]);
    let hits: Vec<bool> = order.map(submit).collect();
    assert_eq!(hits, [false; PLAN_CACHE_CAPACITY + 2], "A, the others, A");
    assert_eq!(
        program::plan_cache_stats().misses,
        before.misses + PLAN_CACHE_CAPACITY as u64 + 2,
        "the last A lowers again"
    );
    assert_eq!(program::plan_cache_stats().entries, 0, "A was forgotten");
    assert!(submit(0), "A A is a hit");
    assert_eq!(program::plan_cache_stats().entries, 1, "…and A is kept");
    drop(scheduler);
    program::clear_plan_cache();
}
