//! The plan cache: takes a circuit and plan options and returns the
//! shared plan ([`compile`]), lowering only on a miss.
//!
//! Shot loops, sweeps and trajectory ensembles lower one circuit over
//! and over. A [`PlanCache`] keys plans by `(fingerprint, nb_qubits,
//! PlanOptions::normalized())`; a hit skips flattening and fusion and
//! shares one [`Arc`]. The process keeps one, of [`PLAN_CACHE_CAPACITY`]
//! plans, behind the free functions; a test builds its own.
//!
//! **Kept on recurrence.** A key asked for the first time is lowered and
//! handed out, and only the key is remembered, in a recency ring
//! (`seen`) as long as the cache, with a [`Weak`] to the plan: a lookup
//! while any caller holds the plan shares it. Asked for again once every
//! holder let go, the key is lowered once more and the plan becomes
//! resident, the newest entry of an LRU ring. So a one-off circuit leaves
//! neither its plan nor its preparation behind, a caller that needs one
//! plan twice holds it (`sim::route::route` and `qclab compile` do;
//! `tests/plan_lowerings.rs` pins every command's lowering count), and a
//! cached plan is bit-identical to a fresh one (`tests/plan_cache_lru.rs`).
//!
//! **Single-flight.** A `seen` entry is `Lowering | Lowered(Weak<_>)`:
//! the first thread to miss claims the key, lowers outside the lock,
//! publishes and wakes waiters on a condvar; every concurrent requester
//! of the key blocks on the claim and receives the *same* `Arc`, and a
//! drop guard clears the claim if the lowering panics, so waiters never
//! wedge (`tests/plan_cache_stress.rs`: 16 threads × one key → one miss).
//!
//! **The key.** [`super::fingerprint`] hashes the flat stream, so a
//! nested sub-circuit and its inlining share a plan and any semantic
//! change (one angle ulp) misses; two circuits colliding in 64 bits is
//! astronomically unlikely but not impossible. Resource limits are not
//! part of a plan: executors re-check `ResourceLimits` before allocating.

use super::{lower, CompiledProgram, PlanOptions};
use crate::circuit::QCircuit;
use crate::recent::RecencyRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};

/// Number of plans the process's plan cache keeps, and of keys it
/// remembers as asked for once. Small on purpose: a plan can hold dense
/// fused blocks, and the workloads that benefit (shot loops, sweeps, a
/// server's hot circuits) revisit a handful of circuits.
pub const PLAN_CACHE_CAPACITY: usize = 32;

type CacheKey = (u64, usize, PlanOptions);
type Guard<'a> = MutexGuard<'a, Rings>;

/// A key the cache has seen but keeps no plan for.
enum Sighting {
    /// Some thread is lowering this key. The claim is what makes
    /// compilation single-flight: concurrent requesters wait on
    /// [`PlanCache::ready`] instead of lowering a duplicate.
    Lowering,
    /// Lowered once and handed out: the plan lives as long as its
    /// holders do, and a lookup meanwhile shares it.
    Lowered(Weak<CompiledProgram>),
}

impl Sighting {
    /// The plan a caller still holds, if any.
    fn held(&self) -> Option<Arc<CompiledProgram>> {
        match self {
            Sighting::Lowering => None,
            Sighting::Lowered(plan) => plan.upgrade(),
        }
    }
}

/// What a [`PlanCache`] guards with its lock: plans asked for again
/// after their last holder let go (`resident`, least recently used
/// first), the keys asked for once (`seen`), and the lookup counters.
struct Rings {
    resident: RecencyRing<CacheKey, Arc<CompiledProgram>>,
    seen: RecencyRing<CacheKey, Sighting>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Rings {
    /// Evicts least recently used plans and sightings down to
    /// `capacity` each, counting the plans. A sighting goes only once its
    /// plan is dead — while a caller holds the plan, a lookup shares it —
    /// so the held ones stay and the dead ones make room around them.
    fn evict_down_to(&mut self, capacity: usize) {
        self.evictions += self.resident.evict_down_to(capacity, |_| true) as u64;
        let held = |s: &Sighting| matches!(s, Sighting::Lowered(plan) if plan.strong_count() > 0);
        let dead = |s: &Sighting| matches!(s, Sighting::Lowered(plan) if plan.strong_count() == 0);
        let kept = self.seen.iter().filter(|(_, s)| held(s)).count();
        self.seen.evict_down_to(capacity.saturating_sub(kept), dead);
    }

    /// Drops every plan and every key, keeping the claims in flight
    /// when `claims` is `false`.
    fn clear(&mut self, claims: bool) {
        self.resident.clear();
        self.seen
            .retain(|s| !claims && matches!(s, Sighting::Lowering));
    }
}

/// A bounded plan cache: at most `capacity` resident plans and as many
/// keys asked for once; a claim in flight and a sighting whose plan a
/// caller holds are never evicted.
pub(crate) struct PlanCache {
    rings: Mutex<Rings>,
    /// Signalled when a claim is published or dropped.
    ready: Condvar,
    capacity: usize,
    /// Looks into retained-preparation slots, `[misses, hits]`, counted
    /// without the lock ([`count_prep`]).
    prep: [AtomicU64; 2],
}

/// The process's plan cache.
static PLANS: PlanCache = PlanCache::new(PLAN_CACHE_CAPACITY);

/// Counts one look into a plan's retained-preparation slot. A slot does
/// not know its cache: every look counts in the process cache's
/// [`PlanCacheStats`].
pub(crate) fn count_prep(hit: bool) {
    PLANS.prep[usize::from(hit)].fetch_add(1, Ordering::Relaxed);
}

/// Counters of the process's plan cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered without lowering: a resident plan, or one a
    /// caller still holds.
    pub hits: u64,
    /// Lookups that had to lower.
    pub misses: u64,
    /// Resident plans dropped to make room (capacity evictions —
    /// `clear_plan_cache` and poison recovery do not count).
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// Keys currently remembered as asked for once (at most
    /// [`PLAN_CACHE_CAPACITY`], besides the keys being lowered or held).
    pub seen: usize,
    /// Sampled trajectory runs whose one-time preparation came from
    /// their plan.
    pub prep_hits: u64,
    /// Such runs that had to prepare (an empty slot, or one kept under
    /// another configuration).
    pub prep_misses: u64,
    /// Bytes of preparations the resident plans currently retain — at
    /// most [`PLAN_CACHE_CAPACITY`]` × `[`RETAINED_BYTES_CAP`](super::RETAINED_BYTES_CAP).
    pub prep_bytes: usize,
}

/// Snapshot of the plan-cache counters.
pub fn plan_cache_stats() -> PlanCacheStats {
    PLANS.stats()
}

/// Empties the plan cache, plans and remembered keys alike (counters
/// keep running; in-flight lowerings are unaffected and publish when
/// they finish). Benchmarks use this to measure cold lowering;
/// long-lived processes may use it to drop plans holding large fused
/// blocks.
pub fn clear_plan_cache() {
    PLANS.clear();
}

/// Lowers `circuit` through the process's plan cache: the key is the
/// circuit's fingerprint (remembered by the circuit until its next
/// mutation, which is what detects a changed circuit), and flattening,
/// fusion and scheduling run only on a miss. A plan asked for once lives
/// as long as its callers hold it; asked for again after that, it is kept
/// until it is the least recently used of [`PLAN_CACHE_CAPACITY`]. Under
/// contention on one key exactly one thread lowers, and every requester
/// receives the same `Arc`.
pub fn compile(circuit: &QCircuit, options: &PlanOptions) -> Arc<CompiledProgram> {
    PLANS.compile(circuit, options)
}

/// Removes `key`'s in-flight claim (if it is still a claim) and wakes
/// waiters. Runs on drop so a panicking lowering can never strand the
/// claim — waiters wake, find no claim, and re-claim as the new leader.
struct FlightGuard<'a> {
    cache: &'a PlanCache,
    key: CacheKey,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut rings = self.cache.lock();
        if matches!(rings.seen.get(&self.key), Some(Sighting::Lowering)) {
            rings.seen.remove(&self.key);
        }
        drop(rings);
        self.cache.ready.notify_all();
    }
}

impl PlanCache {
    /// An empty cache of `capacity` plans.
    pub(crate) const fn new(capacity: usize) -> Self {
        PlanCache {
            rings: Mutex::new(Rings {
                resident: RecencyRing::new(),
                seen: RecencyRing::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            ready: Condvar::new(),
            capacity,
            prep: [const { AtomicU64::new(0) }; 2],
        }
    }

    /// Recovers the cache from poisoning (a panic while the lock was
    /// held: an executor's, through a caller that compiles under it, or
    /// a chaos fault). The short sections here never leave the rings
    /// half-mutated, but the conservative recovery drops every plan and
    /// claim and keeps serving: unrelated callers never see the panic.
    /// The flag is cleared so the cache refills, and waiters wake to
    /// re-claim.
    fn recover<'a>(&'a self, poisoned: PoisonError<Guard<'a>>) -> Guard<'a> {
        self.rings.clear_poison();
        let mut rings = poisoned.into_inner();
        rings.clear(true);
        self.ready.notify_all();
        rings
    }

    fn lock(&self) -> Guard<'_> {
        self.rings.lock().unwrap_or_else(|e| self.recover(e))
    }

    fn stats(&self) -> PlanCacheStats {
        let rings = self.lock();
        PlanCacheStats {
            hits: rings.hits,
            misses: rings.misses,
            evictions: rings.evictions,
            entries: rings.resident.len(),
            seen: rings
                .seen
                .iter()
                .filter(|(_, s)| matches!(s, Sighting::Lowered(_)))
                .count(),
            prep_hits: self.prep[1].load(Ordering::Relaxed),
            prep_misses: self.prep[0].load(Ordering::Relaxed),
            prep_bytes: rings
                .resident
                .iter()
                .map(|(_, plan)| plan.prep.bytes())
                .sum(),
        }
    }

    fn clear(&self) {
        self.lock().clear(false);
    }

    fn compile(&self, circuit: &QCircuit, options: &PlanOptions) -> Arc<CompiledProgram> {
        let options = options.normalized();
        let key: CacheKey = (circuit.fingerprint(), circuit.nb_qubits(), options);

        let recurring = {
            let mut rings = self.lock();
            loop {
                if let Some(plan) = rings.resident.touch(&key) {
                    let plan = Arc::clone(plan);
                    rings.hits += 1;
                    return plan;
                }
                match rings.seen.touch(&key) {
                    None => {
                        rings.seen.insert(key, Sighting::Lowering);
                        break false;
                    }
                    // another thread is lowering this key; wait for its
                    // publish (or its FlightGuard, if it dies), then
                    // re-check: the plan may be there, the claim gone
                    // (leader panicked / cache cleared — this thread
                    // re-claims), or still in flight (spurious wake)
                    Some(Sighting::Lowering) => {
                        rings = self.ready.wait(rings).unwrap_or_else(|e| self.recover(e));
                    }
                    Some(sighting) => match sighting.held() {
                        Some(plan) => {
                            rings.hits += 1;
                            return plan;
                        }
                        // asked for again after its last holder let go
                        None => {
                            *sighting = Sighting::Lowering;
                            break true;
                        }
                    },
                }
            }
        };

        // This thread owns the lowering; the guard un-claims on every
        // exit path, including a panic inside `lower`.
        let guard = FlightGuard { cache: self, key };
        let plan = Arc::new(lower(circuit, &options));
        {
            let mut rings = self.lock();
            rings.misses += 1;
            // only possible after a poison/clear dropped this thread's
            // claim and another thread published first: share theirs
            // (both lowerings really happened, so both misses stand)
            if let Some(other) = rings.resident.touch(&key) {
                return Arc::clone(other);
            }
            if let Some(other) = rings.seen.get(&key).and_then(Sighting::held) {
                return other;
            }
            // this thread's claim (or a re-claimer's, after a clear):
            // replace it with the finished plan
            rings.seen.remove(&key);
            if recurring {
                rings.resident.insert(key, Arc::clone(&plan));
            } else {
                rings
                    .seen
                    .insert(key, Sighting::Lowered(Arc::downgrade(&plan)));
            }
            rings.evict_down_to(self.capacity);
        }
        drop(guard); // notifies waiters (the claim itself is already gone)
        plan
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // a test may let a refused thread panic
mod tests {
    use super::*;
    use crate::gates::factories::*;
    use crate::measurement::Measurement;
    use crate::sim::fusion::MAX_FUSED_QUBITS_LIMIT;

    /// Circuits with pairwise-distinct fingerprints (the angle encodes `i`).
    fn distinct_circuit(i: usize) -> QCircuit {
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(RotationZ::new(1, 0.01 * (i as f64 + 1.0)));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(2));
        c
    }

    /// Makes circuit `i`'s plan resident the way a caller does: asks
    /// for it, lets go, and asks again.
    fn resident(cache: &PlanCache, i: usize) -> Arc<CompiledProgram> {
        let opts = PlanOptions::default();
        drop(cache.compile(&distinct_circuit(i), &opts));
        cache.compile(&distinct_circuit(i), &opts)
    }

    #[test]
    fn plan_cache_shares_one_arc_per_circuit() {
        let cache = PlanCache::new(PLAN_CACHE_CAPACITY);
        let c = distinct_circuit(0);
        let a = cache.compile(&c, &PlanOptions::default());
        let b = cache.compile(&c, &PlanOptions::default());
        assert!(Arc::ptr_eq(&a, &b), "second compile must hit the cache");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // different options are a different plan
        let unfused = cache.compile(&c, &PlanOptions::unfused());
        assert!(!Arc::ptr_eq(&a, &unfused));
        assert_eq!(a.fingerprint(), unfused.fingerprint());

        // equivalent (clamped) fusion caps share one entry
        let clamped = cache.compile(
            &c,
            &PlanOptions {
                max_fused_qubits: 64,
                ..PlanOptions::default()
            },
        );
        let limit = cache.compile(
            &c,
            &PlanOptions {
                max_fused_qubits: MAX_FUSED_QUBITS_LIMIT,
                ..PlanOptions::default()
            },
        );
        assert!(Arc::ptr_eq(&clamped, &limit));
    }

    #[test]
    fn plan_cache_detects_circuit_mutation() {
        let cache = PlanCache::new(PLAN_CACHE_CAPACITY);
        let mut c = QCircuit::new(1);
        c.push_back(RotationZ::new(0, 0.987_654_321));
        let a = cache.compile(&c, &PlanOptions::default());
        c.push_back(Hadamard::new(0));
        let b = cache.compile(&c, &PlanOptions::default());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.stats().gates_in, 2);
    }

    #[test]
    fn plan_cache_is_bounded() {
        let cache = PlanCache::new(PLAN_CACHE_CAPACITY);
        for i in 0..PLAN_CACHE_CAPACITY + 8 {
            resident(&cache, i);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, PLAN_CACHE_CAPACITY);
        assert_eq!(stats.evictions, 8);
    }

    #[test]
    fn a_small_cache_evicts_its_least_recently_used_plan() {
        let cache = PlanCache::new(4);
        let opts = PlanOptions::default();
        for i in 0..4 {
            resident(&cache, i);
        }
        let st = cache.stats();
        assert_eq!((st.entries, st.evictions), (4, 0), "filling must not evict");
        // touch 0, admit a 5th: 1 (the LRU) is evicted and counted
        cache.compile(&distinct_circuit(0), &opts);
        resident(&cache, 4);
        let st = cache.stats();
        assert_eq!((st.entries, st.evictions), (4, 1));
        let before = cache.stats();
        cache.compile(&distinct_circuit(0), &opts);
        assert_eq!(
            cache.stats().hits,
            before.hits + 1,
            "the touched plan survives"
        );
        cache.compile(&distinct_circuit(1), &opts);
        assert_eq!(
            cache.stats().misses,
            before.misses + 1,
            "the LRU plan is gone"
        );
    }

    #[test]
    fn the_ring_of_keys_follows_the_capacity() {
        let cache = PlanCache::new(4);
        let opts = PlanOptions::default();
        for i in 0..10 {
            cache.compile(&distinct_circuit(i), &opts);
            assert!(cache.stats().seen <= 4);
        }
        assert_eq!(cache.stats().seen, 4);
        // a held plan's key is never evicted: a lookup shares it
        let held = cache.compile(&distinct_circuit(100), &opts);
        for i in 10..20 {
            cache.compile(&distinct_circuit(i), &opts);
        }
        assert!(Arc::ptr_eq(
            &held,
            &cache.compile(&distinct_circuit(100), &opts)
        ));
        assert_eq!(cache.stats().seen, 4);
    }

    #[test]
    fn contending_threads_share_one_lowering() {
        let cache = PlanCache::new(PLAN_CACHE_CAPACITY);
        let circuit = distinct_circuit(0);
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let plans: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.compile(&circuit, &PlanOptions::default())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, threads as u64 - 1));
    }

    #[test]
    fn plan_cache_recovers_from_poison() {
        let cache = PlanCache::new(PLAN_CACHE_CAPACITY);
        let opts = PlanOptions::default();
        let kept = resident(&cache, 0);
        let held = cache.compile(&distinct_circuit(1), &opts);
        assert_eq!((cache.stats().entries, cache.stats().seen), (1, 1));
        // poison the lock on purpose: panic while holding it
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _rings = cache.rings.lock().unwrap();
            panic!("deliberate poison for recovery test");
        }));
        assert!(poisoner.is_err());
        assert!(cache.rings.is_poisoned());

        // the next lock recovers: unpoisoned, empty, counters kept
        let stats = cache.stats();
        assert!(!cache.rings.is_poisoned());
        assert_eq!((stats.entries, stats.seen), (0, 0));
        assert_eq!(stats.misses, 3);

        // …and serving hits again
        let a = cache.compile(&distinct_circuit(2), &opts);
        let b = cache.compile(&distinct_circuit(2), &opts);
        assert!(Arc::ptr_eq(&a, &b), "a held plan is shared after recovery");
        assert_eq!(cache.stats().hits, stats.hits + 1);
        assert!(
            !Arc::ptr_eq(&kept, &resident(&cache, 0)),
            "the residents were dropped"
        );
        drop(held);
    }
}
