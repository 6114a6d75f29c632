//! The plan cache: takes a circuit and plan options and returns the
//! shared plan ([`compile`]), lowering only on a miss.
//!
//! Repeated executions — `counts(shots)`, tomography sweeps, trajectory
//! ensembles, QEC threshold scans — lower the same circuit over and
//! over. [`compile`] memoizes plans in a bounded global cache keyed by
//! `(fingerprint, nb_qubits, fusion options)`; cache hits skip
//! flattening and fusion entirely and share one [`Arc`] across callers.
//! The cache keeps a plan only when its key comes back: a circuit asked
//! for once — most circuits a user prototyping or a server sees —
//! leaves its key behind and nothing else.
//! The fingerprint is a 64-bit content hash, so two *different* circuits
//! colliding is astronomically unlikely but not impossible; the hash
//! covers every gate matrix bit pattern, so a collision requires two
//! structurally different circuits with identical semantics-bearing
//! bits. Resource limits are **not** baked into plans: executors
//! re-check `ResourceLimits` before allocating, so one cached plan
//! serves callers with different limits.

use super::{lower, CompiledProgram, PlanOptions};
use crate::circuit::QCircuit;
use crate::recent::RecencyRing;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};

/// Default number of plans the global cache keeps, and of keys it
/// remembers as asked for once (see [`set_plan_cache_capacity`]). Small
/// on purpose: a plan can hold dense fused blocks, and single-process
/// workloads that benefit (shot loops, sweeps) revisit a handful of
/// circuits. Multi-tenant servers raise it to match their working set.
pub const PLAN_CACHE_CAPACITY: usize = 32;

type CacheKey = (u64, usize, PlanOptions);

/// A key the cache has seen but keeps no plan for.
enum Sighting {
    /// Some thread is lowering this key. The claim is what makes
    /// compilation single-flight: concurrent requesters wait on
    /// [`PLAN_CACHE_READY`] instead of lowering a duplicate.
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

/// The global plan cache: plans asked for again after their last holder
/// let go (`resident`, least recently used first), and the keys asked
/// for once (`seen`). At most [`plan_cache_capacity`] of each; a claim
/// in flight and a sighting whose plan a caller holds are never evicted.
struct PlanCache {
    resident: RecencyRing<CacheKey, Arc<CompiledProgram>>,
    seen: RecencyRing<CacheKey, Sighting>,
}

impl PlanCache {
    /// Evicts least recently used plans and sightings down to
    /// `capacity` each, counting the plans. A sighting goes only once its
    /// plan is dead — while a caller holds the plan, a lookup shares it —
    /// so the held ones stay and the dead ones make room around them.
    fn evict_down_to(&mut self, capacity: usize) {
        let evicted = self.resident.evict_down_to(capacity, |_| true);
        CACHE_EVICTIONS.fetch_add(evicted as u64, Ordering::Relaxed);
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

static PLAN_CACHE: Mutex<PlanCache> = Mutex::new(PlanCache {
    resident: RecencyRing::new(),
    seen: RecencyRing::new(),
});
static PLAN_CACHE_READY: Condvar = Condvar::new();
static CACHE_CAPACITY: AtomicUsize = AtomicUsize::new(PLAN_CACHE_CAPACITY);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static PREP_HITS: AtomicU64 = AtomicU64::new(0);
static PREP_MISSES: AtomicU64 = AtomicU64::new(0);

/// Counts one look into a plan's retained-preparation slot.
pub(crate) fn count_prep(hit: bool) {
    let counter = if hit { &PREP_HITS } else { &PREP_MISSES };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Recovers the plan cache from poisoning. A thread that panicked while
/// holding the lock (an executor panic can propagate through a caller
/// that compiles under the lock, or a chaos-injected fault) poisons the
/// `Mutex`; every plan is an immutable `Arc<CompiledProgram>` and the
/// rings are never left half-mutated by the short critical sections
/// below, but the conservative recovery is to drop the cached plans and
/// keep serving — unrelated callers must never see the panic. The poison
/// flag is cleared so the cache refills instead of being emptied on
/// every subsequent lock, and waiters are woken: their in-flight claims
/// were dropped with the rest, so they must re-claim.
fn recover(
    poisoned: PoisonError<MutexGuard<'static, PlanCache>>,
) -> MutexGuard<'static, PlanCache> {
    PLAN_CACHE.clear_poison();
    let mut guard = poisoned.into_inner();
    guard.clear(true);
    PLAN_CACHE_READY.notify_all();
    guard
}

fn lock_plan_cache() -> MutexGuard<'static, PlanCache> {
    PLAN_CACHE.lock().unwrap_or_else(recover)
}

/// Counters of the global plan cache.
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
    /// [`plan_cache_capacity`], besides the keys being lowered or held).
    pub seen: usize,
    /// Sampled trajectory runs whose one-time preparation came from
    /// their plan.
    pub prep_hits: u64,
    /// Such runs that had to prepare (an empty slot, or one kept under
    /// another configuration).
    pub prep_misses: u64,
    /// Bytes of preparations the resident plans currently retain — at
    /// most [`plan_cache_capacity`]` × `[`RETAINED_BYTES_CAP`](super::RETAINED_BYTES_CAP).
    pub prep_bytes: usize,
}

/// Snapshot of the plan-cache counters.
pub fn plan_cache_stats() -> PlanCacheStats {
    let cache = lock_plan_cache();
    PlanCacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
        evictions: CACHE_EVICTIONS.load(Ordering::Relaxed),
        entries: cache.resident.len(),
        seen: cache
            .seen
            .iter()
            .filter(|(_, s)| matches!(s, Sighting::Lowered(_)))
            .count(),
        prep_hits: PREP_HITS.load(Ordering::Relaxed),
        prep_misses: PREP_MISSES.load(Ordering::Relaxed),
        prep_bytes: cache
            .resident
            .iter()
            .map(|(_, plan)| plan.prep.bytes())
            .sum(),
    }
}

/// The plan cache's current capacity (plans, not bytes).
pub fn plan_cache_capacity() -> usize {
    CACHE_CAPACITY.load(Ordering::Relaxed)
}

/// Sets the plan-cache capacity (clamped to ≥ 1; the process default is
/// [`PLAN_CACHE_CAPACITY`]). Shrinking below the current population
/// evicts least-recently-used plans immediately (counted in
/// [`PlanCacheStats::evictions`]). A multi-tenant server sizes this to
/// its distinct-circuit working set so hot tenants do not thrash each
/// other's plans.
pub fn set_plan_cache_capacity(capacity: usize) {
    let cap = capacity.max(1);
    CACHE_CAPACITY.store(cap, Ordering::Relaxed);
    lock_plan_cache().evict_down_to(cap);
}

/// Empties the plan cache, plans and remembered keys alike (counters
/// keep running; in-flight lowerings are unaffected and publish when
/// they finish). Benchmarks use this to measure cold lowering;
/// long-lived processes may use it to drop plans holding large fused
/// blocks.
pub fn clear_plan_cache() {
    lock_plan_cache().clear(false);
}

/// Removes `key`'s in-flight claim (if it is still a claim) and wakes
/// waiters. Runs on drop so a panicking lowering can never strand the
/// claim — waiters wake, find no claim, and re-claim as the new leader.
struct FlightGuard {
    key: CacheKey,
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        let mut cache = lock_plan_cache();
        if matches!(cache.seen.get(&self.key), Some(Sighting::Lowering)) {
            cache.seen.remove(&self.key);
        }
        drop(cache);
        PLAN_CACHE_READY.notify_all();
    }
}

/// Lowers `circuit` through the global plan cache: the key is the
/// circuit's fingerprint (remembered by the circuit until its next
/// mutation, which is what detects a changed circuit), and
/// flattening, fusion and scheduling run only on a miss. Returns a
/// shared handle; executions on the same circuit across backends and
/// shots all reuse one plan.
///
/// The cache **keeps a plan on recurrence**. A key asked for the first
/// time is lowered and handed out, and only the key is remembered: the
/// plan lives as long as its callers hold it, and a lookup meanwhile
/// shares it. Asked for again once no caller holds it, the key is
/// lowered again and the plan becomes resident — kept, with the
/// preparation its runs retain, until it is the least recently used of
/// [`plan_cache_capacity`] plans. So a one-off circuit leaves nothing
/// behind, and a caller that needs one plan twice holds on to it.
///
/// Compilation is **single-flight**: under contention on one key,
/// exactly one thread lowers (outside the lock — fusion does real work)
/// while every concurrent requester blocks on the shared result and
/// receives the same `Arc`. This is what lets a multi-tenant server
/// admit a burst of identical circuits without paying one lowering per
/// tenant.
pub fn compile(circuit: &QCircuit, options: &PlanOptions) -> Arc<CompiledProgram> {
    let options = options.normalized();
    let key: CacheKey = (circuit.fingerprint(), circuit.nb_qubits(), options);

    let recurring = {
        let mut cache = lock_plan_cache();
        loop {
            if let Some(plan) = cache.resident.touch(&key) {
                let plan = Arc::clone(plan);
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                return plan;
            }
            match cache.seen.touch(&key) {
                None => {
                    cache.seen.insert(key, Sighting::Lowering);
                    break false;
                }
                // another thread is lowering this key; wait for its
                // publish (or its FlightGuard, if it dies), then re-check:
                // the plan may be there, the claim gone (leader panicked
                // / cache cleared — this thread re-claims), or still in
                // flight (spurious wake)
                Some(Sighting::Lowering) => {
                    cache = PLAN_CACHE_READY.wait(cache).unwrap_or_else(recover);
                }
                Some(sighting) => match sighting.held() {
                    Some(plan) => {
                        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
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

    // This thread owns the lowering; the guard un-claims on every exit
    // path, including a panic inside `lower`.
    let guard = FlightGuard { key };
    let plan = Arc::new(lower(circuit, &options));
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    {
        let mut cache = lock_plan_cache();
        // only possible after a poison/clear dropped this thread's claim
        // and another thread published first: share theirs (both
        // lowerings really happened, so both misses stand)
        if let Some(other) = cache.resident.touch(&key) {
            return Arc::clone(other);
        }
        if let Some(other) = cache.seen.get(&key).and_then(Sighting::held) {
            return other;
        }
        // this thread's claim (or a re-claimer's, after a clear):
        // replace it with the finished plan
        cache.seen.remove(&key);
        if recurring {
            cache.resident.insert(key, Arc::clone(&plan));
        } else {
            cache
                .seen
                .insert(key, Sighting::Lowered(Arc::downgrade(&plan)));
        }
        cache.evict_down_to(plan_cache_capacity());
    }
    drop(guard); // notifies waiters (the claim itself is already gone)
    plan
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // a test may let a refused thread panic
mod tests {
    use super::*;
    use crate::gates::factories::*;
    use crate::sim::fusion::MAX_FUSED_QUBITS_LIMIT;

    #[test]
    fn plan_cache_shares_one_arc_per_circuit() {
        // a circuit unique to this test so parallel tests cannot evict it
        // between the two compile calls with overwhelming likelihood
        let mut c = QCircuit::new(2);
        c.push_back(RotationX::new(0, 0.123_456_789));
        c.push_back(CNOT::new(0, 1));
        let before = plan_cache_stats();
        let a = compile(&c, &PlanOptions::default());
        let b = compile(&c, &PlanOptions::default());
        assert!(Arc::ptr_eq(&a, &b), "second compile must hit the cache");
        let after = plan_cache_stats();
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);

        // different options are a different plan
        let unfused = compile(&c, &PlanOptions::unfused());
        assert!(!Arc::ptr_eq(&a, &unfused));
        assert_eq!(a.fingerprint(), unfused.fingerprint());

        // equivalent (clamped) fusion caps share one entry
        let clamped = compile(
            &c,
            &PlanOptions {
                max_fused_qubits: 64,
                ..PlanOptions::default()
            },
        );
        let limit = compile(
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
        let mut c = QCircuit::new(1);
        c.push_back(RotationZ::new(0, 0.987_654_321));
        let a = compile(&c, &PlanOptions::default());
        c.push_back(Hadamard::new(0));
        let b = compile(&c, &PlanOptions::default());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.stats().gates_in, 2);
    }

    #[test]
    fn plan_cache_is_bounded() {
        for i in 0..PLAN_CACHE_CAPACITY + 8 {
            let mut c = QCircuit::new(1);
            c.push_back(RotationZ::new(0, 1e-3 * i as f64 + 0.618_033_988));
            compile(&c, &PlanOptions::default());
        }
        assert!(plan_cache_stats().entries <= PLAN_CACHE_CAPACITY);
    }

    #[test]
    fn plan_cache_recovers_from_poison() {
        // Poison the cache mutex on purpose: panic while holding the lock.
        let poisoner = std::thread::spawn(|| {
            let _guard = PLAN_CACHE.lock().unwrap();
            panic!("deliberate poison for recovery test");
        });
        assert!(poisoner.join().is_err());
        // Note: we do NOT assert PLAN_CACHE.is_poisoned() here — another
        // test compiling concurrently may already have recovered it.

        // Every cache entry point must keep working after the poison.
        let stats = plan_cache_stats();
        assert!(stats.entries <= PLAN_CACHE_CAPACITY);

        let mut c = QCircuit::new(2);
        c.push_back(RotationY::new(0, 0.777_000_111));
        c.push_back(CNOT::new(1, 0));
        let a = compile(&c, &PlanOptions::default());
        let b = compile(&c, &PlanOptions::default());
        assert!(
            Arc::ptr_eq(&a, &b),
            "cache must serve hits again after poison recovery"
        );
        clear_plan_cache();
    }
}
