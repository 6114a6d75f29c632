//! Known answers of the seeded generators every sampled bit comes from.
//! `tests/seed_goldens.rs` pins what whole runs draw; this pins the
//! streams underneath: the first draws of `Rng::seed_from_u64`
//! (`qclab_math::rng`: SplitMix64 seed expansion into xoshiro256++) and
//! of `trajectory::shot_rng`, the `(seed, shot)` derivation. A
//! change to either is a break of `SEED_CONTRACT`, and it fails here
//! even where a golden run happens not to notice.

use qclab_core::sim::trajectory::{shot_rng, SEED_CONTRACT};
use qclab_math::rng::Rng;
use qclab_testkit::seeded_golden;

/// The first `u64`, `f64`, `bool` and `below(1000)` draws, in
/// that order.
fn first_draws(mut rng: Rng) -> String {
    let (u, f, b, k) = (rng.next_u64(), rng.f64(), rng.bool(), rng.below(1000));
    format!("{u} {f:?} {b} {k}")
}

#[test]
fn std_rng_first_draws_are_pinned() {
    let text: String = [0, 1, 42, u64::MAX]
        .into_iter()
        .map(|seed| format!("seed {seed}: {}\n", first_draws(Rng::seed_from_u64(seed))))
        .collect();
    seeded_golden!("std_rng", SEED_CONTRACT, text);
}

#[test]
fn shot_rng_first_draws_are_pinned() {
    let text: String = [(1, 0), (1, 1), (7, 1000), (u64::MAX, 3)]
        .into_iter()
        .map(|(seed, shot)| {
            let draws = first_draws(shot_rng(seed, shot));
            format!("seed {seed}, shot {shot}: {draws}\n")
        })
        .collect();
    seeded_golden!("shot_rng", SEED_CONTRACT, text);
}
