//! Known answers of the seeded generators every sampled bit comes from.
//! `tests/seed_goldens.rs` pins what whole runs draw; this pins the
//! streams underneath: the first draws of the vendored
//! `StdRng::seed_from_u64` (SplitMix64 seed expansion into xoshiro256++)
//! and of `trajectory::shot_rng`, the `(seed, shot)` derivation. A
//! change to either is a break of `SEED_CONTRACT`, and it fails here
//! even where a golden run happens not to notice.

use qclab_core::sim::trajectory::shot_rng;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The first `u64`, `f64`, `bool` and `gen_range(0..1000)` draws, in
/// that order.
fn first_draws(mut rng: StdRng) -> (u64, f64, bool, usize) {
    (rng.next_u64(), rng.gen(), rng.gen(), rng.gen_range(0..1000))
}

#[test]
fn std_rng_first_draws_are_pinned() {
    let pinned = [
        (0, (5987356902031041503, 0.38223929651167343, false, 11)),
        (1, (14971601782005023387, 0.7471047161582187, false, 746)),
        (42, (15021278609987233951, 0.3188210400616611, false, 701)),
        (
            u64::MAX,
            (6254647548650071986, 0.9004750408188128, true, 273),
        ),
    ];
    for (seed, want) in pinned {
        assert_eq!(
            first_draws(StdRng::seed_from_u64(seed)),
            want,
            "seed {seed}"
        );
    }
}

#[test]
fn shot_rng_first_draws_are_pinned() {
    let pinned = [
        (
            (1, 0),
            (17730607322089975729, 0.2420423546116901, false, 677),
        ),
        (
            (1, 1),
            (2012775937921775851, 0.5946126267308343, false, 201),
        ),
        (
            (7, 1000),
            (8181069628903954802, 0.21847511723837665, true, 988),
        ),
        (
            (u64::MAX, 3),
            (3081226513843032512, 0.8602719498760981, true, 192),
        ),
    ];
    for ((seed, shot), want) in pinned {
        assert_eq!(
            first_draws(shot_rng(seed, shot)),
            want,
            "seed {seed}, shot {shot}"
        );
    }
}
