//! Integration contract of the multi-tenant scheduler
//! (`qclab_core::service`): per-job bit-identity with the standalone
//! run, fair-share admission (a big blocked job must not starve small
//! ones) whatever backend the job resolves to, immediate resolution of
//! queued-job cancellations, deadline stops with partial results, and
//! error isolation (a refused job never disturbs its neighbours).

use qclab::prelude::*;
use qclab_core::program::BackendRequest;
use qclab_core::service::{ErrorKind, JobSpec, Scheduler, ServiceConfig};
use qclab_core::sim::trajectory::{run_trajectories, NoiseSpec, PauliChannel, TrajectoryConfig};
use std::time::{Duration, Instant};

/// Terminal-measurement circuit (alias path); the angle tags the
/// fingerprint.
fn sampled_circuit(n: usize, tag: f64) -> QCircuit {
    let mut c = QCircuit::new(n);
    c.push_back(Hadamard::new(0));
    c.push_back(RotationY::new(1 % n, tag));
    for q in 1..n.min(4) {
        c.push_back(CNOT::new(0, q));
    }
    c.push_back(Measurement::z(0));
    c.push_back(Measurement::z(n - 1));
    c
}

/// A circuit the per-shot engine must grind through (noise disables
/// every fast path on a non-Clifford stream) — used where a job must
/// take real wall time. `tag` makes the fingerprint unique.
fn slow_circuit(n: usize, tag: f64) -> QCircuit {
    let mut c = QCircuit::new(n);
    for q in 0..n {
        c.push_back(Hadamard::new(q));
        c.push_back(RotationY::new(q, 0.1 + tag + q as f64 * 0.05));
    }
    for q in 0..n - 1 {
        c.push_back(CNOT::new(q, q + 1));
    }
    c.push_back(Measurement::z(0));
    c.push_back(Measurement::z(n - 1));
    c
}

fn noisy_base() -> TrajectoryConfig {
    let mut base = TrajectoryConfig {
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::BitFlip(0.01)),
            ..NoiseSpec::default()
        },
        ..TrajectoryConfig::default()
    };
    base.kernel.allow_parallel = false;
    base
}

#[test]
fn scheduled_jobs_are_bit_identical_to_standalone_runs() {
    let cfg = ServiceConfig {
        workers: 3,
        ..ServiceConfig::default()
    };
    let base = cfg.base.clone();
    let sched = Scheduler::new(cfg);
    // 12 jobs over 3 fingerprints: duplicates in flight on every worker
    let jobs: Vec<(usize, u64)> = (0..12).map(|i| (i % 3, 1000 + i as u64)).collect();
    let handles: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, &(fp, seed))| {
            sched
                .submit(JobSpec::new(
                    format!("j{i}"),
                    sampled_circuit(4, 0.2 + fp as f64 * 0.3),
                    800,
                    seed,
                ))
                .expect("admitted")
        })
        .collect();
    for (h, &(fp, seed)) in handles.into_iter().zip(&jobs) {
        let out = h.wait().expect("job succeeds");
        let mut config = base.clone();
        config.seed = seed;
        config.shots = 800;
        let alone = run_trajectories(&sampled_circuit(4, 0.2 + fp as f64 * 0.3), &config).unwrap();
        assert_eq!(
            &out.counts,
            alone.counts(),
            "seed {seed} diverged from its standalone run"
        );
        assert_eq!(out.shots, 800);
        assert_eq!(out.path, alone.path().to_string());
    }
    let stats = sched.stats();
    assert_eq!(stats.completed, 12);
    assert!(
        stats.dedup_hits > 0,
        "duplicate fingerprints must register dedup hits"
    );
    sched.shutdown();
}

#[test]
fn fair_share_small_jobs_pass_a_blocked_large_job() {
    let small_n = 4;
    let large_n = 16;
    let large_bytes = 16u64 << large_n;
    let cfg = ServiceConfig {
        workers: 2,
        // exactly one large job fits; a second must wait, but small
        // jobs (16·2^4 = 256 B) still fit beside the first
        global_state_bytes: large_bytes + (16 << (small_n + 2)),
        base: noisy_base(),
        ..ServiceConfig::default()
    };
    let sched = Scheduler::new(cfg);
    // L1 runs (per-shot noise on 2^18 amplitudes: real work)
    let l1 = sched
        .submit(JobSpec::new("L1", slow_circuit(large_n, 0.0), 60, 1))
        .expect("L1 admitted");
    // L2 parks at the queue head: over budget while L1 runs
    let l2 = sched
        .submit(JobSpec::new("L2", slow_circuit(large_n, 1.0), 60, 2))
        .expect("L2 queued");
    // small jobs submitted *behind* the blocked L2
    let smalls: Vec<_> = (0..8)
        .map(|i| {
            sched
                .submit(JobSpec::new(
                    format!("s{i}"),
                    sampled_circuit(small_n, 0.4),
                    200,
                    50 + i,
                ))
                .expect("small job admitted")
        })
        .collect();
    let mut max_queue_ms = 0f64;
    for h in smalls {
        let out = h.wait().expect("small job succeeds");
        max_queue_ms = max_queue_ms.max(out.telemetry.queue_ms);
    }
    let l1_out = l1.wait().expect("L1 succeeds");
    let l2_out = l2.wait().expect("L2 succeeds");
    // strict FIFO admission would hold every small job until L1
    // finished and freed the budget for L2; fair-share admits them
    // immediately, so their queue wait must be far below L1's runtime
    assert!(
        max_queue_ms < l1_out.telemetry.run_ms.max(l2_out.telemetry.run_ms) / 2.0,
        "small jobs waited {max_queue_ms:.1} ms behind the blocked large job \
         (L1 ran {:.1} ms, L2 {:.1} ms)",
        l1_out.telemetry.run_ms,
        l2_out.telemetry.run_ms
    );
    assert!(
        l2_out.telemetry.queue_ms >= l1_out.telemetry.run_ms / 2.0,
        "L2 should have waited for L1's budget (queued {:.1} ms, L1 ran {:.1} ms)",
        l2_out.telemetry.queue_ms,
        l1_out.telemetry.run_ms
    );
    sched.shutdown();
}

#[test]
fn auto_backend_jobs_never_exceed_the_global_budget() {
    let large_n = 16;
    let large_bytes = 16u64 << large_n;
    let config = |global_state_bytes| {
        let mut cfg = ServiceConfig {
            workers: 2,
            global_state_bytes,
            base: noisy_base(),
            ..ServiceConfig::default()
        };
        // what `qclab serve --backend auto` runs with: these circuits
        // all resolve to the dense engine
        cfg.base.backend = BackendRequest::Auto;
        cfg
    };
    // boundary-exact: one byte under one state can never be admitted
    let tight = Scheduler::new(config(large_bytes - 1));
    let err = tight
        .submit(JobSpec::new("L0", slow_circuit(large_n, 0.0), 1, 1))
        .expect_err("a job over the whole budget is refused at the door");
    assert_eq!(err.kind, ErrorKind::Resource);
    tight.shutdown();

    // exactly one large state fits: two large jobs on two workers must
    // run one after the other
    let cfg = config(large_bytes);
    let base = cfg.base.clone();
    let sched = Scheduler::new(cfg);
    let l1 = sched
        .submit(JobSpec::new("L1", slow_circuit(large_n, 0.0), 60, 1))
        .expect("L1 admitted");
    let l2 = sched
        .submit(JobSpec::new("L2", slow_circuit(large_n, 1.0), 60, 2))
        .expect("L2 queued");
    let smalls: Vec<_> = (0..4)
        .map(|i| {
            sched
                .submit(JobSpec::new(
                    format!("s{i}"),
                    sampled_circuit(4, 0.4),
                    200,
                    50 + i,
                ))
                .expect("small job admitted")
        })
        .collect();
    let l1_out = l1.wait().expect("L1 succeeds");
    let l2_out = l2.wait().expect("L2 succeeds");
    assert!(
        l2_out.telemetry.queue_ms >= l1_out.telemetry.run_ms / 2.0,
        "L2 should have waited for L1's budget (queued {:.1} ms, L1 ran {:.1} ms)",
        l2_out.telemetry.queue_ms,
        l1_out.telemetry.run_ms
    );
    // the small jobs behind them are served, with the standalone bits
    for (i, h) in smalls.into_iter().enumerate() {
        let out = h.wait().expect("small job succeeds");
        let mut config = base.clone();
        config.seed = 50 + i as u64;
        config.shots = 200;
        let alone = run_trajectories(&sampled_circuit(4, 0.4), &config).unwrap();
        assert_eq!(&out.counts, alone.counts());
    }
    sched.shutdown();
}

#[test]
fn cancelling_a_queued_job_resolves_immediately() {
    let cfg = ServiceConfig {
        workers: 1,
        base: noisy_base(),
        ..ServiceConfig::default()
    };
    let sched = Scheduler::new(cfg);
    // occupy the only worker with real work
    let busy = sched
        .submit(JobSpec::new("busy", slow_circuit(14, 0.0), 300, 1))
        .expect("admitted");
    // park a victim behind it
    let victim = sched
        .submit(JobSpec::new("victim", sampled_circuit(4, 0.9), 100_000, 2))
        .expect("queued");
    let t0 = Instant::now();
    victim.cancel();
    let result = victim.wait();
    let elapsed = t0.elapsed();
    let err = result.expect_err("cancelled queued job must not succeed");
    assert_eq!(err.kind, ErrorKind::Cancelled);
    assert_eq!(err.kind.exit_code(), 7);
    assert!(err.partial.is_none(), "a never-started job has no partial");
    assert!(
        elapsed < Duration::from_millis(100),
        "queued-job cancellation must resolve without waiting for a \
         worker (took {elapsed:?})"
    );
    let busy_out = busy.wait().expect("unrelated job unaffected");
    assert_eq!(busy_out.shots, 300);
    assert!(sched.stats().cancelled >= 1);
    sched.shutdown();
}

#[test]
fn running_job_cancellation_keeps_partial_shots() {
    let cfg = ServiceConfig {
        workers: 1,
        base: noisy_base(),
        ..ServiceConfig::default()
    };
    let sched = Scheduler::new(cfg);
    let job = sched
        .submit(JobSpec::new("slow", slow_circuit(14, 0.0), 100_000, 3))
        .expect("admitted");
    // wait until it is actually running, then cancel mid-ensemble
    std::thread::sleep(Duration::from_millis(60));
    job.cancel();
    let err = job.wait().expect_err("cancelled job must not succeed");
    assert_eq!(err.kind, ErrorKind::Cancelled);
    let partial = err.partial.expect("a running job keeps completed shots");
    assert!(partial.shots < 100_000, "cancellation must stop the run");
    sched.shutdown();
}

#[test]
fn deadline_resolves_as_timeout_with_partial_results() {
    let cfg = ServiceConfig {
        workers: 1,
        base: noisy_base(),
        ..ServiceConfig::default()
    };
    let sched = Scheduler::new(cfg);
    let mut spec = JobSpec::new("deadline", slow_circuit(14, 0.0), 100_000, 4);
    spec.timeout_ms = Some(80);
    let job = sched.submit(spec).expect("admitted");
    let err = job.wait().expect_err("the deadline must fire");
    assert_eq!(err.kind, ErrorKind::Timeout);
    assert_eq!(err.kind.exit_code(), 7);
    let partial = err.partial.expect("timeout keeps completed shots");
    assert!(partial.shots < 100_000);
    let tally: u64 = partial.counts.values().sum();
    assert_eq!(tally, partial.shots, "partial counts must be consistent");
    sched.shutdown();
}

#[test]
fn rejections_isolate_and_the_scheduler_survives() {
    let cfg = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let base = cfg.base.clone();
    let sched = Scheduler::new(cfg);
    // an un-admittable job is refused at the door…
    let err = sched
        .submit(JobSpec::new("huge", sampled_circuit(48, 0.1), 10, 1))
        .expect_err("a 48-qubit dense job must be refused");
    assert_eq!(err.kind, ErrorKind::Resource);
    assert_eq!(err.kind.exit_code(), 6);
    // …and the scheduler keeps serving everyone else, bit-identically
    let h = sched
        .submit(JobSpec::new("after", sampled_circuit(4, 0.5), 400, 9))
        .expect("admitted after a rejection");
    let out = h.wait().expect("job succeeds");
    let mut config = base;
    config.seed = 9;
    config.shots = 400;
    let alone = run_trajectories(&sampled_circuit(4, 0.5), &config).unwrap();
    assert_eq!(&out.counts, alone.counts());
    let stats = sched.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 1);
    sched.shutdown();
}
