//! Figure F17 — multi-tenant scheduler throughput and tail latency on a
//! duplicate-heavy job mix.
//!
//! The workload models a serving scenario: 60% of jobs resubmit one of
//! three hot reference circuits (large, prep-dominated), 40% are small
//! one-off circuits — every job with its own `(seed, shots)`. Four
//! engines process the identical job list:
//!
//! 1. **sequential, cold** — one job at a time through
//!    `run_trajectories` with the plan cache cleared before each: the
//!    one-shot-CLI-in-a-loop baseline, every job lowers and prepares
//!    for itself. Latency of job *i* is its cumulative completion time
//!    (earlier jobs queue ahead of it).
//! 2. **sequential, warm** — the same loop in one process that keeps
//!    its plan cache: a hot circuit's plan retains the preparation, so
//!    only the first job per circuit pays it.
//! 3. **scheduler** — `service::Scheduler` with coalescing: same-
//!    fingerprint jobs share one compiled plan *and* one sampler
//!    preparation; each job's shots come from its own `(seed, shot)`
//!    RNG streams.
//! 4. **scheduler --no-coalesce** — the ablation: bounded workers and
//!    plan-cache dedup; a job still finds a preparation an earlier job
//!    left on the plan, but a cold burst is no longer shared.
//!
//! Asserted invariants: every job of engines 2–4 is **bit-identical**
//! to its cold sequential run, dedup, coalesce and retained-preparation
//! hit counters are positive, and (full mode) the coalescing scheduler
//! clears **≥ 5× jobs/sec** over the cold sequential baseline. The
//! ratio against the warm loop — which enjoys the same retained
//! preparations — is reported, not asserted. p50/p99 job latency is
//! reported per engine.
//!
//! `--smoke` shrinks the mix for CI; identity and hit-count assertions
//! still run there.

use qclab_bench::{fmt_seconds, Table};
use qclab_core::prelude::*;
use qclab_core::program;
use qclab_core::service::{JobSpec, Scheduler, ServiceConfig};
use qclab_core::sim::trajectory::{run_trajectories, TrajectoryConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Deterministic layered circuit with terminal measurements (alias-path
/// eligible, so the shot draw is cheap and the prefix dominates).
fn workload_circuit(nb_qubits: usize, layers: usize, seed: u64) -> QCircuit {
    let mut c = qclab_bench::random_circuit(nb_qubits, layers, seed);
    for q in 0..4.min(nb_qubits) {
        c.push_back(Measurement::z(q));
    }
    c
}

struct Job {
    circuit: QCircuit,
    seed: u64,
    shots: u64,
}

/// percentile over already-collected latencies (q in [0, 1])
fn percentile(lat: &[f64], q: f64) -> f64 {
    let mut sorted = lat.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (jobs_total, hot_qubits, hot_layers, small_qubits, shots) = if smoke {
        (30usize, 10usize, 6usize, 5usize, 100u64)
    } else {
        (200, 15, 8, 7, 500)
    };

    // 60% duplicate-fingerprint mix over 3 hot circuits; the rest are
    // pairwise-distinct small circuits. Seeds are distinct per job.
    let hot: Vec<QCircuit> = (0..3)
        .map(|i| workload_circuit(hot_qubits, hot_layers, 40 + i))
        .collect();
    let jobs: Vec<Job> = (0..jobs_total)
        .map(|i| Job {
            circuit: if i % 5 < 3 {
                hot[i % 3].clone()
            } else {
                workload_circuit(small_qubits, 3, 900 + i as u64)
            },
            seed: 1000 + i as u64,
            shots,
        })
        .collect();
    let duplicates = jobs_total * 3 / 5;

    let mut base = TrajectoryConfig {
        parallel: false,
        ..TrajectoryConfig::default()
    };
    base.kernel.allow_parallel = false;

    // -- 1 & 2. sequential baselines, cold and warm ---------------------
    let run_sequential = |cold: bool| {
        program::clear_plan_cache();
        let mut counts: Vec<BTreeMap<String, u64>> = Vec::with_capacity(jobs_total);
        let mut lat = Vec::with_capacity(jobs_total);
        let t0 = Instant::now();
        for job in &jobs {
            if cold {
                program::clear_plan_cache();
            }
            let config = TrajectoryConfig {
                seed: job.seed,
                shots: job.shots,
                ..base.clone()
            };
            let r = run_trajectories(&job.circuit, &config).unwrap();
            counts.push(r.counts().clone());
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        (t0.elapsed().as_secs_f64(), lat, counts)
    };
    let (t_seq, seq_lat, seq_counts) = run_sequential(true);
    let seq_rate = jobs_total as f64 / t_seq;
    let prep_before = program::plan_cache_stats().prep_hits;
    let (t_warm, warm_lat, warm_counts) = run_sequential(false);
    assert_eq!(
        warm_counts, seq_counts,
        "a retained preparation must draw the same bits as a fresh one"
    );
    assert!(
        program::plan_cache_stats().prep_hits > prep_before,
        "resubmitted hot circuits must find their preparation on the plan"
    );

    // -- 3 & 4. scheduler, with and without coalescing ------------------
    let run_service = |coalesce: bool| {
        program::clear_plan_cache();
        let cfg = ServiceConfig {
            queue_depth: jobs_total + 8,
            batch_window: Duration::from_millis(1),
            coalesce,
            base: base.clone(),
            ..ServiceConfig::default()
        };
        let workers = cfg.workers;
        let sched = Scheduler::new(cfg);
        let t0 = Instant::now();
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                sched
                    .submit(JobSpec::new(
                        format!("job-{i}"),
                        job.circuit.clone(),
                        job.shots,
                        job.seed,
                    ))
                    .expect("workload job admitted")
            })
            .collect();
        let outputs: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().expect("workload job succeeds"))
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        let stats = sched.stats();
        sched.shutdown();
        // per-job bit-identity against the sequential engine
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(
                out.counts, seq_counts[i],
                "scheduler (coalesce={coalesce}) diverged from the sequential \
                 run on job {i} (seed {})",
                jobs[i].seed
            );
            assert_eq!(out.shots, jobs[i].shots);
        }
        let lat: Vec<f64> = outputs.iter().map(|o| o.telemetry.wall_ms).collect();
        (wall, lat, stats, workers)
    };

    let (t_co, lat_co, stats_co, workers) = run_service(true);
    let (t_nc, lat_nc, stats_nc, _) = run_service(false);

    assert!(
        stats_co.dedup_hits > 0,
        "the duplicate-heavy mix must register plan-dedup hits"
    );
    assert!(
        stats_co.coalesce_hits > 0,
        "the duplicate-heavy mix must register coalesced jobs"
    );
    assert_eq!(stats_nc.coalesce_hits, 0, "ablation must not coalesce");
    assert!(
        stats_nc.dedup_hits > 0,
        "plan dedup is independent of coalescing"
    );

    let rate_co = jobs_total as f64 / t_co;
    let rate_nc = jobs_total as f64 / t_nc;
    let speedup = rate_co / seq_rate;
    let speedup_nc = rate_nc / seq_rate;
    let speedup_warm = t_seq / t_warm;
    if !smoke {
        assert!(
            speedup >= 5.0,
            "the coalescing scheduler must clear >= 5x jobs/sec over the cold \
             sequential baseline on the duplicate-heavy mix, measured {speedup:.2}x \
             ({rate_co:.0} vs {seq_rate:.0} jobs/sec)"
        );
    }

    let mut t = Table::new(
        "F17: multi-tenant scheduler throughput and tail latency (60% duplicate mix)",
        &[
            "engine",
            "jobs",
            "wall",
            "jobs/sec",
            "p50 lat",
            "p99 lat",
            "vs cold sequential",
        ],
    );
    let row = |t: &mut Table, name: &str, wall: f64, lat: &[f64], ratio: f64| {
        t.row(&[
            name.into(),
            jobs_total.to_string(),
            fmt_seconds(wall),
            format!("{:.0}", jobs_total as f64 / wall),
            format!("{:.1} ms", percentile(lat, 0.50)),
            format!("{:.1} ms", percentile(lat, 0.99)),
            format!("{ratio:.1}x"),
        ]);
    };
    row(
        &mut t,
        "sequential, cold (plan cache cleared per job)",
        t_seq,
        &seq_lat,
        1.0,
    );
    row(
        &mut t,
        "sequential, warm (one process, plans kept)",
        t_warm,
        &warm_lat,
        speedup_warm,
    );
    row(
        &mut t,
        &format!("scheduler ({workers} worker(s), coalescing)"),
        t_co,
        &lat_co,
        speedup,
    );
    row(
        &mut t,
        &format!("scheduler ({workers} worker(s), --no-coalesce)"),
        t_nc,
        &lat_nc,
        speedup_nc,
    );
    t.row(&[
        "telemetry".into(),
        format!("{duplicates} duplicate job(s)"),
        format!("{} dedup hit(s)", stats_co.dedup_hits),
        format!("{} coalesced", stats_co.coalesce_hits),
        format!("{} group(s)", stats_co.groups),
        "-".into(),
        "-".into(),
    ]);
    t.emit("BENCH_f17_service");
    println!(
        "scheduler {speedup:.1}x jobs/sec over the cold sequential loop ({rate_co:.0} vs \
         {seq_rate:.0}) and {:.1}x over the warm one; ablation without coalescing \
         {speedup_nc:.1}x over cold; every job bit-identical to its standalone run",
        t_warm / t_co
    );
}
