//! From raw measurements to the named metrics of `BENCHMARK.json`.

use crate::json::Json;
use crate::layers::{Kind, KindResult, SchedulerRounds};
use crate::machine;
use crate::stats;
use crate::sys;
use crate::workload::{Measured, Workload, CLI_KINDS, SERVE_ROUND_JOBS};
use std::collections::BTreeMap;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic of samples.
    pub samples: Option<usize>,
}

/// The end-to-end metrics, the same five on every workload. The two
/// time metrics are relative to the reference unit (`machine::Reference`)
/// timed alongside: unit `ref` is "times the reference unit".
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("round_rel_p50", "ref"),
    ("cpu_rel_per_op", "ref"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "share"),
];

/// The per-layer metrics that are not per CLI kind, with their units.
const PER_LAYER: [(&str, &str); 65] = [
    ("qasm.lex_us", "us"),
    ("qasm.parse_us", "us"),
    ("qasm.import_us", "us"),
    ("qasm.src_bytes", "B"),
    ("qasm.gates_in", "count"),
    ("qasm.mb_per_s", "MB/s"),
    ("program.fingerprint_us", "us"),
    ("program.lower_us", "us"),
    ("program.compile_hit_us", "us"),
    ("program.ops_in", "count"),
    ("program.ops_out", "count"),
    ("program.permutes", "count"),
    ("program.plan_cache_hit_ratio", "ratio"),
    ("bytecode.lower_us", "us"),
    ("bytecode.stream_len", "count"),
    ("dense.execute_us", "us"),
    ("dense.execute_us_1t", "us"),
    ("dense.parallel_speedup", "ratio"),
    ("dense.ops", "count"),
    ("dense.ns_per_op", "ns"),
    ("dense.bytes_moved_computed", "B"),
    ("dense.achieved_gbps", "GB/s"),
    ("dense.bw_frac", "ratio"),
    ("trajectory.run_us", "us"),
    ("trajectory.shots_per_s", "1/s"),
    ("trajectory.path_code", "code"),
    ("trajectory.injected_errors", "count"),
    ("trajectory.shot_batch", "count"),
    ("trajectory.dispatch_ns_per_shot_op", "ns"),
    ("sampler.build_us", "us"),
    ("sampler.draw_ns_per_shot", "ns"),
    ("sampler.outcomes", "count"),
    ("frame.lower_us", "us"),
    ("frame.stream_len", "count"),
    ("frame.run_us", "us"),
    ("frame.shots_per_s", "1/s"),
    ("frame.ns_per_shot_site", "ns"),
    ("service.queue_ms_p50", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.dedup_hit_ratio", "ratio"),
    ("service.coalesce_hit_ratio", "ratio"),
    ("service.jobs_per_group", "count"),
    ("service.rejected", "count"),
    ("service.round_ms_inproc", "ms"),
    ("serve.job_ms_p50", "ms"),
    ("serve.job_ms_p99", "ms"),
    ("serve.wire_overhead_ms", "ms"),
    ("serve.round_overhead_share", "share"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("cli.spawn_floor_ms", "ms"),
    ("cli.stdout_bytes", "B"),
    ("machine.copy_gbps_state.1t", "GB/s"),
    ("machine.copy_gbps_state.nt", "GB/s"),
    ("machine.copy_gbps_dram", "GB/s"),
    ("machine.ref_spawn_ms", "ms"),
    ("harness.round_ms_p50", "ms"),
    ("harness.cpu_ms_per_op", "ms"),
    ("harness.rounds", "count"),
    ("harness.ops_per_s", "1/s"),
    ("harness.round_ms_p90", "ms"),
    ("harness.round_ms_iqr", "ms"),
    ("harness.regime_drift", "ratio"),
    ("harness.cpu_share", "share"),
    ("harness.trace_overhead_share", "share"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for kind in CLI_KINDS {
        names.push((format!("cli.op_ms_p50.{kind}"), "ms"));
    }
    for kind in CLI_KINDS {
        names.push((format!("cli.unattributed_share.{kind}"), "share"));
    }
    names
}

pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let ops = m.attempted.max(1) as f64;
    let values = [
        (stats::median(&m.setup_s), Some(m.setup_s.len())),
        (stats::median(&m.round_rel), Some(m.round_rel.len())),
        (stats::median(&m.cpu_rel), Some(m.cpu_rel.len())),
        (m.peak_rss_kib as f64 / 1024.0, None),
        (
            (m.attempted - m.failed) as f64 / ops,
            Some(m.attempted as usize),
        ),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        })
        .collect()
}

/// The program's user + system CPU per operation over the timed phase.
fn cpu_ms_per_op(m: &Measured) -> f64 {
    m.child_cpu_s * 1e3 / m.attempted.max(1) as f64
}

/// Median of the reference-unit samples of the timed phase.
fn reference_ms(m: &Measured) -> f64 {
    let samples: Vec<f64> = m.reference.iter().map(|s| s.1).collect();
    stats::median(&samples)
}

/// What the traced run found beyond the timed phase.
pub struct Layers {
    pub kinds: Vec<(Kind, KindResult)>,
    pub scheduler: Option<SchedulerRounds>,
    /// `qclab` with no arguments: process start and exit only.
    pub spawn_floor_ms: Vec<f64>,
    pub copy_gbps_state_1t: f64,
    pub copy_gbps_state_nt: f64,
    /// 0 when the arrays would not fit (see `machine::dram_array_bytes`).
    pub copy_gbps_dram: f64,
}

/// Mean of `name` over the kinds that report it, weighted by how many
/// operations of a round are of that kind; `None` when no kind does.
fn weighted(kinds: &[(Kind, KindResult)], name: &str) -> Option<f64> {
    let mut sum = 0.0;
    let mut weight = 0.0;
    for (kind, result) in kinds {
        if let Some(v) = result.values.get(name) {
            sum += kind.weight * v;
            weight += kind.weight;
        }
    }
    (weight > 0.0).then(|| sum / weight)
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d != 0.0 => Some(n / d),
        _ => None,
    }
}

/// Every per-layer metric of one traced run. A layer the workload does
/// not reach reads 0 — which is the prediction "elsewhere: no change"
/// made checkable.
pub fn per_layer(m: &Measured, l: &Layers) -> Vec<Metric> {
    let mut v: BTreeMap<String, (f64, Option<usize>)> = BTreeMap::new();
    let mut set = |name: &str, value: Option<f64>, samples: Option<usize>| {
        if let Some(value) = value.filter(|x| x.is_finite()) {
            v.insert(name.to_string(), (value, samples));
        }
    };
    let reps = l.kinds.iter().map(|(_, r)| r.min_reps).min();
    let w = |name: &str| weighted(&l.kinds, name);

    // layers measured in-process: weighted means of per-kind medians
    // (the ratios among them are recomputed from the means below)
    for (name, _) in PER_LAYER {
        set(name, w(name), reps);
    }
    // bytes per microsecond is MB/s
    let front_end_us = w("qasm.parse_us")
        .zip(w("qasm.import_us"))
        .map(|(p, i)| p + i);
    set(
        "qasm.mb_per_s",
        ratio(w("qasm.src_bytes"), front_end_us),
        reps,
    );
    set(
        "dense.parallel_speedup",
        ratio(w("dense.execute_us_1t"), w("dense.execute_us")),
        reps,
    );
    set(
        "dense.ns_per_op",
        ratio(w("dense.execute_us").map(|us| us * 1e3), w("dense.ops")),
        reps,
    );
    // bytes per nanosecond is GB/s
    let achieved = ratio(
        w("dense.bytes_moved_computed"),
        w("dense.execute_us").map(|us| us * 1e3),
    );
    set("dense.achieved_gbps", achieved, reps);
    // the kernels go parallel from 18 qubits (a 4 MiB state) up; judge
    // them against the copy that had the same threads
    let parallel = w("dense.state_bytes").is_some_and(|b| b >= (16u64 << 18) as f64);
    let roof = if parallel {
        l.copy_gbps_state_nt
    } else {
        l.copy_gbps_state_1t
    };
    set("dense.bw_frac", ratio(achieved, Some(roof)), reps);
    set(
        "trajectory.shots_per_s",
        ratio(
            w("trajectory.shots").map(|s| s * 1e6),
            w("trajectory.run_us"),
        ),
        reps,
    );
    let codes: Vec<f64> = l
        .kinds
        .iter()
        .filter_map(|(_, r)| r.values.get("trajectory.path_code").copied())
        .collect();
    let code = codes.first().map(|&c| {
        if codes.iter().all(|&x| x == c) {
            c
        } else {
            -1.0
        }
    });
    set("trajectory.path_code", code, None);
    set(
        "frame.shots_per_s",
        ratio(w("frame.shots").map(|s| s * 1e6), w("frame.run_us")),
        reps,
    );
    set(
        "frame.ns_per_shot_site",
        ratio(
            w("frame.run_us").map(|us| us * 1e3),
            w("frame.shots")
                .zip(w("frame.stream_len"))
                .map(|(s, len)| s * len),
        ),
        reps,
    );

    // plan cache: over the in-process serve rounds where there are any,
    // else over the in-process requests
    let (hits, lookups) = match &l.scheduler {
        Some(s) => (s.plan_cache_hits, s.plan_cache_hits + s.plan_cache_misses),
        None => l.kinds.iter().fold((0, 0), |(h, n), (_, r)| {
            (h + r.cache_hits, n + r.cache_lookups)
        }),
    };
    set(
        "program.plan_cache_hit_ratio",
        ratio(Some(hits as f64), Some(lookups as f64)),
        Some(lookups as usize),
    );

    // serve, off the wire
    let round_p50 = stats::median(&m.round_ms);
    if let Some(s) = &m.serve {
        let jobs = s.checked.max(1) as f64;
        let n = Some(s.checked as usize);
        set("service.queue_ms_p50", Some(stats::median(&s.queue_ms)), n);
        set("service.run_ms_p50", Some(stats::median(&s.run_ms)), n);
        set(
            "service.dedup_hit_ratio",
            Some(s.dedup_hits as f64 / jobs),
            n,
        );
        set(
            "service.coalesce_hit_ratio",
            Some(s.coalesced_jobs as f64 / jobs),
            n,
        );
        set(
            "service.jobs_per_group",
            ratio(Some(jobs), Some(s.groups)),
            n,
        );
        set(
            "service.rejected",
            Some(s.rejected as f64),
            Some(s.job_ms.len()),
        );
        let job_p50 = stats::median(&s.job_ms);
        set("serve.job_ms_p50", Some(job_p50), Some(s.job_ms.len()));
        set(
            "serve.job_ms_p99",
            Some(stats::percentile(&s.job_ms, 99.0)),
            Some(s.job_ms.len()),
        );
        set(
            "serve.wire_overhead_ms",
            Some(job_p50 - stats::median(&s.wall_ms)),
            n,
        );
        let sent = s.job_ms.len().max(1) as f64;
        set(
            "serve.request_bytes",
            Some(s.request_bytes as f64 / sent),
            None,
        );
        set(
            "serve.response_bytes",
            Some(s.response_bytes as f64 / sent),
            None,
        );
    }
    if let Some(s) = &l.scheduler {
        let inproc = stats::median(&s.round_ms);
        set(
            "service.round_ms_inproc",
            Some(inproc),
            Some(s.round_ms.len()),
        );
        set(
            "serve.round_overhead_share",
            ratio(Some(round_p50 - inproc), Some(round_p50)),
            None,
        );
    }

    // one-shot CLI
    let floor = stats::median(&l.spawn_floor_ms);
    set(
        "cli.spawn_floor_ms",
        Some(floor),
        Some(l.spawn_floor_ms.len()),
    );
    let cli_ops: usize = m.op_ms.values().map(Vec::len).sum();
    set(
        "cli.stdout_bytes",
        ratio(Some(m.stdout_bytes as f64), Some(cli_ops as f64)),
        None,
    );
    for (kind, samples) in &m.op_ms {
        let p50 = stats::median(samples);
        set(
            &format!("cli.op_ms_p50.{kind}"),
            Some(p50),
            Some(samples.len()),
        );
        let in_process = l.kinds.iter().find(|(k, _)| k.cli_kind == Some(*kind));
        if let Some((_, result)) = in_process {
            set(
                &format!("cli.unattributed_share.{kind}"),
                ratio(Some(p50 - floor - result.layer_self_ms), Some(p50)),
                Some(result.min_reps),
            );
        }
    }

    // machine and harness
    set(
        "machine.copy_gbps_state.1t",
        Some(l.copy_gbps_state_1t),
        None,
    );
    set(
        "machine.copy_gbps_state.nt",
        Some(l.copy_gbps_state_nt),
        None,
    );
    set("machine.copy_gbps_dram", Some(l.copy_gbps_dram), None);
    let samples = Some(m.reference.len());
    set("machine.ref_spawn_ms", Some(reference_ms(m)), samples);
    let rounds = Some(m.round_ms.len());
    set("harness.round_ms_p50", Some(round_p50), rounds);
    set(
        "harness.cpu_ms_per_op",
        Some(cpu_ms_per_op(m)),
        Some(m.attempted as usize),
    );
    set("harness.rounds", Some(m.round_ms.len() as f64), None);
    set(
        "harness.ops_per_s",
        ratio(Some(m.attempted as f64), Some(m.timed_wall_s)),
        None,
    );
    set(
        "harness.round_ms_p90",
        Some(stats::percentile(&m.round_ms, 90.0)),
        rounds,
    );
    let [q1, _, q3] = stats::quartiles(&m.round_ms);
    set("harness.round_ms_iqr", Some(q3 - q1), rounds);
    set(
        "harness.regime_drift",
        Some(machine::regime_drift(&m.reference)),
        samples,
    );
    set(
        "harness.cpu_share",
        ratio(
            Some(m.harness_cpu_s),
            Some(m.timed_wall_s * sys::nproc() as f64),
        ),
        None,
    );
    // span recording on against off, over the same in-process work
    let (traced, untraced) = match &l.scheduler {
        Some(s) => (
            stats::median(&s.traced_round_ms),
            stats::median(&s.round_ms),
        ),
        None => l.kinds.iter().fold((0.0, 0.0), |(t, u), (k, r)| {
            (
                t + k.weight * r.request_traced_ms,
                u + k.weight * r.request_untraced_ms,
            )
        }),
    };
    set(
        "harness.trace_overhead_share",
        ratio(Some(traced - untraced), Some(untraced)),
        None,
    );

    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let (value, samples) = v.get(&name).copied().unwrap_or((0.0, None));
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect()
}

/// The four keys of the benchmark contract's result.
fn result_fields(m: &Measured, metrics: &[Metric]) -> Vec<(String, Json)> {
    let metrics = metrics
        .iter()
        .map(|metric| {
            let value = Json::Obj(vec![
                ("value".into(), Json::Num(metric.value)),
                ("unit".into(), Json::Str(metric.unit.into())),
            ]);
            (metric.name.clone(), value)
        })
        .collect();
    vec![
        ("correct".into(), Json::Bool(m.failed == 0)),
        ("attempted".into(), Json::Num(m.attempted as f64)),
        ("failed".into(), Json::Num(m.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]
}

/// The result line of the benchmark contract: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(m: &Measured, metrics: &[Metric]) -> String {
    Json::Obj(result_fields(m, metrics)).render()
}

/// One run of one workload as a line of a report file: the result,
/// which run it was, and the raw series, so a later reader can tell a
/// slow program from a slow host.
pub fn record(
    workload: Workload,
    seed: u64,
    trace: bool,
    m: &Measured,
    metrics: &[Metric],
) -> Json {
    let series = |values: &[f64]| {
        Json::Arr(
            values
                .iter()
                .map(|v| Json::Num((v * 1e3).round() / 1e3))
                .collect(),
        )
    };
    let reference: Vec<f64> = m.reference.iter().map(|s| s.1).collect();
    let mut fields = vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("trace".into(), Json::Num(if trace { 1.0 } else { 0.0 })),
        ("nproc".into(), Json::Num(sys::nproc() as f64)),
        ("timed_s".into(), Json::Num(m.timed_wall_s)),
    ];
    fields.extend(result_fields(m, metrics));
    fields.push(("round_ms".into(), series(&m.round_ms)));
    fields.push(("ref_spawn_ms".into(), series(&reference)));
    Json::Obj(fields)
}

/// The raw times behind the relative metrics, for the reader of a run:
/// `(round_ms_p50, cpu_ms_per_op, reference unit ms)`.
pub fn raw_times(m: &Measured) -> (f64, f64, f64) {
    (
        stats::median(&m.round_ms),
        cpu_ms_per_op(m),
        reference_ms(m),
    )
}

/// Jobs per second a serve round time stands for.
pub fn serve_jobs_per_s(round_ms_p50: f64) -> f64 {
    SERVE_ROUND_JOBS as f64 * 1e3 / round_ms_p50
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn metric_names_are_unique_well_formed_and_within_the_contract() {
        let names = per_layer_names();
        assert!(names.len() <= 128, "{}", names.len());
        let mut all: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        all.extend(END_TO_END.iter().map(|(n, _)| *n));
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a metric name is used twice");
        for name in all {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let units = names
            .iter()
            .map(|(_, u)| *u)
            .chain(END_TO_END.map(|(_, u)| u));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads and this file is what
    /// the harness prints: they must name the same metrics and units.
    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_harness_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |names: Vec<(String, &'static str)>| -> Vec<(String, String)> {
            names.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed("per_layer"), own(per_layer_names()));
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(listed("end_to_end"), own(e2e));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
