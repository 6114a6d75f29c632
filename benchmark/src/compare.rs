//! `qclab-e2e compare A.json B.json`: two sets of runs against the
//! bounds `BENCHMARK.json` fixes. Per workload and end-to-end metric:
//! each side's median and quartiles, and by how much of A's median B's
//! is worse; any pairing beyond its bound fails the comparison.

use crate::json::{self, Json};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {k}"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// workload → metric → values, from a report file: one JSON record per
/// line, untraced runs only (end-to-end numbers are never taken from a
/// traced run).
pub fn read_runs(report: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in report.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line)?;
        if doc.get("trace").and_then(Json::as_u64) == Some(1) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without workload")?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("record without metrics")?;
        let of_workload = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            of_workload.entry(name.clone()).or_default().push(value);
        }
        // the host's speed during the run, for the diagnostic row
        if let Some(samples) = doc.get(HOST).and_then(Json::as_arr) {
            let samples: Vec<f64> = samples.iter().filter_map(Json::as_f64).collect();
            of_workload
                .entry(HOST.to_string())
                .or_default()
                .push(stats::median(&samples));
        }
    }
    Ok(runs)
}

/// The record field holding a run's reference-unit samples.
const HOST: &str = "ref_spawn_ms";

/// By how much of A's median B's median is worse (negative: better).
pub fn worse_by(a_median: f64, b_median: f64, higher_is_better: bool) -> f64 {
    if a_median == 0.0 {
        return 0.0;
    }
    let change = (b_median - a_median) / a_median;
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// The comparison table and whether every pairing is within its bound.
pub fn compare(a: &str, b: &str, benchmark_json: &str) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let (a, b) = (read_runs(a)?, read_runs(b)?);
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<12} {:<14} {:>3} {:>11} {:>23}  {:>3} {:>11} {:>23}  {:>8} {:>6}",
        "workload",
        "metric",
        "nA",
        "A median",
        "A quartiles",
        "nB",
        "B median",
        "B quartiles",
        "worse by",
        "bound"
    );
    let mut within = true;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            return Err(format!("{workload} is missing from the second file"));
        };
        for bound in &bounds {
            let (Some(av), Some(bv)) = (a_metrics.get(&bound.name), b_metrics.get(&bound.name))
            else {
                return Err(format!("{workload} has no {} on both sides", bound.name));
            };
            let [a1, a2, a3] = stats::quartiles(av);
            let [b1, b2, b3] = stats::quartiles(bv);
            let worse = worse_by(a2, b2, bound.higher_is_better);
            let ok = worse <= bound.bound;
            within &= ok;
            let _ = writeln!(
                table,
                "{:<12} {:<14} {:>3} {:>11.4} [{:>10.4},{:>10.4}]  {:>3} {:>11.4} [{:>10.4},{:>10.4}]  {:>+7.2}% {:>5.1}%{}",
                workload,
                bound.name,
                av.len(),
                a2,
                a1,
                a3,
                bv.len(),
                b2,
                b1,
                b3,
                worse * 100.0,
                bound.bound * 100.0,
                if ok { "" } else { "  BEYOND BOUND" }
            );
        }
        // never a failure: says whether the two sets saw the same host
        if let (Some(av), Some(bv)) = (a_metrics.get(HOST), b_metrics.get(HOST)) {
            let (am, bm) = (stats::median(av), stats::median(bv));
            let shift = worse_by(am, bm, false);
            let _ = writeln!(
                table,
                "{:<12} {:<14} {:>3} {:>11.4} {:>23}  {:>3} {:>11.4} {:>23}  {:>+7.2}%{}",
                workload,
                "(host) ref ms",
                av.len(),
                am,
                "",
                bv.len(),
                bm,
                "",
                shift * 100.0,
                if shift.abs() > 0.10 {
                    "  the host differed between the sets"
                } else {
                    ""
                }
            );
        }
    }
    Ok((table, within))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end":[
        {"name":"round_ms_p50","unit":"ms","better":"lower","bound":0.1},
        {"name":"ok_share","unit":"share","better":"higher","bound":0.001}]}"#;

    fn report(round_ms: &[f64], ok: f64) -> String {
        round_ms
            .iter()
            .map(|ms| {
                format!(
                    "{{\"workload\":\"cli_paper\",\"trace\":0,\"ref_spawn_ms\":[1.0,{ok},1.5],\"metrics\":{{\"round_ms_p50\":{{\"value\":{ms},\"unit\":\"ms\"}},\"ok_share\":{{\"value\":{ok},\"unit\":\"share\"}}}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn reads_bounds_and_directions() {
        let b = bounds(BENCH).unwrap();
        assert_eq!(b.len(), 2);
        assert!(!b[0].higher_is_better && b[1].higher_is_better);
        assert_eq!(b[0].bound, 0.1);
        assert!(bounds("{}").is_err());
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 108.0, false) - 0.08).abs() < 1e-12);
        assert!((worse_by(100.0, 92.0, false) + 0.08).abs() < 1e-12);
        assert!((worse_by(1.0, 0.99, true) - 0.01).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn same_code_agrees_and_a_regression_is_flagged() {
        let a = report(&[100.0, 102.0, 98.0], 1.0);
        let steady = report(&[101.0, 99.0, 104.0], 1.0);
        let (table, within) = compare(&a, &steady, BENCH).unwrap();
        assert!(within, "{table}");
        assert!(table.contains("cli_paper") && table.contains("round_ms_p50"));
        assert!(table.contains("(host) ref ms") && !table.contains("the host differed"));

        let slower = report(&[115.0, 112.0, 111.0], 1.0);
        let (table, within) = compare(&a, &slower, BENCH).unwrap();
        assert!(!within);
        assert!(table.contains("BEYOND BOUND"));

        // faster is never a failure; a lost operation is
        assert!(compare(&slower, &a, BENCH).unwrap().1);
        assert!(
            !compare(&a, &report(&[100.0, 100.0, 100.0], 0.99), BENCH)
                .unwrap()
                .1
        );
    }

    #[test]
    fn traced_records_are_ignored_and_missing_workloads_are_errors() {
        let traced = report(&[500.0], 1.0).replace("\"trace\":0", "\"trace\":1");
        let a = report(&[100.0, 100.0], 1.0);
        let runs = read_runs(&(a.clone() + &traced)).unwrap();
        assert_eq!(runs["cli_paper"]["round_ms_p50"], vec![100.0, 100.0]);
        assert!(compare(&a, "", BENCH).is_err());
    }
}
