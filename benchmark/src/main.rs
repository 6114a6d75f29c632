//! `qclab-e2e` — the repository's end-to-end benchmark.
//!
//! One request — QASM text in, counts out — timed whole against the
//! real `qclab` binary, through the one-shot CLI and through
//! `qclab serve`, on four workloads; and, in a separate traced run,
//! split into the layers it passes through. See `benchmark/README.md`.

mod check;
mod compare;
mod gen;
mod json;
mod layers;
mod machine;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod workload;

use report::{Layers, Metric};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Env, Measured, Plan, Workload};

const USAGE: &str = "usage:
  qclab-e2e run     [options]    time every workload end to end (tracing off)
  qclab-e2e trace   [options]    the traced run: per-layer metrics, benchmark/out/trace_<workload>.json
  qclab-e2e compare A.json B.json
                                 two report files against the bounds of BENCHMARK.json
  qclab-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
                                 one workload; the last line of output is the result as JSON
options:
  --workload <name>   cli_paper | cli_dense20 | cli_noisy | serve_mix (default: all four)
  --seed <n>          workload seed (default 1); the program sees only the generated inputs
  --seconds <s>       length of each timed phase (default: run_seconds of BENCHMARK.json)
  --smoke             2 timed rounds per workload, one set-up: same checks, seconds not minutes
  --out <file>        append one JSON record per workload run to <file>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "run" => parsed.trace = false,
            "trace" => parsed.trace = true,
            "--smoke" => parsed.smoke = true,
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?;
                parsed.workloads = vec![w];
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// The repository root: the benchmark package sits directly under it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package has a parent directory")
        .to_path_buf()
}

/// Builds the program under test from source, exactly as a user would
/// (`cargo build --release -p qclab-cli` in the repository), and
/// returns the binary. Build time is reported by cargo, not as a metric.
fn build_qclab(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "qclab-cli",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        // cargo's own output must never end up on our result stream
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building qclab failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => root.join("target"),
    };
    let binary = target.join("release").join("qclab");
    if !binary.is_file() {
        return Err(format!("cargo built no {}", binary.display()));
    }
    // children are spawned from this directory, but say so explicitly
    std::fs::canonicalize(&binary).map_err(|e| format!("{}: {e}", binary.display()))
}

fn run_seconds_of_benchmark_json(root: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).ok()?;
    json::parse(&text).ok()?.get("run_seconds")?.as_f64()
}

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The traced run's in-process pass for one workload.
fn trace_layers(
    workload: Workload,
    env: &Env,
    plan: &Plan,
    m: &mut Measured,
    budget: Duration,
) -> Result<Layers, String> {
    let io = |e: std::io::Error| e.to_string();
    let sim = |e: qclab_core::QclabError| e.to_string();

    // process start alone: `qclab` with no arguments prints its usage
    // and exits 2
    let spawn_floor_ms = (0..layers::REPS)
        .map(|_| sys::time_process_ms(&mut Command::new(&env.qclab)))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(io)?;

    let mut found = Layers {
        kinds: Vec::new(),
        scheduler: None,
        spawn_floor_ms,
        copy_gbps_state_1t: 0.0,
        copy_gbps_state_nt: 0.0,
        copy_gbps_dram: 0.0,
    };

    let kinds = layers::kinds(workload, plan.seed, env).map_err(io)?;
    let mut budget = budget;
    if workload == Workload::ServeMix {
        let inputs = workload::ServeInputs::generate(plan.seed);
        let rounds = if plan.round_cap.is_some() {
            2
        } else {
            workload::SERVE_PERIOD
        };
        let t = Instant::now();
        found.scheduler =
            Some(layers::scheduler_rounds(&inputs, rounds, &mut m.tracer).map_err(sim)?);
        budget = budget.saturating_sub(t.elapsed());
    }
    let per_kind = budget / kinds.len().max(1) as u32;
    for (i, kind) in kinds.into_iter().enumerate() {
        let result = layers::measure(&kind, per_kind, &mut m.tracer, (i as u64 + 1) << 20)
            .map_err(|e| format!("{}: {e}", kind.name))?;
        found.kinds.push((kind, result));
    }

    // The copies come last: freeing arrays this large changes how the
    // allocator serves every later request (its mmap threshold rises),
    // which the layer timings above must not see.
    const STATE_BYTES: usize = 16 << 20;
    let dram = machine::dram_array_bytes(sys::llc_bytes(), sys::mem_available_bytes());
    eprintln!(
        "machine: {} cpus, last-level cache {} MiB, state copy arrays {} MiB, dram copy arrays {}",
        sys::nproc(),
        sys::llc_bytes().map_or("unknown".into(), |b| (b >> 20).to_string()),
        STATE_BYTES >> 20,
        dram.map_or(
            "omitted (would not fit a quarter of free memory)".into(),
            |b| format!("{} MiB", b >> 20)
        ),
    );
    found.copy_gbps_state_1t = machine::copy_gbps(STATE_BYTES, 1, 9);
    found.copy_gbps_state_nt = machine::copy_gbps(STATE_BYTES, sys::nproc(), 9);
    found.copy_gbps_dram = dram.map_or(0.0, |bytes| machine::copy_gbps(bytes, sys::nproc(), 2));
    Ok(found)
}

fn print_metrics(workload: Workload, metrics: &[Metric]) {
    let out = std::io::stdout();
    let mut out = out.lock();
    for metric in metrics {
        let samples = metric
            .samples
            .map_or(String::new(), |n| format!("  (n={n})"));
        let _ = writeln!(
            out,
            "{:<12} {:<36} {:>16.4} {}{samples}",
            workload.name(),
            metric.name,
            metric.value,
            metric.unit
        );
    }
}

/// The per-kind detail behind the weighted per-layer numbers.
fn print_kinds(found: &Layers) {
    for (kind, result) in &found.kinds {
        println!(
            "  kind {:<14} x{:<5.1} path {:<34} request {:>10.3} ms  layers {:>10.3} ms  reps>={}",
            kind.name,
            kind.weight,
            result.path.to_string(),
            result.request_untraced_ms,
            result.layer_self_ms,
            result.min_reps
        );
        let line: Vec<String> = result
            .values
            .iter()
            .map(|(name, value)| format!("{name}={value:.3}"))
            .collect();
        println!("    {}", line.join(" "));
    }
}

/// One workload, start to finish; returns its report record, its
/// result line and the number of failed operations.
fn run_workload(
    workload: Workload,
    env: &Env,
    args: &Args,
    seconds: f64,
) -> Result<(json::Json, String, u64), String> {
    // a traced run splits its time between the outside phase and the
    // in-process pass, and times a single set-up (it reports none)
    let plan = Plan {
        seed: args.seed,
        seconds: if args.trace { seconds / 2.0 } else { seconds },
        setups: if args.trace || args.smoke { 1 } else { SETUPS },
        round_cap: args.smoke.then_some(2),
        trace: args.trace,
    };
    eprintln!(
        "{}: seed {}, {} set-up(s), timed phase {}",
        workload.name(),
        plan.seed,
        plan.setups,
        plan.round_cap
            .map_or(format!("{:.0} s", plan.seconds), |n| format!("{n} rounds")),
    );
    let mut m =
        workload::run(workload, env, &plan).map_err(|e| format!("{}: {e}", workload.name()))?;
    let drift = machine::regime_drift(&m.reference);
    // fewer samples than two per bin say nothing about the host
    if drift > 0.10 && m.reference.len() >= 20 {
        eprintln!(
            "warning: {}: the host shifted during the timed phase (harness.regime_drift {drift:.3} > 0.10); \
             compare this run with care",
            workload.name()
        );
    }
    let metrics = if args.trace {
        let budget = Duration::from_secs_f64(if args.smoke { 4.0 } else { seconds / 2.0 });
        let found = trace_layers(workload, env, &plan, &mut m, budget)?;
        print_kinds(&found);
        let path = env.out.join(format!("trace_{}.json", workload.name()));
        std::fs::write(&path, m.tracer.to_json(workload.name()).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "{}: {} spans written to {}",
            workload.name(),
            m.tracer.len(),
            path.display()
        );
        report::per_layer(&m, &found)
    } else {
        report::end_to_end(&m)
    };
    print_metrics(workload, &metrics);
    let (round_ms, cpu_ms, reference_ms) = report::raw_times(&m);
    println!(
        "{:<12} as timed: round_ms_p50 {round_ms:.3} ms, cpu_ms_per_op {cpu_ms:.3} ms, reference unit {reference_ms:.3} ms{}",
        workload.name(),
        if workload == Workload::ServeMix {
            format!(", {:.0} jobs/s", report::serve_jobs_per_s(round_ms))
        } else {
            String::new()
        }
    );
    let why: Vec<String> = m
        .failures
        .iter()
        .map(|(kind, n)| format!("{n} {}", kind.name()))
        .collect();
    println!(
        "{:<12} failed {} of {} operations{}  (timed phase {:.1} s, {} rounds)",
        workload.name(),
        m.failed,
        m.attempted,
        if why.is_empty() {
            String::new()
        } else {
            format!(": {}", why.join(", "))
        },
        m.timed_wall_s,
        m.round_ms.len(),
    );
    Ok((
        report::record(workload, args.seed, args.trace, &m, &metrics),
        report::result_line(&m, &metrics),
        m.failed,
    ))
}

fn run(args: &Args) -> Result<bool, String> {
    let root = repo_root();
    let env = Env {
        qclab: build_qclab(&root)?,
        inputs: root.join("benchmark").join("inputs"),
        out: root.join("benchmark").join("out"),
    };
    std::fs::create_dir_all(&env.out).map_err(|e| format!("{}: {e}", env.out.display()))?;
    let seconds = args
        .seconds
        .or_else(|| run_seconds_of_benchmark_json(&root))
        .ok_or("no --seconds given and no run_seconds in BENCHMARK.json")?;
    let mut all_ok = true;
    let mut last_line = String::new();
    for &workload in &args.workloads {
        let (record, line, failed) = run_workload(workload, &env, args, seconds)?;
        all_ok &= failed == 0;
        last_line = line;
        if let Some(out) = &args.out {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(out)
                .map_err(|e| format!("{}: {e}", out.display()))?;
            writeln!(file, "{}", record.render()).map_err(|e| format!("{}: {e}", out.display()))?;
        }
    }
    // the contract's result line: last on stdout, one workload's worth
    println!("{last_line}");
    Ok(all_ok)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bench = read(&repo_root().join("BENCHMARK.json"))?;
    let (table, within) = compare::compare(&read(Path::new(a))?, &read(Path::new(b))?, &bench)?;
    print!("{table}");
    println!(
        "{}",
        if within {
            "within bounds"
        } else {
            "beyond a bound"
        }
    );
    Ok(within)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // the reference unit: a process that starts and ends (see machine.rs)
    if args.first().map(String::as_str) == Some(machine::NOOP_ARG) {
        return ExitCode::SUCCESS;
    }
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("compare takes two report files".to_string()),
        },
        Some(_) => parse_args(&args).and_then(|parsed| run(&parsed)),
    };
    match outcome {
        // failed operations and exceeded bounds exit non-zero, but only
        // after everything has been printed
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("qclab-e2e: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
