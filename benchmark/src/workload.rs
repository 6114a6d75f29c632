//! The four workloads: what a round is, how a workload is set up
//! (inputs, reference pass, warm-up) and how its timed phase runs —
//! always against the real `qclab` binary, from outside.
//!
//! Every workload is a closed loop driven by this one thread: a CLI
//! round runs its processes one after another, a serve round keeps a
//! fixed number of jobs in flight on one connection. The timed sample
//! is the round, a fixed seeded list of operations, so both commits of
//! a comparison are asked the same things in the same order.

use crate::check::{self, Certain, Failure};
use crate::gen::{self, SplitMix64};
use crate::machine::Reference;
use crate::serve::{Job, Server};
use crate::sys;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CliPaper,
    CliDense20,
    CliNoisy,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CliPaper,
        Workload::CliDense20,
        Workload::CliNoisy,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CliPaper => "cli_paper",
            Workload::CliDense20 => "cli_dense20",
            Workload::CliNoisy => "cli_noisy",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The distinct inputs of the CLI workloads; per-kind medians are
/// reported under these names.
pub const CLI_KINDS: [&str; 7] = [
    "teleport", "grover2", "qec3", "qft16", "dense20", "traj12", "rep25",
];

/// Where things are.
pub struct Env {
    /// The program under test.
    pub qclab: PathBuf,
    /// The checked-in inputs (`benchmark/inputs`).
    pub inputs: PathBuf,
    /// Scratch for generated inputs, reports and traces (`benchmark/out`).
    pub out: PathBuf,
}

/// How long and how often.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// The timed phase runs whole rounds until this many seconds have
    /// passed.
    pub seconds: f64,
    /// Complete set-ups to time; the last one feeds the timed phase.
    pub setups: usize,
    /// `--smoke`: this many timed rounds and one warm-up round, whatever
    /// `seconds` says.
    pub round_cap: Option<usize>,
    /// Record spans of rounds and operations.
    pub trace: bool,
}

/// Fewest timed rounds of a run, however short `seconds` is.
const MIN_ROUNDS: usize = 3;

/// Serve jobs kept in flight on the connection.
pub const SERVE_WINDOW: usize = 16;
pub const SERVE_ROUND_JOBS: usize = 200;
const SERVE_HOT_JOBS: usize = 120;
const SERVE_DEEP_JOBS: usize = SERVE_ROUND_JOBS - SERVE_HOT_JOBS;
/// Rounds after which the one-off circuits repeat. A one-off returns
/// after 800 other circuits went through a 32-entry plan cache, so it
/// is a miss every time.
pub const SERVE_PERIOD: usize = gen::DEEP_POOL / SERVE_DEEP_JOBS;
pub const HOT_SHOTS: u64 = 500;
pub const DEEP_SHOTS: u64 = 100;

/// Wire telemetry of the timed serve jobs.
#[derive(Default)]
pub struct ServeStats {
    pub job_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub wall_ms: Vec<f64>,
    pub dedup_hits: u64,
    /// Jobs that ran in an ensemble of two or more.
    pub coalesced_jobs: u64,
    /// Σ 1/ensemble size over jobs: the number of ensembles executed.
    pub groups: f64,
    /// Jobs the scheduler refused (`error.kind` = `resource`).
    pub rejected: u64,
    pub checked: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
}

/// Everything one run measured from outside.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub round_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: BTreeMap<Failure, u64>,
    /// User + system CPU of the program's processes over the timed phase.
    pub child_cpu_s: f64,
    pub peak_rss_kib: i64,
    pub timed_wall_s: f64,
    /// The load generator's own CPU over the timed phase.
    pub harness_cpu_s: f64,
    /// Reference-unit samples taken after each round: (seconds into
    /// the timed phase, ms).
    pub reference: Vec<(f64, f64)>,
    /// Per round: its wall time over the mean of the reference samples
    /// taken just before and just after it.
    pub round_rel: Vec<f64>,
    /// Per round: the program's CPU per operation over the same mean.
    pub cpu_rel: Vec<f64>,
    /// Wall time of every timed CLI operation, by input kind.
    pub op_ms: BTreeMap<&'static str, Vec<f64>>,
    pub stdout_bytes: u64,
    pub serve: Option<ServeStats>,
    pub tracer: Tracer,
}

impl Measured {
    fn new(trace: bool) -> Self {
        Measured {
            tracer: Tracer::new(trace),
            ..Measured::default()
        }
    }

    fn count(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            *self.failures.entry(why).or_insert(0) += 1;
        }
    }
}

pub fn run(workload: Workload, env: &Env, plan: &Plan) -> std::io::Result<Measured> {
    match workload {
        Workload::ServeMix => run_serve(env, plan),
        cli => run_cli(cli, env, plan),
    }
}

/// What one timed round cost.
struct RoundCost {
    wall_ms: f64,
    /// User + system CPU of the program's processes over the round.
    cpu_s: f64,
    ops: usize,
}

/// Runs whole rounds until the plan's time is up, timing the
/// reference unit between rounds.
fn timed_phase(
    plan: &Plan,
    m: &mut Measured,
    mut round: impl FnMut(usize, &mut Measured) -> std::io::Result<RoundCost>,
) -> std::io::Result<()> {
    let reference = Reference::new()?;
    reference.sample_ms()?;
    let mut before = reference.sample_ms()?;
    let start = Instant::now();
    let cpu_before = sys::self_cpu_s();
    loop {
        let cost = round(m.round_ms.len(), m)?;
        let after = reference.sample_ms()?;
        let reference_ms = (before + after) / 2.0;
        m.round_ms.push(cost.wall_ms);
        m.round_rel.push(cost.wall_ms / reference_ms);
        m.cpu_rel
            .push(cost.cpu_s * 1e3 / cost.ops as f64 / reference_ms);
        m.child_cpu_s += cost.cpu_s;
        m.reference.push((start.elapsed().as_secs_f64(), after));
        before = after;
        let done = match plan.round_cap {
            Some(cap) => m.round_ms.len() >= cap,
            None => start.elapsed().as_secs_f64() >= plan.seconds && m.round_ms.len() >= MIN_ROUNDS,
        };
        if done {
            break;
        }
    }
    m.timed_wall_s = start.elapsed().as_secs_f64();
    m.harness_cpu_s = sys::self_cpu_s() - cpu_before;
    Ok(())
}

/// Untimed rounds run before the timed phase; part of `setup_s`.
fn warmup_rounds(workload: Workload, plan: &Plan) -> usize {
    match workload {
        _ if plan.round_cap.is_some() => 1,
        Workload::CliPaper => 6,
        Workload::CliDense20 | Workload::CliNoisy => 2,
        Workload::ServeMix => 4,
    }
}

// ---------------------------------------------------------------------
// one-shot CLI workloads
// ---------------------------------------------------------------------

/// One `qclab sample` invocation.
pub struct CliOp {
    pub kind: &'static str,
    pub file: PathBuf,
    pub shots: u64,
    pub seed: u64,
    /// `--noise` channel and probability, if any.
    pub noise: Option<(&'static str, f64)>,
    pub certain: Certain,
}

struct CliOutput {
    exit_code: Option<i32>,
    stdout: String,
    started: Instant,
    finished: Instant,
    cpu_s: f64,
    maxrss_kib: i64,
}

impl CliOp {
    fn execute(&self, qclab: &Path) -> std::io::Result<CliOutput> {
        let mut cmd = Command::new(qclab);
        cmd.arg("sample")
            .arg(&self.file)
            .arg(self.shots.to_string())
            .arg("--seed")
            .arg(self.seed.to_string());
        if let Some((channel, p)) = self.noise {
            cmd.arg("--noise").arg(format!("{channel}:{p}"));
        }
        let started = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = String::new();
        // an output that is not UTF-8 is the program's failure, not the
        // harness's: it reads as malformed
        let _ = child
            .stdout
            .take()
            .expect("stdout was piped")
            .read_to_string(&mut stdout);
        let reaped = sys::reap(child)?;
        Ok(CliOutput {
            exit_code: reaped.exit_code,
            stdout,
            started,
            finished: Instant::now(),
            cpu_s: reaped.cpu_s,
            maxrss_kib: reaped.maxrss_kib,
        })
    }

    fn check_alone(&self, out: &CliOutput) -> Result<(), Failure> {
        check::check_cli_alone(out.exit_code, &out.stdout, self.shots, self.certain)
    }
}

const TAG_OPS: u64 = 100;

/// The operations of one round of a CLI workload, with the generated
/// inputs it needs as `(file name, text)`.
pub fn cli_round(workload: Workload, seed: u64, env: &Env) -> (Vec<CliOp>, Vec<(String, String)>) {
    let generated = env.out.join("inputs").join(format!("seed{seed}"));
    let mut rng = SplitMix64::stream(seed, TAG_OPS, 0);
    let mut ops = Vec::new();
    let mut files = Vec::new();
    let mut op = |kind, file: PathBuf, shots, noise, certain, rng: &mut SplitMix64| {
        ops.push(CliOp {
            kind,
            file,
            shots,
            seed: rng.program_seed(),
            noise,
            certain,
        })
    };
    match workload {
        Workload::CliPaper => {
            let paper = [
                ("teleport", Certain::Bit { pos: 2, bit: b'0' }),
                ("grover2", Certain::Only("11")),
                ("qec3", Certain::Only("10111")),
                ("qft16", Certain::Nothing),
            ];
            for _ in 0..10 {
                for (kind, certain) in paper {
                    let file = env.inputs.join(format!("{kind}.qasm"));
                    op(kind, file, 1000, None, certain, &mut rng);
                }
            }
        }
        Workload::CliDense20 => {
            files.push(("dense20x8.qasm".to_string(), gen::dense20x8(seed)));
            let file = generated.join("dense20x8.qasm");
            op("dense20", file, 1000, None, Certain::Nothing, &mut rng);
        }
        Workload::CliNoisy => {
            files.push(("traj12x10.qasm".to_string(), gen::traj12x10(seed)));
            for _ in 0..10 {
                let traj = generated.join("traj12x10.qasm");
                op(
                    "traj12",
                    traj,
                    128,
                    Some(("depolarizing", 0.002)),
                    Certain::Nothing,
                    &mut rng,
                );
                let rep = env.inputs.join("rep25.qasm");
                op(
                    "rep25",
                    rep,
                    100_000,
                    Some(("bitflip", 0.002)),
                    Certain::Nothing,
                    &mut rng,
                );
            }
        }
        Workload::ServeMix => unreachable!("serve_mix is not a CLI workload"),
    }
    (ops, files)
}

/// One complete CLI set-up: generate the inputs, run the reference
/// pass (every operation of the round once, checked on its own), warm
/// up. Returns the round and the reference outputs; an operation whose
/// reference failed has none, and fails every timed comparison.
fn setup_cli(
    workload: Workload,
    env: &Env,
    plan: &Plan,
) -> std::io::Result<(Vec<CliOp>, Vec<Option<String>>)> {
    let (ops, files) = cli_round(workload, plan.seed, env);
    gen::write_files(
        &env.out.join("inputs").join(format!("seed{}", plan.seed)),
        &files,
    )?;
    let mut reference = Vec::with_capacity(ops.len());
    for op in &ops {
        let out = op.execute(&env.qclab)?;
        let ok = op.check_alone(&out).is_ok();
        reference.push(ok.then_some(out.stdout));
    }
    for _ in 0..warmup_rounds(workload, plan) {
        for op in &ops {
            op.execute(&env.qclab)?;
        }
    }
    Ok((ops, reference))
}

fn run_cli(workload: Workload, env: &Env, plan: &Plan) -> std::io::Result<Measured> {
    let mut m = Measured::new(plan.trace);
    let mut ready = None;
    for _ in 0..plan.setups.max(1) {
        let t = Instant::now();
        ready = Some(setup_cli(workload, env, plan)?);
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let (ops, reference) = ready.expect("at least one set-up ran");
    let mut sequence = 0u64;
    timed_phase(plan, &mut m, |_, m| {
        let round_span = m.tracer.enter("round", None, 0);
        let started = Instant::now();
        let mut outputs = Vec::with_capacity(ops.len());
        for op in &ops {
            outputs.push(op.execute(&env.qclab)?);
        }
        let round_ms = started.elapsed().as_secs_f64() * 1e3;
        m.tracer.exit(round_span);
        // checking happens outside the timed interval
        for ((op, out), expected) in ops.iter().zip(&outputs).zip(&reference) {
            sequence += 1;
            m.tracer.record(
                &format!("cli.op.{}", op.kind),
                out.started,
                out.finished,
                Some(round_span),
                sequence,
            );
            m.op_ms
                .entry(op.kind)
                .or_default()
                .push((out.finished - out.started).as_secs_f64() * 1e3);
            m.peak_rss_kib = m.peak_rss_kib.max(out.maxrss_kib);
            m.stdout_bytes += out.stdout.len() as u64;
            m.count(match expected {
                Some(expected) => {
                    check::check_cli(out.exit_code, &out.stdout, op.shots, op.certain, expected)
                }
                None => op.check_alone(out).and(Err(Failure::Mismatch)),
            });
        }
        Ok(RoundCost {
            wall_ms: round_ms,
            cpu_s: outputs.iter().map(|out| out.cpu_s).sum(),
            ops: ops.len(),
        })
    })?;
    Ok(m)
}

// ---------------------------------------------------------------------
// serve workload
// ---------------------------------------------------------------------

/// The serve workload's inputs: the job list (hot jobs first, then the
/// one-off pool) and which job each slot of round `r` sends.
pub struct ServeInputs {
    /// `SERVE_HOT_JOBS` hot jobs, then `gen::DEEP_POOL` one-offs.
    pub jobs: Vec<Job>,
    /// Per job: the index into `files` of its circuit, and its seed.
    pub specs: Vec<(usize, u64)>,
    /// Per slot of a round: `Ok(hot job index)` or `Err(position among
    /// the round's one-offs)`.
    slots: Vec<Result<usize, usize>>,
    /// The QASM texts, hot circuits first — also written to disk, and
    /// the in-process trace reads them back from here.
    pub files: Vec<(String, String)>,
}

const TAG_SERVE: u64 = 200;

impl ServeInputs {
    pub fn generate(seed: u64) -> ServeInputs {
        let mut rng = SplitMix64::stream(seed, TAG_SERVE, 0);
        let mut files = Vec::with_capacity(gen::HOT_CIRCUITS + gen::DEEP_POOL);
        for k in 0..gen::HOT_CIRCUITS {
            files.push((format!("hot15x8.{k}.qasm"), gen::hot15x8(seed, k)));
        }
        for k in 0..gen::DEEP_POOL {
            files.push((format!("deep6x40/{k:03}.qasm"), gen::deep6x40(seed, k)));
        }
        let mut specs = Vec::with_capacity(SERVE_HOT_JOBS + gen::DEEP_POOL);
        for _ in 0..SERVE_HOT_JOBS {
            let circuit = rng.below(gen::HOT_CIRCUITS as u64) as usize;
            specs.push((circuit, rng.program_seed()));
        }
        for k in 0..gen::DEEP_POOL {
            specs.push((gen::HOT_CIRCUITS + k, rng.program_seed()));
        }
        let jobs = specs
            .iter()
            .enumerate()
            .map(|(j, &(file, seed))| Job::new(&files[file].1, Self::shots_of(j), seed))
            .collect();
        let mut slots: Vec<Result<usize, usize>> = (0..SERVE_HOT_JOBS)
            .map(Ok)
            .chain((0..SERVE_DEEP_JOBS).map(Err))
            .collect();
        rng.shuffle(&mut slots);
        ServeInputs {
            jobs,
            specs,
            slots,
            files,
        }
    }

    fn shots_of(job: usize) -> u64 {
        if job < SERVE_HOT_JOBS {
            HOT_SHOTS
        } else {
            DEEP_SHOTS
        }
    }

    /// Indices into `jobs` of the jobs round `r` sends, in order.
    pub fn round(&self, r: usize) -> Vec<usize> {
        let base = SERVE_HOT_JOBS + (r % SERVE_PERIOD) * SERVE_DEEP_JOBS;
        self.slots
            .iter()
            .map(|slot| match *slot {
                Ok(hot) => hot,
                Err(position) => base + position,
            })
            .collect()
    }
}

struct ServeReady {
    server: Server,
    inputs: ServeInputs,
    /// Reference counts text per job; `None` where the reference failed.
    reference: Vec<Option<String>>,
}

/// One complete serve set-up: generate the inputs, start the server,
/// run the reference pass, warm up. The reference pass sends every
/// distinct job once: hot jobs strictly one at a time, so each runs
/// standalone (the timed phase coalesces them — the results must not
/// differ); one-offs with the workload's window, since no two of them
/// share a circuit and so none can be coalesced with another.
fn setup_serve(env: &Env, plan: &Plan) -> std::io::Result<ServeReady> {
    let inputs = ServeInputs::generate(plan.seed);
    gen::write_files(
        &env.out.join("inputs").join(format!("seed{}", plan.seed)),
        &inputs.files,
    )?;
    let mut server = Server::spawn(&env.qclab)?;
    let all: Vec<&Job> = inputs.jobs.iter().collect();
    let (hot, deep) = all.split_at(SERVE_HOT_JOBS);
    let mut reference = Vec::with_capacity(all.len());
    for (jobs, window) in [(hot, 1), (deep, SERVE_WINDOW)] {
        let batch = server.run(jobs, window)?;
        for (job, reply) in jobs.iter().zip(&batch.replies) {
            let ok = check::check_serve_alone(&reply.line, job.shots).is_ok();
            let counts = check::serve_counts_text(&reply.line).map(str::to_string);
            reference.push(counts.filter(|_| ok));
        }
    }
    for r in 0..warmup_rounds(Workload::ServeMix, plan) {
        let round: Vec<&Job> = inputs
            .round(r)
            .into_iter()
            .map(|j| &inputs.jobs[j])
            .collect();
        server.run(&round, SERVE_WINDOW)?;
    }
    Ok(ServeReady {
        server,
        inputs,
        reference,
    })
}

fn run_serve(env: &Env, plan: &Plan) -> std::io::Result<Measured> {
    let mut m = Measured::new(plan.trace);
    let mut ready: Option<ServeReady> = None;
    for _ in 0..plan.setups.max(1) {
        if let Some(previous) = ready.take() {
            previous.server.shutdown()?;
        }
        let t = Instant::now();
        ready = Some(setup_serve(env, plan)?);
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let ServeReady {
        mut server,
        inputs,
        reference,
    } = ready.expect("at least one set-up ran");
    let warmup = warmup_rounds(Workload::ServeMix, plan);
    let mut stats = ServeStats::default();
    let mut sequence = 0u64;
    let pid = server.pid();
    let server_cpu_s = || {
        sys::proc_cpu_s(pid)
            .ok_or_else(|| std::io::Error::other(format!("cannot read /proc/{pid}/stat")))
    };
    timed_phase(plan, &mut m, |r, m| {
        let indices = inputs.round(warmup + r);
        let round: Vec<&Job> = indices.iter().map(|&j| &inputs.jobs[j]).collect();
        let cpu_before = server_cpu_s()?;
        let batch = server.run(&round, SERVE_WINDOW)?;
        let cpu_s = server_cpu_s()? - cpu_before;
        let round_span = m
            .tracer
            .record("round", batch.started, batch.finished, None, 0);
        stats.request_bytes += batch.request_bytes;
        stats.response_bytes += batch.response_bytes;
        for (&j, reply) in indices.iter().zip(&batch.replies) {
            sequence += 1;
            m.tracer.record(
                "serve.job",
                reply.sent,
                reply.received,
                Some(round_span),
                sequence,
            );
            stats.job_ms.push(reply.latency_ms());
            let job = &inputs.jobs[j];
            let outcome = match &reference[j] {
                Some(expected) => check::check_serve(&reply.line, job.shots, expected),
                None => {
                    check::check_serve_alone(&reply.line, job.shots).and(Err(Failure::Mismatch))
                }
            };
            if reply.line.contains("\"kind\":\"resource\"") {
                stats.rejected += 1;
            }
            if let Ok(t) = &outcome {
                stats.checked += 1;
                stats.queue_ms.push(t.queue_ms);
                stats.run_ms.push(t.run_ms);
                stats.wall_ms.push(t.wall_ms);
                stats.dedup_hits += u64::from(t.dedup_hit);
                stats.coalesced_jobs += u64::from(t.coalesced > 1);
                stats.groups += 1.0 / t.coalesced.max(1) as f64;
            }
            m.count(outcome.map(|_| ()));
        }
        Ok(RoundCost {
            wall_ms: batch.wall_ms(),
            cpu_s,
            ops: round.len(),
        })
    })?;
    m.peak_rss_kib = server.shutdown()?.maxrss_kib;
    m.serve = Some(stats);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env {
            qclab: PathBuf::from("qclab"),
            inputs: PathBuf::from("benchmark/inputs"),
            out: PathBuf::from("benchmark/out"),
        }
    }

    #[test]
    fn rounds_have_the_stated_composition() {
        let (paper, files) = cli_round(Workload::CliPaper, 1, &env());
        assert_eq!(paper.len(), 40);
        assert!(files.is_empty());
        for kind in ["teleport", "grover2", "qec3", "qft16"] {
            assert_eq!(paper.iter().filter(|op| op.kind == kind).count(), 10);
        }
        let (dense, files) = cli_round(Workload::CliDense20, 1, &env());
        assert_eq!((dense.len(), files.len()), (1, 1));
        assert!(dense[0].file.ends_with("inputs/seed1/dense20x8.qasm"));
        let (noisy, _) = cli_round(Workload::CliNoisy, 1, &env());
        assert_eq!(noisy.len(), 20);
        assert!(noisy.iter().all(|op| op.noise.is_some()));
        assert!(paper
            .iter()
            .chain(&dense)
            .chain(&noisy)
            .all(|op| CLI_KINDS.contains(&op.kind)));
    }

    #[test]
    fn the_round_is_a_function_of_the_seed() {
        let seeds = |s| -> Vec<u64> {
            cli_round(Workload::CliPaper, s, &env())
                .0
                .iter()
                .map(|op| op.seed)
                .collect()
        };
        assert_eq!(seeds(1), seeds(1));
        assert_ne!(seeds(1), seeds(2));
        let mut distinct = seeds(1);
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 40);
    }

    #[test]
    fn serve_rounds_mix_hot_resubmissions_with_one_offs_that_cycle_the_pool() {
        let inputs = ServeInputs::generate(1);
        assert_eq!(inputs.jobs.len(), SERVE_HOT_JOBS + gen::DEEP_POOL);
        assert_eq!(SERVE_PERIOD, 10);
        let r0 = inputs.round(0);
        assert_eq!(r0.len(), SERVE_ROUND_JOBS);
        assert_eq!(
            r0.iter().filter(|&&j| j < SERVE_HOT_JOBS).count(),
            SERVE_HOT_JOBS
        );
        // hot jobs are the same in every round, one-offs differ until
        // the pool has been through once
        let r1 = inputs.round(1);
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..SERVE_PERIOD {
            for j in inputs.round(r) {
                if j >= SERVE_HOT_JOBS {
                    assert!(seen.insert(j), "one-off {j} repeated inside the period");
                }
            }
        }
        assert_eq!(seen.len(), gen::DEEP_POOL);
        for (a, b) in r0.iter().zip(&r1) {
            assert_eq!(*a < SERVE_HOT_JOBS, *b < SERVE_HOT_JOBS);
            assert!(*a >= SERVE_HOT_JOBS || a == b);
        }
        assert_eq!(inputs.round(SERVE_PERIOD), r0);
    }
}
