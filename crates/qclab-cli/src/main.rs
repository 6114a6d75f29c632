//! `qclab` — command-line front end for the toolbox. Mirrors the
//! workflow of the paper: construct (or import) a circuit, inspect it,
//! simulate it, and sample repeated experiments.
//!
//! The commands are the rows of [`COMMANDS`] and the flags the rows of
//! [`FLAGS`]. Parsing, the "does not apply to" check and the `--help`
//! text all read those two tables, so a row's help line is the flag's
//! documentation. Flags may appear anywhere after the command name, each
//! at most once; the remaining arguments are positional.
//!
//! Results go to stdout with exit code `0` (`--help` included). Errors go
//! to stderr with a distinct exit code per failure class: `2` usage,
//! `3` I/O, `4` QASM parse, `5` simulation, `6` resource limits, `7`
//! timeout/cancellation — a `sample` run stopped by its deadline also
//! prints the shots it completed as a partial-result JSON document on
//! stdout.

mod serve;

use qclab_core::program::{self, plan_cache_stats, PlanOptions};
use qclab_core::service::ErrorKind;
use qclab_core::sim::control::ExecutionControl;
use qclab_core::sim::guard::{ResourceLimits, SPARSE_ENTRY_BYTES};
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::route::{route, BackendRequest, TerminalDraw};
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, TrajectoryConfig, TrajectoryResult, SEED_CONTRACT,
};
use qclab_core::sim::SimOptions;
use qclab_core::{QCircuit, QclabError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use Cmd::*;
use Set::*;

/// Exit code for command-line misuse (bad flags, bad noise specs).
const EXIT_USAGE: u8 = ErrorKind::Usage.exit_code();
/// Exit code for file-system failures.
const EXIT_IO: u8 = ErrorKind::Io.exit_code();
/// Exit code for simulation failures (bad state, bad observable, …).
const EXIT_SIM: u8 = ErrorKind::Simulation.exit_code();
/// Exit code for resource-limit refusals.
const EXIT_RESOURCE: u8 = ErrorKind::Resource.exit_code();
/// Exit code for deadline/cancellation stops (`--timeout-ms`). Partial
/// results, when available, are printed on stdout before exiting.
const EXIT_TIMEOUT: u8 = ErrorKind::Timeout.exit_code();

/// A failure carrying its exit code; the message goes to stderr. A
/// timed-out run may also carry a partial-result document for stdout.
#[derive(Debug, PartialEq)]
struct CliError {
    code: u8,
    msg: String,
    stdout: Option<String>,
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError {
        code: EXIT_USAGE,
        msg: format!("{}\n{}", msg.into(), usage()),
        stdout: None,
    }
}

fn io_err(msg: String) -> CliError {
    CliError {
        code: EXIT_IO,
        msg,
        stdout: None,
    }
}

fn resource_err(msg: String) -> CliError {
    CliError {
        code: EXIT_RESOURCE,
        msg,
        stdout: None,
    }
}

/// What a command produces: the text for stdout, or the failure.
type Output = Result<String, CliError>;

impl From<QclabError> for CliError {
    fn from(e: QclabError) -> Self {
        CliError {
            code: ErrorKind::classify(&e).exit_code(),
            msg: e.to_string(),
            stdout: None,
        }
    }
}

/// Engine options shared by the simulating commands.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct EngineOpts {
    no_simd: bool,
    max_qubits: Option<u64>,
    backend: BackendRequest,
    timeout_ms: Option<u64>,
}

impl EngineOpts {
    fn kernel(&self) -> KernelConfig {
        KernelConfig {
            allow_simd: !self.no_simd,
            ..KernelConfig::default()
        }
    }

    fn limits(&self) -> ResourceLimits {
        match self.max_qubits {
            Some(n) => ResourceLimits::with_max_qubits(n as usize),
            None => ResourceLimits::default(),
        }
    }

    /// The deadline (if any) starts ticking here, at options
    /// construction — i.e. when the command begins executing.
    fn control(&self) -> ExecutionControl {
        match self.timeout_ms {
            Some(ms) => ExecutionControl::with_timeout(Duration::from_millis(ms)),
            None => ExecutionControl::none(),
        }
    }

    /// The trajectory run these options select, noiseless.
    fn trajectory(&self) -> TrajectoryConfig {
        TrajectoryConfig {
            kernel: self.kernel(),
            limits: self.limits(),
            backend: self.backend,
            control: self.control(),
            ..TrajectoryConfig::default()
        }
    }

    fn sim_opts(&self) -> SimOptions {
        SimOptions {
            kernel: self.kernel(),
            limits: self.limits(),
            control: self.control(),
        }
    }
}

/// The commands; `cmd as usize` indexes [`ALL`] and [`COMMANDS`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cmd {
    Draw,
    Tex,
    Simulate,
    Counts,
    Sample,
    Compile,
    Stats,
    Serve,
    Help,
}

const ALL: &[Cmd] = &[
    Draw, Tex, Simulate, Counts, Sample, Compile, Stats, Serve, Help,
];
const ENGINE: &[Cmd] = &[Simulate, Counts, Sample, Compile, Serve];

/// One row per command: name, positional arguments, what it prints.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, &str)] = &[
    ("draw", "<file.qasm>", "terminal rendering"),
    ("tex", "<file.qasm>", "quantikz LaTeX"),
    ("simulate", "<file.qasm> [initial-bitstring]", "branch results and probabilities"),
    ("counts", "<file.qasm> <shots>", "sampled outcome frequencies"),
    ("sample", "<file.qasm> <shots>", "trajectory sampling, with Pauli noise if asked for"),
    ("compile", "<file.qasm>", "lowered op schedule and plan statistics"),
    ("stats", "<file.qasm>", "gate, depth and measurement counts"),
    ("serve", "", "results of newline-delimited JSON jobs read from stdin or a socket"),
    ("help", "", "this text"),
];

impl Cmd {
    fn name(self) -> &'static str {
        COMMANDS[self as usize].0
    }
}

/// A parsed command line, less the command: each [`FLAGS`] row writes
/// one field, the positional arguments the last two — and `shots`, when
/// no flag did.
#[derive(Debug, Default, PartialEq)]
struct Options {
    help: bool,
    engine: EngineOpts,
    seed: Option<u64>,
    /// Set for `counts` and `sample`, which refuse to parse without it.
    shots: Option<u64>,
    noise: NoiseSpec,
    serve: serve::ServeOpts,
    /// The circuit file; empty for `serve` and `help`, which take none.
    path: String,
    /// `simulate`'s initial bitstring.
    init: Option<String>,
}

/// How a flag takes effect: each kind names the field it writes.
enum Set {
    Switch(fn(&mut Options) -> &mut bool),
    /// An integer no smaller than the minimum; a bad one "is not" the
    /// description (`an integer`, `a qubit count`, …).
    Number(u64, &'static str, fn(&mut Options) -> &mut Option<u64>),
    Channel(fn(&mut Options) -> &mut Option<PauliChannel>),
    Backend(fn(&mut Options) -> &mut BackendRequest),
    Text(fn(&mut Options) -> &mut Option<String>),
}

impl Set {
    /// How the usage text names the value; `None` for a switch.
    fn placeholder(&self) -> Option<&'static str> {
        match self {
            Switch(_) => None,
            Number(..) => Some("<n>"),
            Channel(_) => Some("<ch:p>"),
            Backend(_) => Some("<b>"),
            Text(_) => Some("<path>"),
        }
    }
}

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// The commands that accept the flag.
    cmds: &'static [Cmd],
    help: &'static str,
    set: Set,
}

impl Flag {
    /// Stores the value `v` (empty for a switch) in the flag's field.
    fn apply(&self, o: &mut Options, v: &str) -> Result<(), CliError> {
        let name = self.name;
        match self.set {
            Switch(at) => *at(o) = true,
            Number(min, what, at) => {
                let n: u64 = v
                    .parse()
                    .map_err(|_| usage_err(format!("{name} value '{v}' is not {what}")))?;
                if n < min {
                    return Err(usage_err(format!("{name} must be at least {min}")));
                }
                *at(o) = Some(n);
            }
            Channel(at) => *at(o) = Some(parse_channel(v)?),
            Backend(at) => {
                *at(o) = match v {
                    "auto" => BackendRequest::Auto,
                    "dense" => BackendRequest::Dense,
                    "sparse" => BackendRequest::Sparse,
                    other => {
                        return Err(usage_err(format!(
                            "unknown backend '{other}' (expected auto, dense or sparse)"
                        )))
                    }
                }
            }
            Text(at) => *at(o) = Some(v.to_string()),
        }
        Ok(())
    }
}

const HELP: &str = "--help";

/// The flags. This table is all there is to a flag: the parser, the
/// per-command check and the usage text read nothing else.
const FLAGS: &[Flag] = &[
    Flag {
        name: HELP,
        cmds: ALL,
        help: "print this text and exit 0 (also -h)",
        set: Switch(|o| &mut o.help),
    },
    Flag {
        name: "--no-simd",
        cmds: &[Simulate, Counts, Sample, Serve],
        help: "force the scalar kernels",
        set: Switch(|o| &mut o.engine.no_simd),
    },
    Flag {
        name: "--max-qubits",
        cmds: ENGINE,
        help: "refuse larger registers (default: whatever fits the 4 GiB memory cap)",
        set: Number(0, "a qubit count", |o| &mut o.engine.max_qubits),
    },
    Flag {
        name: "--backend",
        cmds: ENGINE,
        help: "state representation: dense (default), sparse, or auto to route per program",
        set: Backend(|o| &mut o.engine.backend),
    },
    Flag {
        name: "--seed",
        cmds: &[Counts, Sample],
        help: "RNG seed (default 1)",
        set: Number(0, "an integer", |o| &mut o.seed),
    },
    Flag {
        name: "--shots",
        cmds: &[Counts, Sample],
        help: "shot count, instead of the positional one",
        set: Number(0, "an integer", |o| &mut o.shots),
    },
    Flag {
        name: "--noise",
        cmds: &[Sample],
        help: "Pauli noise after every gate; ch = bitflip|phaseflip|depolarizing, p per location",
        set: Channel(|o| &mut o.noise.after_gate),
    },
    Flag {
        name: "--idle-noise",
        cmds: &[Sample],
        help: "Pauli noise on the qubits a gate leaves idle",
        set: Channel(|o| &mut o.noise.idle),
    },
    Flag {
        name: "--measure-noise",
        cmds: &[Sample],
        help: "Pauli noise before each measurement and reset",
        set: Channel(|o| &mut o.noise.before_measure),
    },
    // A zero deadline is already expired before the run starts;
    // reporting it as a timeout (exit 7) would dress a bad invocation
    // up as a partial result.
    Flag {
        name: "--timeout-ms",
        cmds: &[Simulate, Counts, Sample],
        help: "wall-clock deadline, at least 1: exit 7, sample with partial results",
        set: Number(1, "a millisecond count", |o| &mut o.engine.timeout_ms),
    },
    Flag {
        name: "--workers",
        cmds: &[Serve],
        help: "worker threads (default: CPU count, capped at 16)",
        set: Number(1, "an integer", |o| &mut o.serve.workers),
    },
    Flag {
        name: "--queue-depth",
        cmds: &[Serve],
        help: "max queued jobs; overflow is rejected (default 1024)",
        set: Number(1, "an integer", |o| &mut o.serve.queue_depth),
    },
    Flag {
        name: "--global-mem-mib",
        cmds: &[Serve],
        help: "admission budget for concurrent state memory (default 8192)",
        set: Number(1, "an integer", |o| &mut o.serve.global_mem_mib),
    },
    Flag {
        name: "--socket",
        cmds: &[Serve],
        help: "serve connections on a Unix socket instead of stdin",
        set: Text(|o| &mut o.serve.socket),
    },
];

/// The usage text, generated from [`COMMANDS`] and [`FLAGS`].
fn usage() -> String {
    let mut lines = vec!["usage: qclab <command> [flags] [arguments]\ncommands:".to_string()];
    for (name, args, help) in COMMANDS {
        lines.push(format!("  {name:<8} {args:<31} {help}"));
    }
    lines.push("flags (anywhere after the command, each at most once):".to_string());
    for flag in FLAGS {
        let value = flag.set.placeholder().unwrap_or("");
        let cmds: Vec<&str> = flag.cmds.iter().map(|c| c.name()).collect();
        lines.push(format!(
            "  {:<16} {value:<6} {} [{}]",
            flag.name,
            flag.help,
            cmds.join(" ")
        ));
    }
    // what a (circuit, seed, shots) triple maps to is versioned: a change
    // of sampled bits bumps this number and is listed in CHANGES.md
    lines.push(format!("seed contract: {SEED_CONTRACT}"));
    lines.join("\n")
}

/// Parses `bitflip:0.01`-style channel specs.
fn parse_channel(spec: &str) -> Result<PauliChannel, CliError> {
    let (name, prob) = spec
        .split_once(':')
        .ok_or_else(|| usage_err(format!("noise spec '{spec}' must look like 'bitflip:0.01'")))?;
    let p: f64 = prob
        .parse()
        .map_err(|_| usage_err(format!("noise probability '{prob}' is not a number")))?;
    let channel = match name {
        "bitflip" | "x" => PauliChannel::BitFlip(p),
        "phaseflip" | "z" => PauliChannel::PhaseFlip(p),
        "depolarizing" | "dep" => PauliChannel::Depolarizing(p),
        other => {
            return Err(usage_err(format!(
                "unknown noise channel '{other}' (expected bitflip, phaseflip or depolarizing)"
            )))
        }
    };
    channel.validate()?;
    Ok(channel)
}

/// Parses the argument vector (without the program name): the command,
/// then its flags — looked up in [`FLAGS`] — and positional arguments
/// in any order.
fn parse_args(args: &[String]) -> Result<(Cmd, Options), CliError> {
    let first = args.first().ok_or_else(|| usage_err("missing command"))?;
    let first = if first == "-h" || first == HELP {
        Help.name()
    } else {
        first
    };
    let cmd = COMMANDS
        .iter()
        .position(|row| row.0 == first)
        .map(|at| ALL[at])
        .ok_or_else(|| usage_err(format!("unknown command '{first}'")))?;
    let mut o = Options::default();
    let mut seen: Vec<&str> = Vec::new();
    let mut rest: Vec<&String> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let a = if arg == "-h" { HELP } else { arg.as_str() };
        if !a.starts_with("--") {
            rest.push(arg);
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == a)
            .ok_or_else(|| usage_err(format!("unknown option '{a}'")))?;
        if !flag.cmds.contains(&cmd) {
            let cmd = cmd.name();
            return Err(usage_err(format!("{a} does not apply to '{cmd}'")));
        }
        if seen.contains(&flag.name) {
            return Err(usage_err(format!("{a} given more than once")));
        }
        seen.push(flag.name);
        let v = match flag.set.placeholder() {
            None => "",
            Some(placeholder) => it
                .next()
                .ok_or_else(|| usage_err(format!("{a} requires a value {placeholder}")))?,
        };
        flag.apply(&mut o, v)?;
    }

    let cmd = if o.help { Help } else { cmd };
    let mut rest = rest.into_iter();
    match cmd {
        Help => {}
        Serve => {
            if let Some(stray) = rest.next() {
                return Err(usage_err(format!(
                    "serve takes no positional arguments (got '{stray}'); jobs arrive on stdin or a socket"
                )));
            }
        }
        _ => {
            o.path = rest
                .next()
                .ok_or_else(|| usage_err("missing .qasm file"))?
                .clone();
            if cmd == Simulate {
                o.init = rest.next().cloned();
            }
            if cmd == Counts || cmd == Sample {
                o.shots = Some(match (o.shots, rest.next()) {
                    (Some(n), None) => n,
                    (None, Some(s)) => s
                        .parse()
                        .map_err(|_| usage_err(format!("shot count '{s}' is not an integer")))?,
                    (Some(_), Some(_)) => {
                        return Err(usage_err(
                            "shot count given both as an argument and as a flag",
                        ))
                    }
                    (None, None) => return Err(usage_err("missing shot count")),
                });
            }
            if let Some(stray) = rest.next() {
                let cmd = cmd.name();
                return Err(usage_err(format!(
                    "unexpected argument '{stray}' for '{cmd}'"
                )));
            }
        }
    }
    Ok((cmd, o))
}

fn load(path: &str) -> Result<QCircuit, CliError> {
    let src =
        std::fs::read_to_string(path).map_err(|e| io_err(format!("cannot read {path}: {e}")))?;
    qclab_qasm::from_qasm(&src).map_err(|e| {
        let mut c = CliError::from(e);
        c.msg = format!("{path}: {}", c.msg);
        c
    })
}

/// `entr{}` completed: `1 live entry`, `2 live entries`.
fn ies(n: u128) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

fn simulate(circuit: &QCircuit, init: Option<&str>, opts: &EngineOpts) -> Output {
    let n = circuit.nb_qubits();
    let zeros = "0".repeat(n);
    let bits = init.unwrap_or(&zeros);
    let sim = circuit.simulate_bitstring_routed(bits, &opts.sim_opts(), opts.backend)?;
    let results = sim.results();
    let branches = results.len();
    let mut out = format!("simulated {n} qubits from |{bits}>: {branches} branch(es)");
    if sim.is_sparse() {
        let peak = sim.peak_entries();
        out.push_str(&format!(
            " (sparse backend, peak {peak} live entr{})",
            ies(peak as u128)
        ));
    }
    out.push('\n');
    for (result, p) in results.iter().zip(sim.probabilities()) {
        if result.is_empty() {
            out.push_str(&format!("  (no measurements)  p = {p:.6}\n"));
        } else {
            out.push_str(&format!("  '{result}'  p = {p:.6}\n"));
        }
    }
    Ok(out)
}

fn counts(circuit: &QCircuit, shots: u64, seed: u64, opts: &EngineOpts) -> Output {
    let zeros = "0".repeat(circuit.nb_qubits());
    let sim = circuit.simulate_bitstring_routed(&zeros, &opts.sim_opts(), opts.backend)?;
    let mut out = if sim.is_sparse() {
        format!("counts over {shots} shots (seed {seed}, sparse backend):\n")
    } else {
        format!("counts over {shots} shots (seed {seed}):\n")
    };
    for (result, n) in sim.counts(shots, seed) {
        let _ = writeln!(out, "  '{result}': {n}");
    }
    Ok(out)
}

fn sample(circuit: &QCircuit, shots: u64, seed: u64, o: &Options) -> Output {
    let config = TrajectoryConfig {
        seed,
        shots,
        noise: o.noise,
        ..o.engine.trajectory()
    };
    let t_start = std::time::Instant::now();
    let result = run_trajectories(circuit, &config)?;
    let wall_ms = t_start.elapsed().as_secs_f64() * 1e3;
    if let Some(cause) = result.stop_cause() {
        return Err(CliError {
            code: EXIT_TIMEOUT,
            msg: format!(
                "sample stopped early ({cause}): {}/{} shots completed",
                result.shots(),
                result.requested_shots()
            ),
            stdout: Some(partial_json(&result, &cause.to_string(), wall_ms)),
        });
    }
    let mut out = format!(
        "sampled {shots} trajectories (seed {seed}, {} injected error(s), path: {}):\n",
        result.injected_errors(),
        result.path()
    );
    for (record, n) in result.counts() {
        let share = *n as f64 / shots.max(1) as f64;
        let _ = if record.is_empty() {
            writeln!(out, "  (no measurements): {n}  ({share:.4})")
        } else {
            writeln!(out, "  '{record}': {n}  ({share:.4})")
        };
    }
    let stats = result.norm_stats();
    if stats.renormalizations > 0 {
        out.push_str(&format!(
            "norm watchdog: {} renormalization(s), max drift {:.3e}\n",
            stats.renormalizations, stats.max_drift
        ));
    }
    Ok(out)
}

/// Escapes a string for inclusion in a JSON document. Measurement
/// records are plain `0`/`1` strings today, but the contract should not
/// silently break if record labels ever grow richer.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_json_escaped(&mut out, s);
    out
}

/// [`json_escape`], appended to `out`.
fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The fields of a JSON `counts` object: `"00":493,"11":507`.
fn counts_json(counts: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    push_counts_json(&mut out, counts);
    out
}

/// [`counts_json`], appended to `out`.
fn push_counts_json(out: &mut String, counts: &BTreeMap<String, u64>) {
    for (i, (record, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_json_escaped(out, record);
        let _ = write!(out, "\":{n}");
    }
}

/// Renders a stopped trajectory run as the partial-result JSON document
/// printed on stdout alongside exit code 7. Counts cover the completed
/// shots only; the cause is `"cancelled"` or `"deadline exceeded"`;
/// `wall_ms` is the measured run time, so a caller juggling many
/// invocations gets the same timing telemetry `qclab serve` streams.
fn partial_json(result: &TrajectoryResult, cause: &str, wall_ms: f64) -> String {
    let mut out = format!(
        "{{\"partial\":true,\"cause\":\"{}\",\"shots_requested\":{},\"shots_completed\":{},\"wall_ms\":{:.3},\"counts\":{{",
        json_escape(cause),
        result.requested_shots(),
        result.shots(),
        wall_ms
    );
    push_counts_json(&mut out, result.counts());
    out.push_str("}}\n");
    out
}

/// Renders a byte count like `64 B` / `16.0 MiB`; `None` means the
/// register is too wide for a dense state vector at all.
fn fmt_bytes(bytes: Option<u128>) -> String {
    let Some(b) = bytes else {
        return "beyond addressable memory".to_string();
    };
    const UNITS: [&str; 4] = ["KiB", "MiB", "GiB", "TiB"];
    if b < 1024 {
        return format!("{b} B");
    }
    let mut value = b as f64 / 1024.0;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.1} {}", UNITS[unit])
}

/// `qclab compile`: lowers the circuit through the shared pipeline and
/// prints the plan, its op schedule and — under the same `--backend` and
/// `--max-qubits` — the [`route`] `sample` takes for each noise class, or
/// the refusal it exits with. A route reads noise only through "can a
/// channel fire" and "do gates strike", so three classes cover every flag.
fn compile_report(circuit: &QCircuit, opts: &EngineOpts) -> Output {
    // The noiseless route's terminal draw, at the library's default shot
    // count, as a one-shot `sample` takes it: routed before this report
    // holds the plan, since nothing else holds it in that process. A
    // backend other than dense reads the unfused plan; held from here on,
    // neither plan is lowered twice.
    let unfused = (opts.backend != BackendRequest::Dense)
        .then(|| program::compile(circuit, &PlanOptions::unfused()));
    let sampled = route(circuit, &opts.trajectory(), None);
    let plan_opts = PlanOptions::from(&opts.kernel());
    let program = program::compile(circuit, &plan_opts);
    let stats = program.stats();
    let on = |yes: bool| if yes { "on" } else { "off" };
    let mut out = format!(
        "compiled {} qubits (fingerprint {:016x}, fusion {}, remap {}, backend {}):\n",
        program.nb_qubits(),
        program.fingerprint(),
        on(program.options().fuse),
        on(program.options().remap),
        opts.backend,
    );
    let mut row = |label: &str, value: String| out.push_str(&format!("  {label:<13} {value}\n"));
    row(
        "gates:",
        format!(
            "{} -> {} ({} fused block(s))",
            stats.gates_in, stats.gates_out, stats.fused_blocks
        ),
    );
    row("fences:", stats.fences.to_string());
    row("measurements:", stats.measurements.to_string());
    row("resets:", stats.resets.to_string());
    row("state bytes:", fmt_bytes(stats.state_bytes));
    let bound = stats.sparse_entries;
    let bound_bytes = fmt_bytes(Some(bound.saturating_mul(SPARSE_ENTRY_BYTES)));
    row(
        "sparse bound:",
        format!("{bound} live entr{} ({bound_bytes})", ies(bound)),
    );
    let plan = program.shot_plan();
    row(
        "shot plan:",
        format!(
            "{} deterministic + {} stochastic op(s)",
            plan.prefix_ops, plan.suffix_ops
        ),
    );
    let channel = Some(PauliChannel::BitFlip(0.01));
    // the routes also read the unfused plan — to pick the backend, or
    // for Pauli frames — and the cache keeps a plan asked for once only
    // while someone holds it: the report holds both across its rows
    let _unfused = unfused.or_else(|| {
        stats
            .is_clifford
            .then(|| program::compile(circuit, &PlanOptions::unfused()))
    });
    for (class, after_gate, before_measure) in [
        ("noiseless", None, None),
        ("readout noise", None, channel),
        ("gate noise", channel, None),
    ] {
        let noise = NoiseSpec {
            after_gate,
            before_measure,
            ..NoiseSpec::default()
        };
        let config = TrajectoryConfig {
            noise,
            ..opts.trajectory()
        };
        let value = match route(circuit, &config, None) {
            Ok(r) => format!("{} [{}]", r.path, r.why),
            Err(e) => format!("refused: {e}"),
        };
        row(&format!("route, {class}:"), value);
    }
    // per shot and class, on the source schedule: times a channel's p,
    // the expected hits — what a shot's noise walk costs
    let sites = qclab_core::sim::walk::site_counts(&program);
    row(
        "noise sites:",
        format!(
            "{} after-gate, {} idle, {} readout",
            sites.after_gate, sites.idle, sites.readout
        ),
    );
    row("seed contract:", SEED_CONTRACT.to_string());
    row(
        "locality:",
        format!(
            "{} window(s) remapped, {} move(s), {} fold(s), {} relabel(s)",
            stats.remap_windows, stats.remap_moves, stats.remap_folds, stats.remap_relabels
        ),
    );
    let draw = match sampled.map(|r| r.draw) {
        Ok(Some(TerminalDraw::Table { bytes })) => format!("table {}", fmt_bytes(Some(bytes))),
        Ok(Some(TerminalDraw::Streamed)) => "streamed".to_string(),
        _ => "none".to_string(),
    };
    // a draw that skips the trailing restore reads the measured qubits
    // where the layout left them
    let in_place = plan.draw_in_place.is_some() && draw != "none";
    row(
        "terminal draw:",
        draw + if in_place {
            ", in place (no restore)"
        } else {
            ""
        },
    );
    let cache = plan_cache_stats();
    let (hits, misses, resident) = (cache.hits, cache.misses, cache.entries as u128);
    row(
        "plan cache:",
        format!(
            "{hits} hit(s), {misses} miss(es), {resident} entr{} resident",
            ies(resident)
        ),
    );
    row(
        "retained preparation:",
        format!(
            "{} hit(s), {} miss(es), {} byte(s) held",
            cache.prep_hits, cache.prep_misses, cache.prep_bytes
        ),
    );
    out.push_str("schedule:\n");
    for (i, op) in program.ops().iter().enumerate() {
        out.push_str(&format!("  {i:>4}  {op}\n"));
    }
    Ok(out)
}

fn stats(circuit: &QCircuit) -> String {
    format!(
        "qubits:       {}\ngates:        {}\nmeasurements: {}\ndepth:        {}\n",
        circuit.nb_qubits(),
        circuit.nb_gates(),
        circuit.nb_measurements(),
        circuit.depth()
    )
}

fn run((cmd, o): (Cmd, Options)) -> Output {
    // Fault-injection hook for the panic-containment path: the
    // integration suite sets this variable to prove a panic anywhere in
    // command dispatch becomes a clean exit code instead of an abort.
    if std::env::var_os("QCLAB_INJECT_PANIC").is_some() {
        panic!("injected panic for containment test");
    }
    let circuit = || load(&o.path);
    let (opts, seed, shots) = (&o.engine, o.seed.unwrap_or(1), o.shots.unwrap_or(0));
    match cmd {
        Help => Ok(usage() + "\n"),
        Draw => Ok(qclab_draw::draw_circuit(&circuit()?)),
        Tex => Ok(qclab_draw::to_tex(&circuit()?)),
        Simulate => simulate(&circuit()?, o.init.as_deref(), opts),
        Counts => counts(&circuit()?, shots, seed, opts),
        Sample => sample(&circuit()?, shots, seed, &o),
        Compile => compile_report(&circuit()?, opts),
        Stats => Ok(stats(&circuit()?)),
        Serve => serve::run_serve(&o.serve, opts),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The default panic hook stays installed, so an unwinding thread
    // still prints its message (and a backtrace under RUST_BACKTRACE=1)
    // to stderr before we convert the panic into a clean exit code.
    let result = match std::panic::catch_unwind(|| parse_args(&args).and_then(run)) {
        Ok(result) => result,
        Err(_) => {
            eprintln!(
                "qclab: internal error: the command panicked. This is a bug — please report \
                 it with the command line and input circuit that triggered it (rerun with \
                 RUST_BACKTRACE=1 for a backtrace)."
            );
            return ExitCode::from(EXIT_SIM);
        }
    };
    let (stdout, code) = match &result {
        Ok(output) => (Some(output), 0),
        Err(e) => (e.stdout.as_ref(), e.code),
    };
    // a reader that closed the pipe (`qclab sample … | head -1`) took
    // what it wanted: the command keeps its own status
    if let Some(Err(err)) = stdout.map(|text| write_stdout(text)) {
        if err.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("qclab: cannot write output: {err}");
            return ExitCode::from(EXIT_IO);
        }
    }
    if let Err(e) = &result {
        eprintln!("qclab: {}", e.msg);
    }
    ExitCode::from(code)
}

fn write_stdout(text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `src` to a file of its own: tests run on parallel threads,
    /// so no two calls may share a path (process id + counter).
    fn write_qasm(stem: &str, src: &str) -> String {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("qclab_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{stem}_{}_{unique}.qasm", std::process::id()));
        std::fs::write(&path, src).unwrap();
        path.to_str().unwrap().to_string()
    }

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn write_bell() -> String {
        write_qasm(
            "bell",
            &format!("{HEADER}qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;\n"),
        )
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(v: &[&str]) -> Result<(Cmd, Options), CliError> {
        parse_args(&args(v))
    }

    /// The usage error `v` parses to, less the usage text after it.
    fn usage_error(v: &[&str]) -> String {
        let e = parse(v).expect_err(&format!("{v:?} must be refused"));
        assert_eq!(e.code, EXIT_USAGE, "{v:?}");
        assert_eq!(e.stdout, None, "{v:?}");
        let (msg, text) = e.msg.split_once('\n').expect("usage follows the message");
        assert_eq!(text, usage(), "{v:?}");
        msg.to_string()
    }

    /// A value a row of this kind accepts.
    fn sample_value(set: &Set) -> Option<&'static str> {
        match set {
            Switch(_) => None,
            Number(..) => Some("3"),
            Channel(_) => Some("bitflip:0.1"),
            Backend(_) => Some("auto"),
            Text(_) => Some("/tmp/qclab.sock"),
        }
    }

    /// `cmd` with its positional arguments, then `flag` with a value.
    fn line_with(cmd: Cmd, flag: &Flag, times: usize) -> Vec<&'static str> {
        let mut line = vec![cmd.name()];
        match cmd {
            Serve | Help => {}
            // the shot count is positional unless the flag supplies it
            Counts | Sample if flag.name != "--shots" => line.extend(["f.qasm", "10"]),
            _ => line.push("f.qasm"),
        }
        for _ in 0..times {
            line.push(flag.name);
            line.extend(sample_value(&flag.set));
        }
        line
    }

    #[test]
    fn the_tables_are_well_formed() {
        // both are indexed by `Cmd as usize`
        assert_eq!(ALL.len(), COMMANDS.len());
        for (i, cmd) in ALL.iter().enumerate() {
            assert_eq!(*cmd as usize, i);
            assert!(COMMANDS[..i].iter().all(|row| row.0 != cmd.name()));
        }
        assert_eq!(
            (Draw.name(), Serve.name(), Help.name()),
            ("draw", "serve", "help")
        );
        for (i, flag) in FLAGS.iter().enumerate() {
            assert!(flag.name.starts_with("--"), "{}", flag.name);
            assert!(!flag.cmds.is_empty(), "{} applies nowhere", flag.name);
            assert!(!flag.help.is_empty(), "{} has no help line", flag.name);
            assert!(
                FLAGS[..i].iter().all(|f| f.name != flag.name),
                "{} has two rows",
                flag.name
            );
        }
    }

    /// Every `--word` of `text`, in order (a table rule `|---|` or a
    /// comment's `<!--` is dashes, not a flag).
    fn flags_named_in(text: &str) -> Vec<&str> {
        text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|word| {
                word.strip_prefix("--")
                    .is_some_and(|name| name.starts_with(|c: char| c.is_ascii_lowercase()))
            })
            .collect()
    }

    #[test]
    fn usage_and_readme_name_exactly_the_tables_flags() {
        let rows: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        // one line per row, in table order, and no other flag anywhere
        assert_eq!(flags_named_in(&usage()), rows);
        for (name, _, _) in COMMANDS {
            let listed = usage()
                .lines()
                .filter(|l| l.starts_with(&format!("  {name} ")))
                .count();
            assert_eq!(listed, 1, "{name}");
        }
        // the README's flag section: the same set, in any order
        let readme = include_str!("../../../README.md");
        let section = readme
            .split_once("<!-- flags -->")
            .and_then(|(_, rest)| rest.split_once("<!-- /flags -->"))
            .expect("README.md marks its flag section")
            .0;
        let mut documented = flags_named_in(section);
        documented.sort_unstable();
        documented.dedup();
        let mut expected = rows.clone();
        expected.sort_unstable();
        assert_eq!(documented, expected);
    }

    #[test]
    fn every_flag_is_accepted_exactly_where_its_row_says() {
        for flag in FLAGS {
            for &cmd in ALL {
                let (name, line) = (cmd.name(), line_with(cmd, flag, 1));
                if flag.cmds.contains(&cmd) {
                    parse(&line).unwrap_or_else(|e| panic!("{line:?}: {}", e.msg));
                    // twice is an error, for switches and value flags alike
                    assert_eq!(
                        usage_error(&line_with(cmd, flag, 2)),
                        format!("{} given more than once", flag.name)
                    );
                } else {
                    assert_eq!(
                        usage_error(&line),
                        format!("{} does not apply to '{name}'", flag.name)
                    );
                }
            }
            // a value flag at the end of the line has nothing to take
            if let Some(placeholder) = flag.set.placeholder() {
                assert_eq!(
                    usage_error(&[flag.cmds[0].name(), "f.qasm", flag.name]),
                    format!("{} requires a value {placeholder}", flag.name)
                );
            }
        }
    }

    #[test]
    fn flags_reach_their_fields() {
        // position-independent: before, between and after the positionals
        assert_eq!(
            parse(&[
                "counts",
                "--no-simd",
                "f.qasm",
                "--timeout-ms",
                "250",
                "50",
                "--max-qubits",
                "20",
                "--seed",
                "7",
                "--backend",
                "sparse",
            ])
            .unwrap(),
            (
                Counts,
                Options {
                    engine: EngineOpts {
                        no_simd: true,
                        max_qubits: Some(20),
                        backend: BackendRequest::Sparse,
                        timeout_ms: Some(250),
                    },
                    seed: Some(7),
                    shots: Some(50),
                    path: "f.qasm".into(),
                    ..Options::default()
                }
            )
        );
        let (cmd, sampled) = parse(&[
            "sample",
            "f.qasm",
            "--shots",
            "500",
            "--noise",
            "depolarizing:0.01",
            "--idle-noise",
            "z:0.02",
            "--measure-noise",
            "bitflip:0.05",
        ])
        .unwrap();
        assert_eq!(
            (cmd, sampled.shots, sampled.seed),
            (Sample, Some(500), None)
        );
        assert_eq!(
            sampled.noise,
            NoiseSpec {
                after_gate: Some(PauliChannel::Depolarizing(0.01)),
                idle: Some(PauliChannel::PhaseFlip(0.02)),
                before_measure: Some(PauliChannel::BitFlip(0.05)),
            }
        );
        // the scheduler's settings are rows like any other, beside the
        // engine flags `serve` shares
        let (_, served) = parse(&[
            "serve",
            "--workers",
            "4",
            "--no-simd",
            "--queue-depth",
            "16",
            "--global-mem-mib",
            "512",
            "--socket",
            "/tmp/qclab.sock",
        ])
        .unwrap();
        assert_eq!(
            served.serve,
            serve::ServeOpts {
                workers: Some(4),
                queue_depth: Some(16),
                global_mem_mib: Some(512),
                socket: Some("/tmp/qclab.sock".into()),
            }
        );
        assert!(served.engine.no_simd);
        assert_eq!(parse(&["serve"]).unwrap(), (Serve, Options::default()));
    }

    #[test]
    fn bad_values_are_usage_errors_that_name_the_flag() {
        for (line, msg) in [
            (
                &["simulate", "f.qasm", "--max-qubits", "many"][..],
                "--max-qubits value 'many' is not a qubit count",
            ),
            (
                &["simulate", "f.qasm", "--backend", "magic"],
                "unknown backend 'magic' (expected auto, dense or sparse)",
            ),
            (
                &["counts", "f.qasm", "5", "--seed", "-1"],
                "--seed value '-1' is not an integer",
            ),
            (
                &["counts", "f.qasm", "--shots", "x"],
                "--shots value 'x' is not an integer",
            ),
            (
                &["simulate", "f.qasm", "--timeout-ms", "soon"],
                "--timeout-ms value 'soon' is not a millisecond count",
            ),
            // a zero deadline is a bad invocation, not a timeout: it
            // never reaches the engine to come back as exit 7
            (
                &["sample", "f.qasm", "5", "--timeout-ms", "0"],
                "--timeout-ms must be at least 1",
            ),
            (&["serve", "--workers", "0"], "--workers must be at least 1"),
            (
                &["serve", "--queue-depth", "deep"],
                "--queue-depth value 'deep' is not an integer",
            ),
            (
                &["serve", "--global-mem-mib", "0"],
                "--global-mem-mib must be at least 1",
            ),
            (
                &["sample", "f.qasm", "5", "--noise", "bitflip"],
                "noise spec 'bitflip' must look like 'bitflip:0.01'",
            ),
            (
                &["sample", "f.qasm", "5", "--idle-noise", "bitflip:x"],
                "noise probability 'x' is not a number",
            ),
            (
                &["sample", "f.qasm", "5", "--measure-noise", "frob:0.1"],
                "unknown noise channel 'frob' (expected bitflip, phaseflip or depolarizing)",
            ),
            // typo'd options are named, not taken as file paths
            (
                &["simulate", "--nosimd", "f.qasm"],
                "unknown option '--nosimd'",
            ),
        ] {
            assert_eq!(usage_error(line), msg);
        }
        // a probability outside [0, 1] is the library's refusal
        let e = parse(&["sample", "f.qasm", "5", "--noise", "bitflip:1.5"]).unwrap_err();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.msg.contains("invalid noise spec"), "{}", e.msg);
    }

    #[test]
    fn commands_and_positionals() {
        let (cmd, drawn) = parse(&["draw", "f.qasm"]).unwrap();
        assert_eq!((cmd, drawn.path.as_str()), (Draw, "f.qasm"));
        assert_eq!(
            parse(&["simulate", "f.qasm", "01"]).unwrap(),
            (
                Simulate,
                Options {
                    path: "f.qasm".into(),
                    init: Some("01".into()),
                    ..Options::default()
                }
            )
        );
        assert_eq!(usage_error(&[]), "missing command");
        // the command is named before anything after it is looked at
        assert_eq!(usage_error(&["bogus"]), "unknown command 'bogus'");
        assert_eq!(
            usage_error(&["bogus", "--nope", "f.qasm"]),
            "unknown command 'bogus'"
        );
        for cmd in [
            "draw", "tex", "simulate", "counts", "sample", "compile", "stats",
        ] {
            assert_eq!(usage_error(&[cmd]), "missing .qasm file");
        }
        assert_eq!(usage_error(&["counts", "f.qasm"]), "missing shot count");
        assert_eq!(
            usage_error(&["counts", "f.qasm", "x"]),
            "shot count 'x' is not an integer"
        );
        assert_eq!(
            usage_error(&["sample", "f.qasm", "10", "--shots", "20"]),
            "shot count given both as an argument and as a flag"
        );
        assert!(usage_error(&["serve", "jobs.ndjson"])
            .starts_with("serve takes no positional arguments (got 'jobs.ndjson')"));
    }

    #[test]
    fn help_wins_over_missing_positionals_but_not_over_a_bad_line() {
        // where each spelling prints and exits is `cli_errors.rs::
        // help_is_a_result_on_stdout`; here: what `run` hands `main`
        assert_eq!(
            run(parse(&["sample", "-h"]).unwrap()).unwrap(),
            usage() + "\n"
        );
        // asking for help does not excuse the rest of the line
        assert_eq!(
            usage_error(&["sample", "--help", "--nope"]),
            "unknown option '--nope'"
        );
    }

    #[test]
    fn end_to_end_draw_and_stats() {
        let p = write_bell();
        let art = run(parse(&["draw", &p]).unwrap()).unwrap();
        assert!(art.contains("┤ H ├"));
        let st = run(parse(&["stats", &p]).unwrap()).unwrap();
        assert!(st.contains("qubits:       2"));
        assert!(st.contains("gates:        2"));
    }

    #[test]
    fn end_to_end_simulate_and_counts() {
        let p = write_bell();
        let sim = run(parse(&["simulate", &p]).unwrap()).unwrap();
        assert!(sim.contains("'00'"));
        assert!(sim.contains("'11'"));
        // the scalar kernels report the same branches
        let scalar = run(parse(&["simulate", &p, "--no-simd"]).unwrap()).unwrap();
        assert_eq!(sim, scalar);
        let cts = run(parse(&["counts", &p, "100"]).unwrap()).unwrap();
        assert!(cts.contains("counts over 100 shots"));
    }

    #[test]
    fn end_to_end_sample_noiseless_and_noisy() {
        let p = write_bell();
        let clean = run(parse(&["sample", &p, "200", "--seed", "5"]).unwrap()).unwrap();
        assert!(clean.contains("sampled 200 trajectories"));
        assert!(clean.contains("'00'") && clean.contains("'11'"));
        assert!(!clean.contains("'01'") && !clean.contains("'10'"));
        // a noiseless terminal-measurement circuit draws every shot from
        // the shared table (that the per-shot engine draws the same
        // records is `tests/shot_fastpath.rs` and `tests/seed_goldens.rs`)
        assert!(clean.contains("path: alias-sampled"), "output: {clean}");
        // a certain bit-flip before the only measurement flips |0> to '1'
        let one = write_qasm("one", "qreg q[1];\ncreg c[1];\nmeasure q -> c;\n");
        let flipped =
            run(parse(&["sample", &one, "50", "--measure-noise", "bitflip:1"]).unwrap()).unwrap();
        assert!(flipped.contains("'1': 50"), "output: {flipped}");
        assert!(
            flipped.contains("50 injected error(s)"),
            "output: {flipped}"
        );
    }

    #[test]
    fn compile_reports_the_plan() {
        let p = write_bell();
        let report = run(parse(&["compile", &p]).unwrap()).unwrap();
        // h+cx fuse into one block; the two measurements stay
        assert!(
            report.contains("gates:        2 -> 1 (1 fused block(s))"),
            "{report}"
        );
        assert!(report.contains("measurements: 2"), "{report}");
        assert!(report.contains("state bytes:  64 B"), "{report}");
        assert!(report.contains("fingerprint"), "{report}");
        // the fused bell circuit is one deterministic op plus two
        // terminal measurements: a noiseless sample draws from one table,
        // a noisy one propagates Pauli frames (the circuit is Clifford)
        assert!(
            report.contains("shot plan:    1 deterministic + 2 stochastic op(s)"),
            "{report}"
        );
        assert!(
            report.contains("  route, noiseless: alias-sampled (prefix 1 ops) ["),
            "{report}"
        );
        assert!(
            report.contains("  route, gate noise: pauli-frame ["),
            "{report}"
        );
        // a T gate keeps a noisy run on the state-vector engine
        let t = write_qasm(
            "tgate",
            &format!("{HEADER}qreg q[1];\ncreg c[1];\nh q[0];\nt q[0];\nmeasure q -> c;\n"),
        );
        let report = run(parse(&["compile", &t]).unwrap()).unwrap();
        assert!(
            report.contains("  route, gate noise: per-shot ["),
            "{report}"
        );
        assert!(
            report.contains(&format!("seed contract: {SEED_CONTRACT}")),
            "{report}"
        );
        assert!(usage().ends_with(&format!("seed contract: {SEED_CONTRACT}")));
        // a guard refusal is the route's row, with the message `sample`
        // exits with
        let report = run(parse(&["compile", &p, "--max-qubits", "1"]).unwrap()).unwrap();
        let e = run(parse(&["sample", &p, "10", "--max-qubits", "1"]).unwrap()).unwrap_err();
        assert_eq!(e.code, EXIT_RESOURCE);
        assert!(
            report.contains(&format!("  route, noiseless: refused: {}\n", e.msg)),
            "{report}"
        );
    }

    #[test]
    fn compile_on_a_fenced_circuit_reports_the_cache_counters() {
        let p = write_qasm(
            "fenced",
            "qreg q[2];\ncreg c[2];\nh q[0];\nbarrier q;\ncx q[0], q[1];\nmeasure q -> c;\n",
        );
        let before = qclab_core::program::plan_cache_stats();
        let report = run(parse(&["compile", &p]).unwrap()).unwrap();
        assert!(report.contains("fusion on, remap on"), "{report}");
        assert!(report.contains("fences:       1"), "{report}");
        // a 2-qubit register is below the tile size: the pass is inert
        assert!(
            report.contains("locality:     0 window(s) remapped, 0 move(s), 0 fold(s)"),
            "{report}"
        );
        assert!(report.contains("plan cache:"), "{report}");
        let after_first = qclab_core::program::plan_cache_stats();
        assert!(after_first.misses > before.misses, "first lowering misses");
        // recompiling the identical file is served from the plan cache
        run(parse(&["compile", &p]).unwrap()).unwrap();
        let after_second = qclab_core::program::plan_cache_stats();
        assert!(after_second.hits > after_first.hits, "recompile hits");
    }

    /// Writes a 30-qubit Grover-oracle-shaped circuit: X flips plus a
    /// Toffoli ladder. Pure permutation — one live sparse entry — but a
    /// dense register would need 16 GiB, past the 4 GiB default cap.
    fn write_grover_oracle_30() -> String {
        let mut src = format!("{HEADER}qreg q[30];\ncreg c[30];\nx q[0];\nx q[1];\n");
        for t in 2..30 {
            src.push_str(&format!("ccx q[{}], q[{}], q[{t}];\n", t - 2, t - 1));
        }
        src.push_str("measure q -> c;\n");
        write_qasm("oracle30", &src)
    }

    #[test]
    fn thirty_qubit_oracle_needs_the_sparse_backend() {
        let p = write_grover_oracle_30();
        // the dense default refuses the register outright (exit 6) …
        let e = run(parse(&["simulate", &p]).unwrap()).unwrap_err();
        assert_eq!(e.code, EXIT_RESOURCE);
        // … and `compile` says so on the route rows of the same request
        let report = run(parse(&["compile", &p]).unwrap()).unwrap();
        assert!(
            report.contains("  route, noiseless: refused: a 30-qubit state needs"),
            "{report}"
        );
        // --backend auto routes to the sparse executor and completes:
        // the ladder propagates the two X flips through every ccx
        let out = run(parse(&["simulate", "--backend", "auto", &p]).unwrap()).unwrap();
        assert!(out.contains("sparse backend"), "{out}");
        assert!(
            out.contains(&format!("'{}'  p = 1.000000", "1".repeat(30))),
            "{out}"
        );
        // the compile report states the route `sample` takes below
        let report = run(parse(&["compile", "--backend", "auto", &p]).unwrap()).unwrap();
        assert!(report.contains("backend auto):"), "{report}");
        assert!(
            report.contains("  route, noiseless: sparse-sampled (prefix 30 ops) ["),
            "{report}"
        );
        assert!(report.contains("sparse bound: 1 live entry"), "{report}");
        // counts and sample work on the same register through the flag
        let cts = run(parse(&["counts", &p, "20", "--backend", "auto"]).unwrap()).unwrap();
        assert!(cts.contains("sparse backend"), "{cts}");
        assert!(cts.contains(&format!("'{}': 20", "1".repeat(30))), "{cts}");
        let smp = run(parse(&["sample", &p, "20", "--backend", "auto"]).unwrap()).unwrap();
        assert!(smp.contains("path: sparse-sampled"), "{smp}");
        assert!(smp.contains(&format!("'{}': 20", "1".repeat(30))), "{smp}");
    }

    #[test]
    fn backend_flag_on_small_circuits_keeps_dense_output() {
        let p = write_bell();
        // a Bell pair is cheap dense; auto stays on the dense engine and
        // the output is byte-identical to the unrouted default
        let default_out = run(parse(&["simulate", &p]).unwrap()).unwrap();
        let auto_out = run(parse(&["simulate", &p, "--backend", "auto"]).unwrap()).unwrap();
        assert_eq!(default_out, auto_out);
        assert!(!auto_out.contains("sparse"), "{auto_out}");
        // pinning sparse works too and agrees on the distribution
        let pinned = run(parse(&["simulate", &p, "--backend", "sparse"]).unwrap()).unwrap();
        assert!(pinned.contains("sparse backend"), "{pinned}");
        assert!(pinned.contains("'00'  p = 0.500000"), "{pinned}");
        assert!(pinned.contains("'11'  p = 0.500000"), "{pinned}");
    }

    /// A 4-qubit ring of 240 CNOTs. Neighbouring gates share one qubit,
    /// so fusion merges none of them and a dense run crosses the default
    /// check interval (64 ops) several times.
    fn write_long_chain() -> String {
        let mut src = String::from("qreg q[4];\ncreg c[4];\nh q[0];\n");
        for i in 0..240 {
            src.push_str(&format!("cx q[{}], q[{}];\n", i % 4, (i + 1) % 4));
        }
        src.push_str("measure q -> c;\n");
        write_qasm("chain", &src)
    }

    /// The parsed line with a deadline the parser would refuse: one
    /// that has expired before the run starts.
    fn expired((cmd, mut o): (Cmd, Options)) -> (Cmd, Options) {
        o.engine.timeout_ms = Some(0);
        (cmd, o)
    }

    #[test]
    fn expired_deadline_stops_dense_simulation_with_timeout_code() {
        let p = write_long_chain();
        // a 0 ms deadline is already expired at the first interval check
        let e = run(expired(parse(&["simulate", &p]).unwrap())).unwrap_err();
        assert_eq!(e.code, EXIT_TIMEOUT);
        assert!(e.msg.contains("deadline exceeded"), "message: {}", e.msg);
        // a generous deadline changes nothing about the output
        let plain = run(parse(&["simulate", &p]).unwrap()).unwrap();
        let timed = run(parse(&["simulate", &p, "--timeout-ms", "3600000"]).unwrap()).unwrap();
        assert_eq!(plain, timed);
    }

    #[test]
    fn expired_deadline_makes_sample_partial_with_json_payload() {
        // a measurement in mid-circuit: every shot is evolved, and each
        // observes the deadline in its prologue — 0 of 50 complete, and
        // the partial contract still produces a payload for stdout
        let p = write_qasm(
            "midmeasure",
            &format!(
                "{HEADER}qreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\n\
                 cx q[0], q[1];\nmeasure q[1] -> c[1];\n"
            ),
        );
        let e = run(expired(
            parse(&["sample", &p, "50", "--seed", "5"]).unwrap(),
        ))
        .unwrap_err();
        assert_eq!(e.code, EXIT_TIMEOUT);
        assert!(e.msg.contains("0/50 shots completed"), "message: {}", e.msg);
        let payload = e.stdout.expect("partial runs carry a stdout payload");
        assert!(payload.contains("\"partial\":true"), "{payload}");
        assert!(
            payload.contains("\"cause\":\"deadline exceeded\""),
            "{payload}"
        );
        assert!(payload.contains("\"shots_requested\":50"), "{payload}");
        assert!(payload.contains("\"shots_completed\":0"), "{payload}");
    }

    #[test]
    fn generous_deadline_sample_is_bit_identical_to_untimed() {
        // a T gate keeps the noisy run on the state-vector engine
        let p = write_qasm(
            "bell_t",
            &format!(
                "{HEADER}qreg q[2];\ncreg c[2];\nh q[0];\nt q[0];\ncx q[0], q[1];\nmeasure q -> c;\n"
            ),
        );
        let noisy = ["sample", &p, "200", "--seed", "5", "--noise", "dep:0.05"];
        // control checks never touch the RNG streams: the timed run's
        // output is byte-identical to the untimed one
        let untimed = run(parse(&noisy).unwrap()).unwrap();
        assert!(untimed.contains("path: per-shot"), "{untimed}");
        let timed = run(parse(&[&noisy[..], &["--timeout-ms", "3600000"]].concat()).unwrap());
        assert_eq!(untimed, timed.unwrap());
    }

    #[test]
    fn json_escape_quotes_and_controls() {
        assert_eq!(json_escape("0110"), "0110");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\u{1}"), "x\\ny\\u0001");
    }

    #[test]
    fn missing_file_and_bad_qasm_error_cleanly() {
        let e = run(parse(&["draw", "/nonexistent/x.qasm"]).unwrap()).unwrap_err();
        assert_eq!(e.code, EXIT_IO);
        let bad = write_qasm("bad", "qreg q[1]; frobnicate q[0];");
        let e = run(parse(&["stats", &bad]).unwrap()).unwrap_err();
        assert_eq!(e.code, ErrorKind::QasmParse.exit_code());
        assert!(e.msg.contains("frobnicate"));
    }
}
