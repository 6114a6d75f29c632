//! `qclab serve` — the CLI front end of the multi-tenant scheduler
//! ([`qclab_core::service`]).
//!
//! Jobs arrive as newline-delimited JSON on stdin (or on a Unix socket
//! with `--socket PATH`), and per-job results stream back one JSON line
//! each, in completion order. The wire contract:
//!
//! Request lines:
//!
//! ```json
//! {"id":"j1","qasm":"OPENQASM 2.0; ...","shots":1000,"seed":7}
//! {"id":"j2","file":"bell.qasm","shots":500,"seed":1,"timeout_ms":2000}
//! {"cancel":"j1"}
//! ```
//!
//! `qasm` (inline source) and `file` (path) are alternatives; `seed`
//! defaults to 1, `timeout_ms` is optional; a key given twice is a usage
//! error. A `cancel` line aborts the named job: still-queued jobs resolve
//! immediately with
//! `error.kind = "cancelled"`, running jobs stop at the next control
//! check and keep their completed shots as a partial result.
//!
//! Response lines:
//!
//! ```json
//! {"id":"j1","ok":true,"shots":1000,"requested_shots":1000,
//!  "path":"alias-sampled (prefix 3 ops)","injected_errors":0,
//!  "counts":{"00":493,"11":507},
//!  "telemetry":{"queue_ms":0.4,"run_ms":2.1,"wall_ms":2.5,
//!               "dedup_hit":true,"coalesced":1,"prep_hit":true,
//!               "seed_contract":4}}
//! {"id":"j2","ok":false,
//!  "error":{"kind":"timeout","code":7,"message":"stopped after 210 of 500 shots"},
//!  "partial":{ ...same shape as a success result... }}
//! ```
//!
//! `seed_contract` is [`SEED_CONTRACT`]: the generation of the
//! `(seed, shot)` → bits mapping the counts were drawn under, the value
//! `qclab --help` and `qclab compile` print.
//!
//! `error.kind`/`error.code` mirror the CLI exit-code contract
//! (2 usage, 3 io, 4 qasm-parse, 5 simulation, 6 resource, 7
//! timeout/cancelled): a bad job resolves with an error line — it never
//! kills the server or any other tenant's job.

use crate::{counts_json, io_err, json_escape, resource_err, EngineOpts, Output};
use qclab_core::program::{plan_cache_capacity, plan_cache_stats, RETAINED_BYTES_CAP};
use qclab_core::recent::RecencyRing;
use qclab_core::service::{
    ErrorKind, JobHandle, JobOutput, JobResult, JobSpec, Scheduler, ServiceConfig,
};
use qclab_core::sim::trajectory::SEED_CONTRACT;
use qclab_core::{QCircuit, QclabError};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The deployment settings of `serve`; an unset one takes
/// [`ServiceConfig::default`]'s value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeOpts {
    pub workers: Option<u64>,
    pub queue_depth: Option<u64>,
    pub global_mem_mib: Option<u64>,
    pub socket: Option<String>,
}

impl ServeOpts {
    fn service_config(&self, engine: &EngineOpts) -> ServiceConfig {
        let mut config = ServiceConfig::default();
        // the engine flags, under the default's serial policy
        let allow_parallel = config.base.kernel.allow_parallel;
        config.base = engine.trajectory();
        config.base.kernel.allow_parallel = allow_parallel;
        if let Some(n) = self.workers {
            config.workers = n as usize;
        }
        if let Some(n) = self.queue_depth {
            config.queue_depth = n as usize;
        }
        if let Some(mib) = self.global_mem_mib {
            config.global_state_bytes = mib.saturating_mul(1 << 20);
        }
        config
    }
}

// ---------------------------------------------------------------------
// minimal JSON
// ---------------------------------------------------------------------

/// A parsed JSON value. Hand-rolled: the job schema is a flat object of
/// strings and integers, and the workspace vendors no JSON crate.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Parses one JSON document (the whole input must be consumed).
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        src,
        b: src.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing characters at byte {}", p.i));
    }
    Ok(v)
}

struct JsonParser<'a> {
    src: &'a str,
    /// `src` as bytes; `i` indexes both.
    b: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // everything up to the next delimiter is copied in one step:
            // `"` and `\` are ASCII, so the run ends on a char boundary
            // of `src`, and it starts on one (after an ASCII delimiter
            // or a complete escape) — decoding is linear in the line
            let run = self.b[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or("unterminated string")?;
            let text = self
                .src
                .get(self.i..self.i + run)
                .ok_or("invalid UTF-8 in string")?;
            out.push_str(text);
            self.i += run + 1;
            if self.b[self.i - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.i += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .b
                        .get(self.i..self.i + 4)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                        16,
                    )
                    .map_err(|_| "bad \\u escape")?;
                    self.i += 4;
                    // surrogate pairs are out of scope for the
                    // job schema; reject rather than mis-decode
                    let c = char::from_u32(code)
                        .ok_or(format!("\\u{code:04x} is not a scalar value"))?;
                    out.push(c);
                }
                c => return Err(format!("bad escape '\\{}'", c as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or(format!("invalid number at byte {start}"))
    }
}

// ---------------------------------------------------------------------
// result serialization
// ---------------------------------------------------------------------

/// The success-result JSON object (also the `partial` payload shape).
fn output_json(o: &JobOutput) -> String {
    let counts = counts_json(&o.counts);
    let t = &o.telemetry;
    // `coalesced` is a constant: every job runs alone. The key stays, as
    // an integer, because clients of the wire decode it as one.
    format!(
        "{{\"id\":\"{}\",\"ok\":true,\"shots\":{},\"requested_shots\":{},\
         \"path\":\"{}\",\"injected_errors\":{},\"counts\":{{{counts}}},\
         \"telemetry\":{{\"queue_ms\":{:.3},\"run_ms\":{:.3},\"wall_ms\":{:.3},\
         \"dedup_hit\":{},\"coalesced\":1,\"prep_hit\":{},\"seed_contract\":{SEED_CONTRACT}}}}}",
        json_escape(&o.id),
        o.shots,
        o.requested_shots,
        json_escape(&o.path),
        o.injected_errors,
        t.queue_ms,
        t.run_ms,
        t.wall_ms,
        t.dedup_hit,
        t.prep_hit,
    )
}

/// One response line (no trailing newline) for a resolved job.
fn result_line(result: &JobResult) -> String {
    match result {
        Ok(o) => output_json(o),
        Err(e) => error_line(&e.id, e.kind, &e.message, e.partial.as_ref()),
    }
}

/// One error response line; `error.kind`/`error.code` follow the CLI
/// exit-code contract.
fn error_line(id: &str, kind: ErrorKind, message: &str, partial: Option<&JobOutput>) -> String {
    let partial = match partial {
        Some(p) => output_json(p),
        None => "null".into(),
    };
    format!(
        "{{\"id\":\"{}\",\"ok\":false,\"error\":{{\"kind\":\"{}\",\"code\":{},\
         \"message\":\"{}\"}},\"partial\":{partial}}}",
        json_escape(id),
        kind.wire_name(),
        kind.exit_code(),
        json_escape(message),
    )
}

// ---------------------------------------------------------------------
// the serve loop
// ---------------------------------------------------------------------

/// The circuits of the source texts submitted more than once, least
/// recently used first: a resubmitted text — byte for byte the same —
/// is not lexed, parsed and imported again. Like the plan cache, the
/// memo keeps a circuit only when its text comes back: a text seen for
/// the first time is parsed and handed out, and only its hash is
/// remembered (`seen`, as many as the plan cache's capacity); seen
/// again, it is parsed once more and kept. Kept circuits are bounded in
/// entries (the plan cache's capacity: a circuit whose plan is gone has
/// little use for its parse) and in text bytes ([`RETAINED_BYTES_CAP`]),
/// so the memo does not grow with the traffic, and are keyed by the full
/// text, never by a hash of it — a collision in `seen` only keeps a
/// circuit one sighting early.
struct SourceMemo {
    kept: RecencyRing<String, QCircuit>,
    seen: RecencyRing<u64, ()>,
    text_bytes: usize,
    hits: u64,
    misses: u64,
}

static SOURCE_MEMO: Mutex<SourceMemo> = Mutex::new(SourceMemo {
    kept: RecencyRing::new(),
    seen: RecencyRing::new(),
    text_bytes: 0,
    hits: 0,
    misses: 0,
});

fn lock_source_memo() -> MutexGuard<'static, SourceMemo> {
    // only ring bookkeeping runs under the lock (parsing does not), so
    // a poisoned guard still holds a consistent memo
    SOURCE_MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`qclab_qasm::from_qasm`] through the [`SourceMemo`].
fn parse_source(qasm: &str) -> Result<QCircuit, QclabError> {
    let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(qasm);
    let recurring = {
        let mut memo = lock_source_memo();
        if let Some(circuit) = memo.kept.touch(qasm) {
            let circuit = circuit.clone();
            memo.hits += 1;
            return Ok(circuit);
        }
        memo.misses += 1;
        memo.seen.remove(&hash).is_some()
    };
    let circuit = qclab_qasm::from_qasm(qasm)?;
    // hashed here, once: every clone handed out carries the fingerprint
    circuit.fingerprint();
    let mut memo = lock_source_memo();
    if !recurring {
        memo.seen.insert(hash, ());
        memo.seen.evict_down_to(plan_cache_capacity(), |_| true);
    } else if qasm.len() <= RETAINED_BYTES_CAP {
        memo.text_bytes += qasm.len();
        memo.kept.insert(qasm.to_string(), circuit.clone());
        while memo.kept.len() > plan_cache_capacity() || memo.text_bytes > RETAINED_BYTES_CAP {
            let (text, _) = memo
                .kept
                .pop_oldest()
                .expect("the bytes are the kept texts'");
            memo.text_bytes -= text.len();
        }
    }
    Ok(circuit)
}

/// Decoded request line.
#[derive(Debug)]
enum Request {
    Submit(JobSpec),
    Cancel(String),
}

fn decode_request(line: &str) -> Result<Request, (String, ErrorKind, String)> {
    let fail = |id: &str, kind, msg: &str| (id.to_string(), kind, msg.to_string());
    let usage = |id: &str, msg: &str| fail(id, ErrorKind::Usage, msg);
    let doc = match parse_json(line) {
        Ok(d) => d,
        Err(e) => return Err(fail("", ErrorKind::Io, &format!("bad JSON job line: {e}"))),
    };
    // `get` reads the first of a repeated key; refuse the line rather
    // than let one of two values win silently
    if let Json::Obj(fields) = &doc {
        let mut seen = HashSet::new();
        if let Some((key, _)) = fields.iter().find(|(k, _)| !seen.insert(k.as_str())) {
            let id = match key.as_str() {
                "id" => "",
                _ => doc.get("id").and_then(Json::as_str).unwrap_or(""),
            };
            return Err(usage(id, &format!("key '{key}' given more than once")));
        }
    }
    if let Some(target) = doc.get("cancel") {
        return match target.as_str() {
            Some(id) => Ok(Request::Cancel(id.to_string())),
            None => Err(usage("", "'cancel' must name a job id")),
        };
    }
    let id = match doc.get("id").and_then(Json::as_str) {
        Some(id) if !id.is_empty() => id,
        _ => return Err(usage("", "job needs a non-empty string 'id'")),
    };
    let text = |key: &str| doc.get(key).and_then(Json::as_str);
    let file_text;
    let qasm = match (text("qasm"), text("file")) {
        (Some(src), None) => src,
        (None, Some(path)) => match std::fs::read_to_string(path) {
            Ok(src) => {
                file_text = src;
                &file_text
            }
            Err(e) => return Err(fail(id, ErrorKind::Io, &format!("cannot read {path}: {e}"))),
        },
        (Some(_), Some(_)) => return Err(usage(id, "give either 'qasm' or 'file', not both")),
        (None, None) => {
            return Err(usage(
                id,
                "job needs 'qasm' (inline source) or 'file' (path)",
            ))
        }
    };
    let circuit = match parse_source(qasm) {
        Ok(c) => c,
        Err(e) => return Err(fail(id, ErrorKind::classify(&e), &e.to_string())),
    };
    // an integer field: absent, or a non-negative integer
    let uint = |key: &str| match doc.get(key).map(Json::as_u64) {
        Some(None) => Err(usage(
            id,
            &format!("'{key}' must be a non-negative integer"),
        )),
        field => Ok(field.flatten()),
    };
    let Some(shots) = uint("shots")? else {
        return Err(usage(id, "job needs integer 'shots'"));
    };
    let seed = uint("seed")?.unwrap_or(1);
    let mut spec = JobSpec::new(id.to_string(), circuit, shots, seed);
    spec.timeout_ms = uint("timeout_ms")?;
    Ok(Request::Submit(spec))
}

/// Reads request lines from `input`, submits jobs, and streams results
/// to `write` as they resolve. Shared by stdin mode and each socket
/// connection. Returns the accepted and refused job counts once the
/// input has ended and every accepted job has had its line written — or,
/// before reading a line, the OS's refusal of the delivery thread.
fn handle_stream(
    sched: &Scheduler,
    input: impl Read,
    write: impl Write + Send,
) -> std::io::Result<(u64, u64)> {
    // jobs whose result line is not out yet, keyed by id
    let pending: Mutex<HashMap<String, JobHandle>> = Mutex::new(HashMap::new());
    let write = Mutex::new(write);
    // each line flushes: tenants block on results, not buffers. A
    // client that has gone away is not an error of the server.
    let send = |line: String| {
        let mut w = write.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(w, "{line}").and_then(|_| w.flush());
    };
    let lock_pending = || pending.lock().unwrap_or_else(PoisonError::into_inner);
    // every accepted job holds a clone of `tx`: the channel closes when
    // the input has ended and the last of them has resolved
    let (tx, rx) = channel::<JobResult>();
    let mut accepted = 0u64;
    let mut failed = 0u64;
    std::thread::scope(|scope| {
        let deliver = || {
            for result in rx {
                let id = match &result {
                    Ok(o) => &o.id,
                    Err(e) => &e.id,
                };
                // off the map first: the id is free again once its line
                // is out
                lock_pending().remove(id);
                send(result_line(&result));
            }
        };
        std::thread::Builder::new()
            .spawn_scoped(scope, deliver)
            .map_err(|e| {
                std::io::Error::new(e.kind(), format!("cannot start a delivery thread: {e}"))
            })?;
        for line in BufReader::new(input).lines() {
            let line = match line {
                Ok(l) => l,
                Err(_) => break,
            };
            if line.trim().is_empty() {
                continue;
            }
            match decode_request(&line) {
                Err((id, kind, msg)) => {
                    failed += 1;
                    send(error_line(&id, kind, &msg, None));
                }
                Ok(Request::Cancel(id)) => match lock_pending().get(&id) {
                    Some(handle) => handle.cancel(),
                    None => send(error_line(
                        &id,
                        ErrorKind::Usage,
                        "cancel target is not a pending job",
                        None,
                    )),
                },
                Ok(Request::Submit(spec)) => {
                    // held across the submit: the job cannot resolve and
                    // look for its entry before the entry is there
                    let mut map = lock_pending();
                    if map.contains_key(&spec.id) {
                        failed += 1;
                        send(error_line(
                            &spec.id,
                            ErrorKind::Usage,
                            "a job with this id is already pending",
                            None,
                        ));
                        continue;
                    }
                    match sched.submit_to(spec, tx.clone()) {
                        Ok(handle) => {
                            accepted += 1;
                            map.insert(handle.id.clone(), handle);
                        }
                        Err(e) => {
                            failed += 1;
                            send(result_line(&Err(e)));
                        }
                    }
                }
            }
        }
        drop(tx);
        Ok::<_, std::io::Error>(())
    })?;
    debug_assert!(
        lock_pending().is_empty(),
        "every accepted job's line has been written"
    );
    Ok((accepted, failed))
}

/// Answers a connection the server cannot serve — the OS refused it a
/// thread — with one `resource` error line. Dropping it then closes it.
fn refuse(mut conn: &std::os::unix::net::UnixStream, message: &str) {
    let line = error_line("", ErrorKind::Resource, message, None);
    let _ = writeln!(conn, "{line}");
}

/// Runs `qclab serve`. Stdin mode processes jobs until EOF and returns
/// a human-readable summary (stderr-style, returned for main to print);
/// socket mode accepts connections until the process is terminated.
pub fn run_serve(opts: &ServeOpts, engine: &EngineOpts) -> Output {
    let sched =
        Scheduler::try_new(opts.service_config(engine)).map_err(|e| resource_err(e.to_string()))?;
    match &opts.socket {
        None => {
            let stdin = std::io::stdin();
            let (accepted, failed) = handle_stream(&sched, stdin.lock(), std::io::stdout())
                .map_err(|e| resource_err(e.to_string()))?;
            let stats = sched.stats();
            sched.shutdown();
            let plans = plan_cache_stats();
            let memo = lock_source_memo();
            Ok(format!(
                "serve: {accepted} job(s) accepted, {failed} refused; {} completed, {} cancelled, \
                 {} dedup hit(s)\n\
                 serve: retained preparation {} hit(s), {} miss(es), {} byte(s) held; \
                 source memo {} hit(s), {} miss(es)\n",
                stats.completed,
                stats.cancelled,
                stats.dedup_hits,
                plans.prep_hits,
                plans.prep_misses,
                plans.prep_bytes,
                memo.hits,
                memo.misses
            ))
        }
        Some(path) => {
            use std::os::unix::net::UnixListener;
            // a stale socket file from a previous run blocks bind
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)
                .map_err(|e| io_err(format!("cannot bind socket {path}: {e}")))?;
            let sched = Arc::new(sched);
            eprintln!("qclab serve: listening on {path}");
            for conn in listener.incoming() {
                let conn = conn.map_err(|e| io_err(format!("accept failed on {path}: {e}")))?;
                // shared with its thread, so a refused thread still
                // leaves the connection here to answer
                let conn = Arc::new(conn);
                let (sched, mine) = (Arc::clone(&sched), Arc::clone(&conn));
                let started = std::thread::Builder::new().spawn(move || {
                    if let Err(e) = handle_stream(&sched, &*mine, &*mine) {
                        refuse(&mine, &e.to_string());
                    }
                });
                if let Err(e) = started {
                    refuse(&conn, &format!("cannot start a connection thread: {e}"));
                }
            }
            unreachable!("incoming() iterates forever");
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // a test may let a refused thread panic
mod tests {
    use super::*;
    use qclab_core::sim::trajectory::run_trajectories;
    use qclab_core::sim::trajectory::TrajectoryConfig;
    use std::collections::BTreeMap;
    use std::io::Cursor;
    use std::sync::Condvar;
    use std::time::Duration;

    #[test]
    fn json_parser_round_trips_job_lines() {
        let doc = parse_json(
            r#"{"id":"j1","qasm":"OPENQASM 2.0;\nqreg q[1];","shots":100,"seed":7,"timeout_ms":null}"#,
        )
        .unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("j1"));
        assert_eq!(
            doc.get("qasm").unwrap().as_str(),
            Some("OPENQASM 2.0;\nqreg q[1];")
        );
        assert_eq!(doc.get("shots").unwrap().as_u64(), Some(100));
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("timeout_ms"), Some(&Json::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn json_parser_rejects_malformed_lines() {
        assert!(parse_json("{\"id\":").is_err());
        assert!(parse_json("{\"id\" \"x\"}").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{\"n\":1e}").is_err());
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let doc = parse_json(r#"{"a":[1,2,{"b":"qA\"\n"}],"c":true,"d":-2.5}"#).unwrap();
        let Json::Arr(items) = doc.get("a").unwrap() else {
            panic!("expected array");
        };
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("b").unwrap().as_str(), Some("qA\"\n"));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Num(-2.5)));
        assert_eq!(doc.get("d").unwrap().as_u64(), None);
    }

    /// The decoder this file shipped before `string()` copied whole
    /// runs, one scalar at a time (minus its re-validation of the rest
    /// of the line per scalar, which made it quadratic and could never
    /// fail on a `&str`). Kept as the behavioural reference — same
    /// values, same errors, same stopping point.
    fn string_reference(src: &str) -> Result<(String, usize), String> {
        let b = src.as_bytes();
        if b.first() != Some(&b'"') {
            return Err("expected '\"' at byte 0".into());
        }
        let mut i = 1;
        let mut out = String::new();
        loop {
            match b.get(i).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok((out, i + 1)),
                Some(b'\\') => {
                    i += 1;
                    let esc = b.get(i).copied().ok_or("unterminated escape")?;
                    i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = b.get(i..i + 4).ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            i += 4;
                            let c = char::from_u32(code)
                                .ok_or(format!("\\u{code:04x} is not a scalar value"))?;
                            out.push(c);
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(_) => {
                    let c = src
                        .get(i..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("invalid UTF-8 in string")?;
                    out.push(c);
                    i += c.len_utf8();
                }
            }
        }
    }

    #[test]
    fn string_decoding_matches_the_scalar_at_a_time_reference() {
        let cases = [
            // plain text, empty, text after the closing quote
            r#""""#,
            r#""plain ascii""#,
            r#""stops here" and not here"#,
            // every escape, alone and packed together
            r#""\"""#,
            r#""\\""#,
            r#""\/""#,
            r#""\b\f\n\r\t""#,
            r#""a\"b\\c\/d\be\ff\ng\rh\ti""#,
            // \u: BMP scalars, case, a leading sign `from_str_radix` lets
            // through, and the rejected lone surrogates
            r#""\u0041\u00e9\u20AC\uffff""#,
            r#""\u+041""#,
            r#""\ud800""#,
            r#""\uDFFF tail""#,
            r#""\u12""#,
            r#""\u12"#,
            r#""\uzzzz""#,
            r#""\u00é0""#,
            r#""\u000é""#,
            // 2-, 3- and 4-byte scalars next to escapes and delimiters
            "\"é\"",
            "\"\\né\\n€\\t𝄞\\\\\"",
            "\"𝄞\\u0041€\\\"é\"",
            "\"é€𝄞",
            // raw control characters pass through, as they always did
            "\"line\nbreak\ttab\"",
            // unterminated string / escape, bad escapes
            r#""no end"#,
            r#""ends in a backslash\"#,
            r#""\x41""#,
            r#""\ ""#,
            "\"\\é\"",
            "\"\\𝄞\"",
            // not a string at all
            "nope",
            "",
        ];
        for src in cases {
            let mut p = JsonParser {
                src,
                b: src.as_bytes(),
                i: 0,
            };
            let got = p.string().map(|s| (s, p.i));
            assert_eq!(got, string_reference(src), "input {src:?}");
        }
    }

    #[test]
    fn a_two_mebibyte_string_decodes_in_linear_time() {
        // a circuit-shaped payload: short lines, an escape at the end of
        // each, a few non-ASCII scalars. The scalar-at-a-time decoder
        // re-validated the remaining line per character — ~2·10^12 byte
        // visits here, minutes of work.
        let mut text = String::from("{\"id\":\"big\",\"qasm\":\"");
        let mut expected = String::new();
        while expected.len() < 2 << 20 {
            text.push_str("rz(0.123456) q[3]; // θ\\n");
            expected.push_str("rz(0.123456) q[3]; // θ\n");
        }
        text.push_str("\"}");
        let t = std::time::Instant::now();
        let doc = parse_json(&text).unwrap();
        let elapsed = t.elapsed();
        assert_eq!(doc.get("qasm").unwrap().as_str(), Some(expected.as_str()));
        assert!(
            elapsed < Duration::from_secs(1),
            "decoding 2 MiB took {elapsed:?}"
        );
    }

    #[test]
    fn source_memo_returns_the_parsed_circuit_and_stays_bounded() {
        let text = |tag: usize| {
            format!(
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
                 rz(0.{tag:05}) q[0];\ncx q[0], q[1];\nmeasure q -> c;\n// memo test\n"
            )
        };
        let kept = |text: &str| lock_source_memo().kept.get(text).is_some();
        // seen once: parsed, not kept
        let first = parse_source(&text(0)).unwrap();
        assert!(!kept(&text(0)), "a text seen once must not be kept");
        // seen twice: parsed again, and kept
        let misses = lock_source_memo().misses;
        let again = parse_source(&text(0)).unwrap();
        assert!(
            lock_source_memo().misses > misses,
            "the second sighting parses"
        );
        assert!(kept(&text(0)), "a text seen twice must be kept");
        // after that it hits
        let hits = lock_source_memo().hits;
        let third = parse_source(&text(0)).unwrap();
        assert!(lock_source_memo().hits > hits, "a kept text must hit");
        assert_eq!(first, again);
        assert_eq!(first, third);
        assert_eq!(first, qclab_qasm::from_qasm(&text(0)).unwrap());
        // far more distinct texts than the memo may hold, each twice
        for tag in 1..=3 * plan_cache_capacity() {
            parse_source(&text(tag)).unwrap();
            parse_source(&text(tag)).unwrap();
            let memo = lock_source_memo();
            assert!(memo.kept.len() <= plan_cache_capacity());
            assert!(memo.seen.len() <= plan_cache_capacity());
            assert!(memo.text_bytes <= RETAINED_BYTES_CAP);
            let held: usize = memo.kept.iter().map(|(t, _)| t.len()).sum();
            assert_eq!(held, memo.text_bytes);
        }
        // a text over the byte cap is parsed, never held
        let mut huge = text(0);
        while huge.len() <= RETAINED_BYTES_CAP {
            huge.push_str("// padding padding padding padding padding padding padding\n");
        }
        assert_eq!(parse_source(&huge).unwrap(), first);
        assert_eq!(parse_source(&huge).unwrap(), first);
        assert!(!kept(&huge));
        // failures are reported as before and not remembered
        assert!(parse_source("this is not qasm").is_err());
        assert!(parse_source("this is not qasm").is_err());
    }

    #[test]
    fn result_lines_encode_every_field() {
        let output = JobOutput {
            id: "j\"1".into(),
            counts: BTreeMap::from([("00".to_string(), 3), ("11".to_string(), 1)]),
            shots: 4,
            requested_shots: 5,
            path: "alias-sampled (prefix 2 ops)".into(),
            injected_errors: 0,
            telemetry: qclab_core::service::JobTelemetry {
                queue_ms: 0.25,
                run_ms: 1.5,
                wall_ms: 1.75,
                dedup_hit: true,
                prep_hit: false,
            },
        };
        let line = output_json(&output);
        assert_eq!(
            line,
            format!(
                "{{\"id\":\"j\\\"1\",\"ok\":true,\"shots\":4,\"requested_shots\":5,\
                 \"path\":\"alias-sampled (prefix 2 ops)\",\"injected_errors\":0,\
                 \"counts\":{{\"00\":3,\"11\":1}},\"telemetry\":{{\"queue_ms\":0.250,\
                 \"run_ms\":1.500,\"wall_ms\":1.750,\"dedup_hit\":true,\"coalesced\":1,\
                 \"prep_hit\":false,\"seed_contract\":{SEED_CONTRACT}}}}}"
            )
        );
        let doc = parse_json(&line).unwrap();
        let telemetry = doc.get("telemetry").unwrap();
        assert_eq!(
            telemetry.get("seed_contract").and_then(Json::as_u64),
            Some(u64::from(SEED_CONTRACT))
        );
        // a partial result rides in an error line with the same encoding
        let err = error_line("j", ErrorKind::Timeout, "stopped", Some(&output));
        assert!(err.ends_with(&format!(",\"partial\":{line}}}")), "{err}");
    }

    #[test]
    fn decode_request_classifies_errors_by_kind() {
        let bad_json = decode_request("{nope").unwrap_err();
        assert_eq!(bad_json.1, ErrorKind::Io);
        let no_id = decode_request(r#"{"qasm":"x","shots":1}"#).unwrap_err();
        assert_eq!(no_id.1, ErrorKind::Usage);
        let bad_qasm =
            decode_request(r#"{"id":"j","qasm":"this is not qasm","shots":1}"#).unwrap_err();
        assert_eq!(bad_qasm.1, ErrorKind::QasmParse);
        assert_eq!(bad_qasm.0, "j");
        let both = decode_request(r#"{"id":"j","qasm":"x","file":"y","shots":1}"#).unwrap_err();
        assert_eq!(both.1, ErrorKind::Usage);
        // a repeated key is refused, never read as its first value
        let dup =
            decode_request(r#"{"id":"dup","file":"bell.qasm","shots":2,"shots":3}"#).unwrap_err();
        assert_eq!((dup.0.as_str(), dup.1), ("dup", ErrorKind::Usage));
        assert!(dup.2.contains("'shots'"), "{}", dup.2);
        let dup_id = decode_request(r#"{"id":"a","id":"b","qasm":"x","shots":1}"#).unwrap_err();
        assert_eq!((dup_id.0.as_str(), dup_id.1), ("", ErrorKind::Usage));
        let dup_cancel = decode_request(r#"{"cancel":"a","cancel":"b"}"#).unwrap_err();
        assert_eq!(dup_cancel.1, ErrorKind::Usage);
    }

    #[test]
    fn decode_request_accepts_a_job() {
        let line = r#"{"id":"bell","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;","shots":64,"seed":3,"timeout_ms":500}"#;
        match decode_request(line).unwrap() {
            Request::Submit(spec) => {
                assert_eq!(spec.id, "bell");
                assert_eq!(spec.shots, 64);
                assert_eq!(spec.seed, 3);
                assert_eq!(spec.timeout_ms, Some(500));
                assert_eq!(spec.circuit.nb_qubits(), 2);
            }
            Request::Cancel(_) => panic!("expected a submit"),
        }
        match decode_request(r#"{"cancel":"bell"}"#).unwrap() {
            Request::Cancel(id) => assert_eq!(id, "bell"),
            Request::Submit(_) => panic!("expected a cancel"),
        }
    }

    /// A connection's output that the test can read while the
    /// connection is still being served.
    #[derive(Clone, Default)]
    struct SharedOut(Arc<(Mutex<Vec<u8>>, Condvar)>);

    impl Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 .0.lock().unwrap().extend_from_slice(buf);
            self.0 .1.notify_all();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// An input with nothing to say that ends — so a `chain` moves on
    /// to what follows — once `marker` has appeared in the output: the
    /// client that reads a reply before it writes again.
    struct Until(SharedOut, &'static str);

    impl Read for Until {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            let (buf, grew) = &*self.0 .0;
            let seen =
                |out: &mut Vec<u8>| !out.windows(self.1.len()).any(|w| w == self.1.as_bytes());
            drop(grew.wait_while(buf.lock().unwrap(), seen).unwrap());
            Ok(0)
        }
    }

    /// What the soak test's requests must come back as.
    #[derive(Default)]
    struct Expected {
        /// Per id: (job results, refusals) the output must hold.
        lines: HashMap<String, (usize, usize)>,
        /// Every job that must complete: (id, source, shots, seed).
        good: Vec<(String, String, u64, u64)>,
        /// Submissions the reader must turn away.
        refused_submits: u64,
    }

    impl Expected {
        fn result(&mut self, id: &str) {
            self.lines.entry(id.to_string()).or_default().0 += 1;
        }
        fn refusal(&mut self, id: &str) {
            self.lines.entry(id.to_string()).or_default().1 += 1;
        }
        fn refused_submit(&mut self, id: &str) {
            self.refusal(id);
            self.refused_submits += 1;
        }
        fn completes(&mut self, id: &str, qasm: &str, seed: u64) {
            self.result(id);
            self.good
                .push((id.to_string(), qasm.to_string(), 200, seed));
        }
        fn results(&self) -> usize {
            self.lines.values().map(|e| e.0).sum()
        }
    }

    fn job_line(id: &str, qasm: &str, shots: u64, seed: u64, extra: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"qasm\":\"{}\",\"shots\":{shots},\"seed\":{seed}{extra}}}\n",
            json_escape(qasm)
        )
    }

    fn cancel_line(id: &str) -> String {
        format!("{{\"cancel\":\"{id}\"}}\n")
    }

    #[test]
    fn a_stream_of_interleaved_requests_gets_exactly_one_line_each() {
        let opts = ServeOpts {
            workers: Some(2),
            queue_depth: Some(4096),
            ..ServeOpts::default()
        };
        let config = opts.service_config(&EngineOpts::default());
        let base = config.base.clone();
        let sched = Scheduler::new(config);

        let header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n";
        let sampled = |angle: f64| {
            format!("{header}h q[0];\nry({angle}) q[1];\ncx q[0], q[2];\nmeasure q -> c;\n")
        };
        // a measurement in mid-circuit: every shot is evolved, so with
        // this many of them the job runs until it is cancelled
        let endless = format!(
            "{header}h q[0];\nmeasure q[0] -> c[0];\ncx q[0], q[1];\nmeasure q[1] -> c[1];\n"
        );
        const ENDLESS_SHOTS: u64 = 1_000_000_000_000;
        let mut want = Expected::default();

        let mut first = job_line("slow-a", &endless, ENDLESS_SHOTS, 1, "");
        want.result("slow-a");
        for i in 0..420u64 {
            let qasm = if i % 5 < 3 {
                sampled(0.3 + 0.2 * (i % 3) as f64) // hot: resubmitted
            } else {
                sampled(1.0 + i as f64 * 1e-3) // one-off
            };
            let id = format!("g{i}");
            first += &job_line(&id, &qasm, 200, 1000 + i, "");
            want.completes(&id, &qasm, 1000 + i);
            if i % 7 == 0 {
                // an id that is pending for certain
                first += &job_line("slow-a", &sampled(0.3), 10, i, "");
                want.refused_submit("slow-a");
            }
            if i % 11 == 0 {
                first += "{\"id\":\"broken\",\"qasm\":\n";
                want.refused_submit("");
            }
            if i % 13 == 0 {
                let id = format!("bad{i}");
                first += &job_line(
                    &id,
                    "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n",
                    10,
                    1,
                    "",
                );
                want.refused_submit(&id);
            }
            if i % 17 == 0 {
                let id = format!("nobody{i}");
                first += &cancel_line(&id);
                want.refusal(&id);
            }
            if i % 19 == 0 {
                let id = format!("late{i}");
                first += &job_line(&id, &sampled(0.5), 200, i, ",\"timeout_ms\":0");
                want.result(&id);
            }
        }
        // two endless jobs on two workers: what follows them stays
        // queued, for certain, until they are cancelled
        first += &job_line("slow-b", &endless, ENDLESS_SHOTS, 2, "");
        want.result("slow-b");
        for q in ["q1", "q2", "q3"] {
            first += &job_line(q, &sampled(0.7), 200, 5, "");
        }
        first += &cancel_line("q1");
        want.result("q1");

        // … and once the cancellation's line is out, the id is free
        let mut second = job_line("q1", &sampled(0.7), 200, 6, "");
        want.completes("q1", &sampled(0.7), 6);
        second += &job_line("q2", &sampled(0.7), 200, 7, "");
        want.refused_submit("q2");
        want.completes("q2", &sampled(0.7), 5);
        want.completes("q3", &sampled(0.7), 5);
        second += &cancel_line("slow-b");
        second += &cancel_line("slow-a");
        // the input ends with these still queued
        for i in 0..60u64 {
            let id = format!("tail{i}");
            second += &job_line(&id, &sampled(0.9), 200, i, "");
            want.completes(&id, &sampled(0.9), i);
        }
        let requests = first.lines().count() + second.lines().count();
        assert!(requests >= 500, "{requests} request lines");

        let out = SharedOut::default();
        let input = Cursor::new(first)
            .chain(Until(out.clone(), "\"id\":\"q1\""))
            .chain(Cursor::new(second));
        // a hang is a failure, not a stuck test run
        let (done_tx, done_rx) = channel();
        std::thread::scope(|scope| {
            let (sched, write) = (&sched, out.clone());
            scope.spawn(move || done_tx.send(handle_stream(sched, input, write)));
            let (accepted, failed) = done_rx
                .recv_timeout(Duration::from_secs(300))
                .expect("handle_stream returns once its input has ended")
                .expect("the delivery thread starts");
            assert_eq!(accepted as usize, want.results());
            assert_eq!(failed, want.refused_submits);
        });

        // tally the output per id
        let text = String::from_utf8(out.0 .0.lock().unwrap().clone()).unwrap();
        let mut seen: HashMap<String, (usize, usize)> = HashMap::new();
        let mut completed: HashMap<String, Vec<BTreeMap<String, u64>>> = HashMap::new();
        let (mut timed_out, mut cancelled) = (0u64, 0u64);
        for line in text.lines() {
            let doc = parse_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let id = doc.get("id").and_then(Json::as_str).expect("id");
            let tally = seen.entry(id.to_string()).or_default();
            match doc.get("error").and_then(|e| e.get("kind")?.as_str()) {
                None => {
                    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
                    let Some(Json::Obj(counts)) = doc.get("counts") else {
                        panic!("no counts: {line}");
                    };
                    let counts = counts
                        .iter()
                        .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
                        .collect();
                    completed.entry(id.to_string()).or_default().push(counts);
                    tally.0 += 1;
                }
                Some("cancelled") => {
                    cancelled += 1;
                    tally.0 += 1;
                }
                Some("timeout") => {
                    timed_out += 1;
                    tally.0 += 1;
                }
                // usage, io, qasm-parse: the reader's refusals
                Some(_) => tally.1 += 1,
            }
        }
        assert_eq!(seen, want.lines);
        assert_eq!(cancelled, 3, "slow-a, slow-b and the first q1");

        // every completed job drew the bits of a standalone run
        for (id, qasm, shots, seed) in &want.good {
            let config = TrajectoryConfig {
                seed: *seed,
                shots: *shots,
                ..base.clone()
            };
            let alone = run_trajectories(&qclab_qasm::from_qasm(qasm).unwrap(), &config).unwrap();
            assert_eq!(completed[id], [alone.counts().clone()], "job {id}");
        }
        assert_eq!(completed.len(), want.good.len());

        let stats = sched.stats();
        assert_eq!(stats.submitted as usize, want.results());
        assert_eq!(
            stats.submitted,
            stats.completed + stats.cancelled + timed_out
        );
        assert_eq!(stats.cancelled, cancelled);
        assert_eq!(stats.rejected, 0);
        sched.shutdown();
    }
}
