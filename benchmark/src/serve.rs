//! Client side of one `qclab serve` child: newline-delimited JSON jobs
//! on its stdin, result lines from its stdout, a bounded number in
//! flight, all from one load-generator thread.

use crate::json;
use crate::sys::{self, Reaped};
use std::io::{BufRead, BufReader, Error, ErrorKind, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// One job: everything of its request line but the id.
pub struct Job {
    /// `"qasm":"…","shots":N,"seed":S}` — the tail of the request line.
    tail: String,
    pub shots: u64,
}

impl Job {
    pub fn new(qasm: &str, shots: u64, seed: u64) -> Job {
        let mut tail = String::with_capacity(qasm.len() + 64);
        tail.push_str("\"qasm\":");
        json::escape_into(qasm, &mut tail);
        tail.push_str(&format!(",\"shots\":{shots},\"seed\":{seed}}}"));
        Job { tail, shots }
    }
}

/// The reply to one job.
pub struct Reply {
    pub line: String,
    pub sent: Instant,
    pub received: Instant,
}

impl Reply {
    pub fn latency_ms(&self) -> f64 {
        (self.received - self.sent).as_secs_f64() * 1e3
    }
}

/// The replies of one batch, indexed like the jobs sent.
pub struct Batch {
    pub replies: Vec<Reply>,
    pub started: Instant,
    pub finished: Instant,
    pub request_bytes: u64,
    pub response_bytes: u64,
}

impl Batch {
    pub fn wall_ms(&self) -> f64 {
        (self.finished - self.started).as_secs_f64() * 1e3
    }
}

pub struct Server {
    /// `None` once the server has been reaped.
    child: Option<Child>,
    /// `None` once its input has been closed.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    next_id: u64,
}

fn protocol(msg: String) -> Error {
    Error::new(ErrorKind::InvalidData, msg)
}

impl Server {
    /// Starts `qclab serve` with its default flags.
    pub fn spawn(qclab: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(qclab)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Server {
            child: Some(child),
            stdin: Some(stdin),
            stdout,
            next_id: 0,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("the server is running").id()
    }

    /// Sends `jobs` in order, keeping at most `window` in flight: the
    /// next job goes out when a result comes back (closed loop).
    /// Results arrive in completion order and are matched by id. A
    /// result that cannot be matched, or a server that goes away, is
    /// an error of the run, not a failed operation.
    pub fn run(&mut self, jobs: &[&Job], window: usize) -> std::io::Result<Batch> {
        let stdin = self.stdin.as_mut().expect("the server is running");
        let base = self.next_id;
        self.next_id += jobs.len() as u64;
        let mut sent_at: Vec<Option<Instant>> = vec![None; jobs.len()];
        let mut replies: Vec<Option<Reply>> = (0..jobs.len()).map(|_| None).collect();
        let mut request_bytes = 0u64;
        let mut response_bytes = 0u64;
        let mut next = 0;
        let mut done = 0;
        let started = Instant::now();
        let mut line = String::new();
        while done < jobs.len() {
            while next < jobs.len() && next - done < window {
                let request = format!("{{\"id\":\"{}\",{}\n", base + next as u64, jobs[next].tail);
                sent_at[next] = Some(Instant::now());
                stdin.write_all(request.as_bytes())?;
                request_bytes += request.len() as u64;
                next += 1;
            }
            stdin.flush()?;
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(protocol("qclab serve closed its output".into()));
            }
            let received = Instant::now();
            response_bytes += line.len() as u64;
            let index = reply_id(&line)
                .and_then(|id| id.checked_sub(base))
                .map(|i| i as usize)
                .filter(|&i| i < next && replies[i].is_none())
                .ok_or_else(|| protocol(format!("unmatched serve result: {}", line.trim_end())))?;
            replies[index] = Some(Reply {
                line: line.trim_end().to_string(),
                sent: sent_at[index].expect("matched jobs were sent"),
                received,
            });
            done += 1;
        }
        Ok(Batch {
            replies: replies
                .into_iter()
                .map(|r| r.expect("all jobs replied"))
                .collect(),
            started,
            finished: Instant::now(),
            request_bytes,
            response_bytes,
        })
    }

    /// Closes the server's input, drains its output and reaps it.
    pub fn shutdown(mut self) -> std::io::Result<Reaped> {
        self.stdin = None;
        std::io::copy(&mut self.stdout, &mut std::io::sink())?;
        sys::reap(self.child.take().expect("the server is running"))
    }
}

/// A run that fails half-way must not leave its server behind.
impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The numeric id a result line starts with (`{"id":"<n>",…`).
fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    rest[..rest.find('"')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_tail_is_valid_json_once_an_id_is_prepended() {
        let job = Job::new("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n", 500, 77);
        let doc = json::parse(&format!("{{\"id\":\"3\",{}", job.tail)).unwrap();
        assert_eq!(
            doc.get("qasm").unwrap().as_str(),
            Some("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n")
        );
        assert_eq!(doc.get("shots").unwrap().as_u64(), Some(500));
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(77));
        assert!(!job.tail.contains('\n'));
    }

    #[test]
    fn reply_ids_are_read_from_the_line_start() {
        assert_eq!(reply_id("{\"id\":\"12\",\"ok\":true}"), Some(12));
        assert_eq!(reply_id("{\"id\":\"\",\"ok\":false}"), None);
        assert_eq!(reply_id("{\"ok\":true,\"id\":\"12\"}"), None);
    }
}
