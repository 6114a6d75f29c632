//! The output checker behind `ok_share`.
//!
//! An operation is correct when the program reported success, the
//! counts it printed sum to the shots requested, the paper circuits
//! show the outcome that is certain for them, and the output is
//! byte-identical to what the reference pass got for the same
//! (input, seed) — the program's `(seed, shot)` contract for the CLI
//! and its coalesced-versus-standalone contract for `serve`.

use crate::json;

/// Why an operation counted as failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// Exit code other than 0, or `"ok":false` on the wire.
    Status,
    /// Output that does not have the documented shape.
    Malformed,
    /// Counts that do not sum to the shots requested.
    CountsSum,
    /// A record the circuit cannot produce.
    Outcome,
    /// Output differing from the reference pass.
    Mismatch,
}

impl Failure {
    pub fn name(self) -> &'static str {
        match self {
            Failure::Status => "status",
            Failure::Malformed => "malformed",
            Failure::CountsSum => "counts-sum",
            Failure::Outcome => "outcome",
            Failure::Mismatch => "mismatch",
        }
    }
}

/// What is known for certain about every measurement record of an
/// input, whatever the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certain {
    Nothing,
    /// Every shot gives exactly this record.
    Only(&'static str),
    /// Every record has `bit` at position `pos`.
    Bit {
        pos: usize,
        bit: u8,
    },
}

impl Certain {
    fn allows(&self, record: &str) -> bool {
        match *self {
            Certain::Nothing => true,
            Certain::Only(r) => record == r,
            Certain::Bit { pos, bit } => record.as_bytes().get(pos) == Some(&bit),
        }
    }
}

/// Parses `qclab sample` output — a header line, then one
/// `  '<record>': <n>  (<share>)` line per record — into its counts.
pub fn sample_counts(stdout: &str) -> Option<Vec<(&str, u64)>> {
    let mut lines = stdout.lines();
    if !lines.next()?.starts_with("sampled ") {
        return None;
    }
    lines
        .map(|line| {
            let rest = line.strip_prefix("  '")?;
            let (record, rest) = rest.split_once("': ")?;
            let n = rest.split_ascii_whitespace().next()?.parse().ok()?;
            Some((record, n))
        })
        .collect()
}

/// Checks one `qclab sample` run on its own (the reference pass has
/// nothing to compare with yet).
pub fn check_cli_alone(
    exit_code: Option<i32>,
    stdout: &str,
    shots: u64,
    certain: Certain,
) -> Result<(), Failure> {
    if exit_code != Some(0) {
        return Err(Failure::Status);
    }
    let counts = sample_counts(stdout).ok_or(Failure::Malformed)?;
    if counts.iter().map(|(_, n)| n).sum::<u64>() != shots {
        return Err(Failure::CountsSum);
    }
    if !counts.iter().all(|(record, _)| certain.allows(record)) {
        return Err(Failure::Outcome);
    }
    Ok(())
}

/// Checks one timed `qclab sample` run against the reference output
/// for the same (input, seed).
pub fn check_cli(
    exit_code: Option<i32>,
    stdout: &str,
    shots: u64,
    certain: Certain,
    reference: &str,
) -> Result<(), Failure> {
    check_cli_alone(exit_code, stdout, shots, certain)?;
    if stdout != reference {
        return Err(Failure::Mismatch);
    }
    Ok(())
}

/// The raw text of the `counts` object of a serve result line. Records
/// are bit strings, so the object ends at the first closing brace.
pub fn serve_counts_text(line: &str) -> Option<&str> {
    let start = line.find("\"counts\":{")? + "\"counts\":".len();
    let len = line[start..].find('}')? + 1;
    Some(&line[start..start + len])
}

/// A decoded serve result line.
pub struct ServeResult {
    pub queue_ms: f64,
    pub run_ms: f64,
    pub wall_ms: f64,
    pub dedup_hit: bool,
    pub coalesced: u64,
}

/// Checks one serve result line on its own and returns its telemetry.
pub fn check_serve_alone(line: &str, shots: u64) -> Result<ServeResult, Failure> {
    let doc = json::parse(line).map_err(|_| Failure::Malformed)?;
    if doc.get("ok").and_then(json::Json::as_bool) != Some(true) {
        return Err(Failure::Status);
    }
    let field = |obj: &json::Json, key: &str| obj.get(key).cloned().ok_or(Failure::Malformed);
    let done = field(&doc, "shots")?.as_u64().ok_or(Failure::Malformed)?;
    let counts = field(&doc, "counts")?;
    let counts = counts.as_obj().ok_or(Failure::Malformed)?;
    let mut sum = 0u64;
    for (_, n) in counts {
        sum += n.as_u64().ok_or(Failure::Malformed)?;
    }
    if done != shots || sum != shots {
        return Err(Failure::CountsSum);
    }
    let t = field(&doc, "telemetry")?;
    let ms = |key: &str| field(&t, key)?.as_f64().ok_or(Failure::Malformed);
    Ok(ServeResult {
        queue_ms: ms("queue_ms")?,
        run_ms: ms("run_ms")?,
        wall_ms: ms("wall_ms")?,
        dedup_hit: field(&t, "dedup_hit")?
            .as_bool()
            .ok_or(Failure::Malformed)?,
        coalesced: field(&t, "coalesced")?.as_u64().ok_or(Failure::Malformed)?,
    })
}

/// Checks one timed serve result against the reference counts text for
/// the same (circuit, seed).
pub fn check_serve(line: &str, shots: u64, reference: &str) -> Result<ServeResult, Failure> {
    let result = check_serve_alone(line, shots)?;
    if serve_counts_text(line) != Some(reference) {
        return Err(Failure::Mismatch);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "sampled 1000 trajectories (seed 5, 0 injected error(s), path: forked (prefix 3 ops)):\n  '000': 246  (0.2460)\n  '010': 226  (0.2260)\n  '100': 285  (0.2850)\n  '110': 243  (0.2430)\n";
    const TELEPORT: Certain = Certain::Bit { pos: 2, bit: b'0' };

    #[test]
    fn a_correct_cli_output_passes() {
        assert_eq!(
            sample_counts(GOOD).unwrap(),
            vec![("000", 246), ("010", 226), ("100", 285), ("110", 243)]
        );
        assert_eq!(check_cli(Some(0), GOOD, 1000, TELEPORT, GOOD), Ok(()));
        assert_eq!(
            check_cli_alone(Some(0), GOOD, 1000, Certain::Nothing),
            Ok(())
        );
    }

    #[test]
    fn each_doctored_cli_output_fails_for_its_own_reason() {
        // non-zero exit, output intact
        assert_eq!(
            check_cli(Some(5), GOOD, 1000, TELEPORT, GOOD),
            Err(Failure::Status)
        );
        // killed by a signal
        assert_eq!(
            check_cli(None, GOOD, 1000, TELEPORT, GOOD),
            Err(Failure::Status)
        );
        // header missing
        let headless = GOOD.split_once('\n').unwrap().1;
        assert_eq!(
            check_cli(Some(0), headless, 1000, TELEPORT, GOOD),
            Err(Failure::Malformed)
        );
        // a count line cut short
        let cut = GOOD.replace("  '110': 243  (0.2430)\n", "  '110': \n");
        assert_eq!(
            check_cli(Some(0), &cut, 1000, TELEPORT, GOOD),
            Err(Failure::Malformed)
        );
        // one shot lost
        let lost = GOOD.replace("'110': 243", "'110': 242");
        assert_eq!(
            check_cli(Some(0), &lost, 1000, TELEPORT, GOOD),
            Err(Failure::CountsSum)
        );
        // teleported bit flipped on some shots
        let wrong = GOOD.replace("'110'", "'111'");
        assert_eq!(
            check_cli(Some(0), &wrong, 1000, TELEPORT, &wrong),
            Err(Failure::Outcome)
        );
        // a valid output that is not the reference's
        let moved = GOOD.replace("246", "245").replace("226", "227");
        assert_eq!(
            check_cli(Some(0), &moved, 1000, TELEPORT, GOOD),
            Err(Failure::Mismatch)
        );
    }

    #[test]
    fn certain_outcomes() {
        assert!(Certain::Only("11").allows("11"));
        assert!(!Certain::Only("11").allows("10"));
        assert!(TELEPORT.allows("110"));
        assert!(!TELEPORT.allows("11"));
        assert!(Certain::Nothing.allows(""));
    }

    const WIRE: &str = r#"{"id":"42","ok":true,"shots":500,"requested_shots":500,"path":"alias-sampled (prefix 63 ops)","injected_errors":0,"counts":{"0000":200,"0110":300},"telemetry":{"queue_ms":1.250,"run_ms":2.000,"wall_ms":3.250,"dedup_hit":true,"coalesced":3}}"#;

    #[test]
    fn a_correct_serve_line_passes_and_yields_telemetry() {
        let reference = serve_counts_text(WIRE).unwrap();
        assert_eq!(reference, r#"{"0000":200,"0110":300}"#);
        let r = check_serve(WIRE, 500, reference).unwrap();
        assert_eq!((r.queue_ms, r.run_ms, r.wall_ms), (1.25, 2.0, 3.25));
        assert!(r.dedup_hit);
        assert_eq!(r.coalesced, 3);
    }

    #[test]
    fn each_doctored_serve_line_fails_for_its_own_reason() {
        let reference = serve_counts_text(WIRE).unwrap();
        let fails = |line: &str| check_serve(line, 500, reference).err();
        let refused = r#"{"id":"42","ok":false,"error":{"kind":"resource","code":6,"message":"queue full"},"partial":null}"#;
        assert_eq!(fails(refused), Some(Failure::Status));
        assert_eq!(fails(&WIRE[..WIRE.len() - 9]), Some(Failure::Malformed));
        assert_eq!(
            fails(&WIRE.replace("\"coalesced\":3", "\"x\":3")),
            Some(Failure::Malformed)
        );
        assert_eq!(
            fails(&WIRE.replace("\"0110\":300", "\"0110\":299")),
            Some(Failure::CountsSum)
        );
        // a partial result: fewer shots than asked, counts consistent
        let partial = WIRE
            .replace("\"shots\":500", "\"shots\":499")
            .replace("300", "299");
        assert_eq!(fails(&partial), Some(Failure::CountsSum));
        let moved = WIRE.replace("200", "201").replace("300", "299");
        assert_eq!(fails(&moved), Some(Failure::Mismatch));
    }
}
