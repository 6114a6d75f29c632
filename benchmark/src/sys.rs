//! Process accounting the standard library does not expose: a child's
//! CPU time and peak resident set from `wait4`, the harness's own CPU
//! from `getrusage`, a live child's CPU from `/proc`, and the machine
//! facts the report states (cores, free memory, last-level cache).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("qclab-e2e reads Linux wait4/getrusage/procfs accounting on a 64-bit target");

use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

impl Rusage {
    fn cpu_s(&self) -> f64 {
        (self.utime.sec + self.stime.sec) as f64 + (self.utime.usec + self.stime.usec) as f64 * 1e-6
    }
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;

/// What the kernel accounted to an exited child.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reaped {
    /// Exit code; `None` when a signal ended the process.
    pub exit_code: Option<i32>,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, KiB (`ru_maxrss`).
    pub maxrss_kib: i64,
}

/// Waits for `child` and returns its accounting. Takes the `Child` so
/// nothing can wait on the pid twice.
pub fn reap(child: Child) -> std::io::Result<Reaped> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable and of the
        // layout wait4 fills on 64-bit Linux (checked by the cfg gate
        // and the size test below); `pid` is our own unreaped child,
        // owned by `child`, which std never reaps behind our back.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exited = status & 0x7f == 0;
    Ok(Reaped {
        exit_code: exited.then_some((status >> 8) & 0xff),
        cpu_s: ru.cpu_s(),
        maxrss_kib: ru.maxrss_kib,
    })
}

/// Starts `command` with no input and its output discarded, waits for
/// it to end, and returns the wall time of the two together, ms.
pub fn time_process_ms(command: &mut Command) -> std::io::Result<f64> {
    let t = Instant::now();
    let child = command
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    reap(child)?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// User + system CPU seconds this process has used so far.
pub fn self_cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable rusage of the kernel's layout.
    let r = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if r == 0 {
        ru.cpu_s()
    } else {
        0.0
    }
}

/// User + system CPU seconds of the live process `pid`, from
/// `/proc/<pid>/stat` (clock-tick resolution, 10 ms on Linux).
pub fn proc_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // the command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, utime and stime being fields 14 and 15
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // SAFETY: sysconf takes no pointers and is always safe to call.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (hz > 0).then(|| (utime + stime) as f64 / hz as f64)
}

/// Hands the allocator's free pages back to the kernel, so that the
/// next allocations fault their pages in as they do in a process that
/// has just started. A no-op where the C library has no `malloc_trim`.
pub fn release_free_heap() {
    // SAFETY: malloc_trim takes no pointers; it only releases memory the
    // allocator holds free, which nothing refers to.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `MemAvailable` from `/proc/meminfo`, bytes.
pub fn mem_available_bytes() -> Option<u64> {
    let info = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Size of cpu0's highest-level cache from sysfs, bytes.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()? {
        let dir = entry.ok()?.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Parses sysfs cache sizes such as `48K` or `260M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
    let n: u64 = digits.parse().ok()?;
    match unit {
        "" => Some(n),
        "K" => Some(n << 10),
        "M" => Some(n << 20),
        "G" => Some(n << 30),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_has_the_kernel_layout() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
    }

    #[test]
    fn reap_reports_exit_code_and_accounting() {
        let child = Command::new("sh")
            .args(["-c", "exit 3"])
            .stdout(Stdio::null())
            .spawn()
            .unwrap();
        let pid = child.id();
        let r = reap(child).unwrap();
        assert_eq!(r.exit_code, Some(3));
        assert!(r.maxrss_kib > 0);
        assert!(r.cpu_s >= 0.0);
        assert_eq!(proc_cpu_s(pid), None, "a reaped child has left /proc");
    }

    #[test]
    fn own_accounting_is_readable() {
        assert!(proc_cpu_s(std::process::id()).is_some());
        let before = self_cpu_s();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(x != 0 && self_cpu_s() > before);
        assert!(nproc() >= 1);
    }

    #[test]
    fn parses_sysfs_sizes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("266240K"), Some(266240 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("x"), None);
    }
}
