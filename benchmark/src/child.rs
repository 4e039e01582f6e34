//! One measured operation: a `lumina-cli` child process, its wall time,
//! its output, and its own resource usage.
//!
//! `std::process` reaps children with `waitpid`, which discards the
//! kernel's per-child `rusage`. The benchmark reports each operation's
//! peak resident set, so the child is reaped here with `wait4(2)` through
//! a hand-declared binding (no libc crate resolves offline).

use std::ffi::{c_int, c_long};
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs, of
/// which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// What one finished child left behind.
pub struct OpResult {
    /// Spawn → reaped, milliseconds.
    pub wall_ms: f64,
    /// Exit code; `-1` when the child died on a signal.
    pub exit_code: i32,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Peak resident set of this child alone, megabytes.
    pub peak_rss_mb: f64,
}

/// FNV-1a, 64 bit — the fingerprint printed as `report_fnv64`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `program args…` to completion. stdout is captured; stderr goes to
/// `stderr_log` (truncated first) so a failure can be explained without a
/// second pipe to drain.
pub fn run_op(program: &Path, args: &[String], stderr_log: &Path) -> Result<OpResult, String> {
    let log =
        std::fs::File::create(stderr_log).map_err(|e| format!("{}: {e}", stderr_log.display()))?;
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);

    let pid = c_int::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed and
        // laid out as wait4(2) expects on 64-bit Linux; `pid` names a
        // child this function spawned and nobody else waits for — `child`
        // is dropped below without `wait()`, which `std` permits.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    read.map_err(|e| format!("read child stdout: {e}"))?;

    // WIFEXITED / WEXITSTATUS.
    let exit_code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok(OpResult {
        wall_ms,
        exit_code,
        stdout,
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn run_op_reports_exit_code_output_and_rss() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("child-test.log");
        let r = run_op(
            Path::new("sh"),
            &["-c".into(), "echo hi; exit 3".into()],
            &log,
        )
        .unwrap();
        assert_eq!(r.exit_code, 3);
        assert_eq!(r.stdout, b"hi\n");
        assert!(r.peak_rss_mb > 0.0);
        let _ = std::fs::remove_file(log);
    }
}
