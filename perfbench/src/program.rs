//! Building the `offtarget` binary from the checkout and running it
//! with exact wall time and peak resident set.
//!
//! A child's `ru_maxrss` includes the resident set of the process that
//! spawned it (Linux carries the pre-`exec` high-water mark over), so a
//! large benchmark process would inflate the program's figure. Each
//! measured run therefore goes through a small launcher — this binary
//! re-executed with [`MEASURE_FLAG`] — which spawns the program from
//! its own small address space and reports what it measured.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// The hidden first argument that turns the benchmark binary into the
/// launcher: `perfbench --measure-exec PROGRAM ARGS...` runs the
/// program and prints `exit-code max-rss-bytes wall-seconds`.
pub const MEASURE_FLAG: &str = "--measure-exec";

/// A built `offtarget` binary and the launcher that measures it.
#[derive(Debug, Clone)]
pub struct Program {
    pub path: PathBuf,
    /// The benchmark binary, run with [`MEASURE_FLAG`].
    pub launcher: PathBuf,
}

impl Program {
    /// Builds `offtarget` in release mode from the checkout at `root`,
    /// honouring `CARGO_TARGET_DIR`. Cargo's output goes to stderr so
    /// stdout carries only results.
    pub fn build(root: &Path, launcher: PathBuf) -> Result<Program, String> {
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args(["build", "--release", "--quiet", "--bin", "offtarget"])
            .current_dir(root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building offtarget failed ({status})"));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        let path = target.join("release").join("offtarget");
        if !path.is_file() {
            return Err(format!("built binary not found at {}", path.display()));
        }
        Ok(Program { path, launcher })
    }

    /// A command for `offtarget <args>` with stdout discarded, stderr
    /// appended to `log`, and `OFFTARGET_*` overrides removed so the
    /// program runs with its defaults.
    pub fn command(&self, args: &[&str], log: &Path) -> Result<Command, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let mut cmd = Command::new(&self.path);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .env_remove("OFFTARGET_SIMD")
            .env_remove("OFFTARGET_INJECT");
        Ok(cmd)
    }

    /// Runs `offtarget <args>` to completion through the launcher.
    pub fn run(&self, args: &[&str], log: &Path) -> Result<Exit, String> {
        let log_file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let output = Command::new(&self.launcher)
            .arg(MEASURE_FLAG)
            .arg(&self.path)
            .args(args)
            .stdin(Stdio::null())
            .stderr(log_file)
            .env_remove("OFFTARGET_SIMD")
            .env_remove("OFFTARGET_INJECT")
            .output()
            .map_err(|e| format!("spawn launcher: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let fields: Vec<&str> = text.split_whitespace().collect();
        let bad = || format!("launcher said {text:?} ({})", output.status);
        if fields.len() != 3 {
            return Err(bad());
        }
        let code: i32 = fields[0].parse().map_err(|_| bad())?;
        Ok(Exit {
            code: (code >= 0).then_some(code),
            max_rss_bytes: fields[1].parse().map_err(|_| bad())?,
            wall_s: fields[2].parse().map_err(|_| bad())?,
        })
    }
}

/// The launcher's side of [`Program::run`]: runs `args[0]` with the
/// remaining arguments, stdout discarded and stderr inherited, and
/// prints the measurement.
pub fn measure_exec(args: &[String]) -> Result<(), String> {
    let (program, rest) = args.split_first().ok_or("--measure-exec needs a program")?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(rest)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {program}: {e}"))?;
    let exit = wait(child)?;
    let wall_s = start.elapsed().as_secs_f64();
    println!("{} {} {wall_s}", exit.code.unwrap_or(-1), exit.max_rss_bytes);
    Ok(())
}

/// Peak resident set (`VmHWM`) of a live process, in bytes.
pub fn peak_rss_of(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// How a child process ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set of the process, in bytes (`ru_maxrss`).
    pub max_rss_bytes: u64,
    /// Spawn to reap, in seconds (measured by the launcher).
    pub wall_s: f64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` and reads its own peak resident set, which
/// `std::process::Child::wait` does not report.
pub fn wait(child: Child) -> Result<Exit, String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { tv_sec: 0, tv_usec: 0 },
        stime: Timeval { tv_sec: 0, tv_usec: 0 },
        longs: [0; 14],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (the `Child` handle is
        // consumed here, so nothing else waits for it), and `status` and
        // `usage` are live, writable, correctly laid-out locals.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    drop(child);
    let code = if status & 0x7f == 0 { Some((status >> 8) & 0xff) } else { None };
    Ok(Exit { code, max_rss_bytes: usage.longs[0].max(0) as u64 * 1024, wall_s: 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_reports_exit_code_and_rss() {
        let child = Command::new("sh").args(["-c", "exit 3"]).spawn().unwrap();
        let exit = wait(child).unwrap();
        assert_eq!(exit.code, Some(3));
        assert!(exit.max_rss_bytes > 0);
    }
}
