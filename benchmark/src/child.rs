//! Running the real binaries: a timed child with its peak RSS, and the
//! guard that owns a `pimserve` process.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pim_aligner::service::protocol::Client;

use crate::host::steal_ticks;

/// How often the child's `/proc/<pid>/status` is sampled.
const RSS_POLL: Duration = Duration::from_millis(2);

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    /// Spawn to exit.
    pub wall_s: f64,
    /// The child's `VmHWM` at the last sample before it exited.
    pub peak_rss_mb: f64,
    /// Steal ticks the host accrued between spawn and exit.
    pub stolen_ticks: u64,
    pub status: ExitStatus,
}

/// `VmHWM` of process `pid` in MB, if it is still there to ask.
fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `cmd` to completion with stdout to `stdout` and stderr to
/// `stderr` (files, so a chatty child can never block on a pipe), timing
/// it from spawn to exit and sampling its peak RSS meanwhile.
pub fn run_measured(cmd: &mut Command, stdout: &Path, stderr: &Path) -> io::Result<ChildRun> {
    cmd.stdin(Stdio::null())
        .stdout(File::create(stdout)?)
        .stderr(File::create(stderr)?);
    let steal0 = steal_ticks();
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    // The waiting thread stamps the exit the moment it happens; the
    // sampling loop only ever delays the RSS reading, never the clock.
    let (status, wall_s, peak_rss_mb) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Acquire) {
                if let Some(mb) = vm_hwm_mb(pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let status = child.wait();
        let wall_s = t0.elapsed().as_secs_f64();
        // Release: pairs with the sampler's Acquire load.
        done.store(true, Ordering::Release);
        let peak = sampler.join().expect("RSS sampler panicked");
        (status, wall_s, peak)
    });
    Ok(ChildRun {
        wall_s,
        peak_rss_mb,
        stolen_ticks: steal_ticks() - steal0,
        status: status?,
    })
}

/// Last lines of a child's stderr file, for an error message.
pub fn stderr_tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

/// Owns a running `pimserve`. Dropping the guard kills the process, so no
/// error path can leak it; [`ServeGuard::drain`] is the clean way out.
#[derive(Debug)]
pub struct ServeGuard {
    child: Option<Child>,
    addr: String,
}

impl ServeGuard {
    /// Spawns `cmd` (which must pass `--port-file port_file`) and waits
    /// until the port file appears, the child exits, or `timeout` passes.
    pub fn start(cmd: &mut Command, port_file: &Path, timeout: Duration) -> io::Result<ServeGuard> {
        let _ = std::fs::remove_file(port_file);
        let child = cmd.stdin(Stdio::null()).stdout(Stdio::null()).spawn()?;
        let mut guard = ServeGuard {
            child: Some(child),
            addr: String::new(),
        };
        let t0 = Instant::now();
        loop {
            if let Ok(addr) = std::fs::read_to_string(port_file) {
                guard.addr = addr.trim().to_owned();
                return Ok(guard);
            }
            let child = guard.child.as_mut().expect("child is held until drain");
            if let Some(status) = child.try_wait()? {
                guard.child = None;
                return Err(io::Error::other(format!(
                    "pimserve exited before listening: {status}"
                )));
            }
            if t0.elapsed() > timeout {
                // Dropping the guard kills the child.
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("pimserve wrote no port file within {timeout:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends `Drain`, then waits for the process to answer everything it
    /// accepted and exit. A server that does not exit within `timeout` is
    /// killed and reported as an error.
    pub fn drain(mut self, timeout: Duration) -> io::Result<ExitStatus> {
        Client::connect(&self.addr)?.drain(u64::MAX)?;
        let mut child = self.child.take().expect("child is held until drain");
        let t0 = Instant::now();
        loop {
            if let Some(status) = child.try_wait()? {
                return Ok(status);
            }
            if t0.elapsed() > timeout {
                child.kill()?;
                child.wait()?;
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("pimserve did not exit within {timeout:?} of Drain"),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            // Errors ignored: the process may already be gone, and Drop
            // must not panic.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A fresh directory for one run's files: the names of two runs never
/// collide, whether they share a pid (threads of one test binary), a
/// start time, or both.
pub fn unique_dir(parent: &Path, label: &str) -> io::Result<PathBuf> {
    static SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = parent.join(format!(
        "run-{label}-{}-{nanos}-{}",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
