//! The server under test as a child process, and `/proc` sampling.

use std::io::{BufRead as _, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `vqd-cli serve`. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    /// Held open so the server's exit message does not meet a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl Server {
    /// Starts `bin serve --addr 127.0.0.1:0 <extra>` and waits for the
    /// `listening on` line that reports the bound address. The server's
    /// stderr (slow-request and flight-recorder dumps) is appended to `log`.
    pub fn spawn(bin: &Path, extra: &[String], log: &Path) -> Result<Server, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
                pid,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address (got {line:?})"))
            }
        }
    }

    /// Whether the process is still running.
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Asks the server to drain over the wire and waits for it to exit;
    /// kills it if it has not exited within `grace`.
    pub fn stop(mut self, grace: Duration) {
        if let Ok(mut c) = vqd_server::Client::connect(self.addr) {
            let _ = c.set_read_timeout(Some(grace));
            let _ = c.shutdown_server();
        }
        let until = Instant::now() + grace;
        while Instant::now() < until {
            if !self.alive() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Process CPU (user + system) in ms.
    pub fn cpu_ms(&self) -> f64 {
        stat_cpu_ms(&format!("/proc/{}/stat", self.pid)).unwrap_or(0.0)
    }

    /// CPU (ms) of the process's live threads whose name starts with
    /// `prefix`, from each thread's scheduler run time.
    pub fn thread_cpu_ms(&self, prefix: &str) -> f64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid)) else {
            return 0.0;
        };
        let mut ns = 0u64;
        for task in tasks.flatten() {
            let dir = task.path();
            let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if !comm.starts_with(prefix) {
                continue;
            }
            if let Some(run) = std::fs::read_to_string(dir.join("schedstat"))
                .ok()
                .and_then(|s| {
                    s.split_whitespace()
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                })
            {
                ns += run;
            }
        }
        ns as f64 / 1e6
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.alive() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// utime + stime of a `/proc/.../stat` file, in ms. Linux reports both
/// in USER_HZ ticks, which is 100 per second on every supported target.
fn stat_cpu_ms(path: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(path).ok()?;
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 * 10.0)
}

/// This (client) process's CPU in ms.
pub fn self_cpu_ms() -> f64 {
    stat_cpu_ms("/proc/self/stat").unwrap_or(0.0)
}
