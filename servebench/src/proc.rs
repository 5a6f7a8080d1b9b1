//! Server processes: spawn the release `winslett-serve` binary, learn its
//! ephemeral address from its log, read its peak RSS, and `SIGKILL` it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// How long a server may take to print its listening address.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// One running server process. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    log: Option<JoinHandle<Vec<String>>>,
}

impl ServerProc {
    /// Starts `bin` with `args` and waits until its log line containing
    /// `marker` names the address it serves on (the line's last word).
    pub fn spawn(bin: &Path, args: &[&str], marker: &str) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = std::sync::mpsc::channel();
        let marker = marker.to_string();
        let log = std::thread::spawn(move || read_log(stderr, &marker, tx));
        let mut proc = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: Some(log),
        };
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => {
                let log = proc.kill().join("\n");
                Err(format!(
                    "server {args:?} never reported its address; log:\n{log}"
                ))
            }
        }
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// CPU time (user + system) the process has used so far, s.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the whole line, in clock ticks.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let ticks: Vec<f64> = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|t| t.parse().ok())
            .collect();
        if ticks.len() != 2 {
            return Err(format!("{path}: no utime/stime"));
        }
        Ok((ticks[0] + ticks[1]) / CLOCK_TICKS_PER_S)
    }

    /// `SIGKILL`s the process, reaps it, and returns its log lines.
    pub fn kill(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.log
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn read_log(
    stderr: ChildStderr,
    marker: &str,
    ready: std::sync::mpsc::Sender<SocketAddr>,
) -> Vec<String> {
    let mut lines = Vec::new();
    let mut announced = false;
    for line in BufReader::new(stderr).lines() {
        let Ok(line) = line else { break };
        if !announced && line.contains(marker) {
            if let Some(addr) = line.split_whitespace().last().and_then(|w| w.parse().ok()) {
                announced = true;
                let _ = ready.send(addr);
            }
        }
        lines.push(line);
    }
    lines
}

/// Retries `f` until it succeeds or `limit` passes.
pub fn until<T>(
    limit: Duration,
    mut f: impl FnMut() -> Result<Option<T>, String>,
) -> Result<T, String> {
    let start = Instant::now();
    loop {
        if let Some(v) = f()? {
            return Ok(v);
        }
        if start.elapsed() > limit {
            return Err(format!("gave up after {limit:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}
