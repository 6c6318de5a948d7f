//! The server under test as a child process: `benchmark serve --bundle DIR`
//! is the real `kbqa_server::serve` with `ServerConfig::default()` plus the
//! three fields the admin surface needs, confined to CPUs of its own. The
//! parent reads the child's CPU time, peak RSS and thread names from `/proc`
//! and scrapes its HTTP telemetry.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use kbqa_core::persist::{ServingArtifacts, MODEL_FILE};
use kbqa_server::{serve, CacheStats, MetricsSnapshot, ServerConfig};

use crate::loadgen::ADMIN_TOKEN;

/// `benchmark serve --bundle DIR [--cpus LIST]`: serve until stdin closes.
pub fn serve_until_stdin_closes(bundle: &Path, cpus: &[usize]) -> Result<(), String> {
    // Before any thread exists, so every server thread inherits it.
    if !crate::affinity::pin(cpus) {
        return Err(format!(
            "the kernel refused to pin the server to CPUs {cpus:?}"
        ));
    }
    let service = ServingArtifacts::load(bundle)
        .map_err(|e| format!("load bundle {}: {e}", bundle.display()))?
        .into_service();
    // The defaults users get — answer cache 4096 entries / 16 stripes,
    // keep-alive cap 128, auto-sized loops and workers — are what is measured.
    let config = ServerConfig {
        admin_token: Some(ADMIN_TOKEN.to_owned()),
        model_path: Some(bundle.join(MODEL_FILE)),
        bundle_dir: Some(bundle.to_path_buf()),
        ..ServerConfig::default()
    };
    let handle = serve(service, "127.0.0.1:0", config).map_err(|e| format!("serve: {e}"))?;
    println!("listening {}", handle.local_addr());
    // The parent holds the other end of stdin: it closes when the parent is
    // done, and also when the parent dies, so no server outlives its run.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.shutdown();
    Ok(())
}

/// A running server child.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    /// Spawn to first `GET /healthz` 200: bundle load, mmap, `serve`.
    pub startup: Duration,
}

impl ServerChild {
    /// Start a server on `bundle`, confined to `cpus` (`1,2,3`; empty: not
    /// confined), and wait until it answers `GET /healthz`.
    pub fn spawn(bundle: &Path, cpus: &str) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--bundle")
            .arg(bundle)
            .args(["--cpus", cpus])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let mut server = ServerChild {
            child,
            stdin,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            startup: Duration::ZERO,
        };
        if addr.is_none() {
            server.stop();
            return Err(format!("server child did not start: {read:?} {line:?}"));
        }
        match crate::http::get(server.addr, "/healthz") {
            Ok((200, _)) => {
                server.startup = started.elapsed();
                Ok(server)
            }
            other => {
                server.stop();
                Err(format!("server child failed its health check: {other:?}"))
            }
        }
    }

    /// Close the child's stdin, wait for its graceful shutdown, and kill it
    /// if that takes more than five seconds.
    pub fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return;
                }
            }
        }
    }

    /// User + system CPU time the child has used so far, µs.
    pub fn cpu_us(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_cpu_ticks(&stat)
            .map(|ticks| ticks as f64 * (1e6 / CLOCK_TICKS_PER_S))
            .ok_or_else(|| format!("{path}: unexpected format"))
    }

    /// The child's peak resident set (`VmHWM`), MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_vm_hwm_kb(&status)
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// The event-loop and worker threads the child actually runs — what
    /// `ServerConfig::default()` auto-sized to on the CPUs it was given —
    /// counted by thread name (`kbqa-http-loop-N`, `kbqa-http-worker-N`;
    /// the kernel keeps 15 bytes of a name).
    pub fn loops_and_workers(&self) -> Result<(usize, usize), String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let (mut loops, mut workers) = (0, 0);
        for task in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let comm = task.map_err(|e| format!("{dir}: {e}"))?.path().join("comm");
            // A thread may exit between the listing and the read.
            let name = std::fs::read_to_string(comm).unwrap_or_default();
            loops += usize::from(name.starts_with("kbqa-http-loop"));
            workers += usize::from(name.starts_with("kbqa-http-work"));
        }
        Ok((loops, workers))
    }

    pub fn cache_stats(&self) -> Result<CacheStats, String> {
        self.scrape("/cache/stats")
    }

    pub fn metrics(&self) -> Result<MetricsSnapshot, String> {
        self.scrape("/metrics")
    }

    fn scrape<T: serde::de::DeserializeOwned>(&self, target: &str) -> Result<T, String> {
        let (status, body) =
            crate::http::get(self.addr, target).map_err(|e| format!("GET {target}: {e}"))?;
        if status != 200 {
            return Err(format!("GET {target}: status {status}"));
        }
        let text = String::from_utf8(body).map_err(|e| format!("GET {target}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("GET {target}: {e}"))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`, fixed at
/// 100 in the Linux userspace ABI.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name may hold
/// spaces and parentheses, so fields are counted after the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    // After the name: state, then ten fields, then utime and stime.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (bench (x) y) S 1 4242 4242 0 -1 4194304 1107 0 0 0 \
                    731 269 0 0 20 0 5 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
