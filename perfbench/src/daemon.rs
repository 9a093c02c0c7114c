//! Driving a real `soctam-serve` process over HTTP.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use soctam_registry::Json;
use soctam_serve::client;

/// A running daemon; dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    journal: PathBuf,
    pub addr: String,
}

/// The `soctam-serve` binary built next to this benchmark's executable.
pub fn serve_binary() -> Result<PathBuf, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate benchmark binary: {e}"))?;
    let bin = exe.with_file_name("soctam-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build the perfbench package",
            bin.display()
        ))
    }
}

impl Daemon {
    /// Spawns `soctam-serve --jobs 2 --journal <journal>` on a free port and
    /// waits until `/healthz` answers 200. Returns the daemon and the
    /// seconds from spawn to that first 200.
    pub fn spawn(bin: &Path, journal: &Path) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_file(journal);
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--jobs", "2", "--journal"])
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout is not piped".to_owned());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("soctam-serve listening on ")) {
            (Ok(_), Some(addr)) => addr.to_owned(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not report its address: {line:?}"));
            }
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            journal: journal.to_owned(),
            addr,
        };
        let deadline = start + Duration::from_secs(30);
        loop {
            if let Ok(r) = client::get(&daemon.addr, "/healthz") {
                if r.status == 200 {
                    return Ok((daemon, start.elapsed().as_secs_f64()));
                }
            }
            if Instant::now() > deadline {
                return Err("daemon never became healthy".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn metrics(&self) -> Result<Json, String> {
        let r = client::get(&self.addr, "/metrics").map_err(|e| e.to_string())?;
        Json::parse(&r.body).map_err(|e| format!("bad /metrics body: {e}"))
    }

    /// Graceful stop through `POST /admin/shutdown`, then reaps the
    /// process; kills it if it has not exited within 30 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = client::post(&self.addr, "/admin/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("daemon did not stop after /admin/shutdown".to_owned()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.journal);
    }
}

/// Outcome of one request: its latency, and why the response did not
/// equal the expected tool output, if it did not.
pub struct Reply {
    pub ms: f64,
    pub error: Option<String>,
}

fn check_output(body: &str, expected: &str) -> Result<(), String> {
    let json = Json::parse(body).map_err(|e| format!("bad response body: {e}"))?;
    let output = json.get("output").and_then(Json::as_str);
    let degraded = json.get("degraded").and_then(Json::as_bool);
    match (output, degraded) {
        (Some(out), Some(false)) if out == expected => Ok(()),
        (Some(_), Some(false)) => {
            Err("response differs from the in-process tool output".to_owned())
        }
        _ => Err(format!("unexpected response: {body}")),
    }
}

/// Synchronous `POST /v1/tools/<tool>`.
pub fn sync_request(addr: &str, tool: &str, body: &str, expected: &str) -> Reply {
    let start = Instant::now();
    let result = client::post(addr, &format!("/v1/tools/{tool}"), body);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let verdict = match result {
        Ok(r) if r.status == 200 => check_output(&r.body, expected),
        Ok(r) => Err(format!("status {}: {}", r.status, r.body)),
        Err(e) => Err(e.to_string()),
    };
    Reply {
        ms,
        error: verdict.err(),
    }
}

/// `POST /v1/jobs`, then polls `GET /v1/jobs/<id>` until the job is
/// terminal; the latency runs from submit until `done` is observed.
pub fn job_request(addr: &str, tool: &str, body: &str, expected: &str) -> Reply {
    let start = Instant::now();
    let verdict = run_job(addr, tool, body, expected);
    Reply {
        ms: start.elapsed().as_secs_f64() * 1e3,
        error: verdict.err(),
    }
}

fn run_job(addr: &str, tool: &str, body: &str, expected: &str) -> Result<(), String> {
    let submit = format!("{{\"tool\":\"{tool}\",\"request\":{body}}}");
    let r = client::post(addr, "/v1/jobs", &submit).map_err(|e| e.to_string())?;
    if r.status != 202 {
        return Err(format!("job submit status {}: {}", r.status, r.body));
    }
    let json = Json::parse(&r.body).map_err(|e| e.to_string())?;
    let id = json
        .get("job")
        .and_then(Json::as_str)
        .ok_or("job submit reply has no id")?
        .to_owned();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let r = client::get(addr, &format!("/v1/jobs/{id}")).map_err(|e| e.to_string())?;
        let json = Json::parse(&r.body).map_err(|e| e.to_string())?;
        match json.get("state").and_then(Json::as_str) {
            Some("done") => {
                let result = json.get("result").ok_or("done job has no result")?;
                return check_output(&result.render(), expected);
            }
            Some("queued" | "running") if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            other => return Err(format!("job {id} ended in state {other:?}")),
        }
    }
}

/// Reads an integer at `path` (object keys) from a `/metrics` document.
pub fn metric(json: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(json, |j, key| j.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Total pool phase time in microseconds. Phases accumulate by name, so
/// the difference between two readings is the phase time spent between.
pub fn phase_micros(json: &Json) -> u64 {
    json.get("pool")
        .and_then(|p| p.get("phases"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| p.get("micros").and_then(Json::as_u64))
        .sum()
}
