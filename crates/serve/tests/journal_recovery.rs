//! Crash-recovery test against the real `soctam-serve` binary:
//! `kill -9` mid-optimization, restart with `--journal`, and the
//! interrupted job re-runs to a bit-identical result.

#![allow(clippy::unwrap_used, clippy::expect_used)]
// Watchdog deadlines bound the wait on a live daemon; no result reads
// the clock.
#![allow(clippy::disallowed_methods)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use soctam_registry::Json;
use soctam_serve::client;

const OPTIMIZE_REQ: &str = r#"{"soc":"d695","params":{"patterns":200,"width":8,"partitions":2}}"#;

fn temp_journal(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "soctam-journal-recovery-{name}-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Spawns the daemon and scrapes its resolved address from stdout.
fn spawn_daemon(journal: &Path, failpoints: &str) -> (Child, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_soctam-serve"));
    command
        .args([
            "--listen",
            "127.0.0.1:0",
            "--jobs",
            "2",
            "--journal",
            journal.to_str().expect("utf-8 path"),
            "--recover",
            "rerun",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if failpoints.is_empty() {
        command.env_remove("SOCTAM_FAILPOINTS");
    } else {
        command.env("SOCTAM_FAILPOINTS", failpoints);
    }
    let mut child = command.spawn().expect("daemon spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon prints its address")
            .expect("stdout readable");
        if let Some(addr) = line.strip_prefix("soctam-serve listening on ") {
            break addr.to_owned();
        }
    };
    (child, addr)
}

fn submit_job(addr: &str) -> String {
    let body = format!(r#"{{"tool":"optimize","request":{OPTIMIZE_REQ}}}"#);
    let response = client::post(addr, "/v1/jobs", &body).expect("submit");
    assert_eq!(response.status, 202, "{}", response.body);
    Json::parse(&response.body)
        .expect("accept JSON")
        .get("job")
        .and_then(Json::as_str)
        .expect("job id")
        .to_owned()
}

fn wait_for_state(addr: &str, job: &str, wanted: &str, deadline: Duration) -> Json {
    let until = Instant::now() + deadline;
    loop {
        let response = client::get(addr, &format!("/v1/jobs/{job}")).expect("status");
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = Json::parse(&response.body).expect("status JSON");
        let state = doc
            .get("state")
            .and_then(Json::as_str)
            .expect("has state")
            .to_owned();
        if state == wanted {
            return doc;
        }
        assert!(
            Instant::now() < until,
            "job {job} stuck in `{state}` waiting for `{wanted}`"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn shutdown(addr: &str, mut child: Child) {
    let response = client::post(addr, "/admin/shutdown", "").expect("shutdown");
    assert_eq!(response.status, 200);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exits 0, got {status:?}");
}

#[test]
fn kill_nine_mid_job_recovers_to_a_bit_identical_result() {
    let journal = temp_journal("kill9");

    // Baseline: a clean journaled run of the same request.
    let (child, addr) = spawn_daemon(&journal, "");
    let job = submit_job(&addr);
    let done = wait_for_state(&addr, &job, "done", Duration::from_secs(120));
    let baseline = done.get("result").expect("baseline result").render();
    shutdown(&addr, child);
    let _ = std::fs::remove_file(&journal);

    // Crash run: a serve.job delay holds the job in `running` long
    // enough to SIGKILL the daemon mid-flight — the journal has the
    // job's `submitted`/`started` records but no terminal record.
    let (mut child, addr) = spawn_daemon(&journal, "serve.job=delay:10000");
    let job = submit_job(&addr);
    wait_for_state(&addr, &job, "running", Duration::from_secs(30));
    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();

    // Restart on the same journal with --recover=rerun (and no
    // failpoints): the interrupted job re-runs to the baseline bytes.
    let (child, addr) = spawn_daemon(&journal, "");
    let doc = wait_for_state(&addr, &job, "done", Duration::from_secs(120));
    assert_eq!(
        doc.get("recovered").expect("marked recovered"),
        &Json::Bool(true)
    );
    assert_eq!(
        doc.get("result").expect("recovered result").render(),
        baseline,
        "recovered re-run reproduces the baseline bit-identically"
    );

    // The journal now carries the terminal record: one more restart
    // serves the result without re-running anything.
    shutdown(&addr, child);
    let (child, addr) = spawn_daemon(&journal, "");
    let doc = wait_for_state(&addr, &job, "done", Duration::from_secs(30));
    assert_eq!(
        doc.get("result").expect("replayed result").render(),
        baseline
    );
    shutdown(&addr, child);

    let _ = std::fs::remove_file(&journal);
}
