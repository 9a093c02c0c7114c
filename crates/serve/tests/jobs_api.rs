//! End-to-end tests for the async job subsystem: lifecycle, bounded
//! queue, cooperative cancellation and journal replay/rerun
//! determinism — all against an in-process daemon.

#![allow(clippy::unwrap_used, clippy::expect_used)]
// Watchdog deadlines bound the wait on a live daemon; no result reads
// the clock.
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use soctam_exec::fault::{FaultAction, ScopedFault};
use soctam_registry::Json;
use soctam_serve::journal::Journal;
use soctam_serve::{client, RecoverMode, Server, ServerConfig};

/// The failpoint registry is process-global; tests that arm it (or
/// depend on it being clear) run serialized.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serves"));
    (addr, handle)
}

fn default_config() -> ServerConfig {
    ServerConfig {
        listen: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    }
}

fn stop(addr: &str, handle: std::thread::JoinHandle<()>) {
    let response = client::post(addr, "/admin/shutdown", "").expect("shutdown");
    assert_eq!(response.status, 200);
    handle.join().expect("accept loop exits cleanly");
}

fn temp_journal(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("soctam-jobs-api-{name}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn submit(addr: &str, tool: &str, request: &str) -> client::ClientResponse {
    let body = format!(r#"{{"tool":"{tool}","request":{request}}}"#);
    client::post(addr, "/v1/jobs", &body).expect("submit")
}

fn job_doc(addr: &str, job: &str) -> Json {
    let response = client::get(addr, &format!("/v1/jobs/{job}")).expect("status");
    assert_eq!(response.status, 200, "{}", response.body);
    Json::parse(&response.body).expect("status is JSON")
}

fn state_of(doc: &Json) -> String {
    doc.get("state")
        .and_then(Json::as_str)
        .expect("has state")
        .to_owned()
}

/// Polls until the job reaches `wanted` (or any terminal state when
/// `wanted` is "terminal"); panics after the deadline — the watchdog
/// that catches hangs.
fn wait_for_state(addr: &str, job: &str, wanted: &str, deadline: Duration) -> Json {
    let until = Instant::now() + deadline;
    loop {
        let doc = job_doc(addr, job);
        let state = state_of(&doc);
        let hit = match wanted {
            "terminal" => matches!(state.as_str(), "done" | "failed" | "cancelled"),
            other => state == other,
        };
        if hit {
            return doc;
        }
        assert!(
            Instant::now() < until,
            "job {job} stuck in `{state}` waiting for `{wanted}`"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

const OPTIMIZE_REQ: &str = r#"{"soc":"d695","params":{"patterns":200,"width":8,"partitions":2}}"#;

#[test]
fn job_lifecycle_reaches_done_with_the_sync_result_body() {
    let _serial = serialize();
    let (addr, handle) = start(default_config());

    // The job result must byte-match the synchronous envelope minus its
    // volatile request_id.
    let sync = client::post(&addr, "/v1/tools/optimize", OPTIMIZE_REQ).expect("sync run");
    assert_eq!(sync.status, 200, "{}", sync.body);
    let mut sync_doc = Json::parse(&sync.body).expect("sync JSON");
    if let Json::Obj(fields) = &mut sync_doc {
        fields.retain(|(k, _)| k != "request_id");
    }

    let accepted = submit(&addr, "optimize", OPTIMIZE_REQ);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let accepted_doc = Json::parse(&accepted.body).expect("accept JSON");
    let job = accepted_doc
        .get("job")
        .and_then(Json::as_str)
        .expect("job id")
        .to_owned();
    assert_eq!(state_of(&accepted_doc), "queued");

    let done = wait_for_state(&addr, &job, "done", Duration::from_secs(120));
    assert_eq!(done.get("status").unwrap(), &Json::Int(200));
    assert_eq!(
        done.get("result").expect("has result").render(),
        sync_doc.render(),
        "job body matches the sync envelope"
    );

    // The list endpoint and the metrics section both see the job.
    let list = client::get(&addr, "/v1/jobs").expect("list");
    assert!(list.body.contains(&job), "{}", list.body);
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    let metrics_doc = Json::parse(&metrics.body).expect("metrics JSON");
    let jobs = metrics_doc.get("jobs").expect("jobs section");
    assert_eq!(jobs.get("submitted").unwrap(), &Json::Int(1));
    assert_eq!(jobs.get("completed").unwrap(), &Json::Int(1));
    assert_eq!(jobs.get("queue_depth").unwrap(), &Json::Int(0));
    assert_eq!(jobs.get("running").unwrap(), &Json::Int(0));

    stop(&addr, handle);
}

#[test]
fn bounded_queue_rejects_overflow_with_429_and_retry_after() {
    let _serial = serialize();
    // One worker held in a long serve.job delay + queue capacity 1:
    // the third submission must overflow deterministically.
    let _hold = ScopedFault::new("serve.job", FaultAction::Delay(Duration::from_secs(5)));
    let (addr, handle) = start(ServerConfig {
        queue_cap: 1,
        job_workers: 1,
        ..default_config()
    });

    let first = submit(&addr, "info", r#"{"soc":"d695"}"#);
    assert_eq!(first.status, 202, "{}", first.body);
    // Wait until the worker owns the first job, so the queue is empty.
    wait_for_state(&addr, "j1", "running", Duration::from_secs(30));

    let second = submit(&addr, "info", r#"{"soc":"d695"}"#);
    assert_eq!(second.status, 202, "{}", second.body);
    let third = submit(&addr, "info", r#"{"soc":"d695"}"#);
    assert_eq!(third.status, 429, "{}", third.body);
    assert_eq!(third.retry_after, Some(1), "429 carries Retry-After");
    assert!(third.body.contains("queue is full"), "{}", third.body);

    // Unknown tools are rejected before touching the queue.
    let unknown = submit(&addr, "frobnicate", "{}");
    assert_eq!(unknown.status, 404, "{}", unknown.body);

    stop(&addr, handle);
}

#[test]
fn cancelling_a_running_job_degrades_to_best_so_far() {
    let _serial = serialize();
    // Hold the job in the pre-dispatch serve.job window so the cancel
    // deterministically lands while it is `running`; the optimizer then
    // starts with a tripped token and returns its incumbent, degraded.
    let _hold = ScopedFault::new("serve.job", FaultAction::Delay(Duration::from_millis(500)));
    let (addr, handle) = start(default_config());

    let accepted = submit(&addr, "optimize", OPTIMIZE_REQ);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    wait_for_state(&addr, "j1", "running", Duration::from_secs(30));

    let cancel = client::request(&addr, "DELETE", "/v1/jobs/j1", "").expect("cancel");
    assert_eq!(cancel.status, 202, "{}", cancel.body);

    let doc = wait_for_state(&addr, "j1", "terminal", Duration::from_secs(120));
    assert_eq!(state_of(&doc), "cancelled");
    assert_eq!(doc.get("status").unwrap(), &Json::Int(200));
    let result = doc.get("result").expect("best-so-far result attached");
    assert_eq!(
        result.get("degraded").unwrap(),
        &Json::Bool(true),
        "{}",
        result.render()
    );
    // A second cancel is a structured conflict, not a surprise.
    let again = client::request(&addr, "DELETE", "/v1/jobs/j1", "").expect("re-cancel");
    assert_eq!(again.status, 409, "{}", again.body);

    stop(&addr, handle);
}

#[test]
fn cancelling_a_queued_job_never_runs_it() {
    let _serial = serialize();
    let _hold = ScopedFault::new("serve.job", FaultAction::Delay(Duration::from_secs(2)));
    let (addr, handle) = start(ServerConfig {
        job_workers: 1,
        ..default_config()
    });

    let first = submit(&addr, "info", r#"{"soc":"d695"}"#);
    assert_eq!(first.status, 202);
    wait_for_state(&addr, "j1", "running", Duration::from_secs(30));
    let second = submit(&addr, "info", r#"{"soc":"d695"}"#);
    assert_eq!(second.status, 202);

    let cancel = client::request(&addr, "DELETE", "/v1/jobs/j2", "").expect("cancel");
    assert_eq!(
        cancel.status, 200,
        "queued cancel is immediate: {}",
        cancel.body
    );
    let doc = job_doc(&addr, "j2");
    assert_eq!(state_of(&doc), "cancelled");

    stop(&addr, handle);
}

#[test]
fn journal_replay_restores_terminal_results_and_reruns_bit_identically() {
    let _serial = serialize();
    let path = temp_journal("replay-rerun");

    // Run 1: journaled daemon computes the baseline result.
    let (addr, handle) = start(ServerConfig {
        journal: Some(path.clone()),
        ..default_config()
    });
    let accepted = submit(&addr, "optimize", OPTIMIZE_REQ);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let done = wait_for_state(&addr, "j1", "done", Duration::from_secs(120));
    let baseline = done.get("result").expect("baseline result").render();
    stop(&addr, handle);

    // Run 2: replay restores the terminal result without re-executing.
    let (addr, handle) = start(ServerConfig {
        journal: Some(path.clone()),
        ..default_config()
    });
    let doc = job_doc(&addr, "j1");
    assert_eq!(state_of(&doc), "done");
    assert_eq!(doc.get("result").unwrap().render(), baseline);
    assert_eq!(doc.get("recovered").unwrap(), &Json::Bool(false));
    stop(&addr, handle);

    // Simulate an interrupted job: a `submitted` record with no
    // terminal record (exactly what a crash mid-run leaves behind).
    {
        let (journal, _) = Journal::open(&path).expect("journal reopens");
        journal
            .append(
                &Json::obj(vec![
                    ("rec", Json::str("submitted")),
                    ("job", Json::Int(2)),
                    ("tool", Json::str("optimize")),
                    ("body", Json::str(OPTIMIZE_REQ)),
                ]),
                true,
            )
            .expect("appends");
    }

    // Run 3: --recover=rerun re-executes it to a bit-identical result.
    let (addr, handle) = start(ServerConfig {
        journal: Some(path.clone()),
        recover: RecoverMode::Rerun,
        ..default_config()
    });
    let doc = wait_for_state(&addr, "j2", "done", Duration::from_secs(120));
    assert_eq!(doc.get("recovered").unwrap(), &Json::Bool(true));
    assert_eq!(
        doc.get("result").unwrap().render(),
        baseline,
        "rerun reproduces the baseline bit-identically"
    );
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    let metrics_doc = Json::parse(&metrics.body).expect("metrics JSON");
    assert_eq!(
        metrics_doc.get("jobs").unwrap().get("recovered").unwrap(),
        &Json::Int(1)
    );
    stop(&addr, handle);

    // Interrupted again, but --recover=mark fails it without a re-run.
    {
        let (journal, _) = Journal::open(&path).expect("journal reopens");
        journal
            .append(
                &Json::obj(vec![
                    ("rec", Json::str("submitted")),
                    ("job", Json::Int(3)),
                    ("tool", Json::str("optimize")),
                    ("body", Json::str(OPTIMIZE_REQ)),
                ]),
                true,
            )
            .expect("appends");
    }
    let (addr, handle) = start(ServerConfig {
        journal: Some(path.clone()),
        recover: RecoverMode::Mark,
        ..default_config()
    });
    let doc = job_doc(&addr, "j3");
    assert_eq!(state_of(&doc), "failed");
    assert!(
        doc.render().contains("interrupted by daemon restart"),
        "{}",
        doc.render()
    );
    stop(&addr, handle);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn shutdown_drains_the_queue_and_cancels_queued_jobs() {
    let _serial = serialize();
    let _hold = ScopedFault::new("serve.job", FaultAction::Delay(Duration::from_millis(300)));
    let (addr, handle) = start(ServerConfig {
        job_workers: 1,
        ..default_config()
    });
    submit(&addr, "info", r#"{"soc":"d695"}"#);
    wait_for_state(&addr, "j1", "running", Duration::from_secs(30));
    submit(&addr, "info", r#"{"soc":"d695"}"#);

    // Shutdown joins every worker; afterwards nothing is left running.
    stop(&addr, handle);
}
