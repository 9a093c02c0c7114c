//! `soctam-servectl` — a dependency-free command-line client for a
//! running `soctam-serve` daemon. Used by the CI smoke jobs; also handy
//! interactively when `curl` is not around.
//!
//! Every verb goes through [`client::request_with_retry`]: connect
//! failures and 429/503 pacing responses are retried with deterministic
//! seeded exponential backoff (override the jitter seed with
//! `SOCTAM_RETRY_SEED`), honoring the server's `Retry-After` hint.

// The poll timeout is a client-side wall-clock wait; it never shapes a
// result.
#![allow(clippy::disallowed_methods)]

use std::process::ExitCode;
use std::time::{Duration, Instant};

use soctam_registry::Json;
use soctam_serve::client::{self, ClientResponse, RetryPolicy};

const USAGE: &str = "\
soctam-servectl — talk to a running soctam-serve daemon

USAGE:
    soctam-servectl <addr> get    <path>
    soctam-servectl <addr> post   <path> [json-body]
    soctam-servectl <addr> submit <tool> [json-request]
    soctam-servectl <addr> wait   <job-id> [timeout-secs]
    soctam-servectl <addr> cancel <job-id>
    soctam-servectl <addr> jobs

EXAMPLES:
    soctam-servectl 127.0.0.1:8080 get /v1/tools
    soctam-servectl 127.0.0.1:8080 submit optimize \\
        '{\"soc\":\"d695\",\"params\":{\"patterns\":300,\"width\":16}}'
    soctam-servectl 127.0.0.1:8080 wait j1
    soctam-servectl 127.0.0.1:8080 cancel j1
    soctam-servectl 127.0.0.1:8080 post /admin/shutdown

The response body goes to stdout, `HTTP <status>` to stderr. Requests
retry transparently on connect errors and 429/503 (deterministic seeded
backoff; set SOCTAM_RETRY_SEED to vary the jitter stream).

EXIT CODES:
    0  success (2xx; for `wait`: the job finished `done`)
    1  failure (non-2xx, connect error, or the awaited job `failed`)
    2  usage error
    3  the awaited job ended `cancelled`
    4  `wait` timed out before the job reached a terminal state
";

/// Exit code for a job that ended `cancelled`.
const EXIT_CANCELLED: u8 = 3;
/// Exit code for a `wait` that hit its timeout.
const EXIT_WAIT_TIMEOUT: u8 = 4;
/// Default `wait` timeout.
const DEFAULT_WAIT_SECS: u64 = 600;
/// `wait` polling interval.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

fn retry_policy() -> RetryPolicy {
    let seed = std::env::var("SOCTAM_RETRY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    RetryPolicy::seeded(seed)
}

/// Prints the exchange and maps 2xx to exit 0, everything else to 1.
fn report(result: Result<ClientResponse, client::ClientError>) -> ExitCode {
    match result {
        Ok(response) => {
            eprintln!("HTTP {}", response.status);
            println!("{}", response.body);
            if (200..300).contains(&response.status) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `wait <job-id>`: poll until the job is terminal, print its final
/// status document, and map the terminal state to an exit code.
fn wait_for_job(addr: &str, job: &str, timeout: Duration, policy: &RetryPolicy) -> ExitCode {
    let path = format!("/v1/jobs/{job}");
    let deadline = Instant::now() + timeout;
    loop {
        let response = match client::request_with_retry(addr, "GET", &path, "", policy) {
            Ok(response) => response,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !(200..300).contains(&response.status) {
            eprintln!("HTTP {}", response.status);
            println!("{}", response.body);
            return ExitCode::FAILURE;
        }
        let state = Json::parse(&response.body)
            .ok()
            .and_then(|doc| doc.get("state").and_then(Json::as_str).map(str::to_owned))
            .unwrap_or_default();
        match state.as_str() {
            "done" | "failed" | "cancelled" => {
                eprintln!("HTTP {}", response.status);
                println!("{}", response.body);
                return match state.as_str() {
                    "done" => ExitCode::SUCCESS,
                    "cancelled" => ExitCode::from(EXIT_CANCELLED),
                    _ => ExitCode::FAILURE,
                };
            }
            _ => {}
        }
        if Instant::now() >= deadline {
            eprintln!("error: job {job} not terminal after {}s", timeout.as_secs());
            println!("{}", response.body);
            return ExitCode::from(EXIT_WAIT_TIMEOUT);
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (Some(addr), Some(verb)) = (args.first(), args.get(1)) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let policy = retry_policy();
    let arg = args.get(2);
    let empty = String::new();
    match verb.as_str() {
        "get" | "post" | "cancel" | "submit" | "wait" if arg.is_none() => {
            eprintln!("error: `{verb}` needs an argument (try --help)");
            ExitCode::from(2)
        }
        "get" => report(client::request_with_retry(
            addr,
            "GET",
            arg.unwrap_or(&empty),
            "",
            &policy,
        )),
        "post" => report(client::request_with_retry(
            addr,
            "POST",
            arg.unwrap_or(&empty),
            args.get(3).unwrap_or(&empty),
            &policy,
        )),
        "submit" => {
            let request = match args.get(3) {
                Some(raw) => match Json::parse(raw) {
                    Ok(json) => json,
                    Err(e) => {
                        eprintln!("error: invalid request JSON: {e}");
                        return ExitCode::from(2);
                    }
                },
                None => Json::Obj(Vec::new()),
            };
            let body = Json::obj(vec![
                ("tool", Json::str(arg.unwrap_or(&empty).as_str())),
                ("request", request),
            ])
            .render();
            report(client::request_with_retry(
                addr, "POST", "/v1/jobs", &body, &policy,
            ))
        }
        "wait" => {
            let timeout = match args.get(3) {
                Some(raw) => match raw.parse() {
                    Ok(secs) => Duration::from_secs(secs),
                    Err(_) => {
                        eprintln!("error: invalid timeout `{raw}` (seconds expected)");
                        return ExitCode::from(2);
                    }
                },
                None => Duration::from_secs(DEFAULT_WAIT_SECS),
            };
            wait_for_job(addr, arg.unwrap_or(&empty), timeout, &policy)
        }
        "cancel" => report(client::request_with_retry(
            addr,
            "DELETE",
            &format!("/v1/jobs/{}", arg.unwrap_or(&empty)),
            "",
            &policy,
        )),
        "jobs" => report(client::request_with_retry(
            addr, "GET", "/v1/jobs", "", &policy,
        )),
        other => {
            eprintln!("error: unknown verb `{other}` (try --help)");
            ExitCode::from(2)
        }
    }
}
