//! Deterministic fault injection (failpoints) for robustness testing.
//!
//! A *failpoint* is a named site in the code (`"tam.merge"`,
//! `"exec.pool.task"`, …) that normally does nothing. When activated —
//! via the `SOCTAM_FAILPOINTS` environment variable or the programmatic
//! [`set`]/[`set_after`] API — the site fires a configured
//! [`FaultAction`]: return a structured error, panic with a typed
//! payload, or sleep for a fixed delay. This is how the test suite and
//! the CI smoke matrix prove that every error path in the pipeline
//! actually works.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when inactive.** Every instrumented site performs one
//!    relaxed atomic load of a global counter and nothing else. No
//!    locks, no allocation, no string hashing on the hot path.
//! 2. **Deterministic.** Activation is counter-based (`site=error@3`
//!    fires from the third hit of that site onward), never random, so a
//!    failing run reproduces exactly.
//! 3. **`std`-only.** No dependency on the `fail` crate; the registry
//!    is a `Mutex<HashMap>` consulted only while at least one site is
//!    active.
//!
//! Environment syntax (sites separated by `;` or `,`):
//!
//! ```text
//! SOCTAM_FAILPOINTS='tam.merge=panic;exec.cache.lookup=error@2;compaction.bucket=delay:5'
//! ```
//!
//! Instrumented call sites come in two flavors. Fallible code paths
//! call [`check`] and propagate the [`FaultError`] through their
//! crate's error enum. Infallible paths (inside `par_map` closures,
//! cache lookups) call [`hit`], which panics with a [`FaultError`]
//! payload; the pipeline boundary catches the unwind and downcasts the
//! payload back into a structured error naming the site.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Environment variable consulted by [`init_from_env`].
pub const ENV_VAR: &str = "SOCTAM_FAILPOINTS";

/// What an activated failpoint does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The site returns a [`FaultError`] (fallible sites) or panics
    /// with a [`FaultError`] payload (infallible sites).
    Error,
    /// The site panics with a [`FaultError`] payload.
    Panic,
    /// The site sleeps for the given duration, then continues normally.
    /// Useful for exercising deadline budgets.
    Delay(Duration),
}

/// Structured error produced by a fired failpoint.
///
/// Also used as the panic payload of [`FaultAction::Panic`] so that a
/// containment boundary (`catch_unwind` + downcast) can recover the
/// site name from an unwinding worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultError {
    site: String,
}

impl FaultError {
    /// Creates an error attributed to `site`.
    pub fn new(site: impl Into<String>) -> Self {
        Self { site: site.into() }
    }

    /// The failpoint site that fired.
    pub fn site(&self) -> &str {
        &self.site
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.site)
    }
}

impl std::error::Error for FaultError {}

#[derive(Debug)]
struct Entry {
    action: FaultAction,
    /// Fires from the `fire_from`-th hit (1-based) of this site onward.
    fire_from: u64,
    hits: u64,
}

#[derive(Debug, Default)]
struct Registry {
    sites: HashMap<String, Entry>,
}

/// Number of configured sites. The hot-path gate: sites only consult
/// the registry when this is non-zero.
static ACTIVE_SITES: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    // The registry is only mutated under this lock and a poisoned
    // guard still holds consistent data, so recover instead of
    // propagating the poison.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// True when at least one failpoint is configured. One relaxed atomic
/// load — this is the only cost instrumented sites pay in production.
#[inline]
pub fn any_active() -> bool {
    ACTIVE_SITES.load(Ordering::Relaxed) != 0
}

/// Activates `site` with `action`, firing from the first hit.
pub fn set(site: impl Into<String>, action: FaultAction) {
    set_after(site, action, 0);
}

/// Activates `site` with `action`, skipping the first `skip` hits
/// (so `skip = 2` fires from the third hit onward). Deterministic:
/// per-site hit counts reset when the site is (re)configured.
pub fn set_after(site: impl Into<String>, action: FaultAction, skip: u64) {
    let mut reg = lock_registry();
    reg.sites.insert(
        site.into(),
        Entry {
            action,
            fire_from: skip.saturating_add(1),
            hits: 0,
        },
    );
    ACTIVE_SITES.store(reg.sites.len(), Ordering::Relaxed);
}

/// Deactivates `site`. No-op when it was not configured.
pub fn clear(site: &str) {
    let mut reg = lock_registry();
    reg.sites.remove(site);
    ACTIVE_SITES.store(reg.sites.len(), Ordering::Relaxed);
}

/// Deactivates every failpoint.
pub fn reset() {
    let mut reg = lock_registry();
    reg.sites.clear();
    ACTIVE_SITES.store(0, Ordering::Relaxed);
}

/// Names of all configured sites, sorted.
pub fn configured_sites() -> Vec<String> {
    let reg = lock_registry();
    let mut names: Vec<String> = reg.sites.keys().cloned().collect();
    names.sort();
    names
}

/// Parses a `SOCTAM_FAILPOINTS`-style spec into `(site, action, skip)`
/// triples without touching the registry.
///
/// Grammar: `spec := entry ((';' | ',') entry)*`,
/// `entry := site '=' action ('@' skip)?`,
/// `action := 'panic' | 'error' | 'off' | 'delay:' millis`.
pub fn parse_spec(spec: &str) -> Result<Vec<(String, FaultAction, u64)>, String> {
    let mut out = Vec::new();
    for part in spec.split([';', ',']) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, rhs) = part
            .split_once('=')
            .ok_or_else(|| format!("failpoint `{part}`: expected `site=action`"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("failpoint `{part}`: empty site name"));
        }
        let (action_text, skip) = match rhs.rsplit_once('@') {
            Some((a, n)) => {
                let skip: u64 = n
                    .trim()
                    .parse()
                    .map_err(|_| format!("failpoint `{part}`: bad hit count `{n}`"))?;
                // `@N` means "fire on the Nth hit", i.e. skip N-1.
                (a.trim(), skip.saturating_sub(1))
            }
            None => (rhs.trim(), 0),
        };
        let action = match action_text {
            "panic" => FaultAction::Panic,
            "error" => FaultAction::Error,
            "off" => {
                out.push((site.to_string(), FaultAction::Error, u64::MAX));
                continue;
            }
            other => match other.strip_prefix("delay:") {
                Some(ms) => {
                    let ms: u64 = ms
                        .trim()
                        .parse()
                        .map_err(|_| format!("failpoint `{part}`: bad delay `{ms}`"))?;
                    FaultAction::Delay(Duration::from_millis(ms))
                }
                _ => {
                    return Err(format!(
                        "failpoint `{part}`: unknown action `{other}` \
                         (expected panic|error|delay:ms)"
                    ))
                }
            },
        };
        out.push((site.to_string(), action, skip));
    }
    Ok(out)
}

/// Reads [`ENV_VAR`] and configures the registry from it. Returns the
/// number of sites activated (0 when the variable is unset or empty).
/// An invalid spec is reported as `Err` and leaves the registry
/// untouched.
pub fn init_from_env() -> Result<usize, String> {
    let spec = match std::env::var(ENV_VAR) {
        Ok(s) => s,
        Err(_) => return Ok(0),
    };
    let entries = parse_spec(&spec)?;
    for (site, action, skip) in &entries {
        if *skip == u64::MAX {
            clear(site);
        } else {
            set_after(site.clone(), *action, *skip);
        }
    }
    Ok(entries.len())
}

/// Consults the registry for `site` and returns the action to execute
/// now, advancing the deterministic hit counter.
fn fire(site: &str) -> Option<FaultAction> {
    let mut reg = lock_registry();
    let entry = reg.sites.get_mut(site)?;
    entry.hits = entry.hits.saturating_add(1);
    (entry.hits >= entry.fire_from).then_some(entry.action)
}

/// Failpoint for **fallible** call sites: returns `Err(FaultError)`
/// when `site` is configured with [`FaultAction::Error`], panics with a
/// [`FaultError`] payload for [`FaultAction::Panic`], sleeps for
/// [`FaultAction::Delay`]. Free (one atomic load) when no failpoints
/// are configured.
#[inline]
pub fn check(site: &'static str) -> Result<(), FaultError> {
    if !any_active() {
        return Ok(());
    }
    check_slow(site)
}

#[cold]
fn check_slow(site: &'static str) -> Result<(), FaultError> {
    match fire(site) {
        None => Ok(()),
        Some(FaultAction::Error) => Err(FaultError::new(site)),
        Some(FaultAction::Panic) => std::panic::panic_any(FaultError::new(site)),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Failpoint for **infallible** call sites (parallel task bodies, cache
/// lookups): both `error` and `panic` actions panic with a
/// [`FaultError`] payload, to be contained and converted into a
/// structured error at the pipeline boundary. Free (one atomic load)
/// when no failpoints are configured.
#[inline]
pub fn hit(site: &'static str) {
    if !any_active() {
        return;
    }
    hit_slow(site);
}

#[cold]
fn hit_slow(site: &'static str) {
    match fire(site) {
        None => {}
        Some(FaultAction::Error) | Some(FaultAction::Panic) => {
            std::panic::panic_any(FaultError::new(site))
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
    }
}

/// RAII guard that deactivates `site` when dropped. Keeps tests from
/// leaking failpoints into each other even on assertion failure.
#[derive(Debug)]
pub struct ScopedFault {
    site: String,
}

impl ScopedFault {
    /// Activates `site` with `action` for the guard's lifetime.
    #[must_use = "the failpoint is cleared when the guard drops"]
    pub fn new(site: impl Into<String>, action: FaultAction) -> Self {
        let site = site.into();
        set(site.clone(), action);
        Self { site }
    }
}

impl Drop for ScopedFault {
    fn drop(&mut self) {
        clear(&self.site);
    }
}

/// Extracts a [`FaultError`] from a `catch_unwind` panic payload, if
/// the panic was raised by a failpoint.
pub fn fault_from_panic(payload: &(dyn std::any::Any + Send)) -> Option<&FaultError> {
    payload.downcast_ref::<FaultError>()
}

/// Renders a best-effort human-readable message from any panic
/// payload: fault site, `&str`/`String` messages, or a fallback.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(fault) = fault_from_panic(payload) {
        fault.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex as StdMutex;

    /// The registry is process-global; serialize tests that touch it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        g
    }

    #[test]
    fn inactive_sites_are_free_and_silent() {
        let _g = guard();
        assert!(!any_active());
        assert!(check("never.configured").is_ok());
        hit("never.configured");
    }

    #[test]
    fn error_action_returns_structured_error() {
        let _g = guard();
        let _f = ScopedFault::new("unit.err", FaultAction::Error);
        let err = check("unit.err").expect_err("must fire");
        assert_eq!(err.site(), "unit.err");
        assert!(err.to_string().contains("unit.err"));
        // Other sites unaffected.
        assert!(check("unit.other").is_ok());
    }

    #[test]
    fn panic_action_carries_typed_payload() {
        let _g = guard();
        let _f = ScopedFault::new("unit.panic", FaultAction::Panic);
        let payload = catch_unwind(AssertUnwindSafe(|| hit("unit.panic"))).expect_err("must panic");
        let fault = fault_from_panic(payload.as_ref()).expect("typed payload");
        assert_eq!(fault.site(), "unit.panic");
        assert!(panic_message(payload.as_ref()).contains("unit.panic"));
    }

    #[test]
    fn hit_counter_trigger_is_deterministic() {
        let _g = guard();
        set_after("unit.nth", FaultAction::Error, 2);
        assert!(check("unit.nth").is_ok());
        assert!(check("unit.nth").is_ok());
        assert!(check("unit.nth").is_err());
        assert!(check("unit.nth").is_err());
        reset();
        assert!(check("unit.nth").is_ok());
    }

    #[test]
    fn parse_spec_round_trips() {
        let spec = "a.b=panic; c.d=error@3,e.f=delay:25";
        let entries = parse_spec(spec).expect("valid spec");
        assert_eq!(
            entries,
            vec![
                ("a.b".to_string(), FaultAction::Panic, 0),
                ("c.d".to_string(), FaultAction::Error, 2),
                (
                    "e.f".to_string(),
                    FaultAction::Delay(Duration::from_millis(25)),
                    0
                ),
            ]
        );
        assert!(parse_spec("").expect("empty ok").is_empty());
        assert!(parse_spec("nosign").is_err());
        assert!(parse_spec("a=frob").is_err());
        assert!(parse_spec("a=delay:x").is_err());
        assert!(parse_spec("a=error@x").is_err());
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // measures that the delay really slept
    fn delay_action_continues_normally() {
        let _g = guard();
        let _f = ScopedFault::new("unit.delay", FaultAction::Delay(Duration::from_millis(1)));
        let start = std::time::Instant::now();
        assert!(check("unit.delay").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn scoped_fault_clears_on_drop() {
        let _g = guard();
        {
            let _f = ScopedFault::new("unit.scoped", FaultAction::Error);
            assert!(any_active());
            assert_eq!(configured_sites(), vec!["unit.scoped".to_string()]);
        }
        assert!(!any_active());
        assert!(check("unit.scoped").is_ok());
    }
}
