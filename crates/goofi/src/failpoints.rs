//! Deterministic failure injection for the campaign plane itself.
//!
//! The paper's discipline — executable assertions plus best-effort
//! recovery — is applied here to our own infrastructure: the store,
//! resume, supervisor and parallel-claim layers are stateful systems that
//! must never lose or corrupt a record, and that claim is only credible if
//! it survives *injected* crashes at every durability boundary. This
//! module provides the failpoints: named program points ([`CATALOG`])
//! instrumented with the [`fp!`](crate::fp) / [`fp_nofail!`](crate::fp_nofail)
//! macros, each of which can be armed from a test (or the `campaign` CLI's
//! `--failpoint id=action` flag) with a deterministic [`Action`]:
//!
//! | action         | effect at the failpoint                             |
//! |----------------|-----------------------------------------------------|
//! | `return-error` | the enclosing function returns an injected I/O error |
//! | `panic`        | the thread panics (exercises supervision/self-heal) |
//! | `crash`        | the process aborts — state persists on disk         |
//! | `delay:MS`     | the thread sleeps `MS` milliseconds                 |
//!
//! A spec may append `@N` (1-based) to arm the action from the Nth hit of
//! that failpoint onward (`store.append.before-write=crash@5` crashes the
//! fifth record append), which lets a test crash *mid*-campaign rather
//! than at the first touch of a boundary.
//!
//! The registry is process-global and thread-safe; the catalog is the
//! closed set of valid IDs, so a typo in a spec is an error rather than a
//! silently dead failpoint. `tests/crash_recovery.rs` drives every
//! catalog entry through a crash-then-recover scenario, and
//! `ASSURANCE.md` maps each ID to the invariant it guards, the test that
//! proves it, and the CI gate that enforces it (`tests/assurance_map.rs`
//! keeps that table honest).
//!
//! # Cost
//!
//! Without the `failpoints` cargo feature the macros expand to nothing:
//! the instrumented hot paths (record append, claim loop) carry zero
//! extra instructions, and the default build/test/bench pipelines are
//! byte-for-byte the code they were before this module existed. With the
//! feature enabled but no failpoint armed, a hit is one relaxed atomic
//! load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// `true` when this build carries the failpoint instrumentation (the
/// `failpoints` cargo feature). The registry below always compiles — the
/// catalog is needed by the assurance tests regardless — but without the
/// feature no program point ever consults it.
pub const ENABLED: bool = cfg!(feature = "failpoints");

/// One failpoint in the catalog: a stable ID and where/what it guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailpointDef {
    /// Stable identifier, namespaced `area.site` (CLI/test facing).
    pub id: &'static str,
    /// The durability boundary the failpoint sits on.
    pub site: &'static str,
    /// Whether the site can propagate `return-error` (it sits in a
    /// `Result` function). At `nofail` sites `return-error` is a
    /// configuration error and panics with a message saying so.
    pub can_return_error: bool,
}

/// The closed catalog of failpoints. Every entry is instrumented at
/// exactly one program point; `tests/crash_recovery.rs` must exercise a
/// `crash` scenario for each, and `ASSURANCE.md` must map each to its
/// invariant (both enforced by `tests/assurance_map.rs`).
pub const CATALOG: &[FailpointDef] = &[
    FailpointDef {
        id: "store.create.before-header",
        site: "JsonlStore::create, after the file exists but before the header line is written",
        can_return_error: true,
    },
    FailpointDef {
        id: "store.create.after-header",
        site: "JsonlStore::create, after the header line is flushed but before it is synced",
        can_return_error: true,
    },
    FailpointDef {
        id: "store.append.before-write",
        site: "record append, before the checksummed line reaches the writer",
        can_return_error: true,
    },
    FailpointDef {
        id: "store.append.after-write",
        site: "record append, after the line is buffered but before the flush",
        can_return_error: true,
    },
    FailpointDef {
        id: "store.append.after-flush",
        site: "record append, after the checksum line flush completes",
        can_return_error: true,
    },
    FailpointDef {
        id: "store.resume.before-truncate",
        site: "JsonlStore::open_resume, torn tail detected but not yet truncated",
        can_return_error: true,
    },
    FailpointDef {
        id: "store.resume.after-truncate",
        site: "JsonlStore::open_resume, tail truncated but append writer not yet reopened",
        can_return_error: true,
    },
    FailpointDef {
        id: "sidecar.before-write",
        site: "telemetry sidecar, before the temporary file is written",
        can_return_error: true,
    },
    FailpointDef {
        id: "sidecar.before-rename",
        site: "telemetry sidecar, temporary file written but not yet renamed into place",
        can_return_error: true,
    },
    FailpointDef {
        id: "experiment.attempt",
        site: "supervised experiment attempt, inside the containment boundary, \
               for every start: injection checkpoint, live-instant resume or \
               reset retry (arm with `panic` to drive the retry/quarantine paths)",
        can_return_error: false,
    },
    FailpointDef {
        id: "supervisor.before-retry",
        site: "supervisor, first attempt failed but the retry from reset has not started",
        can_return_error: false,
    },
    FailpointDef {
        id: "supervisor.before-quarantine",
        site: "supervisor, both attempts failed but the quarantine record is not yet emitted",
        can_return_error: false,
    },
    FailpointDef {
        id: "campaign.claim",
        site: "fault-list scheduler, a worker claimed an index but has not run it",
        can_return_error: false,
    },
    FailpointDef {
        id: "campaign.self-heal",
        site: "fault-list scheduler, workers joined but lost claims not yet re-run",
        can_return_error: false,
    },
    FailpointDef {
        id: "farm.lease.claim",
        site: "farm worker, lease file created exclusively but the shard not yet started",
        can_return_error: true,
    },
    FailpointDef {
        id: "farm.lease.heartbeat",
        site: "farm worker heartbeat, before the lease mtime refresh is written",
        can_return_error: true,
    },
    FailpointDef {
        id: "farm.lease.reclaim",
        site: "farm reclaim, expired lease renamed aside but not yet deleted",
        can_return_error: true,
    },
    FailpointDef {
        id: "farm.segment.finalize",
        site: "farm worker, segment complete and flushed but the done marker not yet durable",
        can_return_error: true,
    },
    FailpointDef {
        id: "farm.merge.segment",
        site: "farm merge, next segment validated but its records not yet folded in",
        can_return_error: true,
    },
    FailpointDef {
        id: "farm.merge.publish",
        site: "farm merge, canonical store written to a temp file but not yet renamed into place",
        can_return_error: true,
    },
];

/// Looks an ID up in [`CATALOG`].
#[must_use]
pub fn catalog_entry(id: &str) -> Option<&'static FailpointDef> {
    CATALOG.iter().find(|d| d.id == id)
}

/// What an armed failpoint does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Make the enclosing function return an injected `io::Error`
    /// (`Result` sites only; see [`FailpointDef::can_return_error`]).
    ReturnError,
    /// Panic the hitting thread — exercises supervision and self-healing.
    Panic,
    /// Abort the process ([`std::process::abort`]); on-disk state persists
    /// exactly as the crash left it, which is the whole point.
    Crash,
    /// Sleep for the given duration, then continue.
    Delay(Duration),
}

/// A parsed `--failpoint` spec: the action plus the hit from which it
/// arms (`@N`, 1-based; hits before the Nth pass through untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmedAction {
    /// What to do once armed.
    pub action: Action,
    /// First hit (1-based) at which the action fires.
    pub from_hit: u64,
}

struct Entry {
    armed: ArmedAction,
    hits: u64,
}

/// Count of armed failpoints, letting the hit path skip the registry lock
/// entirely when nothing is armed (the overwhelmingly common case even in
/// failpoint-enabled test builds).
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<&'static str, Entry>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<&'static str, Entry>> {
    // A panic action unwinding through a hit poisons the mutex; that is
    // expected operation here, not corruption (the map is only mutated
    // under the lock by configure/clear).
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms failpoint `id` with `armed`. The ID must exist in [`CATALOG`].
///
/// # Errors
///
/// Returns a message naming the unknown ID.
pub fn set(id: &str, armed: ArmedAction) -> Result<(), String> {
    let def = catalog_entry(id)
        .ok_or_else(|| format!("unknown failpoint `{id}` (see bera_goofi::failpoints::CATALOG)"))?;
    let mut map = lock();
    if map.insert(def.id, Entry { armed, hits: 0 }).is_none() {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
    Ok(())
}

/// Disarms failpoint `id` (a no-op if it was not armed).
pub fn clear(id: &str) {
    let mut map = lock();
    if map.remove(id).is_some() {
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Disarms every failpoint and resets all hit counters.
pub fn clear_all() {
    let mut map = lock();
    let n = map.len();
    map.clear();
    ARMED.fetch_sub(n, Ordering::SeqCst);
}

/// Parses and arms one `id=action[@N]` spec, the grammar of the campaign
/// CLI's `--failpoint` flag:
///
/// ```text
/// store.append.before-write=crash@5
/// experiment.attempt=panic
/// store.create.before-header=return-error
/// store.append.after-flush=delay:25
/// ```
///
/// # Errors
///
/// Returns a message describing the malformed spec, the unknown ID, or
/// the unknown action.
pub fn configure(spec: &str) -> Result<(), String> {
    let (id, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("failpoint spec `{spec}` is not `id=action[@N]`"))?;
    let (action_text, from_hit) = match rest.split_once('@') {
        Some((a, n)) => {
            let n: u64 = n
                .parse()
                .map_err(|e| format!("failpoint spec `{spec}`: bad hit count: {e}"))?;
            if n == 0 {
                return Err(format!("failpoint spec `{spec}`: hit counts are 1-based"));
            }
            (a, n)
        }
        None => (rest, 1),
    };
    let action = match action_text {
        "return-error" => Action::ReturnError,
        "panic" => Action::Panic,
        "crash" => Action::Crash,
        other => match other.strip_prefix("delay:") {
            Some(ms) => {
                let ms: u64 = ms
                    .parse()
                    .map_err(|e| format!("failpoint spec `{spec}`: bad delay: {e}"))?;
                Action::Delay(Duration::from_millis(ms))
            }
            None => {
                return Err(format!(
                    "failpoint spec `{spec}`: unknown action `{other}` \
                     (expected return-error|panic|crash|delay:MS)"
                ))
            }
        },
    };
    set(id, ArmedAction { action, from_hit })
}

fn fire(id: &str, action: Action) -> Option<std::io::Error> {
    match action {
        Action::ReturnError => Some(std::io::Error::other(format!(
            "failpoint {id}: injected error"
        ))),
        Action::Panic => panic!("failpoint {id}: forced panic"),
        Action::Crash => {
            // stderr so a test harness can see where the child died.
            eprintln!("failpoint {id}: aborting process");
            std::process::abort();
        }
        Action::Delay(d) => {
            std::thread::sleep(d);
            None
        }
    }
}

/// Registers a hit of failpoint `id` and performs its armed action, if
/// any. Returns `Some(error)` for `return-error` (the [`fp!`](crate::fp)
/// macro propagates it); panics, aborts, or sleeps in place for the other
/// actions. Called by the macros — instrumented code should not call it
/// directly.
#[must_use]
pub fn hit(id: &str) -> Option<std::io::Error> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let action = {
        let mut map = lock();
        let entry = map.get_mut(id)?;
        entry.hits += 1;
        if entry.hits < entry.armed.from_hit {
            return None;
        }
        entry.armed.action
    }; // lock released before any panic/sleep
    fire(id, action)
}

/// Like [`hit`], for sites that cannot propagate an error. Arming such a
/// site with `return-error` is a configuration mistake and panics with a
/// message saying so.
pub fn hit_nofail(id: &str) {
    if let Some(e) = hit(id) {
        panic!("failpoint {id}: return-error armed at a site that cannot return errors ({e})");
    }
}

/// Instruments a durability boundary inside a function returning
/// `Result<_, E>` where `E: From<std::io::Error>`. Expands to nothing
/// without the `failpoints` feature.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fp {
    ($id:literal) => {
        if let Some(e) = $crate::failpoints::hit($id) {
            return Err(e.into());
        }
    };
}

/// Instruments a durability boundary inside a function returning
/// `Result<_, E>` where `E: From<std::io::Error>`. Expands to nothing
/// without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fp {
    ($id:literal) => {};
}

/// Instruments a program point that cannot propagate errors (`crash`,
/// `panic` and `delay` actions only). Expands to nothing without the
/// `failpoints` feature.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fp_nofail {
    ($id:literal) => {
        $crate::failpoints::hit_nofail($id)
    };
}

/// Instruments a program point that cannot propagate errors (`crash`,
/// `panic` and `delay` actions only). Expands to nothing without the
/// `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fp_nofail {
    ($id:literal) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry state is process-global; tests that arm failpoints
    /// serialize on this lock so `cargo test`'s thread pool cannot
    /// interleave them.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn catalog_ids_are_unique_and_namespaced() {
        let mut seen = std::collections::BTreeSet::new();
        for def in CATALOG {
            assert!(seen.insert(def.id), "duplicate failpoint id {}", def.id);
            assert!(
                def.id.contains('.'),
                "failpoint id `{}` is not namespaced",
                def.id
            );
            assert_eq!(def.id, def.id.to_lowercase());
        }
    }

    #[test]
    fn unarmed_hit_is_a_no_op() {
        let _g = guard();
        clear_all();
        assert!(hit("store.append.before-write").is_none());
        hit_nofail("campaign.claim");
    }

    #[test]
    fn unknown_id_is_rejected() {
        let _g = guard();
        assert!(configure("store.apend.before-write=crash").is_err());
        assert!(set(
            "no.such.point",
            ArmedAction {
                action: Action::Panic,
                from_hit: 1
            }
        )
        .is_err());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _g = guard();
        assert!(configure("store.append.before-write").is_err());
        assert!(configure("store.append.before-write=explode").is_err());
        assert!(configure("store.append.before-write=crash@0").is_err());
        assert!(configure("store.append.before-write=delay:abc").is_err());
        assert!(configure("store.append.before-write=crash@x").is_err());
    }

    #[test]
    fn return_error_fires_from_the_nth_hit() {
        let _g = guard();
        clear_all();
        configure("store.append.before-write=return-error@3").unwrap();
        assert!(hit("store.append.before-write").is_none());
        assert!(hit("store.append.before-write").is_none());
        let e = hit("store.append.before-write").expect("third hit fires");
        assert!(e.to_string().contains("store.append.before-write"));
        // ...and keeps firing after N.
        assert!(hit("store.append.before-write").is_some());
        clear_all();
        assert!(hit("store.append.before-write").is_none());
    }

    #[test]
    fn panic_action_panics_with_the_id() {
        let _g = guard();
        clear_all();
        configure("experiment.attempt=panic").unwrap();
        let caught = std::panic::catch_unwind(|| hit_nofail("experiment.attempt"));
        clear_all();
        let payload = caught.expect_err("panic action must panic");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.contains("failpoint experiment.attempt"), "{text}");
    }

    #[test]
    fn delay_action_sleeps_then_continues() {
        let _g = guard();
        clear_all();
        configure("store.append.after-flush=delay:20").unwrap();
        let t = std::time::Instant::now();
        assert!(hit("store.append.after-flush").is_none());
        assert!(t.elapsed() >= Duration::from_millis(20));
        clear_all();
    }

    #[test]
    fn return_error_at_a_nofail_site_is_a_loud_misconfiguration() {
        let _g = guard();
        clear_all();
        configure("campaign.claim=return-error").unwrap();
        let caught = std::panic::catch_unwind(|| hit_nofail("campaign.claim"));
        clear_all();
        assert!(caught.is_err(), "nofail site must reject return-error");
    }
}
