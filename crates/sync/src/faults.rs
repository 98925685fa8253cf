//! Deterministic fault injection for robustness testing.
//!
//! Production code is threaded with named *fault sites* — calls to
//! [`trigger`] (usually via the [`fault_point!`](crate::fault_point) macro) at every place
//! where the real world can fail: file reads and writes, fsync, rename,
//! the streaming read loop, pool workers, and the construction engines.
//! A test *arms* a [`FaultPlan`] that names sites and says what should
//! happen on which hit: return a transient error, return a hard I/O
//! error, or panic. Everything is deterministic — the Nth hit of a site
//! fires, every run, so failures found by the injection matrix replay
//! exactly.
//!
//! Zero cost when disabled: without the `fault-injection` cargo feature
//! [`trigger`] compiles to `Ok(())` and every `fault_point!(..)?` in the
//! hot paths folds away. With the feature enabled but no plan armed, the
//! cost is one relaxed atomic load per site hit.
//!
//! Arming mutates process-global state, so [`arm`] returns a guard that
//! both disarms on drop and holds a global arbiter lock — concurrent
//! tests that inject faults serialize instead of corrupting each other's
//! plans.

#[cfg(feature = "fault-injection")]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// What an armed fault site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A retryable failure (maps to `std::io::ErrorKind::Interrupted`):
    /// retry policies are expected to absorb it.
    Transient,
    /// A hard I/O failure (maps to `std::io::ErrorKind::Other`): the
    /// operation must surface a typed error.
    Io,
    /// The site panics, simulating a crash/abort at that exact point
    /// (e.g. the process dying between a temp-file write and its rename).
    Panic,
}

impl FaultKind {
    fn as_str(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Io => "io",
            FaultKind::Panic => "panic",
        }
    }
}

/// One rule of a [`FaultPlan`]: at site `site`, starting from the
/// `from_hit`-th hit (1-based), fire `count` consecutive times with
/// `kind`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Exact site name as passed to [`trigger`] / [`fault_point!`](crate::fault_point).
    pub site: String,
    /// First hit (1-based) at which the rule fires.
    pub from_hit: u64,
    /// Number of consecutive hits that fire (`u64::MAX` = forever).
    pub count: u64,
    /// What firing does.
    pub kind: FaultKind,
}

impl FaultRule {
    /// Fire exactly once, on the `nth` hit (1-based).
    pub fn nth(site: &str, nth: u64, kind: FaultKind) -> FaultRule {
        FaultRule {
            site: site.to_string(),
            from_hit: nth.max(1),
            count: 1,
            kind,
        }
    }

    /// Fire on every hit.
    pub fn always(site: &str, kind: FaultKind) -> FaultRule {
        FaultRule {
            site: site.to_string(),
            from_hit: 1,
            count: u64::MAX,
            kind,
        }
    }

    /// Fire `count` consecutive times starting at hit `from_hit` (1-based).
    pub fn window(site: &str, from_hit: u64, count: u64, kind: FaultKind) -> FaultRule {
        FaultRule {
            site: site.to_string(),
            from_hit: from_hit.max(1),
            count,
            kind,
        }
    }

    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    fn fires_at(&self, hit: u64) -> bool {
        hit >= self.from_hit && hit - self.from_hit < self.count
    }
}

/// A set of [`FaultRule`]s to arm together.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The rules; the first rule matching a site decides the outcome.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no site ever fires).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style rule append.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Derive a deterministic plan from a seed: one rule per site, with
    /// the trigger hit (1..=4) and the kind drawn from a splitmix64
    /// stream over `seed` and the site name. The same seed always yields
    /// the same plan, so CI failures replay locally by seed alone.
    pub fn seeded(seed: u64, sites: &[&str]) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for site in sites {
            let mut x = seed ^ fnv1a(site.as_bytes());
            let a = splitmix64(&mut x);
            let b = splitmix64(&mut x);
            let nth = a % 4 + 1;
            let kind = match b % 3 {
                0 => FaultKind::Transient,
                1 => FaultKind::Io,
                _ => FaultKind::Panic,
            };
            plan = plan.rule(FaultRule::nth(site, nth, kind));
        }
        plan
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// An injected, non-panic fault, carrying the site that fired and the
/// hit index it fired on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site name that fired.
    pub site: &'static str,
    /// [`FaultKind::Transient`] or [`FaultKind::Io`] (panics don't return).
    pub kind: FaultKind,
    /// 1-based hit index at which the rule fired.
    pub hit: u64,
}

impl FaultError {
    /// Whether a retry policy is expected to absorb this fault.
    pub fn is_transient(&self) -> bool {
        self.kind == FaultKind::Transient
    }
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected {} fault at {} (hit {})",
            self.kind.as_str(),
            self.site,
            self.hit
        )
    }
}

impl std::error::Error for FaultError {}

impl From<FaultError> for std::io::Error {
    fn from(e: FaultError) -> std::io::Error {
        let kind = match e.kind {
            FaultKind::Transient => std::io::ErrorKind::Interrupted,
            _ => std::io::ErrorKind::Other,
        };
        std::io::Error::new(kind, e.to_string())
    }
}

/// Fast-path flag: is any plan armed right now?
#[cfg(feature = "fault-injection")]
static ARMED: AtomicBool = AtomicBool::new(false);

#[cfg(feature = "fault-injection")]
struct ArmedState {
    rules: Vec<FaultRule>,
    hits: std::collections::HashMap<String, u64>,
}

#[cfg(feature = "fault-injection")]
fn state() -> &'static Mutex<ArmedState> {
    static STATE: OnceLock<Mutex<ArmedState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(ArmedState {
            rules: Vec::new(),
            hits: std::collections::HashMap::new(),
        })
    })
}

fn arbiter() -> &'static Mutex<()> {
    static ARBITER: OnceLock<Mutex<()>> = OnceLock::new();
    ARBITER.get_or_init(|| Mutex::new(()))
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic-kind fault unwinds through a trigger that held this lock;
    // the plan data is still consistent, so poisoning is ignored.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Guard returned by [`arm`]; disarms the plan when dropped, and holds
/// the global arbiter so fault-injecting tests serialize.
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        #[cfg(feature = "fault-injection")]
        {
            ARMED.store(false, Ordering::SeqCst);
            let mut st = lock_unpoisoned(state());
            st.rules.clear();
            st.hits.clear();
        }
    }
}

/// Arm `plan` process-wide until the returned guard drops. Serializes
/// with other armed plans (the guard holds a global lock), so concurrent
/// fault tests queue rather than interleave.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    let serial = lock_unpoisoned(arbiter());
    #[cfg(feature = "fault-injection")]
    {
        let mut st = lock_unpoisoned(state());
        st.rules = plan.rules;
        st.hits.clear();
        drop(st);
        ARMED.store(true, Ordering::SeqCst);
    }
    #[cfg(not(feature = "fault-injection"))]
    let _ = plan;
    FaultGuard { _serial: serial }
}

/// How many times `site` has been hit since the current plan was armed.
/// Always 0 when the `fault-injection` feature is disabled.
pub fn hits(site: &str) -> u64 {
    #[cfg(feature = "fault-injection")]
    {
        let st = lock_unpoisoned(state());
        st.hits.get(site).copied().unwrap_or(0)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
        0
    }
}

/// Hit the named fault site. Returns `Err` when an armed rule fires with
/// an error kind, panics when it fires with [`FaultKind::Panic`], and is
/// a no-op (`Ok`) otherwise. Compiles to `Ok(())` without the
/// `fault-injection` feature.
#[inline]
pub fn trigger(site: &'static str) -> Result<(), FaultError> {
    #[cfg(feature = "fault-injection")]
    if ARMED.load(Ordering::Relaxed) {
        return trigger_slow(site);
    }
    let _ = site;
    Ok(())
}

#[cfg(feature = "fault-injection")]
#[cold]
fn trigger_slow(site: &'static str) -> Result<(), FaultError> {
    let mut st = lock_unpoisoned(state());
    let hit = st.hits.entry(site.to_string()).or_insert(0);
    *hit += 1;
    let hit = *hit;
    let fired = st
        .rules
        .iter()
        .find(|r| r.site == site && r.fires_at(hit))
        .map(|r| r.kind);
    drop(st); // never panic while holding the plan lock
    match fired {
        None => Ok(()),
        Some(FaultKind::Panic) => panic!("injected panic at {site} (hit {hit})"),
        Some(kind) => Err(FaultError { site, kind, hit }),
    }
}

/// Hit a named fault site: `fault_point!("io/read")?`. Expands to
/// [`trigger`], which is a no-op unless a matching [`FaultPlan`] is
/// armed (and compiles away entirely without the `fault-injection`
/// feature).
#[macro_export]
macro_rules! fault_point {
    ($site:expr) => {
        $crate::faults::trigger($site)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_never_fire() {
        for _ in 0..100 {
            assert!(trigger("test/never-armed").is_ok());
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let sites = ["a/b", "c/d", "e/f"];
        let p1 = FaultPlan::seeded(42, &sites);
        let p2 = FaultPlan::seeded(42, &sites);
        assert_eq!(p1, p2);
        assert_eq!(p1.rules.len(), 3);
        for r in &p1.rules {
            assert!((1..=4).contains(&r.from_hit), "{r:?}");
        }
        // A different seed changes at least one rule.
        let p3 = FaultPlan::seeded(43, &sites);
        assert_ne!(p1, p3);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn nth_hit_rules_fire_exactly_once() {
        let _g = arm(FaultPlan::new().rule(FaultRule::nth("test/nth", 3, FaultKind::Io)));
        assert!(trigger("test/nth").is_ok());
        assert!(trigger("test/nth").is_ok());
        let err = trigger("test/nth").unwrap_err();
        assert_eq!(err.kind, FaultKind::Io);
        assert_eq!(err.hit, 3);
        assert!(trigger("test/nth").is_ok());
        assert_eq!(hits("test/nth"), 4);
        assert_eq!(hits("test/other"), 0);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn guard_disarms_on_drop() {
        {
            let _g = arm(FaultPlan::new().rule(FaultRule::always("test/drop", FaultKind::Io)));
            assert!(trigger("test/drop").is_err());
        }
        assert!(trigger("test/drop").is_ok());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn panic_kind_panics_and_leaves_layer_usable() {
        {
            let _g = arm(FaultPlan::new().rule(FaultRule::nth("test/panic", 1, FaultKind::Panic)));
            let r = std::panic::catch_unwind(|| trigger("test/panic"));
            assert!(r.is_err());
            // After the injected panic the layer still works.
            assert!(trigger("test/panic").is_ok());
        }
        assert!(trigger("test/panic").is_ok());
    }

    #[test]
    fn fault_error_maps_to_io_error_kinds() {
        let t = FaultError {
            site: "s",
            kind: FaultKind::Transient,
            hit: 1,
        };
        let io: std::io::Error = t.into();
        assert_eq!(io.kind(), std::io::ErrorKind::Interrupted);
        let h = FaultError {
            site: "s",
            kind: FaultKind::Io,
            hit: 2,
        };
        let io: std::io::Error = h.into();
        assert_ne!(io.kind(), std::io::ErrorKind::Interrupted);
    }
}
