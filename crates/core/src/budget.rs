//! Resource budgets for SFA construction.
//!
//! SFA construction is worst-case exponential in the DFA size (§II of the
//! paper), so a caller that feeds it arbitrary patterns needs a way to
//! bound the damage. A [`Budget`] limits construction along two axes —
//! wall-clock deadline and peak mapping-payload bytes — and a
//! [`sfa_sync::CancelToken`] lets another thread stop a build that is
//! already running. Every construction path (sequential, parallel,
//! lazy) polls the same [`Governor`] at work-item granularity, so an
//! exhausted budget surfaces as a typed
//! [`SfaError::BudgetExceeded`] carrying
//! the progress made — never a panic, never an unbounded run.
//!
//! The state count has one cap, `ParallelOptions::state_budget`, which
//! every engine enforces as it allocates states
//! ([`SfaError::StateBudgetExceeded`]).

use crate::SfaError;
use sfa_sync::CancelToken;
use std::time::{Duration, Instant};

/// Declarative resource limits for one construction run.
///
/// The default budget is unlimited on every axis. Marked
/// `#[non_exhaustive]` so future axes (e.g. a candidate-count cap) can be
/// added without a breaking change — construct budgets through
/// [`Budget::unlimited`] and the `with_*` methods.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct Budget {
    /// Wall-clock limit measured from the start of the build.
    pub deadline: Option<Duration>,
    /// Peak bytes of stored mapping payloads. With a spill directory
    /// (`SfaBuilder::spill`) this is the watermark that demotes states
    /// instead of failing the build.
    pub max_payload_bytes: Option<u64>,
}

impl Budget {
    /// No limits (identical to `Budget::default()`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Limit wall-clock construction time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Limit peak stored mapping-payload bytes.
    pub fn with_max_payload_bytes(mut self, bytes: u64) -> Self {
        self.max_payload_bytes = Some(bytes);
        self
    }

    /// `true` when no axis is limited.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_payload_bytes.is_none()
    }

    /// This budget without its deadline — the degradation ladder uses it
    /// when falling from batch construction to lazy construction, where
    /// the deadline has already been spent but the byte limit still
    /// applies.
    pub fn without_deadline(mut self) -> Self {
        self.deadline = None;
        self
    }
}

/// Which budget axis was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// [`Budget::max_payload_bytes`].
    PayloadBytes,
    /// [`Budget::deadline`].
    Deadline,
}

impl std::fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetResource::PayloadBytes => "payload bytes",
            BudgetResource::Deadline => "deadline",
        })
    }
}

/// Construction progress at the moment a budget check fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct BudgetProgress {
    /// SFA states constructed so far.
    pub states: u64,
    /// Mapping-payload bytes currently stored.
    pub payload_bytes: u64,
    /// Wall time elapsed since the build started.
    pub elapsed: Duration,
}

/// The runtime enforcer of a [`Budget`] plus an optional
/// [`CancelToken`], shared by every worker of a build.
///
/// `check` is designed for per-work-item call frequency: when the budget
/// is unlimited and no token is attached it is two `None` tests, and the
/// `Instant::now()` for the deadline is only taken when a deadline
/// exists.
#[derive(Debug, Clone)]
pub struct Governor {
    start: Instant,
    deadline: Option<Instant>,
    max_payload_bytes: Option<u64>,
    cancel: Option<CancelToken>,
}

impl Governor {
    /// Start enforcing `budget` (clock starts now).
    pub fn new(budget: &Budget, cancel: Option<CancelToken>) -> Self {
        let start = Instant::now();
        Governor {
            start,
            deadline: budget.deadline.map(|d| start + d),
            max_payload_bytes: budget.max_payload_bytes,
            cancel,
        }
    }

    /// A governor that never fires.
    pub fn unlimited() -> Self {
        Governor::new(&Budget::unlimited(), None)
    }

    /// `true` when `check` can never fail (no limits, no token) — lets
    /// hot loops hoist the whole check out.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_payload_bytes.is_none() && self.cancel.is_none()
    }

    /// Snapshot progress for error reporting.
    pub fn progress(&self, states: u64, payload_bytes: u64) -> BudgetProgress {
        BudgetProgress {
            states,
            payload_bytes,
            elapsed: self.start.elapsed(),
        }
    }

    /// The budget checkpoint: `Err` when the token was cancelled or any
    /// axis is exhausted at the given progress. Checked cancellation
    /// first (it is the cheapest and the most urgent), then bytes, then
    /// the deadline (the only axis that reads the clock).
    pub fn check(&self, states: u64, payload_bytes: u64) -> Result<(), SfaError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(SfaError::Cancelled {
                    progress: self.progress(states, payload_bytes),
                });
            }
        }
        if let Some(max) = self.max_payload_bytes {
            if payload_bytes > max {
                return Err(SfaError::BudgetExceeded {
                    resource: BudgetResource::PayloadBytes,
                    progress: self.progress(states, payload_bytes),
                });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(SfaError::BudgetExceeded {
                    resource: BudgetResource::Deadline,
                    progress: self.progress(states, payload_bytes),
                });
            }
        }
        Ok(())
    }
}

impl Default for Governor {
    fn default() -> Self {
        Governor::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fires() {
        let g = Governor::unlimited();
        assert!(g.is_unlimited());
        g.check(u64::MAX, u64::MAX).unwrap();
    }

    #[test]
    fn byte_axis_fires() {
        let g = Governor::new(&Budget::unlimited().with_max_payload_bytes(100), None);
        g.check(7, 100).unwrap();
        match g.check(7, 101).unwrap_err() {
            SfaError::BudgetExceeded { resource, progress } => {
                assert_eq!(resource, BudgetResource::PayloadBytes);
                assert_eq!((progress.states, progress.payload_bytes), (7, 101));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_fires_immediately() {
        let g = Governor::new(&Budget::unlimited().with_deadline(Duration::ZERO), None);
        assert!(matches!(
            g.check(0, 0),
            Err(SfaError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                ..
            })
        ));
    }

    #[test]
    fn cancellation_wins_over_exhausted_axes() {
        let token = CancelToken::new();
        let g = Governor::new(
            &Budget::unlimited()
                .with_max_payload_bytes(0)
                .with_deadline(Duration::ZERO),
            Some(token.clone()),
        );
        token.cancel();
        assert!(matches!(g.check(10, 10), Err(SfaError::Cancelled { .. })));
    }

    #[test]
    fn without_deadline_keeps_space_limits() {
        let b = Budget::unlimited()
            .with_deadline(Duration::from_millis(1))
            .with_max_payload_bytes(9)
            .without_deadline();
        assert_eq!(b.deadline, None);
        assert_eq!(b.max_payload_bytes, Some(9));
        assert!(!b.is_unlimited());
        assert!(Budget::unlimited().is_unlimited());
    }
}
