//! Crash-point injection for simulated process deaths.
//!
//! The paper's recovery story (§4.3) rests on the on-disk layout staying
//! interpretable after a crash at *any* point of a write or delete. A
//! [`CrashPlan`] lets a test arm exactly one such point: the next matching
//! store operation performs the on-disk half-effect a real crash could leave
//! behind (a payload never committed, a committed page with a torn payload)
//! and then fails with a `simulated crash` error. The harness
//! treats that error as process death — it drops the cache and re-opens the
//! directory, at which point recovery must clean up whatever was left.
//!
//! The plan is shared (`Arc`) between the test and the store, so one plan
//! can outlive several "process lifetimes" over the same directory and
//! count how often it fired.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use edgecache_common::error::Error;
use parking_lot::Mutex;

/// Marker carried by every simulated-crash error; callers distinguish a
/// simulated process death from an ordinary store failure by this prefix.
pub const CRASH_MARKER: &str = "simulated crash";

/// Returns whether `err` is a simulated process death from a [`CrashPlan`].
pub fn is_simulated_crash(err: &Error) -> bool {
    matches!(err, Error::Other(msg) if msg.starts_with(CRASH_MARKER))
}

/// Where a simulated crash interrupts the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Crash after the payload is written to a free slot but before its
    /// header commits it: the slot stays free, the page is not stored.
    PutTmpWritten,
    /// Crash after the header commits the page but before its payload
    /// reached the device (pages are not fsynced by design): a committed
    /// record over a torn payload.
    PutTornTail,
    /// Crash while deleting: the page is neither intact nor gone — its
    /// magic was never cleared and its payload is torn.
    DeleteTornTail,
}

/// An armable crash point, shared between a test and one or more
/// [`LocalPageStore`](crate::LocalPageStore) lifetimes over a directory.
#[derive(Debug, Default)]
pub struct CrashPlan {
    /// The armed site plus how many matching operations to let through
    /// first (0 = fire on the next one).
    armed: Mutex<Option<(CrashSite, u64)>>,
    fired: AtomicU64,
}

impl CrashPlan {
    /// A fresh, un-armed plan.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Arms the plan: the next operation matching `site` crashes.
    pub fn arm(&self, site: CrashSite) {
        self.arm_after(site, 0);
    }

    /// Arms the plan to crash on the `skip`+1-th operation matching `site`.
    pub fn arm_after(&self, site: CrashSite, skip: u64) {
        *self.armed.lock() = Some((site, skip));
    }

    /// Disarms without firing.
    pub fn disarm(&self) {
        *self.armed.lock() = None;
    }

    /// How many times the plan has fired (across process lifetimes).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// Store-side check: consumes the armed site if `site` matches and the
    /// skip count is exhausted. Returns `true` exactly once per arming.
    pub fn should_crash(&self, site: CrashSite) -> bool {
        let mut armed = self.armed.lock();
        match *armed {
            Some((s, 0)) if s == site => {
                *armed = None;
                self.fired.fetch_add(1, Ordering::SeqCst);
                true
            }
            Some((s, ref mut skip)) if s == site => {
                *skip -= 1;
                false
            }
            _ => false,
        }
    }

    /// The error a crashing operation returns.
    pub fn crash_error(site: CrashSite) -> Error {
        Error::Other(format!("{CRASH_MARKER} at {site:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_per_arming() {
        let plan = CrashPlan::new();
        assert!(!plan.should_crash(CrashSite::PutTornTail));
        plan.arm(CrashSite::PutTornTail);
        assert!(!plan.should_crash(CrashSite::DeleteTornTail), "wrong site");
        assert!(plan.should_crash(CrashSite::PutTornTail));
        assert!(!plan.should_crash(CrashSite::PutTornTail), "consumed");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn skip_counts_matching_operations() {
        let plan = CrashPlan::new();
        plan.arm_after(CrashSite::PutTmpWritten, 2);
        assert!(!plan.should_crash(CrashSite::PutTmpWritten));
        assert!(!plan.should_crash(CrashSite::PutTmpWritten));
        assert!(plan.should_crash(CrashSite::PutTmpWritten));
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn crash_errors_are_recognizable() {
        let err = CrashPlan::crash_error(CrashSite::DeleteTornTail);
        assert!(is_simulated_crash(&err));
        assert!(!is_simulated_crash(&Error::Other("disk exploded".into())));
        assert!(!is_simulated_crash(&Error::NoSpace));
    }

    #[test]
    fn disarm_cancels() {
        let plan = CrashPlan::new();
        plan.arm(CrashSite::PutTornTail);
        plan.disarm();
        assert!(!plan.should_crash(CrashSite::PutTornTail));
        assert_eq!(plan.fired(), 0);
    }
}
