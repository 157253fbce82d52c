//! The execution-time structure (ETS) of §III-B/Algorithm 2.
//!
//! Every object request carries three timestamps: *"The requesting message
//! for each transaction includes three timestamps: the starting, requesting,
//! and expected commit time of a transaction"*. The owner-side scheduler
//! compares these against its accumulated backlog to decide between abort
//! and enqueue.

use dstm_sim::{SimDuration, SimTime};
use std::hash::{Hash, Hasher};

/// Start / request / expected-commit timestamps of a requesting transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ets {
    /// When the transaction (this attempt) began executing: `ETS.s`.
    pub start: SimTime,
    /// When this object request was issued: `ETS.r`.
    pub request: SimTime,
    /// When the transaction expects to commit (from the stats table): `ETS.c`.
    pub expected_commit: SimTime,
}

/// Hashes as nothing: the timestamps are wall-clock-valued, so two
/// requests that differ only in their ETS are the same protocol event under
/// another schedule. The model checker's state fingerprints rely on this.
impl Hash for Ets {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

impl Ets {
    pub fn new(start: SimTime, request: SimTime, expected_commit: SimTime) -> Self {
        Ets {
            start,
            request,
            expected_commit,
        }
    }

    /// How long the transaction has already executed when it issued this
    /// request: `| ETS.r − ETS.s |`. RTS prefers to *enqueue* transactions
    /// that have a lot of completed work (long execution so far) rather than
    /// throw that work away.
    #[inline]
    pub fn executed_so_far(&self) -> SimDuration {
        self.request.saturating_since(self.start)
    }

    /// The transaction's expected *remaining* execution after this request:
    /// `| ETS.c − ETS.r |`. This is the amount an enqueued predecessor is
    /// expected to delay its successors, so Algorithm 3 accumulates it into
    /// the per-object backoff `bk`.
    #[inline]
    pub fn expected_remaining(&self) -> SimDuration {
        self.expected_commit.saturating_since(self.request)
    }

    /// Total expected execution time `| ETS.c − ETS.s |`.
    #[inline]
    pub fn expected_total(&self) -> SimDuration {
        self.expected_commit.saturating_since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    #[test]
    fn derived_durations() {
        let ets = Ets::new(t(10), t(25), t(60));
        assert_eq!(ets.executed_so_far().as_millis(), 15);
        assert_eq!(ets.expected_remaining().as_millis(), 35);
        assert_eq!(ets.expected_total().as_millis(), 50);
    }

    #[test]
    fn saturates_when_estimates_are_stale() {
        // A transaction that ran past its expected commit time.
        let ets = Ets::new(t(10), t(90), t(60));
        assert_eq!(ets.expected_remaining(), SimDuration::ZERO);
        assert_eq!(ets.executed_so_far().as_millis(), 80);
    }
}
