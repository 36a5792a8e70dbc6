//! The slow-query log: a fixed-size ring buffer of the most recent requests
//! whose end-to-end latency crossed
//! [`ServiceConfig::slow_query_threshold`](crate::ServiceConfig::slow_query_threshold).
//!
//! Each entry keeps the canonical query text, the outcome (completed,
//! timed out, cancelled — with row count and truncation for completed
//! requests), the latency, and — for requests that ran the engine — the
//! executed physical plan rendered with actual row counts, so a slow query
//! can be diagnosed after the fact without re-running it.  The ring holds
//! the *most recent* slow queries: once full, the oldest entry is evicted.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many slow queries a service keeps; once full, the oldest entry is
/// evicted.
pub const SLOW_LOG_CAPACITY: usize = 32;

/// How a slow request ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlowOutcome {
    /// The request completed and returned rows.
    Completed {
        /// Rows emitted (after the request's window was applied).
        rows: usize,
        /// Whether a `limit` cut the answer short.
        truncated: bool,
    },
    /// The request overran its deadline.
    TimedOut,
    /// The request's cancellation token was triggered.
    Cancelled,
}

/// One slow-query record.
#[derive(Clone, Debug)]
pub struct SlowQueryEntry {
    /// The query's `Display` rendering: re-parseable and human-readable.  It
    /// is not the result-cache key, so two spellings of one pattern can log
    /// as different text.
    pub query: String,
    /// End-to-end `submit` latency.
    pub latency: Duration,
    /// How the request ended.
    pub outcome: SlowOutcome,
    /// The executed physical plan rendered with actual row counts (partial
    /// actuals for aborted runs); `None` when the engine never ran (e.g. a
    /// slow cache hit).
    pub plan: Option<String>,
    /// When the request finished, as an offset from service creation.
    pub at: Duration,
}

/// Fixed-capacity ring of the most recent slow queries.
#[derive(Debug)]
pub struct SlowQueryLog {
    started: Instant,
    capacity: usize,
    entries: Mutex<VecDeque<SlowQueryEntry>>,
}

impl SlowQueryLog {
    /// An empty log holding at most `capacity` entries (0 disables logging).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            started: Instant::now(),
            capacity,
            entries: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
        }
    }

    /// Appends an entry, evicting the oldest once the ring is full.
    pub(crate) fn push(
        &self,
        query: String,
        latency: Duration,
        outcome: SlowOutcome,
        plan: Option<String>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let entry = SlowQueryEntry {
            query,
            latency,
            outcome,
            plan,
            at: self.started.elapsed(),
        };
        let mut entries = self.entries.lock().expect("slow log lock poisoned");
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// The retained entries, oldest first.
    pub(crate) fn entries(&self) -> Vec<SlowQueryEntry> {
        self.entries
            .lock()
            .expect("slow log lock poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_entries() {
        let log = SlowQueryLog::new(2);
        for i in 0..3 {
            log.push(
                format!("q{i}"),
                Duration::from_millis(100 + i),
                SlowOutcome::Completed {
                    rows: i as usize,
                    truncated: false,
                },
                None,
            );
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].query, "q1");
        assert_eq!(entries[1].query, "q2");
        assert!(entries[0].at <= entries[1].at);
    }

    #[test]
    fn zero_capacity_disables_logging() {
        let log = SlowQueryLog::new(0);
        log.push(
            "q".into(),
            Duration::from_secs(1),
            SlowOutcome::TimedOut,
            None,
        );
        assert!(log.entries().is_empty());
    }

    #[test]
    fn entries_carry_outcome_and_plan() {
        let log = SlowQueryLog::new(4);
        log.push(
            "a1 { //d1* }".into(),
            Duration::from_millis(250),
            SlowOutcome::Completed {
                rows: 3,
                truncated: true,
            },
            Some("QueryPlan\n  IndexScan u0 (actual 3)".into()),
        );
        log.push(
            "a1 { //e1* }".into(),
            Duration::from_millis(500),
            SlowOutcome::Cancelled,
            None,
        );
        let entries = log.entries();
        assert_eq!(
            entries[0].outcome,
            SlowOutcome::Completed {
                rows: 3,
                truncated: true
            }
        );
        assert!(entries[0].plan.as_deref().unwrap().contains("actual"));
        assert_eq!(entries[1].outcome, SlowOutcome::Cancelled);
    }
}
