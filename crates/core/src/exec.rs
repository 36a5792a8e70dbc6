//! Execution control: deadlines and cooperative cancellation.
//!
//! Every stage of the evaluation pipeline (candidate selection, both prune
//! rounds, matching-graph construction and result enumeration) polls an
//! [`ExecCtl`] and aborts with an [`Interrupt`] when the request's deadline
//! has passed or its [`CancelToken`] was triggered.  The polls are designed
//! to be cheap enough for inner loops: an unbounded control is two `Option`
//! checks, and bounded controls read the wall clock only at operator
//! boundaries plus every [`SAMPLE_EVERY`]-th inner-loop iteration.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtpq_obs::Tracer;

/// Inner-loop polls between wall-clock reads in [`ExecCtl::check_sampled`].
pub const SAMPLE_EVERY: u32 = 64;

/// Why an evaluation stopped before producing its complete answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The deadline passed while the evaluation was still running.
    Timeout,
    /// The request's [`CancelToken`] was triggered.
    Cancelled,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Timeout => write!(f, "evaluation deadline exceeded"),
            Interrupt::Cancelled => write!(f, "evaluation cancelled"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// A shared flag that cancels an in-flight evaluation from another thread.
///
/// Cloning shares the flag: cancel any clone and every evaluation polling a
/// control built from it stops at its next poll.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-triggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Triggers the token; every control holding it reports
    /// [`Interrupt::Cancelled`] on its next poll.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been triggered.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-evaluation deadline + cancellation control, polled by every pipeline
/// stage.
///
/// Neither `Send` nor `Sync` (it keeps an interior poll counter and an
/// `Rc`-shared [`Tracer`]); build one per evaluation and share the underlying
/// [`CancelToken`] across threads instead.  Worker threads of a
/// morsel-parallel stage rebuild their own controls from the `Send`
/// ingredients via [`worker`](Self::worker).
///
/// The control also carries the request's tracer: every pipeline stage polls
/// the control anyway, so riding the tracer along gives each stage span
/// recording without widening any signature.  The default tracer is disabled
/// and costs nothing.  It also carries the requested intra-query parallelism
/// degree ([`threads`](Self::threads)), so every stage can decide whether to
/// fan out without widening its signature either.
#[derive(Clone, Debug)]
pub struct ExecCtl {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    threads: usize,
    polls: Cell<u32>,
    tracer: Tracer,
}

impl Default for ExecCtl {
    fn default() -> Self {
        Self {
            deadline: None,
            cancel: None,
            threads: 1,
            polls: Cell::new(0),
            tracer: Tracer::disabled(),
        }
    }
}

/// The `Send` ingredients of an [`ExecCtl`]: deadline and cancellation
/// token, without the thread-local poll counter and tracer.  Worker threads
/// of a parallel stage call [`ctl`](Self::ctl) to rebuild a control that
/// honours the same deadline and cancellation as the parent.
#[derive(Clone, Debug, Default)]
pub struct WorkerCtl {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl WorkerCtl {
    /// Builds a single-threaded control with the same deadline and
    /// cancellation sources as the parent, a fresh poll counter and a
    /// disabled tracer.
    pub fn ctl(&self) -> ExecCtl {
        ExecCtl {
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            ..ExecCtl::default()
        }
    }
}

impl ExecCtl {
    /// A control that never interrupts — the default for the legacy
    /// `evaluate*` entry points.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Adds an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adds a deadline `budget` from now.
    pub fn with_timeout(self, budget: Duration) -> Self {
        let now = Instant::now();
        self.with_deadline(now.checked_add(budget).unwrap_or(now))
    }

    /// Adds a cancellation token (shared with the party that may cancel).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a tracer; every pipeline stage records its spans through it.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Sets the intra-query parallelism degree (clamped to at least 1).
    /// Stages fan out over the worker pool only when this exceeds 1 *and*
    /// their input is large enough to split.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The tracer the pipeline records spans through (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The intra-query parallelism degree (1 = serial, the default).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The `Send` ingredients of this control, for rebuilding per-worker
    /// controls on other threads.
    pub fn worker(&self) -> WorkerCtl {
        WorkerCtl {
            deadline: self.deadline,
            cancel: self.cancel.clone(),
        }
    }

    /// Whether this control can never interrupt.
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Full poll for operator boundaries: always checks the cancellation
    /// flag and, when a deadline is set, the wall clock.
    pub fn check(&self) -> Result<(), Interrupt> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt::Timeout);
            }
        }
        Ok(())
    }

    /// Sampled poll for inner loops: the cancellation flag is checked on
    /// every call, the wall clock only every [`SAMPLE_EVERY`]-th call (and on
    /// the first, so a zero budget trips immediately).
    pub fn check_sampled(&self) -> Result<(), Interrupt> {
        if self.is_unbounded() {
            return Ok(());
        }
        let polls = self.polls.get();
        self.polls.set(polls.wrapping_add(1));
        if self.deadline.is_some() && !polls.is_multiple_of(SAMPLE_EVERY) {
            // Between clock reads, still honour cancellation (atomic load).
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return Err(Interrupt::Cancelled);
                }
            }
            return Ok(());
        }
        self.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_interrupts() {
        let ctl = ExecCtl::unbounded();
        assert!(ctl.is_unbounded());
        for _ in 0..1000 {
            assert_eq!(ctl.check(), Ok(()));
            assert_eq!(ctl.check_sampled(), Ok(()));
        }
    }

    #[test]
    fn zero_budget_times_out_on_the_first_poll() {
        let ctl = ExecCtl::unbounded().with_timeout(Duration::ZERO);
        assert_eq!(ctl.check(), Err(Interrupt::Timeout));
        let ctl = ExecCtl::unbounded().with_timeout(Duration::ZERO);
        assert_eq!(ctl.check_sampled(), Err(Interrupt::Timeout));
    }

    #[test]
    fn generous_budget_does_not_interrupt() {
        let ctl = ExecCtl::unbounded().with_timeout(Duration::from_secs(3600));
        assert!(!ctl.is_unbounded());
        for _ in 0..2 * SAMPLE_EVERY {
            assert_eq!(ctl.check_sampled(), Ok(()));
        }
    }

    #[test]
    fn cancellation_is_seen_by_every_poll_flavour() {
        let token = CancelToken::new();
        let ctl = ExecCtl::unbounded()
            .with_cancel(token.clone())
            .with_timeout(Duration::from_secs(3600));
        assert_eq!(ctl.check(), Ok(()));
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(ctl.check(), Err(Interrupt::Cancelled));
        // Sampled polls see it even between clock reads.
        for _ in 0..3 {
            assert_eq!(ctl.check_sampled(), Err(Interrupt::Cancelled));
        }
    }

    #[test]
    fn interrupts_render_as_errors() {
        assert!(Interrupt::Timeout.to_string().contains("deadline"));
        assert!(Interrupt::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn threads_degree_is_clamped_to_at_least_one() {
        assert_eq!(ExecCtl::default().threads(), 1);
        assert_eq!(ExecCtl::unbounded().with_threads(0).threads(), 1);
        assert_eq!(ExecCtl::unbounded().with_threads(8).threads(), 8);
    }

    #[test]
    fn worker_controls_share_deadline_and_cancellation() {
        let token = CancelToken::new();
        let parent = ExecCtl::unbounded()
            .with_cancel(token.clone())
            .with_timeout(Duration::from_secs(3600))
            .with_threads(4);
        let parts = parent.worker();
        let handle = std::thread::spawn(move || {
            let wctl = parts.ctl();
            assert_eq!(wctl.threads(), 1);
            assert_eq!(wctl.check(), Ok(()));
            token.cancel();
            assert_eq!(wctl.check(), Err(Interrupt::Cancelled));
        });
        handle.join().unwrap();
        assert_eq!(parent.check(), Err(Interrupt::Cancelled));
    }
}
