//! Execution control: deadlines and cooperative cancellation.
//!
//! Every stage of the evaluation pipeline (candidate selection, both prune
//! rounds, matching-graph construction and result enumeration) polls an
//! [`ExecCtl`] and aborts with an [`Interrupt`] when the request's deadline
//! has passed or its [`CancelToken`] was triggered.  The polls are designed
//! to be cheap enough for inner loops: an unbounded control is two `Option`
//! checks, and bounded controls read the wall clock only at operator
//! boundaries plus every `SAMPLE_EVERY`-th inner-loop iteration.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gtpq_obs::Tracer;

/// Inner-loop polls between wall-clock reads in [`ExecCtl::check_sampled`].
pub(crate) const SAMPLE_EVERY: u32 = 64;

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
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-evaluation deadline + cancellation control, polled by every pipeline
/// stage.
///
/// Neither `Send` nor `Sync` (it keeps an interior poll counter and an
/// `Rc`-shared [`Tracer`]): an evaluation runs on one thread, so build one
/// control per evaluation and share the underlying [`CancelToken`] with
/// whichever thread may cancel it.
///
/// The control also carries the request's tracer: every pipeline stage polls
/// the control anyway, so riding the tracer along gives each stage span
/// recording without widening any signature.  The default tracer is disabled
/// and costs nothing.
#[derive(Clone, Debug, Default)]
pub struct ExecCtl {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    polls: Cell<u32>,
    tracer: Tracer,
}

impl ExecCtl {
    /// A control that never interrupts — the default, and what the
    /// `evaluate*` entry points run under.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Adds an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
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

    /// The tracer the pipeline records spans through (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether this control can never interrupt.
    pub(crate) fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Full poll for operator boundaries: always checks the cancellation
    /// flag and, when a deadline is set, the wall clock.
    pub(crate) fn check(&self) -> Result<(), Interrupt> {
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
    pub(crate) fn check_sampled(&self) -> Result<(), Interrupt> {
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
    use std::time::Duration;

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
        let ctl = ExecCtl::unbounded().with_deadline(Instant::now());
        assert_eq!(ctl.check(), Err(Interrupt::Timeout));
        let ctl = ExecCtl::unbounded().with_deadline(Instant::now());
        assert_eq!(ctl.check_sampled(), Err(Interrupt::Timeout));
    }

    #[test]
    fn generous_budget_does_not_interrupt() {
        let ctl = ExecCtl::unbounded().with_deadline(Instant::now() + Duration::from_secs(3600));
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
            .with_deadline(Instant::now() + Duration::from_secs(3600));
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
}
