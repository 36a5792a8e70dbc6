//! Order-preserving parallel result enumeration.
//!
//! The serial enumerator ([`MatchStream`]) already yields rows in
//! materialized-`ResultSet` order.  This module splits the widest shrunk
//! component's root candidates into contiguous partitions, runs one
//! `MatchStream` per partition on a scoped worker thread, and k-way-merges
//! the partition streams with adjacent-duplicate elimination — the same
//! dedup rule the stream's built runs use.  Because every partition
//! stream is sorted and distinct, and rows duplicated across partitions
//! land adjacent in the merged order, the merged output is bit-for-bit the
//! serial stream: limit/offset pushdown, deadlines, cancellation and result
//! order are all preserved.
//!
//! Early termination: once the consumer has its `offset + limit` rows (plus
//! the one look-ahead row deciding truncation), it trips a consumer-side
//! *stop* token ([`ExecCtl::with_stop`]) that only the worker controls
//! carry, so the workers wind down without the request itself looking
//! cancelled.  Workers under a limit also cap their own production at
//! `offset + limit + 1` rows — any row of the global top-k is in some
//! partition's top-k.

use std::collections::VecDeque;
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gtpq_graph::NodeId;

use crate::exec::{CancelToken, ExecCtl, Interrupt};
use crate::stream::{MatchStream, StreamSource};

/// Rows per channel message: big enough to amortize channel traffic, small
/// enough that partition heads reach the merge quickly.
const BATCH: usize = 32;
/// Bounded channel capacity in batches — workers run at most this far ahead
/// of the merge before blocking (bounded per-partition intermediates).
const CHANNEL_BATCHES: usize = 8;
/// How long the consumer blocks on a partition channel before re-polling
/// the request control for cancellation/deadline.
const POLL: Duration = Duration::from_millis(5);

enum Msg {
    Batch(Vec<Vec<NodeId>>),
    Done(Report),
    Fail(Interrupt, Report),
}

/// What one partition worker did, for stats aggregation.
#[derive(Clone, Copy, Debug, Default)]
struct Report {
    rows: u64,
    busy: Duration,
}

/// Outcome of a parallel enumeration, successful or interrupted.
#[derive(Debug, Default)]
pub(crate) struct ParallelCollect {
    /// The windowed output rows (offset applied, at most `limit`).
    pub rows: Vec<Vec<NodeId>>,
    /// Whether a row beyond the window proved the answer truncated.
    pub truncated: bool,
    /// Distinct rows pulled at the merge level, offset-skipped and
    /// look-ahead rows included — the parallel counterpart of the serial
    /// stream's `rows_enumerated`.
    pub merged_rows: u64,
    /// Rows produced by the partition workers before merging.
    pub worker_rows: u64,
    /// Busy time summed over the partition workers.
    pub busy: Duration,
    /// Partition workers spawned.
    pub workers: u64,
    /// High-water mark of rows buffered at the consumer awaiting merge.
    pub max_queue_depth: u64,
    /// Wall time of the whole parallel enumeration.
    pub enumerate_time: Duration,
    /// Wall time to the first merged row (zero when the answer is empty).
    pub time_to_first_row: Duration,
}

struct PartState {
    rx: mpsc::Receiver<Msg>,
    buf: VecDeque<Vec<NodeId>>,
    finished: bool,
    report: Report,
    failed: Option<Interrupt>,
}

/// Splits `0..width` into exactly `parts` contiguous, non-empty ranges
/// (`parts` must not exceed `width`).
fn partition_ranges(width: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let base = width / parts;
    let rem = width % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    out
}

fn run_partition(
    i: usize,
    source: Arc<StreamSource>,
    range: std::ops::Range<usize>,
    parts: crate::exec::WorkerCtl,
    cap: Option<usize>,
    tx: SyncSender<Msg>,
    collector: &gtpq_obs::SpanCollector,
) {
    let tracer = collector.tracer();
    let span = tracer.span_with(|| format!("partition {i}"));
    span.field("range", format_args!("{}..{}", range.start, range.end));
    let mut stream = MatchStream::partitioned(source, range, parts.ctl());
    let mut batch: Vec<Vec<NodeId>> = Vec::with_capacity(BATCH);
    let mut produced = 0usize;
    let outcome = loop {
        if cap.is_some_and(|c| produced >= c) {
            break Ok(());
        }
        match stream.next_row() {
            Ok(Some(row)) => {
                produced += 1;
                batch.push(row);
                if batch.len() >= BATCH && tx.send(Msg::Batch(std::mem::take(&mut batch))).is_err()
                {
                    // Consumer went away; treat as a clean stop.
                    break Ok(());
                }
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    if !batch.is_empty() {
        let _ = tx.send(Msg::Batch(std::mem::take(&mut batch)));
    }
    let report = Report {
        rows: stream.rows_enumerated(),
        busy: stream.enumerate_time(),
    };
    span.field("rows", report.rows);
    drop(span);
    collector.absorb(tracer);
    let _ = tx.send(match outcome {
        Ok(()) => Msg::Done(report),
        Err(e) => Msg::Fail(e, report),
    });
}

/// Blocks until partition `state` has a buffered row or is finished,
/// re-polling the request control between channel waits.  Returns the
/// change in the number of buffered rows.
fn refill(state: &mut PartState, ctl: &ExecCtl) -> Result<u64, Interrupt> {
    let mut gained = 0u64;
    while state.buf.is_empty() && !state.finished {
        match state.rx.recv_timeout(POLL) {
            Ok(Msg::Batch(rows)) => {
                gained += rows.len() as u64;
                state.buf.extend(rows);
            }
            Ok(Msg::Done(report)) => {
                state.finished = true;
                state.report = report;
            }
            Ok(Msg::Fail(interrupt, report)) => {
                state.finished = true;
                state.report = report;
                state.failed = Some(interrupt);
            }
            Err(RecvTimeoutError::Timeout) => ctl.check()?,
            Err(RecvTimeoutError::Disconnected) => state.finished = true,
        }
    }
    Ok(gained)
}

/// Drains a partition to its terminal message so its report is captured,
/// discarding any rows still in flight.  Only called after the stop token
/// tripped, so the worker is already winding down.
fn drain(state: &mut PartState) {
    while !state.finished {
        match state.rx.recv_timeout(Duration::from_millis(100)) {
            Ok(Msg::Batch(_)) => {}
            Ok(Msg::Done(report)) => {
                state.finished = true;
                state.report = report;
            }
            Ok(Msg::Fail(interrupt, report)) => {
                state.finished = true;
                state.report = report;
                state.failed = Some(interrupt);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => state.finished = true,
        }
    }
}

/// Enumerates `source` across `parts` partition workers and merges their
/// streams in order, applying the `offset`/`limit` window exactly like the
/// serial collect loop.  Returns the (possibly partial) telemetry along
/// with the interrupt, if any — the caller folds the telemetry into
/// [`EvalStats`](crate::EvalStats) either way.
pub(crate) fn enumerate_parallel(
    source: &Arc<StreamSource>,
    parts: usize,
    limit: Option<usize>,
    offset: usize,
    ctl: &ExecCtl,
) -> (Option<Interrupt>, ParallelCollect) {
    let width = source.partition_width();
    debug_assert!(width >= 1, "parallel enumeration needs a partition axis");
    let parts = parts.min(width).max(1);
    let ranges = partition_ranges(width, parts);
    let cap = limit.map(|l| offset.saturating_add(l).saturating_add(1));
    let stop = CancelToken::new();
    let collector = ctl.tracer().collector();
    let worker_parts = ctl.worker().with_stop(stop.clone());
    let start = Instant::now();

    let mut out = ParallelCollect {
        workers: parts as u64,
        ..ParallelCollect::default()
    };
    let mut interrupt: Option<Interrupt> = None;

    let mut states: Vec<PartState> = thread::scope(|scope| {
        let mut states = Vec::with_capacity(parts);
        for (i, range) in ranges.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Msg>(CHANNEL_BATCHES);
            let source = Arc::clone(source);
            let wctl = worker_parts.clone();
            let collector = &collector;
            scope.spawn(move || run_partition(i, source, range, wctl, cap, tx, collector));
            states.push(PartState {
                rx,
                buf: VecDeque::new(),
                finished: false,
                report: Report::default(),
                failed: None,
            });
        }

        // Ordered k-way merge with adjacent-duplicate elimination, windowed
        // exactly like the serial collect loop.
        let mut buffered = 0u64;
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(Vec<NodeId>, usize)>> =
            std::collections::BinaryHeap::new();
        let merge = |states: &mut Vec<PartState>,
                     heap: &mut std::collections::BinaryHeap<_>,
                     buffered: &mut u64,
                     out: &mut ParallelCollect|
         -> Result<(), Interrupt> {
            for (i, state) in states.iter_mut().enumerate() {
                *buffered += refill(state, ctl)?;
                out.max_queue_depth = out.max_queue_depth.max(*buffered);
                if let Some(interrupt) = state.failed {
                    return Err(interrupt);
                }
                if let Some(row) = state.buf.pop_front() {
                    *buffered -= 1;
                    heap.push(std::cmp::Reverse((row, i)));
                }
            }
            let mut last: Option<Vec<NodeId>> = None;
            let mut skipped = 0usize;
            while let Some(std::cmp::Reverse((row, i))) = heap.pop() {
                let state = &mut states[i];
                *buffered += refill(state, ctl)?;
                out.max_queue_depth = out.max_queue_depth.max(*buffered);
                if let Some(interrupt) = state.failed {
                    return Err(interrupt);
                }
                if let Some(next) = state.buf.pop_front() {
                    *buffered -= 1;
                    heap.push(std::cmp::Reverse((next, i)));
                }
                if last.as_ref() == Some(&row) {
                    continue;
                }
                out.merged_rows += 1;
                if out.merged_rows == 1 {
                    out.time_to_first_row = start.elapsed();
                }
                if skipped < offset {
                    skipped += 1;
                    last = Some(row);
                    continue;
                }
                if limit.is_some_and(|l| out.rows.len() >= l) {
                    // The look-ahead row proving truncation, counted in
                    // `merged_rows` just like the serial loop counts it.
                    out.truncated = true;
                    return Ok(());
                }
                last = Some(row.clone());
                out.rows.push(row);
            }
            Ok(())
        };
        if let Err(e) = merge(&mut states, &mut heap, &mut buffered, &mut out) {
            interrupt = Some(e);
        }

        // Stop the workers (limit satisfied, or propagating an interrupt)
        // and collect every report; workers wind down at their next poll.
        stop.cancel();
        for state in &mut states {
            drain(state);
        }
        states
    });

    // A worker failure caused by our own stop token is not an interrupt;
    // anything else (deadline, request cancellation) is.
    for state in &mut states {
        out.worker_rows += state.report.rows;
        out.busy += state.report.busy;
        if let (None, Some(failed)) = (interrupt, state.failed) {
            interrupt = Some(failed);
        }
    }
    if interrupt == Some(Interrupt::Cancelled) {
        // Distinguish a real request cancellation/timeout from workers that
        // merely observed our stop token: re-poll the parent control.
        interrupt = ctl.check().err();
    }
    ctl.tracer().adopt(&collector);
    out.enumerate_time = start.elapsed();
    (interrupt, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_ranges_cover_exactly() {
        for width in [1usize, 2, 3, 7, 100, 101] {
            for parts in 1..=width.min(9) {
                let ranges = partition_ranges(width, parts);
                assert_eq!(ranges.len(), parts);
                assert!(ranges.iter().all(|r| !r.is_empty()));
                let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
                assert_eq!(flat, (0..width).collect::<Vec<_>>());
            }
        }
    }
}
