//! The untraced run: rounds of set-up plus a timed slice of the closed loop,
//! the selection of the samples that count, and the end-to-end metrics.
//!
//! # Why not every sample counts
//!
//! The sandbox this benchmark was built on runs at one of two speeds, about
//! 1.5x apart, and switches between them every few seconds for reasons
//! outside the VM (README, "The two-speed sandbox").  A 12-second run sees
//! an arbitrary mix of the two, so any statistic over all of its samples is
//! a statistic of that mix: the same commit measured 11.7 ms and 16.5 ms
//! median latency minutes apart.  What repeats is the fast speed.  The timed
//! phase is therefore made of *units* — stretches of exactly the same work,
//! 50-300 ms long — and a unit counts only if it ran within
//! [`SLOW_FACTOR`] of the fastest unit that did the same work.  Set-up,
//! which is one long operation, is repeated once per round — rounds are
//! spread over the whole run — and the fastest one is reported.  On a
//! machine with one speed every unit qualifies and nothing is left out.

use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::report::Metric;
use crate::session::{Ready, Session, Timed};
use crate::stats::{
    median, percentile, sorted, supported_percentile, take_drop_row, Checksum, Digest,
};
use crate::workloads::{Shape, Spec};

/// A unit counts while it took at most this multiple of the fastest unit
/// doing the same work.  The sandbox's speeds are 1.5x apart and units of
/// one speed scatter by about 5%, so 1.15 separates them.
pub const SLOW_FACTOR: f64 = 1.15;

/// On the live graph consecutive cycles do slightly more work each (the
/// graph grows by 0.1% per epoch), so a cycle is compared with the fastest
/// of the cycles at most this many epochs away from it, in any round.
const LIVE_NEIGHBOURHOOD: usize = 5;

/// How a run is sized.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Length of the timed phase, all rounds together.
    pub seconds: f64,
    /// Rounds of set-up + timed slice; `setup_s` is the fastest set-up.
    pub rounds: usize,
    /// Divisor of the traced pass's op counts.
    pub traced_divisor: usize,
}

impl Sizing {
    pub fn full(seconds: f64, spec: &Spec) -> Self {
        Self {
            seconds,
            rounds: spec.rounds(),
            traced_divisor: 1,
        }
    }

    /// 1/20 of the work, for a smoke run: too few samples for the
    /// percentiles to be compared with anything.
    pub fn quick(seconds: f64) -> Self {
        Self {
            seconds: seconds / 20.0,
            rounds: 1,
            traced_divisor: 20,
        }
    }
}

/// One stretch of identical work inside the timed phase.
struct Unit {
    /// What was done: units with equal `work` did exactly the same.
    work: usize,
    /// This unit's samples in `Measured::query_ms`.
    samples: Range<usize>,
    /// This unit's commit in `Measured::commit_ms`, on the live graph.
    commit: Option<usize>,
    /// Time of the ops that say how fast the machine was, ms: all of them,
    /// except on the live graph, where the first read after the commit
    /// (index rebuild) and the commit itself grow with the graph faster
    /// than the other reads do.
    signal_ms: f64,
}

/// Every end-to-end metric of `BENCHMARK.json` with its unit, in its order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Everything one untraced run measured.
pub struct Measured {
    /// Duration of each round's set-up, s.
    pub setups_s: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub commit_ms: Vec<f64>,
    units: Vec<Unit>,
    neighbourhood: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub checksum: Checksum,
    pub backends: String,
    pub graph_size: (usize, usize),
    pub distinct: usize,
    /// `VmHWM` when the last round ended: the workload's peak, before the
    /// statistics over its samples allocate anything.
    peak_rss_mb: f64,
}

/// Which of `units` (work, signal) ran at the machine's fast speed: within
/// [`SLOW_FACTOR`] of the fastest unit whose work is at most `neighbourhood`
/// away from theirs.
pub fn fast_units(units: &[(usize, f64)], neighbourhood: usize) -> Vec<bool> {
    let works = units.iter().map(|u| u.0 + 1).max().unwrap_or(0);
    let mut fastest = vec![f64::INFINITY; works];
    for &(work, signal) in units {
        fastest[work] = fastest[work].min(signal);
    }
    units
        .iter()
        .map(|&(work, signal)| {
            let lo = work.saturating_sub(neighbourhood);
            let hi = (work + neighbourhood + 1).min(works);
            let reference = fastest[lo..hi]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            signal <= reference * SLOW_FACTOR
        })
        .collect()
}

/// What of a run's samples counts.
pub struct Counted {
    pub units: usize,
    pub counted_units: usize,
    /// Latencies of the counted query ops, ms, ascending.
    pub query_ms: Vec<f64>,
    /// Latencies of the counted commits, ms.
    pub commit_ms: Vec<f64>,
}

impl Measured {
    pub fn counted(&self) -> Counted {
        let signals: Vec<(usize, f64)> = self.units.iter().map(|u| (u.work, u.signal_ms)).collect();
        let keep = fast_units(&signals, self.neighbourhood);
        let mut counted = Counted {
            units: self.units.len(),
            counted_units: 0,
            query_ms: Vec::new(),
            commit_ms: Vec::new(),
        };
        for (unit, _) in self.units.iter().zip(keep).filter(|(_, keep)| *keep) {
            counted.counted_units += 1;
            counted
                .query_ms
                .extend_from_slice(&self.query_ms[unit.samples.clone()]);
            counted
                .commit_ms
                .extend(unit.commit.map(|c| self.commit_ms[c]));
        }
        counted.query_ms = sorted(counted.query_ms);
        counted
    }

    /// The values of [`END_TO_END`].
    pub fn end_to_end(&self, counted: &Counted) -> Vec<Metric> {
        let Counted {
            query_ms,
            commit_ms,
            ..
        } = counted;
        // The harness's own checking between ops is not the system's time:
        // throughput is query ops over the time spent inside ops (commits
        // included, on the live graph).
        let busy_s = (query_ms.iter().sum::<f64>() + commit_ms.iter().sum::<f64>()) / 1e3;
        let values = [
            self.setups_s.iter().copied().fold(f64::INFINITY, f64::min),
            percentile(query_ms, 50.0),
            percentile(query_ms, 95.0),
            query_ms.len() as f64 / busy_s.max(1e-9),
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    }
}

impl Counted {
    /// Whether the counted sample supports the p95 reported from it.
    pub fn p95_supported(&self) -> bool {
        supported_percentile(self.query_ms.len()).is_some_and(|p| p >= 95.0)
    }

    pub fn commit_p50_ms(&self) -> f64 {
        median(&self.commit_ms)
    }
}

/// `VmHWM` of this process in MB; 0 where `/proc` does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Books one timed op: its latency, and a failure when it returned an error
/// or rows other than `reference`.
fn book(m: &mut Measured, op: Timed, reference: Option<Digest>, drop_row: &mut bool) {
    m.attempted += 1;
    // A failed op keeps its latency: it was load all the same.
    m.query_ms.push(ms(op.latency));
    match op.outcome {
        Ok(outcome) => {
            let digest = Digest::of(&outcome.rows, take_drop_row(drop_row, outcome.rows.len()));
            if reference.is_some_and(|r| r != digest) {
                m.failures.push(format!(
                    "op {} returned {digest:?}, expected {reference:?}",
                    m.attempted
                ));
            }
        }
        Err(e) => m.failures.push(format!("op {} failed: {e}", m.attempted)),
    }
}

/// One pass of the closed loop over `session`: every unit of a request
/// list, one commit+reads cycle, or one block of cold ops.
fn pass(spec: &Spec, session: &mut Session, m: &mut Measured, drop_row: &mut bool) {
    match session {
        Session::Requests(s) => {
            let n = s.requests.len();
            for (work, first) in (0..n).step_by(spec.unit_len()).enumerate() {
                let from = m.query_ms.len();
                for _ in 0..spec.unit_reps() {
                    for i in first..(first + spec.unit_len()).min(n) {
                        let op = s.op(i);
                        book(m, op, Some(s.reference[i]), drop_row);
                    }
                }
                m.units.push(Unit {
                    work,
                    samples: from..m.query_ms.len(),
                    commit: None,
                    signal_ms: m.query_ms[from..].iter().sum(),
                });
            }
        }
        Session::Live(s) => {
            let work = s.next_epoch;
            m.commit_ms.push(ms(s.commit_next()));
            let from = m.query_ms.len();
            for i in 0..s.reads.len() {
                // Answers change with every epoch: the final-state check of
                // each round is this shape's reference.
                let op = s.read(i);
                book(m, op, None, &mut false);
            }
            m.units.push(Unit {
                work,
                samples: from..m.query_ms.len(),
                commit: Some(m.commit_ms.len() - 1),
                signal_ms: m.query_ms[from + 1..].iter().sum(),
            });
        }
        Session::Cold(s) => {
            let from = m.query_ms.len();
            for _ in 0..spec.unit_reps() {
                let op = s.op(false);
                book(m, op, Some(s.reference), drop_row);
            }
            m.units.push(Unit {
                work: 0,
                samples: from..m.query_ms.len(),
                commit: None,
                signal_ms: m.query_ms[from..].iter().sum(),
            });
        }
    }
}

/// Runs `sizing.rounds` rounds, each a fresh set-up followed by its share
/// of `sizing.seconds` in whole passes, and checks every answer.
pub fn run(
    spec: &Spec,
    seed: u64,
    sizing: Sizing,
    dir: &Path,
    drop_row: bool,
) -> Result<Measured, String> {
    let mut m = Measured {
        setups_s: Vec::new(),
        // Room for every sample up front: a vector that doubles as it grows
        // shows up in `peak_rss_mb` by however far the run got.
        query_ms: Vec::with_capacity(1 << 20),
        commit_ms: Vec::new(),
        units: Vec::new(),
        neighbourhood: match spec.shape {
            Shape::Live => LIVE_NEIGHBOURHOOD,
            _ => 0,
        },
        attempted: 0,
        failures: Vec::new(),
        checksum: Checksum::default(),
        backends: String::new(),
        graph_size: (0, 0),
        distinct: 0,
        peak_rss_mb: 0.0,
    };
    let mut drop_row = drop_row;
    let rounds = sizing.rounds.max(1);
    let slice = sizing.seconds / rounds as f64;
    for round in 0..rounds {
        let start = Instant::now();
        let Ready {
            mut session,
            checksum,
            failures,
        } = Session::setup(spec, seed, false, dir)?;
        m.setups_s.push(start.elapsed().as_secs_f64());
        if round == 0 {
            // Set-up is deterministic: the first round's answers speak for all.
            m.checksum = checksum;
            m.failures.extend(failures);
            m.backends = session.backends();
        }
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < slice {
            pass(spec, &mut session, &mut m, &mut drop_row);
        }
        if let Session::Live(s) = &session {
            m.failures.extend(s.final_state_failures(&mut drop_row));
        }
        m.graph_size = session.graph_size();
        m.distinct = match &session {
            Session::Requests(s) => s.requests.len(),
            Session::Live(s) => s.reads.len(),
            Session::Cold(_) => 1,
        };
        // The session drops here, before the next round's set-up: peak RSS
        // is one workload's, not two.
    }
    m.peak_rss_mb = peak_rss_mb();
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_of_the_slow_speed_do_not_count() {
        // Two kinds of work; the machine was slow for the middle units.
        let units = [
            (0, 100.0),
            (1, 200.0),
            (0, 152.0),
            (1, 310.0),
            (0, 104.0),
            (1, 229.0),
            (0, 116.0),
        ];
        assert_eq!(
            fast_units(&units, 0),
            [true, true, false, false, true, true, false]
        );
        // One speed only: everything counts.
        let steady = [(0, 100.0), (0, 103.0), (0, 99.0), (0, 110.0)];
        assert_eq!(fast_units(&steady, 0), [true; 4]);
        assert!(fast_units(&[], 3).is_empty());
    }

    /// The `--quick` sizing end to end, on the cheapest workload: every
    /// metric is emitted, answers check out, and a dropped row is caught.
    #[test]
    fn quick_run_checks_answers_and_emits_every_metric() {
        let spec = crate::workloads::spec("arxiv_enum").unwrap();
        let dir = std::env::temp_dir();
        let sizing = Sizing::quick(2.0);
        assert_eq!((sizing.rounds, sizing.traced_divisor), (1, 20));
        let m = run(&spec, 7, sizing, &dir, false).unwrap();
        assert!(m.failures.is_empty(), "{:?}", m.failures);
        assert_eq!(m.distinct, 11);
        assert!(m.attempted >= 11 && m.query_ms.len() as u64 == m.attempted);
        let counted = m.counted();
        let metrics = m.end_to_end(&counted);
        let names: Vec<&str> = metrics.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert!(metrics.iter().all(|(_, v, _)| *v > 0.0), "{metrics:?}");
        assert!(counted.counted_units >= 1 && counted.counted_units <= counted.units);
        assert!(
            !counted.p95_supported(),
            "a quick run is too short for a p95"
        );

        let wrong = run(&spec, 7, sizing, &dir, true).unwrap();
        assert_eq!(wrong.failures.len(), 1, "{:?}", wrong.failures);
        assert_eq!(
            wrong.checksum, m.checksum,
            "the hook leaves the warm-up alone"
        );
    }

    #[test]
    fn growing_work_is_compared_with_its_neighbours() {
        // Work k costs 100 + k; a second round ran work 0..3 slowly.
        let mut units: Vec<(usize, f64)> = (0..40).map(|k| (k, 100.0 + k as f64)).collect();
        units.extend((0..3).map(|k| (k, 150.0 + k as f64)));
        let counted = fast_units(&units, 5);
        assert!(
            counted[..40].iter().all(|c| *c),
            "drift alone never disqualifies"
        );
        assert_eq!(counted[40..], [false; 3]);
        // With no neighbourhood a single slow sample of some work is its own
        // reference: the neighbours are what catches it.
        assert_eq!(fast_units(&[(0, 100.0), (1, 150.0)], 0), [true, true]);
        assert_eq!(fast_units(&[(0, 100.0), (1, 150.0)], 1), [true, false]);
    }
}
