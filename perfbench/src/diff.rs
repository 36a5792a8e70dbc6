//! `perfbench diff A.json B.json`: compares two result files of `run` row by
//! row — one row per (end-to-end metric, workload) — against the bounds of
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use gtpq_obs::json::{parse, JsonValue};

use crate::report::{benchmark_json, bounded_workloads};
use crate::stats::quartiles;

/// What a row says about B against A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A's own runs spread wider than the bound: no statement is possible.
    Unresolved,
    Regression,
    Unchanged,
    Improved,
}

/// One side of a row: quartiles of the runs given.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub n: usize,
    pub q: [f64; 3],
}

impl Side {
    fn of(values: &[f64]) -> Self {
        Self {
            n: values.len(),
            q: quartiles(values),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.q[1] == 0.0 {
            0.0
        } else {
            (self.q[2] - self.q[0]) / self.q[1].abs()
        }
    }
}

/// Judges B's median against A's: worse by more than `bound` (a share of
/// A's median) is a regression — unless A's own spread already exceeds the
/// bound, which makes the row unresolved rather than unchanged.
pub fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (Side, Side, f64, Verdict) {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let change = if sa.q[1] == 0.0 {
        0.0
    } else {
        (sb.q[1] - sa.q[1]) / sa.q[1].abs()
    };
    let worse = if lower_is_better { change } else { -change };
    let verdict = if sa.spread() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (sa, sb, change, verdict)
}

/// The end-to-end metrics of `BENCHMARK.json`: name, lower-is-better, bound.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let json = benchmark_json()?;
    let list = json
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_owned())
}

/// What `diff` needs of one result file.
#[derive(Default)]
struct Runs {
    /// Workloads in order of first appearance.
    order: Vec<String>,
    /// (workload, metric) → values of the untraced runs.
    end_to_end: BTreeMap<(String, String), Vec<f64>>,
    /// workload → (attempted, failed) over all its runs.
    ops: BTreeMap<String, (f64, f64)>,
    /// (workload, seed, name) → every value seen of what must repeat
    /// exactly: count-unit layer metrics and the answers checksum.
    exact: BTreeMap<(String, u64, String), Vec<String>>,
}

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = parse(&text).map_err(|e| format!("{path}: {}", e.message))?;
    let list = json
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| {
            format!("{path}: no `runs` list (is it a result file of `perfbench run`?)")
        })?;
    let mut runs = Runs::default();
    for run in list {
        let field = |k: &str| {
            run.get(k)
                .ok_or_else(|| format!("{path}: run without `{k}`"))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_owned();
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        let traced = field("traced")? == &JsonValue::Bool(true);
        if !runs.order.contains(&workload) {
            runs.order.push(workload.clone());
        }
        let ops = runs.ops.entry(workload.clone()).or_default();
        ops.0 += field("attempted")?.as_f64().unwrap_or(0.0);
        ops.1 += field("failed")?.as_f64().unwrap_or(0.0);
        if let Some(sum) = run.get("info").and_then(|i| i.get("answers_checksum")) {
            runs.exact
                .entry((workload.clone(), seed, "answers_checksum".into()))
                .or_default()
                .push(sum.as_str().unwrap_or_default().to_owned());
        }
        let JsonValue::Object(metrics) = field("metrics")? else {
            return Err(format!("{path}: `metrics` is not an object"));
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
            if !traced {
                runs.end_to_end
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            } else if m.get("unit").and_then(JsonValue::as_str) == Some("count") {
                runs.exact
                    .entry((workload.clone(), seed, name.clone()))
                    .or_default()
                    .push(value.to_string());
            }
        }
    }
    Ok(runs)
}

/// Prints the comparison; `Ok(true)` when B is no worse than A on every row.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let bounded = bounded_workloads();
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>5} {:>36} {:>36} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "bound",
        "A median [q1, q3] (n)",
        "B median [q1, q3] (n)",
        "change",
        "spread"
    );
    let side = |s: &Side| format!("{:.4} [{:.4}, {:.4}] ({})", s.q[1], s.q[0], s.q[2], s.n);
    for workload in &a.order {
        // A workload BENCHMARK.json does not list is shown, not judged.
        let judged = bounded.contains(workload);
        for (metric, lower, bound) in &bounds {
            let key = (workload.clone(), metric.clone());
            let (Some(va), Some(vb)) = (a.end_to_end.get(&key), b.end_to_end.get(&key)) else {
                println!("{workload:<14} {metric:<14} missing on one side");
                ok = false;
                continue;
            };
            let (sa, sb, change, verdict) = judge(va, vb, *lower, *bound);
            ok &= !judged || verdict != Verdict::Regression;
            println!(
                "{workload:<14} {metric:<14} {:>4.0}% {:>36} {:>36} {:>+7.1}% {:>5.1}%  {}",
                bound * 100.0,
                side(&sa),
                side(&sb),
                change * 100.0,
                sa.spread() * 100.0,
                match verdict {
                    _ if !judged => "not judged (workload has no bounds)",
                    Verdict::Unresolved => "unresolved (A spreads wider than the bound)",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unchanged => "unchanged",
                    Verdict::Improved => "improved",
                }
            );
        }
        let share = |r: &Runs| r.ops.get(workload).map_or(0.0, |(n, f)| f / n.max(1.0));
        let (fa, fb) = (share(&a), share(&b));
        if fb > fa {
            println!("{workload:<14} failed share rose from {fa} to {fb}: REGRESSION");
            ok = false;
        }
    }
    // Counts and checksums of equal (workload, seed) must be equal wherever
    // they were measured: within A, within B and between them.
    let mut exact = a.exact;
    for (key, values) in b.exact {
        exact.entry(key).or_default().extend(values);
    }
    let mut compared = 0;
    for ((workload, seed, name), values) in &exact {
        compared += values.len();
        if values.iter().any(|v| v != &values[0]) {
            println!("{workload} seed {seed}: {name} does not repeat exactly: {values:?}");
            ok = false;
        }
    }
    println!(
        "exact counts and checksums: {compared} values in {} groups compared",
        exact.len()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wide_a_side_is_unresolved_not_unchanged() {
        let noisy = [10.0, 12.0, 14.0, 16.0, 18.0];
        let (sa, _, _, verdict) = judge(&noisy, &noisy, true, 0.1);
        assert!(sa.spread() > 0.1);
        assert_eq!(verdict, Verdict::Unresolved);
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let a = [100.0, 100.5, 101.0, 99.5, 100.2];
        let slower: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        let near: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&a, &slower, true, 0.1).3, Verdict::Regression);
        assert_eq!(judge(&a, &faster, true, 0.1).3, Verdict::Improved);
        assert_eq!(judge(&a, &near, true, 0.1).3, Verdict::Unchanged);
        // Higher-is-better flips the sign.
        assert_eq!(judge(&a, &slower, false, 0.1).3, Verdict::Improved);
        assert_eq!(judge(&a, &faster, false, 0.1).3, Verdict::Regression);
        let change = judge(&a, &slower, true, 0.1).2;
        assert!((change - 0.2).abs() < 1e-9);
    }

    #[test]
    fn a_single_run_has_no_spread() {
        let (sa, sb, _, verdict) = judge(&[5.0], &[5.2], true, 0.1);
        assert_eq!((sa.n, sb.n), (1, 1));
        assert_eq!(sa.spread(), 0.0);
        assert_eq!(verdict, Verdict::Unchanged);
    }
}
