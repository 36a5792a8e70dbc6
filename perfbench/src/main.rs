//! `perfbench`: the request-level benchmark of the gtpq query service.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (BENCHMARK.json's command)
//! perfbench run [--workload W] [--seed N] [--seconds S] [--runs N] [--quick] [--bless] [--out FILE]
//! perfbench diff A.json B.json
//! ```
//!
//! See `README.md` for the workloads, the metrics and how to read a trace.

mod diff;
mod measure;
mod replay;
mod report;
mod session;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use gtpq_obs::json::{parse, JsonValue};

use measure::Sizing;
use report::{array, encode, number, object, package_dir, perf_dir, string};
use session::Session;
use workloads::{Spec, SPECS};

const USAGE: &str = "usage:
  perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  perfbench run [--workload <name>] [--seed <n>] [--seconds <s>] [--runs <n>] [--quick] [--bless] [--out <file>]
  perfbench diff <A.json> <B.json>";

/// Seed `golden.json` is blessed for and `run` defaults to.
const DEFAULT_SEED: u64 = 42;

/// Flags shared by the single-workload mode and `run`.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    bless: bool,
    /// Test hook: makes one checked answer wrong, so a run must fail.
    drop_row: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        bless: false,
        drop_row: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--runs" => parsed.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => parsed.out = Some(value()?.clone()),
            "--quick" => parsed.quick = true,
            "--bless" => parsed.bless = true,
            "--drop-row" => parsed.drop_row = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// `run_seconds` of `BENCHMARK.json`: the run length bounds were set for.
fn default_seconds() -> f64 {
    report::benchmark_json()
        .ok()
        .and_then(|json| json.get("run_seconds")?.as_f64())
        .unwrap_or(12.0)
}

/// The blessed `answers_checksum` of `workload`, if `golden.json` has one
/// for this seed.
fn golden_checksum(workload: &str, seed: u64) -> Option<String> {
    let text = std::fs::read_to_string(package_dir().join("golden.json")).ok()?;
    let json = parse(&text).ok()?;
    if json.get("seed")?.as_f64()? as u64 != seed {
        return None;
    }
    Some(json.get("checksums")?.get(workload)?.as_str()?.to_owned())
}

/// One workload, traced or not; prints the provenance line and then the
/// result line.  `Ok(false)` when an answer was wrong.
fn single(spec: &Spec, args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or_else(default_seconds);
    let sizing = if args.quick {
        Sizing::quick(seconds)
    } else {
        Sizing::full(seconds, spec)
    };
    let dir = perf_dir();

    // Before anything is timed: the same requests on a down-scaled graph
    // must answer as the naive evaluator does.
    let small = Session::setup(spec, args.seed, true, &dir)?;
    let naive_failures = small.session.naive_failures();
    let mut attempted = spec.request_texts(args.seed, true).len() as u64;
    let mut failures: Vec<String> = small.failures.into_iter().chain(naive_failures).collect();
    drop(small.session);

    let mut info: Vec<(&str, String)> = vec![
        ("workload", string(spec.name)),
        ("seed", args.seed.to_string()),
        ("seconds", number(sizing.seconds)),
        ("traced", args.trace.to_string()),
        ("quick", args.quick.to_string()),
    ];
    let (metrics, checksum, backends, graph_size) = if args.trace {
        let traced = trace::run(spec, args.seed, sizing, &dir)?;
        let traces = dir.join("traces");
        std::fs::create_dir_all(&traces).map_err(|e| format!("{}: {e}", traces.display()))?;
        let path = traces.join(format!("{}.json", spec.name));
        std::fs::write(&path, traced.trace.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        attempted += traced.attempted;
        failures.extend(traced.failures);
        info.extend([
            ("chrome_trace", string(&path.display().to_string())),
            (
                "shares",
                object(traced.shares.iter().map(|(k, v)| (k.as_str(), number(*v)))),
            ),
        ]);
        (
            traced.per_layer,
            traced.checksum,
            traced.backends,
            traced.graph_size,
        )
    } else {
        let measured = measure::run(spec, args.seed, sizing, &dir, args.drop_row)?;
        let counted = measured.counted();
        attempted += measured.attempted;
        info.extend([
            ("distinct_requests", measured.distinct.to_string()),
            (
                "setups_s",
                array(measured.setups_s.iter().map(|s| number(*s))),
            ),
            ("units", counted.units.to_string()),
            ("counted_units", counted.counted_units.to_string()),
            ("query_samples", counted.query_ms.len().to_string()),
            ("p95_supported", counted.p95_supported().to_string()),
            ("commit_samples", counted.commit_ms.len().to_string()),
            ("commit_p50_ms", number(counted.commit_p50_ms())),
        ]);
        let metrics = measured.end_to_end(&counted);
        failures.extend(measured.failures);
        (
            metrics,
            measured.checksum,
            measured.backends,
            measured.graph_size,
        )
    };
    info.extend([
        ("backend", string(&backends)),
        ("nodes", graph_size.0.to_string()),
        ("edges", graph_size.1.to_string()),
    ]);
    let checksum = format!("{:016x}", checksum.0);
    // A blessing run replaces the golden checksums instead of obeying them.
    if let Some(golden) = golden_checksum(spec.name, args.seed).filter(|_| !args.bless) {
        if golden != checksum {
            failures.push(format!(
                "answers_checksum {checksum} differs from golden.json's {golden}"
            ));
        }
    }
    info.push(("answers_checksum", string(&checksum)));
    info.push((
        "failures",
        array(failures.iter().take(5).map(|f| string(f))),
    ));
    for failure in failures.iter().take(5) {
        eprintln!("perfbench: {}: {failure}", spec.name);
    }
    println!("info {}", object(info));
    println!(
        "{}",
        report::result_line(
            failures.is_empty(),
            attempted,
            failures.len() as u64,
            &metrics
        )
    );
    Ok(failures.is_empty())
}

/// What `run` keeps of one child: its provenance and result lines, parsed.
struct Child {
    info: JsonValue,
    result: JsonValue,
}

/// Runs one workload in a process of its own, so peak RSS and allocator
/// state are that workload's alone.  The child's stderr passes through.
fn child(spec: &Spec, seed: u64, seconds: f64, traced: bool, args: &Args) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    if args.drop_row {
        command.arg("--drop-row");
    }
    if args.bless {
        command.arg("--bless");
    }
    let output = command
        .output()
        .map_err(|e| format!("{}: cannot start: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| parse(l).ok());
    let info = lines
        .next()
        .and_then(|l| l.strip_prefix("info "))
        .and_then(|l| parse(l).ok());
    match (info, result) {
        (Some(info), Some(result)) => Ok(Child { info, result }),
        _ => Err(format!(
            "{}: no result (exit status {})",
            spec.name, output.status
        )),
    }
}

fn print_metrics(result: &JsonValue) {
    let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        let value = m.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
        println!("  {name:<36} {value:>16.4} {unit}");
    }
}

/// All workloads, each in child processes (one untraced, one traced), for
/// `--runs` seeds starting at `--seed`; prints every metric and writes the
/// result file.  `Ok(false)` when any answer was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or_else(default_seconds);
    let specs: Vec<&Spec> = SPECS
        .iter()
        .filter(|s| args.workload.as_deref().is_none_or(|w| w == s.name))
        .collect();
    if specs.is_empty() {
        return Err(format!(
            "unknown workload; have {:?}",
            SPECS.map(|s| s.name)
        ));
    }
    let mut all_correct = true;
    let mut entries = Vec::new();
    let mut checksums: Vec<(&str, String)> = Vec::new();
    for seed in (args.seed..).take(args.runs.max(1)) {
        for spec in &specs {
            for traced in [false, true] {
                let Child { info, result } = child(spec, seed, seconds, traced, args)?;
                let text = |v: &JsonValue, k: &str| {
                    v.get(k).map_or_else(String::new, |x| match x {
                        JsonValue::String(s) => s.clone(),
                        other => encode(other),
                    })
                };
                if traced {
                    println!("  -- per layer (traced pass)");
                } else {
                    println!(
                        "== {} seed {seed}: backend {}, {} nodes, {} edges, {} distinct requests, {} query samples in {} of {} units, checksum {}",
                        spec.name,
                        text(&info, "backend"),
                        text(&info, "nodes"),
                        text(&info, "edges"),
                        text(&info, "distinct_requests"),
                        text(&info, "query_samples"),
                        text(&info, "counted_units"),
                        text(&info, "units"),
                        text(&info, "answers_checksum"),
                    );
                    println!("   ({})", spec.why);
                    if !report::bounded_workloads().iter().any(|w| w == spec.name) {
                        println!("   (not in BENCHMARK.json: reported without bounds)");
                    }
                    if seed == args.seed {
                        checksums.push((spec.name, text(&info, "answers_checksum")));
                    }
                }
                print_metrics(&result);
                if let Some(JsonValue::Object(shares)) = info.get("shares") {
                    println!("  -- share of replayed op time");
                    for (layer, share) in shares {
                        println!(
                            "  {layer:<36} {:>15.2} %",
                            share.as_f64().unwrap_or(0.0) * 100.0
                        );
                    }
                }
                let correct = result.get("correct") == Some(&JsonValue::Bool(true));
                println!(
                    "  {} of {} checked ops failed",
                    text(&result, "failed"),
                    text(&result, "attempted")
                );
                all_correct &= correct;
                entries.push(object([
                    ("workload", string(spec.name)),
                    ("seed", seed.to_string()),
                    ("traced", traced.to_string()),
                    ("correct", correct.to_string()),
                    ("attempted", text(&result, "attempted")),
                    ("failed", text(&result, "failed")),
                    ("info", encode(&info)),
                    ("metrics", result.get("metrics").map_or("{}".into(), encode)),
                ]));
            }
        }
    }
    let out = args.out.clone().map_or_else(
        || perf_dir().join(format!("result-{}.json", args.seed)),
        std::path::PathBuf::from,
    );
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let file = object([
        ("schema", string("gtpq-perfbench/1")),
        ("machine", report::machine()),
        ("seed", args.seed.to_string()),
        ("seconds", number(seconds)),
        ("quick", args.quick.to_string()),
        ("runs", format!("[\n  {}\n]", entries.join(",\n  "))),
    ]);
    std::fs::write(&out, file + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    if args.bless {
        if !all_correct {
            return Err("not blessing checksums of a run with wrong answers".into());
        }
        let golden = object([
            ("seed", args.seed.to_string()),
            (
                "checksums",
                object(checksums.iter().map(|(k, v)| (*k, string(v)))),
            ),
        ]);
        let path = package_dir().join("golden.json");
        std::fs::write(&path, golden + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("blessed {}", path.display());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: this is a debug build; measure with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => parse_args(&argv[1..]).and_then(|args| run(&args)),
        Some("diff") => match &argv[1..] {
            [a, b] => diff::run(a, b),
            _ => Err(USAGE.to_owned()),
        },
        Some(_) => parse_args(&argv).and_then(|args| {
            let name = args.workload.as_deref().ok_or(USAGE)?;
            let spec = workloads::spec(name).ok_or_else(|| {
                format!(
                    "unknown workload `{name}`; have {:?}",
                    SPECS.map(|s| s.name)
                )
            })?;
            single(&spec, &args)
        }),
        None => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_and(key: &str, list: &JsonValue) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
                (field("name"), field(key))
            })
            .collect()
    }

    /// `BENCHMARK.json` is the contract other tools read; the tables in the
    /// code are what the runs emit.  They must name the same things.
    #[test]
    fn benchmark_json_names_what_the_code_emits() {
        let text =
            std::fs::read_to_string(package_dir().join("..").join("BENCHMARK.json")).unwrap();
        let json = parse(&text).expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(a, b)| ((*a).to_owned(), (*b).to_owned()))
                .collect()
        };
        let specs: Vec<(&str, &str)> = SPECS
            .iter()
            .filter(|s| s.name != "arxiv_enum_t2")
            .map(|s| (s.name, s.why))
            .collect();
        assert_eq!(
            names_and("why", json.get("workloads").unwrap()),
            own(&specs)
        );
        assert_eq!(
            names_and("unit", json.get("end_to_end").unwrap()),
            own(&measure::END_TO_END)
        );
        assert_eq!(
            names_and("unit", json.get("per_layer").unwrap()),
            own(&trace::PER_LAYER)
        );
        assert_eq!(
            json.get("paths")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(1)
        );
        assert!(default_seconds() >= 1.0);
    }

    #[test]
    fn arguments_parse_as_the_driver_sends_them() {
        let argv: Vec<String> = "--workload xmark_live --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("xmark_live"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(12.0), true));
        assert!(!args.quick && !args.bless && !args.drop_row);
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--frobnicate".into()]).is_err());
    }
}
