//! What the benchmark writes: the one-line result of a single workload run
//! (the contract of `BENCHMARK.json`'s `command`), the provenance line in
//! front of it, and the result file of `run`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use gtpq_obs::json::JsonValue;

/// Directory of this package (`perfbench/`), fixed at build time: the
/// binary finds `golden.json`, `../BENCHMARK.json` and its output
/// directory from wherever it is started.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where results, traces and the cold path's snapshot files go.
pub fn perf_dir() -> PathBuf {
    package_dir().join("target").join("perf")
}

/// `../BENCHMARK.json`, parsed: the run length and the bounds live there and
/// nowhere else.
pub fn benchmark_json() -> Result<JsonValue, String> {
    let path = package_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    gtpq_obs::json::parse(&text).map_err(|e| format!("{}: {}", path.display(), e.message))
}

/// The workloads `BENCHMARK.json` lists: those whose metrics carry bounds.
pub fn bounded_workloads() -> Vec<String> {
    benchmark_json()
        .ok()
        .and_then(|json| {
            let list = json.get("workloads")?.as_array()?;
            Some(
                list.iter()
                    .filter_map(|w| Some(w.get("name")?.as_str()?.to_owned()))
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits that were measured (`Display` of an
/// `f64` is the shortest text that reads back to the same value).
pub fn number(v: f64) -> String {
    // An empty f64 sum is -0.0, which would print as "-0".
    if v == 0.0 || !v.is_finite() {
        "0".to_owned()
    } else {
        format!("{v}")
    }
}

/// A JSON object from already-encoded values.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = members
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array from already-encoded values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// One emitted metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics(list: &[Metric]) -> String {
    object(list.iter().map(|&(name, value, unit)| {
        (
            name,
            object([("value", number(value)), ("unit", string(unit))]),
        )
    }))
}

/// The last line of a single workload run, exactly as the contract wants it.
pub fn result_line(correct: bool, attempted: u64, failed: u64, list: &[Metric]) -> String {
    object([
        ("correct", correct.to_string()),
        ("attempted", attempted.max(1).to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics(list)),
    ])
}

/// Re-encodes a parsed value (the result file embeds the children's lines).
pub fn encode(value: &JsonValue) -> String {
    match value {
        JsonValue::Null => "null".to_owned(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(n) => number(*n),
        JsonValue::String(s) => string(s),
        JsonValue::Array(items) => array(items.iter().map(encode)),
        JsonValue::Object(members) => object(members.iter().map(|(k, v)| (k.as_str(), encode(v)))),
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

/// The machine and build a result was measured on.
pub fn machine() -> String {
    let unknown = || "unknown".to_owned();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = Command::new("git")
        .arg("-C")
        .arg(package_dir())
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    object([
        ("nproc", nproc.to_string()),
        (
            "cpu",
            string(&proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "kernel",
            string(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| unknown(), |s| s.trim().to_owned())
                    .as_str(),
            ),
        ),
        (
            "rustc",
            string(&command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        ("commit", string(&commit.unwrap_or_else(unknown))),
        ("profile", string("release")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_parses() {
        let line = result_line(
            true,
            0,
            0,
            &[("latency_ms", 1.2034, "ms"), ("setup_s", 0.5, "s")],
        );
        let parsed = gtpq_obs::json::parse(&line).expect("valid JSON");
        let JsonValue::Object(members) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            parsed.get("attempted").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        let latency = parsed
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .unwrap();
        assert_eq!(
            latency.get("value").and_then(JsonValue::as_f64),
            Some(1.2034)
        );
        assert_eq!(latency.get("unit").and_then(JsonValue::as_str), Some("ms"));
        assert_eq!(encode(&parsed), line, "encode round-trips what it parsed");
    }

    #[test]
    fn strings_are_escaped_and_numbers_keep_their_digits() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "0");
        assert!(gtpq_obs::json::parse(&machine()).is_ok());
    }
}
