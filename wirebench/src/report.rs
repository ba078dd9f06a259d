//! What a run prints: the machine fingerprint, per-phase details, and the
//! one-line result object the last line of standard output carries.

use cos_gate::json::Value;

use crate::stats::Percentile;

fn string(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn command_line(command: &mut std::process::Command) -> Option<String> {
    let out = command.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checkout's commit, if the working directory is the root of a git
/// checkout (git may not search the directories above it).
fn commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut git = std::process::Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(parent) = cwd.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut git)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run's machine and build fingerprint.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    object(vec![
        ("workload", string(workload)),
        ("seed", Value::Number(seed as f64)),
        ("seconds", Value::Number(seconds as f64)),
        ("trace", Value::Bool(trace)),
        ("nproc", Value::Number(nproc as f64)),
        ("cpu", string(cpu_model())),
        (
            "rustc",
            string(
                command_line(std::process::Command::new("rustc").arg("--version"))
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "commit",
            string(commit().unwrap_or_else(|| "unknown (not a git checkout)".into())),
        ),
    ])
}

/// A percentile with its support, for the detail lines.
pub fn percentile_detail(p: &Percentile, scale: f64) -> Value {
    object(vec![
        ("value", Value::Number(p.value * scale)),
        ("samples", Value::Number(p.samples as f64)),
        ("beyond", Value::Number(p.beyond as f64)),
    ])
}

/// Sent, answered-correctly and failed counts of one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseCounts {
    /// Phase name.
    pub phase: String,
    /// Requests sent.
    pub sent: u64,
    /// Replies that passed every check.
    pub ok: u64,
    /// Requests that failed or were answered wrongly.
    pub failed: u64,
}

/// The per-phase counts as one JSON object.
pub fn phases_detail(phases: &[PhaseCounts]) -> Value {
    Value::Object(
        phases
            .iter()
            .map(|p| {
                (
                    p.phase.clone(),
                    object(vec![
                        ("sent", Value::Number(p.sent as f64)),
                        ("ok", Value::Number(p.ok as f64)),
                        ("failed", Value::Number(p.failed as f64)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Prints one labelled detail line.
pub fn print_line(label: &str, value: Value) {
    println!("{}", object(vec![(label, value)]).encode());
}

/// Prints the result object as the last line of standard output.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    object(vec![
                        ("value", Value::Number(value)),
                        ("unit", string(unit)),
                    ]),
                )
            })
            .collect(),
    );
    let result = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Number(attempted as f64)),
        ("failed", Value::Number(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.encode());
}
