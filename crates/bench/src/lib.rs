//! Shared helpers for the experiment harness binaries.
//!
//! Every binary regenerates one table or figure of the paper, prints a
//! paper-vs-measured report to stdout, and (when `--json <path>` or the
//! `FS_RESULTS_DIR` environment variable is given) writes the raw
//! result as JSON for EXPERIMENTS.md bookkeeping.

use std::path::{Path, PathBuf};

/// Parsed common CLI options for harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Simulated measurement seconds per run.
    pub measure_secs: f64,
    /// Where to write the JSON result, if anywhere.
    pub json_path: Option<PathBuf>,
    /// Override core counts (comma-separated), when the experiment
    /// sweeps cores.
    pub cores: Option<Vec<u16>>,
}

impl HarnessArgs {
    /// Parses `[measure_secs] [--cores a,b,c] [--json path]` from the
    /// process arguments, with the given default measurement length.
    pub fn parse(default_measure: f64, experiment: &str) -> HarnessArgs {
        Self::parse_from(
            std::env::args().skip(1).collect(),
            default_measure,
            experiment,
        )
    }

    /// [`HarnessArgs::parse`] over an explicit argument vector —
    /// for binaries that consume extra flags of their own first and
    /// forward the remainder.
    pub fn parse_from(args: Vec<String>, default_measure: f64, experiment: &str) -> HarnessArgs {
        let mut measure_secs = default_measure;
        let mut json_path = None;
        let mut cores = None;
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => {
                    json_path = it.next().map(PathBuf::from);
                }
                "--cores" => {
                    cores = it.next().map(|s| {
                        s.split(',')
                            .map(|x| x.parse().expect("core count"))
                            .collect()
                    });
                }
                other => {
                    if let Ok(v) = other.parse::<f64>() {
                        measure_secs = v;
                    }
                }
            }
        }
        if json_path.is_none() {
            if let Ok(dir) = std::env::var("FS_RESULTS_DIR") {
                json_path = Some(PathBuf::from(dir).join(format!("{experiment}.json")));
            }
        }
        HarnessArgs {
            measure_secs,
            json_path,
            cores,
        }
    }

    /// Writes `value` as pretty JSON to the configured path, if any.
    pub fn write_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json_path {
            write_artifact(value, path);
        }
    }
}

/// Writes `value` as pretty JSON to `path`, creating missing parent
/// directories.
///
/// # Panics
///
/// Panics when `value` does not serialize or `path` cannot be written.
pub fn write_artifact<T: serde::Serialize>(value: &T, path: &Path) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let text = serde_json::to_string_pretty(value).expect("results serialize");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("(raw results written to {})", path.display());
}

/// Reads back an artifact [`write_artifact`] wrote; `schema` names the
/// expected shape in the panic message.
///
/// # Panics
///
/// Panics when `path` cannot be read or does not match the schema.
pub fn read_artifact<T: serde::Deserialize>(path: &Path, schema: &str) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} does not match the {schema} schema: {e}", path.display()))
}

/// Runs the same cell twice and asserts the chosen digest is
/// bit-identical, returning the first run's result.
///
/// This is the shared "doubled run" reproducibility gate the harness
/// binaries used to hand-roll: `run` must build a **fresh** config each
/// call (taking a closure, rather than a prebuilt result pair, makes it
/// structurally impossible for the second run to reuse mutated config
/// state), and `digest` picks what must reproduce — a results digest, a
/// schedule digest, a shard-report digest, or any tuple of them.
///
/// # Panics
///
/// Panics with `what` in the message when the two digests differ.
pub fn assert_deterministic<R, D>(
    what: impl std::fmt::Display,
    run: impl Fn() -> R,
    digest: impl Fn(&R) -> D,
) -> R
where
    D: PartialEq + std::fmt::Debug,
{
    let first = run();
    let again = run();
    let (a, b) = (digest(&first), digest(&again));
    assert_eq!(a, b, "{what}: same-seed reruns must be bit-identical");
    first
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats connections/sec in the paper's "475K" style.
pub fn kcps(x: f64) -> String {
    format!("{:.0}K", x / 1_000.0)
}
