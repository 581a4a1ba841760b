//! The repository benchmark. It measures the simulator on two surfaces:
//! the host (set-up time, simulated seconds per wall second, peak RSS)
//! and the modeled kernel (connections per second, connection-setup
//! latency, goodput). A traced run and layer probes attribute the work
//! to the simulator's crates.
//!
//! ```text
//! cargo run --release -q --manifest-path benchmark/Cargo.toml -- [options]
//!   --workload <name>   measure one workload in this process
//!   --seed <n>          seed of every simulation (default 42)
//!   --seconds <s>       wall seconds of untraced repeats (default 10)
//!   --trace <0|1>       last line carries the end-to-end (0) or the
//!                       per-layer (1) metrics; both when absent
//!   --smoke             windows and probes divided by ten
//!   --sets <n>          run n sets, seeds seed..seed+n-1, and print each
//!                       metric's median and IQR/median
//!   --out <dir>         result and span files (default target/benchmark)
//! ```
//!
//! Without `--workload`, or with `--sets`, each workload runs in a child
//! process of its own, one at a time. Every run ends its standard output
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! The exit code is 1 when a correctness check failed, 2 on bad
//! arguments.

mod measure;
mod metrics;
mod probes;
mod spans;
mod workloads;

use measure::{median, Plan};
use metrics::Metric;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::Workload;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    sets: Option<u32>,
    out: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: None,
        smoke: false,
        sets: None,
        out: PathBuf::from("target/benchmark"),
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3_600.0).contains(&args.seconds) {
                    return Err(format!("--seconds must be in [0, 3600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--sets" => {
                let n: u32 = value.parse().map_err(|_| bad())?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--sets must be in [1, 100], got {value}"));
                }
                args.sets = Some(n);
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    let correct = match (args.workload, args.sets) {
        (Some(w), None) => run_one(w, &args),
        _ => run_children(&args),
    };
    std::process::exit(if correct { 0 } else { 1 });
}

/// Measures one workload in this process and prints its metrics.
fn run_one(w: Workload, args: &Args) -> bool {
    let plan = Plan {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        smoke: args.smoke,
    };
    let o = measure::measure(w, plan);
    let header = [
        ("workload", Value::String(w.name().into())),
        ("seed", Value::UInt(args.seed)),
        ("smoke", Value::Bool(args.smoke)),
        ("seconds", Value::Float(plan.seconds)),
        ("repeats", Value::UInt(o.repeats as u64)),
        ("host_cores", Value::UInt(host_cores())),
        ("commit", Value::String(commit())),
    ];
    println!(
        "# {}",
        header
            .iter()
            .map(|(k, v)| format!("{k}={}", serde_json::to_string(v).expect("renders")))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for m in o.end_to_end.iter().chain(&o.per_layer) {
        println!("{} {} {} {}", w.name(), m.def.name, m.value, m.def.unit);
    }
    for e in &o.errors {
        eprintln!("benchmark: check failed on {}: {e}", w.name());
    }
    let correct = o.errors.is_empty();
    let stem = format!(
        "{}-seed{}{}",
        w.name(),
        args.seed,
        if args.smoke { "-smoke" } else { "" }
    );
    let mut result: Vec<(String, Value)> = header
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    result.extend([
        ("correct".into(), Value::Bool(correct)),
        (
            "errors".into(),
            Value::Array(o.errors.iter().cloned().map(Value::String).collect()),
        ),
        ("attempted".into(), Value::UInt(o.attempted)),
        ("failed".into(), Value::UInt(o.failed)),
        ("end_to_end".into(), metric_map(&o.end_to_end, true)),
        ("per_layer".into(), metric_map(&o.per_layer, true)),
    ]);
    write_json(
        &args.out.join(format!("{stem}.json")),
        &Value::Object(result),
    );
    write_json(
        &args.out.join(format!("{stem}.spans.json")),
        &o.spans.chrome_trace(),
    );
    let shown: Vec<Metric> = match args.trace {
        Some(false) => o.end_to_end,
        Some(true) => o.per_layer,
        None => o.end_to_end.into_iter().chain(o.per_layer).collect(),
    };
    println!(
        "{}",
        result_line(correct, o.attempted, o.failed, metric_map(&shown, false))
    );
    correct
}

/// `{name: {"value", "unit"}}`, plus `"better"` when `with_better`.
fn metric_map(ms: &[Metric], with_better: bool) -> Value {
    Value::Object(
        ms.iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::String(m.def.unit.into())),
                ];
                if with_better {
                    fields.push(("better".into(), Value::String(m.def.better.as_str().into())));
                }
                (m.def.name.to_string(), Value::Object(fields))
            })
            .collect(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), metrics),
    ]))
    .expect("renders")
}

/// Runs each selected workload in a child process, one at a time, for
/// each set; with several sets, prints each metric's spread.
fn run_children(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let chosen: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let sets = args.sets.unwrap_or(1);
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    // (workload, metric) -> (unit, one value per set)
    let mut table: BTreeMap<(usize, String), (String, Vec<f64>)> = BTreeMap::new();
    for set in 0..sets {
        let seed = args.seed + u64::from(set);
        for (wi, w) in chosen.iter().enumerate() {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().expect("spawn a benchmark child");
            let text = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or("");
            for l in lines {
                println!("{l}");
            }
            let Ok(v) = serde_json::from_str::<Value>(last) else {
                eprintln!("benchmark: {} seed {seed} printed no result", w.name());
                correct = false;
                continue;
            };
            correct &= output.status.success() && v.get("correct") == Some(&Value::Bool(true));
            attempted += v.get("attempted").and_then(Value::as_u64).unwrap_or(0);
            failed += v.get("failed").and_then(Value::as_u64).unwrap_or(0);
            if let Some(Value::Object(ms)) = v.get("metrics") {
                for (name, m) in ms {
                    let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                    let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    let row = table
                        .entry((wi, name.clone()))
                        .or_insert_with(|| (unit.to_string(), Vec::new()));
                    row.1.push(value);
                }
            }
        }
    }
    if sets > 1 {
        println!(
            "# {sets} sets, seeds {}..{}",
            args.seed,
            args.seed + u64::from(sets) - 1
        );
        println!("# workload metric median iqr/median unit");
        for ((wi, name), (unit, values)) in &table {
            let med = median(values);
            let (q1, q3) = quartiles(values);
            println!(
                "{} {name} {med} {:.4} {unit}",
                chosen[*wi].name(),
                (q3 - q1) / med.abs()
            );
        }
    }
    let summary = Value::Object(
        table
            .iter()
            .map(|((wi, name), (unit, values))| {
                (
                    format!("{}/{name}", chosen[*wi].name()),
                    Value::Object(vec![
                        ("value".into(), Value::Float(median(values))),
                        ("unit".into(), Value::String(unit.clone())),
                    ]),
                )
            })
            .collect(),
    );
    println!("{}", result_line(correct, attempted, failed, summary));
    correct
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; a single value is both.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn write_json(path: &Path, v: &Value) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, serde_json::to_string_pretty(v).expect("renders")));
    if let Err(e) = written {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}

fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(&format!(" {reference}")))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{Def, END_TO_END, PER_LAYER};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn defined(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(listed(&doc, "end_to_end"), defined(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defined(PER_LAYER));
        let legal = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        for name in ours
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        {
            assert!(
                legal(name),
                "name {name} has a character outside [A-Za-z0-9_.-]"
            );
        }
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload held_fs8 --seed 7 --seconds 3 --trace 1 --smoke").unwrap();
        assert_eq!(a.workload, Some(Workload::HeldFs8));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 3.0, Some(true), true)
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds -1",
            "--sets 0",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
    }
}
