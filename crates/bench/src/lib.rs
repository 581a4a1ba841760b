//! Shared helpers for the experiment harness binaries.
//!
//! Every binary regenerates one table or figure of the paper, prints a
//! paper-vs-measured report to stdout, and (when `--json <path>` or the
//! `FS_RESULTS_DIR` environment variable is given) writes the raw
//! result as JSON for EXPERIMENTS.md bookkeeping.
//!
//! The gate binaries `scripts/check.sh` drives share the rest of their
//! harness through here as well: one flag parser ([`HarnessArgs`]), one
//! doubled-and-sanitized run ([`gated_run`]), one open-loop SLO ladder
//! ([`climb`], [`sweep_ladders`], [`print_ladders`]) and one artifact
//! round trip ([`assert_round_trip`]).

use fastsocket::{FaultRecord, KernelSpec, RunReport};
use sim_core::secs_to_cycles;
use std::fmt::{Debug, Display};
use std::num::NonZeroU16;
use std::path::{Path, PathBuf};

/// The three kernels every experiment compares, in presentation order.
pub const KERNELS: [KernelSpec; 3] = [
    KernelSpec::BaseLinux,
    KernelSpec::Linux313,
    KernelSpec::Fastsocket,
];

/// A mode flag a harness binary may act on, on top of the common
/// `[measure_secs] [--cores a,b,c] [--json path]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--smoke`: the short sanitized run `scripts/check.sh` gates on.
    Smoke,
    /// `--validate <path>`: schema-check a committed artifact.
    Validate,
    /// `--min-speedup <x>`: the wall-clock speedup gate.
    MinSpeedup,
}

/// Parsed command line of a harness binary.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Simulated measurement seconds per run.
    pub measure_secs: f64,
    /// Where to write the JSON result, if anywhere.
    pub json_path: Option<PathBuf>,
    /// Override core counts (comma-separated), when the experiment
    /// sweeps cores.
    pub cores: Option<Vec<u16>>,
    /// `--smoke` was given.
    pub smoke: bool,
    /// The artifact `--validate` names.
    pub validate: Option<PathBuf>,
    /// The `--min-speedup` gate.
    pub min_speedup: Option<f64>,
}

impl HarnessArgs {
    /// Parses the process arguments: `[measure_secs] [--cores a,b,c]
    /// [--json path]` plus the `modes` this binary acts on, with the
    /// given default measurement length. Without `--json`, the result
    /// goes to `$FS_RESULTS_DIR/<experiment>.json` when that is set.
    ///
    /// Any other argument — an unknown flag, a mode flag outside
    /// `modes`, a flag without its value, or a value that does not
    /// parse — exits with status 2 and a one-line message naming it.
    pub fn parse(default_measure: f64, experiment: &str, modes: &[Mode]) -> HarnessArgs {
        let mut argv = std::env::args();
        let prog = argv.next().unwrap_or_default();
        let mut args = parse_args(argv, default_measure, modes).unwrap_or_else(|e| {
            let name = Path::new(&prog).file_name().unwrap_or_default();
            eprintln!("{}: {e}", name.to_string_lossy());
            std::process::exit(2)
        });
        if args.json_path.is_none() {
            if let Ok(dir) = std::env::var("FS_RESULTS_DIR") {
                args.json_path = Some(PathBuf::from(dir).join(format!("{experiment}.json")));
            }
        }
        args
    }

    /// Writes `value` as pretty JSON to the configured path, if any.
    pub fn write_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json_path {
            write_artifact(value, path);
        }
    }
}

/// [`HarnessArgs::parse`] over an explicit argument list, without the
/// `FS_RESULTS_DIR` fallback; the error names the offending argument.
fn parse_args(
    args: impl IntoIterator<Item = String>,
    default_measure: f64,
    modes: &[Mode],
) -> Result<HarnessArgs, String> {
    let mut parsed = HarnessArgs {
        measure_secs: default_measure,
        json_path: None,
        cores: None,
        smoke: false,
        validate: None,
        min_speedup: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{arg}` needs a value"));
        match arg.as_str() {
            "--json" => parsed.json_path = Some(PathBuf::from(value()?)),
            "--cores" => {
                let list = value()?;
                let cores = list.split(',').map(|c| {
                    c.parse::<NonZeroU16>()
                        .map(NonZeroU16::get)
                        .map_err(|_| format!("`--cores {list}`: `{c}` is not a core count"))
                });
                parsed.cores = Some(cores.collect::<Result<_, _>>()?);
            }
            "--smoke" if modes.contains(&Mode::Smoke) => parsed.smoke = true,
            "--validate" if modes.contains(&Mode::Validate) => {
                parsed.validate = Some(PathBuf::from(value()?));
            }
            "--min-speedup" if modes.contains(&Mode::MinSpeedup) => {
                let x = value()?;
                let min = x
                    .parse()
                    .map_err(|_| format!("`--min-speedup {x}`: not a number"))?;
                parsed.min_speedup = Some(min);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            window => {
                parsed.measure_secs = window
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("`{window}` is not a measure window in seconds"))?;
            }
        }
    }
    Ok(parsed)
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

/// Reads back an artifact a harness binary wrote; `schema` names the
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

/// Writes `report` to `path`, reads it back through the `schema` shape
/// and asserts the copy equals the original, so the writer and the
/// schema cannot drift apart.
///
/// # Panics
///
/// Panics when the artifact cannot be written or read, or differs.
pub fn assert_round_trip<T>(report: &T, path: &Path, schema: &str)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + Debug,
{
    write_artifact(report, path);
    let back: T = read_artifact(path, schema);
    assert_eq!(&back, report, "bench artifact round-trip drifted");
}

/// Runs the same cell twice and asserts the chosen digest is
/// bit-identical, returning the first run's result.
///
/// `run` must build a **fresh** config each call (taking a closure,
/// rather than a prebuilt result pair, makes it structurally impossible
/// for the second run to reuse mutated config state), and `digest`
/// picks what must reproduce — a results digest, a robustness digest,
/// a shard-report digest.
///
/// # Panics
///
/// Panics with `what` in the message when the two digests differ.
pub fn assert_deterministic<R, D>(
    what: impl Display,
    run: impl Fn() -> R,
    digest: impl Fn(&R) -> D,
) -> R
where
    D: PartialEq + Debug,
{
    let first = run();
    let again = run();
    let (a, b) = (digest(&first), digest(&again));
    assert_eq!(a, b, "{what}: same-seed reruns must be bit-identical");
    first
}

/// Runs one cell through the harness gates: twice when `doubled`, with
/// bit-identical [`RunReport::results_digest`]s asserted (the digest
/// covers the arrival-schedule digest of an open-loop run), and, when
/// `check` armed the sanitizers, with a clean report asserted.
///
/// # Panics
///
/// Panics with `what` in the message when either gate fails.
pub fn gated_run(
    what: impl Display,
    doubled: bool,
    check: bool,
    run: impl Fn() -> RunReport,
) -> RunReport {
    let r = if doubled {
        assert_deterministic(&what, run, RunReport::results_digest)
    } else {
        run()
    };
    if check {
        let checks = r.checks.as_ref().expect("sanitizers were armed");
        assert!(
            checks.is_clean(),
            "sanitizer findings at {what}: {checks:?}"
        );
    }
    r
}

/// Connection-setup p99 budget (µs) an SLO ladder rung must meet.
pub const SLO_P99_US: f64 = 1_000.0;
/// Fraction of the offered rate a rung must complete within the window.
pub const GOODPUT_FLOOR: f64 = 0.97;
/// An early-stopping ladder ends after this many consecutive failing
/// rungs (the curve only gets worse from there).
const EARLY_STOP: usize = 2;

/// Whether a rung with this setup p99 and goodput meets the SLO.
pub fn meets_slo(setup_p99_us: f64, goodput: f64) -> bool {
    setup_p99_us <= SLO_P99_US && goodput >= GOODPUT_FLOOR
}

/// One measured rung of an open-loop SLO ladder.
pub trait SloRung {
    /// The rung's offered load, as the tables print it.
    fn offered(&self) -> String;
    /// Connection-setup p99 (µs).
    fn setup_p99_us(&self) -> f64;
    /// Whether the rung met every pass condition of its ladder.
    fn passed(&self) -> bool;
    /// Digest of the arrival schedule the rung served.
    fn schedule_digest(&self) -> &str;
}

/// One kernel's climb at one core count.
pub trait SloLadder {
    /// The ladder's rung.
    type Rung: SloRung;
    /// Names the per-core-count table of setup p99 against load.
    const CURVE: &'static str;
    /// What a `*` in that table marks.
    const MARK: &'static str;
    /// Heads that table's load axis.
    const AXIS: &'static str;
    /// Heads the kernel × cores table of ladder results.
    const SUMMARY: &'static str;
    /// The kernel's label.
    fn kernel(&self) -> &str;
    /// Simulated cores.
    fn cores(&self) -> u16;
    /// The rungs climbed, lowest load first.
    fn rungs(&self) -> &[Self::Rung];
    /// The ladder's result, as the summary table prints it.
    fn result(&self) -> String;
}

/// Climbs one ladder: `run(step, doubled)` measures each step in
/// order, doubling only the first (the reproducibility gate). With
/// `early_stop` the climb ends after `EARLY_STOP` consecutive failing
/// rungs.
pub fn climb<S, R: SloRung>(
    steps: &[S],
    early_stop: bool,
    mut run: impl FnMut(&S, bool) -> R,
) -> Vec<R> {
    let mut rungs = Vec::new();
    let mut fails = 0usize;
    for (i, step) in steps.iter().enumerate() {
        let rung = run(step, i == 0);
        fails = if rung.passed() { 0 } else { fails + 1 };
        rungs.push(rung);
        if early_stop && fails >= EARLY_STOP {
            break;
        }
    }
    rungs
}

/// Climbs every stock kernel's ladder at every core count, then asserts
/// that on each rung every kernel served the byte-identical arrival
/// schedule — the offered load is a property of the seed, not of the
/// kernel under test.
///
/// # Panics
///
/// Panics when two kernels' schedules differ on a rung.
pub fn sweep_ladders<L: SloLadder>(
    core_counts: &[u16],
    mut climb_one: impl FnMut(KernelSpec, u16) -> L,
) -> Vec<L> {
    let mut ladders = Vec::new();
    for &cores in core_counts {
        for kernel in KERNELS {
            ladders.push(climb_one(kernel, cores));
        }
    }
    for l in &ladders {
        let first = ladders
            .iter()
            .find(|f| f.cores() == l.cores())
            .expect("a ladder matches its own core count");
        for (a, b) in first.rungs().iter().zip(l.rungs()) {
            assert_eq!(
                a.schedule_digest(),
                b.schedule_digest(),
                "kernel {} saw a different arrival schedule than {} at {} cores @{}",
                l.kernel(),
                first.kernel(),
                l.cores(),
                a.offered()
            );
        }
    }
    ladders
}

/// The ladder `kernel` climbed at `cores`, if any.
pub fn find_ladder<'a, L: SloLadder>(ladders: &'a [L], kernel: &str, cores: u16) -> Option<&'a L> {
    ladders
        .iter()
        .find(|l| l.kernel() == kernel && l.cores() == cores)
}

/// Prints each core count's setup-p99-vs-load table (`*` marks a
/// passing rung), then the kernel × cores table of ladder results.
pub fn print_ladders<L: SloLadder>(ladders: &[L], core_counts: &[u16]) {
    for &cores in core_counts {
        println!(
            "{} at {cores} cores (setup p99 µs; * = {}):",
            L::CURVE,
            L::MARK
        );
        let cohort: Vec<&L> = ladders.iter().filter(|l| l.cores() == cores).collect();
        let Some(longest) = cohort.iter().max_by_key(|l| l.rungs().len()) else {
            continue;
        };
        print!("{:<14}", L::AXIS);
        for r in longest.rungs() {
            print!("{:>10}", r.offered());
        }
        println!();
        for l in &cohort {
            print!("{:<14}", l.kernel());
            for r in l.rungs() {
                let mark = if r.passed() { "*" } else { "" };
                print!("{:>10}", format!("{:.0}{mark}", r.setup_p99_us()));
            }
            println!();
        }
        println!();
    }
    println!("{}", L::SUMMARY);
    print!("{:<14}", "kernel");
    for &cores in core_counts {
        print!("{:>12}", format!("{cores} cores"));
    }
    println!();
    for kernel in KERNELS {
        print!("{:<14}", kernel.label());
        for &cores in core_counts {
            let result =
                find_ladder(ladders, kernel.label(), cores).map_or_else(String::new, L::result);
            print!("{result:>12}");
        }
        println!();
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats connections/sec in the paper's "475K" style.
pub fn kcps(x: f64) -> String {
    format!("{:.0}K", x / 1_000.0)
}

/// Formats a fault's time to recover in milliseconds, or `NEVER`.
pub fn fmt_recover(rec: &FaultRecord) -> String {
    match rec.time_to_recover {
        Some(c) => format!("{:.1}ms", c as f64 / secs_to_cycles(1.0) as f64 * 1_000.0),
        None => "NEVER".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Mode; 3] = [Mode::Smoke, Mode::Validate, Mode::MinSpeedup];

    fn parse(args: &[&str], modes: &[Mode]) -> Result<HarnessArgs, String> {
        parse_args(args.iter().map(|a| (*a).to_string()), 0.2, modes)
    }

    #[test]
    fn every_flag_parses() {
        let a = parse(
            &[
                "0.05",
                "--cores",
                "1,8,24",
                "--json",
                "out/x.json",
                "--smoke",
                "--validate",
                "results/BENCH_x.json",
                "--min-speedup",
                "3.0",
            ],
            &ALL,
        )
        .unwrap();
        assert_eq!(a.measure_secs, 0.05);
        assert_eq!(a.cores, Some(vec![1, 8, 24]));
        assert_eq!(a.json_path, Some(PathBuf::from("out/x.json")));
        assert!(a.smoke);
        assert_eq!(a.validate, Some(PathBuf::from("results/BENCH_x.json")));
        assert_eq!(a.min_speedup, Some(3.0));

        let bare = parse(&[], &[]).unwrap();
        assert_eq!(bare.measure_secs, 0.2);
        assert!(bare.json_path.is_none() && bare.cores.is_none() && !bare.smoke);
        assert!(bare.validate.is_none() && bare.min_speedup.is_none());
    }

    #[test]
    fn a_flag_value_is_never_the_window() {
        let a = parse(&["--min-speedup", "3.0"], &[Mode::MinSpeedup]).unwrap();
        assert_eq!(a.measure_secs, 0.2);
        assert_eq!(a.min_speedup, Some(3.0));
        let b = parse(&["--cores", "8", "0.1"], &[]).unwrap();
        assert_eq!((b.measure_secs, b.cores), (0.1, Some(vec![8])));
    }

    #[test]
    fn bad_arguments_are_refused_by_name() {
        for (args, modes, named) in [
            (&["--bogus"][..], &ALL[..], "--bogus"),
            (&["--cores", "abc"], &[], "abc"),
            (&["--cores", "8,0"], &[], "`0`"),
            (&["--json"], &[], "--json"),
            (&["--min-speedup"], &[Mode::MinSpeedup], "--min-speedup"),
            (&["--min-speedup", "x"], &[Mode::MinSpeedup], "x"),
            (&["--smoke"], &[Mode::Validate], "--smoke"),
            (&["--validate", "p"], &[Mode::Smoke], "--validate"),
            (&["--min-speedup", "3.0"], &[], "--min-speedup"),
            (&["fast"], &[], "fast"),
            (&["-1"], &[], "-1"),
        ] {
            let e = parse(args, modes).expect_err(&format!("{args:?} must be refused"));
            assert!(e.contains(named), "{args:?}: `{e}` does not name `{named}`");
        }
    }

    struct Step(bool);

    impl SloRung for Step {
        fn offered(&self) -> String {
            String::new()
        }
        fn setup_p99_us(&self) -> f64 {
            0.0
        }
        fn passed(&self) -> bool {
            self.0
        }
        fn schedule_digest(&self) -> &str {
            ""
        }
    }

    #[test]
    fn climb_stops_after_early_stop_failures_and_doubles_the_first_rung() {
        let verdicts = [true, false, true, false, false, true, true];
        for (early_stop, climbed) in [(true, 5), (false, verdicts.len())] {
            let mut doubled = Vec::new();
            let rungs = climb(&verdicts, early_stop, |&pass, d| {
                doubled.push(d);
                Step(pass)
            });
            assert_eq!(rungs.len(), climbed);
            assert_eq!(doubled.iter().filter(|&&d| d).count(), 1);
            assert!(doubled[0]);
        }
        assert_eq!(verdicts[3..5], [false; EARLY_STOP]);
    }
}
