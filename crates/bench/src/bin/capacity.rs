//! SLO-capacity sweep: latency-vs-load curves under *open-loop* traffic.
//!
//! Closed-loop sweeps (fig4a/fig4b) measure peak throughput with a
//! fixed client population that politely waits for the server. This
//! harness instead offers a Poisson arrival schedule (`sim-load`) that
//! does not slow down when the kernel falls behind, climbs a ladder of
//! offered rates per kernel, and reports the **SLO capacity**: the
//! highest rung where connection-setup p99 stays at or under 1 ms *and*
//! goodput keeps up with the offered load. Latency is measured from the
//! scheduled arrival cycle (queue wait included), so the curves are
//! free of coordinated omission.
//!
//! The arrival schedule depends only on the seed and the rung — every
//! kernel on a rung serves the byte-identical offered load (asserted
//! via `LoadReport::schedule_digest`), and the first rung of every
//! ladder runs twice with the same seed to pin determinism.
//!
//! `--smoke` runs a short 2-core ladder with the sanitizers armed and
//! schema-validates its own emitted `BENCH_capacity.json`; `--validate
//! <path>` schema-checks a committed full-matrix result. Both exit
//! nonzero on any violation — the CI gates wired into
//! `scripts/check.sh`.
//!
//! Full run:
//! `capacity --json results/BENCH_capacity.json > results/capacity.txt`.

use fastsocket::{AppSpec, KernelSpec, OpenLoopConfig, RunReport, SimConfig, Simulation};
use fastsocket_bench::{
    assert_deterministic, kcps, pct, read_artifact, write_artifact, HarnessArgs,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Connection-setup p99 budget (µs) a rung must meet.
const SLO_P99_US: f64 = 1_000.0;
/// Fraction of the offered rate that must complete within the window.
const GOODPUT_FLOOR: f64 = 0.97;
/// A ladder stops early after this many consecutive failing rungs.
const EARLY_STOP: usize = 2;

const KERNELS: [KernelSpec; 3] = [
    KernelSpec::BaseLinux,
    KernelSpec::Linux313,
    KernelSpec::Fastsocket,
];

/// Offered-rate ladders (connections/sec), bracketing every kernel's
/// closed-loop peak at that core count (fig4a) from well under to
/// slightly over, so each column fails somewhere on the ladder.
fn ladder_rates(cores: u16) -> Vec<f64> {
    let kcps: &[f64] = match cores {
        0..=2 => &[20.0, 35.0, 50.0, 65.0],
        8 => &[60.0, 90.0, 115.0, 135.0, 155.0, 175.0, 195.0, 215.0],
        _ => &[
            100.0, 150.0, 190.0, 230.0, 280.0, 330.0, 380.0, 430.0, 480.0, 530.0, 580.0, 640.0,
        ],
    };
    kcps.iter().map(|k| k * 1_000.0).collect()
}

/// Window lengths for one run.
#[derive(Debug, Clone, Copy)]
struct Timing {
    warmup: f64,
    measure: f64,
}

impl Timing {
    fn full(measure: f64) -> Timing {
        Timing {
            warmup: 0.05,
            measure,
        }
    }

    fn smoke() -> Timing {
        Timing {
            warmup: 0.01,
            measure: 0.05,
        }
    }
}

/// One (kernel, cores, offered-rate) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Rung {
    rate_cps: f64,
    throughput_cps: f64,
    /// Completions as a fraction of the offered rate.
    goodput: f64,
    setup_p50_us: f64,
    setup_p99_us: f64,
    abandoned: u64,
    timeouts: u64,
    peak_backlog: u64,
    slo_pass: bool,
    /// Arrival-schedule digest — identical for every kernel on a rung.
    schedule_digest: String,
}

/// One kernel's climb at one core count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Ladder {
    kernel: String,
    cores: u16,
    /// Highest offered rate that met the SLO (0 if none did).
    slo_capacity_cps: f64,
    rungs: Vec<Rung>,
}

/// The whole emitted artifact (`BENCH_capacity.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CapacityReport {
    measure_secs: f64,
    slo_p99_us: f64,
    goodput_floor: f64,
    seed: u64,
    ladders: Vec<Ladder>,
}

impl CapacityReport {
    fn capacity(&self, kernel: &str, cores: u16) -> Option<f64> {
        self.ladders
            .iter()
            .find(|l| l.kernel == kernel && l.cores == cores)
            .map(|l| l.slo_capacity_cps)
    }
}

fn cell(kernel: KernelSpec, cores: u16, rate: f64, t: Timing, check: bool, seed: u64) -> RunReport {
    let cfg = SimConfig::new(kernel, AppSpec::web(), cores)
        .warmup_secs(t.warmup)
        .measure_secs(t.measure)
        .seed(seed)
        .trace(true)
        .check(check)
        .open_loop(OpenLoopConfig::poisson(rate).population(500 * u32::from(cores)));
    Simulation::new(cfg).run()
}

/// Runs one rung; `doubled` repeats it with the same seed and asserts
/// the reproducibility gate (bit-identical results and schedule).
fn run_rung(
    kernel: KernelSpec,
    cores: u16,
    rate: f64,
    t: Timing,
    check: bool,
    seed: u64,
    doubled: bool,
) -> Rung {
    let run = || cell(kernel.clone(), cores, rate, t, check, seed);
    let r = if doubled {
        assert_deterministic(
            format_args!("open loop {} {cores}c @{}", kernel.label(), kcps(rate)),
            run,
            |r| {
                (
                    r.results_digest(),
                    r.load.as_ref().unwrap().schedule_digest.clone(),
                )
            },
        )
    } else {
        run()
    };
    if check {
        let checks = r.checks.as_ref().expect("sanitizers were armed");
        assert!(
            checks.is_clean(),
            "sanitizer findings at {} {cores}c @{}: {checks:?}",
            kernel.label(),
            kcps(rate)
        );
    }
    let load = r.load.as_ref().expect("open-loop run reports load");
    let lat = r.latency.as_ref().expect("trace was on");
    let goodput = r.throughput_cps / rate;
    let slo_pass = lat.setup.p99_us <= SLO_P99_US && goodput >= GOODPUT_FLOOR;
    Rung {
        rate_cps: rate,
        throughput_cps: r.throughput_cps,
        goodput,
        setup_p50_us: lat.setup.p50_us,
        setup_p99_us: lat.setup.p99_us,
        abandoned: load.abandoned_wait + load.abandoned_connect,
        timeouts: r.timeouts,
        peak_backlog: load.peak_backlog,
        slo_pass,
        schedule_digest: load.schedule_digest.clone(),
    }
}

/// Climbs the ladder for one kernel, stopping after [`EARLY_STOP`]
/// consecutive SLO failures (the curve only gets worse from there).
fn climb(
    kernel: KernelSpec,
    cores: u16,
    rates: &[f64],
    t: Timing,
    check: bool,
    seed: u64,
) -> Ladder {
    let mut rungs = Vec::new();
    let mut fails = 0usize;
    for (i, &rate) in rates.iter().enumerate() {
        let rung = run_rung(kernel.clone(), cores, rate, t, check, seed, i == 0);
        eprintln!(
            "  {:<12} {cores:>2}c @{:>6}: {:>6} cps  p99 {:>8.1}µs  goodput {}  {}",
            kernel.label(),
            kcps(rate),
            kcps(rung.throughput_cps),
            rung.setup_p99_us,
            pct(rung.goodput),
            if rung.slo_pass { "pass" } else { "FAIL" }
        );
        fails = if rung.slo_pass { 0 } else { fails + 1 };
        rungs.push(rung);
        if fails >= EARLY_STOP {
            break;
        }
    }
    let slo_capacity_cps = rungs
        .iter()
        .filter(|r| r.slo_pass)
        .map(|r| r.rate_cps)
        .fold(0.0, f64::max);
    Ladder {
        kernel: kernel.label().to_string(),
        cores,
        slo_capacity_cps,
        rungs,
    }
}

/// Every kernel on a rung must have served the byte-identical arrival
/// schedule — the offered load is a property of the seed, not the
/// kernel under test.
fn assert_shared_schedule(ladders: &[Ladder]) {
    for cores in ladders.iter().map(|l| l.cores).collect::<Vec<_>>() {
        let cohort: Vec<&Ladder> = ladders.iter().filter(|l| l.cores == cores).collect();
        let Some(first) = cohort.first() else {
            continue;
        };
        for l in &cohort[1..] {
            for (a, b) in first.rungs.iter().zip(l.rungs.iter()) {
                assert_eq!(
                    a.schedule_digest,
                    b.schedule_digest,
                    "kernel {} saw a different arrival schedule than {} at {cores} cores @{}",
                    l.kernel,
                    first.kernel,
                    kcps(a.rate_cps)
                );
            }
        }
    }
}

fn sweep(core_counts: &[u16], t: Timing, check: bool, seed: u64) -> CapacityReport {
    let mut ladders = Vec::new();
    for &cores in core_counts {
        let rates = ladder_rates(cores);
        for kernel in KERNELS {
            ladders.push(climb(kernel, cores, &rates, t, check, seed));
        }
    }
    assert_shared_schedule(&ladders);
    CapacityReport {
        measure_secs: t.measure,
        slo_p99_us: SLO_P99_US,
        goodput_floor: GOODPUT_FLOOR,
        seed,
        ladders,
    }
}

fn print_report(report: &CapacityReport, core_counts: &[u16]) {
    println!(
        "SLO capacity under open-loop Poisson load (p99 setup ≤ {:.0}µs, \
         goodput ≥ {}, {:.2}s windows)",
        report.slo_p99_us,
        pct(report.goodput_floor),
        report.measure_secs
    );
    println!();
    for &cores in core_counts {
        println!("latency-vs-load at {cores} cores (setup p99 µs; * = SLO pass):");
        let cohort: Vec<&Ladder> = report.ladders.iter().filter(|l| l.cores == cores).collect();
        let Some(longest) = cohort.iter().max_by_key(|l| l.rungs.len()) else {
            continue;
        };
        print!("{:<14}", "offered");
        for r in &longest.rungs {
            print!("{:>10}", kcps(r.rate_cps));
        }
        println!();
        for l in &cohort {
            print!("{:<14}", l.kernel);
            for r in &l.rungs {
                let mark = if r.slo_pass { "*" } else { "" };
                print!("{:>10}", format!("{:.0}{mark}", r.setup_p99_us));
            }
            println!();
        }
        println!();
    }
    println!("SLO capacity (max sustainable offered cps):");
    print!("{:<14}", "kernel");
    for &cores in core_counts {
        print!("{:>12}", format!("{cores} cores"));
    }
    println!();
    for kernel in KERNELS {
        print!("{:<14}", kernel.label());
        for &cores in core_counts {
            let v = report.capacity(kernel.label(), cores).unwrap_or(0.0);
            print!("{:>12}", kcps(v));
        }
        println!();
    }
}

/// Schema + ordering gate for a full-matrix artifact: all three
/// kernels at 8 and 24 cores, positive capacities, and the paper's
/// scaling story at 24 cores (Fastsocket > SO_REUSEPORT > base).
fn validate_full(path: &Path) {
    let report: CapacityReport = read_artifact(path, "capacity");
    for kernel in KERNELS {
        for cores in [8u16, 24] {
            let cap = report.capacity(kernel.label(), cores).unwrap_or_else(|| {
                panic!(
                    "{}: missing {} @ {cores} cores",
                    path.display(),
                    kernel.label()
                )
            });
            assert!(
                cap > 0.0,
                "{}: {} @ {cores} cores has no passing rung",
                path.display(),
                kernel.label()
            );
        }
    }
    let fs = report.capacity("fastsocket", 24).unwrap();
    let rp = report.capacity("linux-3.13", 24).unwrap();
    let base = report.capacity("base-2.6.32", 24).unwrap();
    assert!(
        fs > rp && rp > base,
        "24-core SLO capacity ordering broken: fastsocket {} / linux-3.13 {} / base {}",
        kcps(fs),
        kcps(rp),
        kcps(base)
    );
    println!(
        "{}: schema OK, 24-core capacity {} > {} > {}",
        path.display(),
        kcps(fs),
        kcps(rp),
        kcps(base)
    );
}

/// Short 2-core ladder under full sanitizers; emits its own bench
/// artifact to a scratch path and re-parses it, so the writer and the
/// schema cannot drift apart.
fn smoke() {
    let t = Timing::smoke();
    let report = sweep(&[2], t, true, 42);
    print_report(&report, &[2]);
    for l in &report.ladders {
        assert!(
            l.rungs.iter().any(|r| r.slo_pass),
            "{} @ 2 cores never met the SLO in smoke",
            l.kernel
        );
        assert!(
            !l.rungs.is_empty() && l.rungs[0].throughput_cps > 0.0,
            "{} served nothing",
            l.kernel
        );
    }
    let scratch = PathBuf::from("target/capacity-smoke/BENCH_capacity.json");
    write_artifact(&report, &scratch);
    let back: CapacityReport = read_artifact(&scratch, "capacity");
    assert_eq!(back.ladders.len(), report.ladders.len());
    for cores in [2u16] {
        for kernel in KERNELS {
            assert_eq!(
                back.capacity(kernel.label(), cores),
                report.capacity(kernel.label(), cores),
                "bench artifact round-trip drifted"
            );
        }
    }
    println!(
        "\ncapacity smoke clean: sanitizers quiet, reruns bit-identical, artifact round-trips."
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    if let Some(i) = raw.iter().position(|a| a == "--validate") {
        let path = raw.get(i + 1).expect("--validate <path>");
        validate_full(Path::new(path));
        return;
    }

    let args = HarnessArgs::parse(0.25, "BENCH_capacity");
    let core_counts: Vec<u16> = args.cores.clone().unwrap_or_else(|| vec![8, 24]);
    let t = Timing::full(args.measure_secs);
    eprintln!(
        "capacity sweep (cores {core_counts:?}, {:.2}s windows)...",
        t.measure
    );
    let report = sweep(&core_counts, t, false, 42);
    print_report(&report, &core_counts);

    if core_counts.contains(&24) {
        let fs = report.capacity("fastsocket", 24).unwrap_or(0.0);
        let rp = report.capacity("linux-3.13", 24).unwrap_or(0.0);
        let base = report.capacity("base-2.6.32", 24).unwrap_or(0.0);
        println!(
            "\n24-core SLO capacity: fastsocket {} vs linux-3.13 {} vs base {} \
             ({:.2}x over base)",
            kcps(fs),
            kcps(rp),
            kcps(base),
            if base > 0.0 { fs / base } else { 0.0 }
        );
        assert!(
            fs > rp && rp > base,
            "open load must reproduce the paper's ordering at 24 cores"
        );
    }

    args.write_json(&report);
}
