//! Max-concurrent-connections ladder under a modeled RAM budget: the
//! "path to a million clients" experiment.
//!
//! The capacity sweep asks how many *short-lived* connections per
//! second a kernel sustains; this harness asks how many connections a
//! kernel can *hold open at once* while still meeting the setup SLO.
//! Each rung targets a concurrent-socket population: an open-loop
//! Poisson arrival schedule feeds a long-lived session mix
//! (`LongLivedMix`) whose holds overlap into a standing population of
//! `rate x held_fraction x hold` connections. With the sim-res ledger
//! armed at `scale` modeled sockets per simulated socket, the ladder
//! climbs past a million modeled concurrent connections against a
//! fixed `tcp_mem`-style RAM budget.
//!
//! A rung passes when (a) connection-setup p99 stays at or under 1 ms,
//! (b) goodput keeps up with the offered load, (c) the ledger actually
//! peaked at >= 90% of the rung's target (the population was held, not
//! just offered), and (d) the memory accounts balance at drain. The
//! per-kernel result is the highest passing target. Climbing costs
//! grow two ways as rungs rise: epoll ready-list scans scale with the
//! modeled watched-set size, and the ledger's pressure reactions
//! (window clamps, buffer reclaim, SYN drops) kick in as the standing
//! population approaches the budget.
//!
//! `--smoke` runs a short 2-core ladder with all five sim-check
//! detectors armed, the first rung doubled and digest-asserted, and
//! round-trips its own `BENCH_concurrency.json`; `--validate <path>`
//! schema-checks a committed full artifact (fastsocket must hold 1M+
//! modeled sockets under the SLO). Both are wired into
//! `scripts/check.sh`.
//!
//! Full run: `concurrency --json results/BENCH_concurrency.json >
//! results/concurrency.txt`.

use fastsocket::{
    AppSpec, KernelSpec, LongLivedMix, MemConfig, OpenLoopConfig, RunReport, SimConfig, Simulation,
};
use fastsocket_bench::{assert_deterministic, pct, read_artifact, write_artifact, HarnessArgs};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Connection-setup p99 budget (µs) a rung must meet.
const SLO_P99_US: f64 = 1_000.0;
/// Fraction of the offered rate that must complete within the window.
const GOODPUT_FLOOR: f64 = 0.97;
/// A rung only counts as *held* when the ledger's peak reached this
/// fraction of the target population.
const REACH_FLOOR: f64 = 0.90;
/// Fraction of arrivals that hold their connection open.
const HELD_FRACTION: f64 = 0.9;

const KERNELS: [KernelSpec; 3] = [
    KernelSpec::BaseLinux,
    KernelSpec::Linux313,
    KernelSpec::Fastsocket,
];

/// Window lengths, hold time and modeling scale for one ladder shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    warmup: f64,
    measure: f64,
    /// How long a held session parks before releasing (must be shorter
    /// than the warmup so the population is standing when measurement
    /// starts).
    hold_secs: f64,
    /// Modeled sockets per simulated socket (`MemConfig::scale`).
    scale: u32,
    /// Modeled RAM budget (MiB) the ladder climbs against.
    ram_mb: u64,
}

impl Shape {
    fn full(measure: f64) -> Shape {
        Shape {
            warmup: 0.12,
            measure,
            hold_secs: 0.08,
            scale: 256,
            ram_mb: 8_192,
        }
    }

    fn smoke() -> Shape {
        Shape {
            warmup: 0.035,
            measure: 0.05,
            hold_secs: 0.02,
            scale: 128,
            ram_mb: 256,
        }
    }
}

/// Target modeled-concurrent-socket ladder for one shape.
fn ladder_targets(smoke: bool) -> Vec<u64> {
    if smoke {
        vec![49_152, 131_072]
    } else {
        vec![
            524_288, 1_048_576, 1_572_864, 2_097_152, 2_621_440, 3_145_728, 3_670_016,
        ]
    }
}

/// One (kernel, cores, target-concurrency) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Rung {
    /// Modeled concurrent sockets this rung tries to hold.
    target_sockets: u64,
    rate_cps: f64,
    throughput_cps: f64,
    goodput: f64,
    setup_p50_us: f64,
    setup_p99_us: f64,
    /// Ledger peak: modeled concurrent sockets actually held.
    peak_sockets: u64,
    /// Ledger peak: modeled bytes charged against the budget.
    peak_bytes: u64,
    peak_embryos: u64,
    /// Pressure reactions observed while climbing.
    window_clamps: u64,
    buffer_reclaims: u64,
    pressure_syn_drops: u64,
    embryos_pruned: u64,
    orphans_killed: u64,
    enter_pressure: u64,
    /// Memory-account conservation at drain.
    balanced: bool,
    /// Peak reached >= [`REACH_FLOOR`] of the target.
    reached: bool,
    slo_pass: bool,
    /// Arrival-schedule digest — identical for every kernel on a rung.
    schedule_digest: String,
}

/// One kernel's climb at one core count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Ladder {
    kernel: String,
    cores: u16,
    /// Highest held-and-passing modeled concurrency (0 if none).
    max_sockets: u64,
    rungs: Vec<Rung>,
}

/// The whole emitted artifact (`BENCH_concurrency.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ConcurrencyReport {
    measure_secs: f64,
    slo_p99_us: f64,
    goodput_floor: f64,
    /// Modeled RAM budget (MiB) shared by every rung.
    ram_mb: u64,
    /// Modeled sockets per simulated socket.
    scale: u32,
    seed: u64,
    ladders: Vec<Ladder>,
}

impl ConcurrencyReport {
    fn max_sockets(&self, kernel: &str, cores: u16) -> Option<u64> {
        self.ladders
            .iter()
            .find(|l| l.kernel == kernel && l.cores == cores)
            .map(|l| l.max_sockets)
    }
}

/// Formats a modeled socket count in the "1.05M" style.
fn msock(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else {
        format!("{:.0}K", n as f64 / 1e3)
    }
}

fn cell(
    kernel: KernelSpec,
    cores: u16,
    target: u64,
    s: Shape,
    check: bool,
    seed: u64,
) -> (RunReport, f64) {
    // Standing population = rate x held_fraction x hold (Little's law),
    // so the offered rate is derived from the rung's target.
    let sim_target = target / u64::from(s.scale);
    let rate = sim_target as f64 / (HELD_FRACTION * s.hold_secs);
    // 2x headroom over the standing population: arrivals that find
    // every slot busy are abandoned, which is a client-pool artifact,
    // not the kernel's fault.
    let population = u32::try_from(sim_target * 2).expect("population fits u32");
    let cfg = SimConfig::new(kernel, AppSpec::web(), cores)
        .warmup_secs(s.warmup)
        .measure_secs(s.measure)
        .seed(seed)
        .trace(true)
        .check(check)
        .mem(MemConfig::ram_mb(s.ram_mb).scaled(s.scale))
        .open_loop(
            OpenLoopConfig::poisson(rate)
                .population(population)
                .longlived(LongLivedMix::fraction_held(HELD_FRACTION, s.hold_secs)),
        );
    (Simulation::new(cfg).run(), rate)
}

/// Runs one rung; `doubled` repeats it with the same seed and asserts
/// the reproducibility gate (bit-identical results and schedule).
fn run_rung(
    kernel: KernelSpec,
    cores: u16,
    target: u64,
    s: Shape,
    check: bool,
    seed: u64,
    doubled: bool,
) -> Rung {
    let run = || cell(kernel.clone(), cores, target, s, check, seed);
    let (r, rate) = if doubled {
        assert_deterministic(
            format_args!("concurrency {} {cores}c @{}", kernel.label(), msock(target)),
            run,
            |(r, _)| {
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
            msock(target)
        );
    }
    let load = r.load.as_ref().expect("open-loop run reports load");
    let lat = r.latency.as_ref().expect("trace was on");
    let mem = r.mem.as_ref().expect("ledger was armed");
    let goodput = r.throughput_cps / rate;
    let slo_pass = lat.setup.p99_us <= SLO_P99_US && goodput >= GOODPUT_FLOOR;
    let reached = mem.peak_sockets as f64 >= REACH_FLOOR * target as f64;
    Rung {
        target_sockets: target,
        rate_cps: rate,
        throughput_cps: r.throughput_cps,
        goodput,
        setup_p50_us: lat.setup.p50_us,
        setup_p99_us: lat.setup.p99_us,
        peak_sockets: mem.peak_sockets,
        peak_bytes: mem.peak_bytes,
        peak_embryos: mem.peak_embryos,
        window_clamps: mem.stats.window_clamps,
        buffer_reclaims: mem.stats.buffer_reclaims,
        pressure_syn_drops: mem.stats.pressure_syn_drops,
        embryos_pruned: mem.stats.embryos_pruned,
        orphans_killed: mem.stats.orphans_killed,
        enter_pressure: mem.stats.enter_pressure,
        balanced: mem.balanced,
        reached,
        slo_pass,
        schedule_digest: load.schedule_digest.clone(),
    }
}

/// Climbs the full target ladder for one kernel (no early stop: the
/// top rungs are exactly where the pressure reactions live).
fn climb(
    kernel: KernelSpec,
    cores: u16,
    targets: &[u64],
    s: Shape,
    check: bool,
    seed: u64,
) -> Ladder {
    let mut rungs = Vec::new();
    for (i, &target) in targets.iter().enumerate() {
        let rung = run_rung(kernel.clone(), cores, target, s, check, seed, i == 0);
        eprintln!(
            "  {:<12} {cores:>2}c @{:>6}: held {:>6}  p99 {:>8.1}µs  goodput {}  {}{}",
            kernel.label(),
            msock(target),
            msock(rung.peak_sockets),
            rung.setup_p99_us,
            pct(rung.goodput),
            if rung.slo_pass && rung.reached {
                "pass"
            } else {
                "FAIL"
            },
            if rung.enter_pressure > 0 {
                "  [pressure]"
            } else {
                ""
            }
        );
        assert!(
            rung.balanced,
            "{} {cores}c @{}: memory accounts did not balance at drain",
            kernel.label(),
            msock(target)
        );
        rungs.push(rung);
    }
    let max_sockets = rungs
        .iter()
        .filter(|r| r.slo_pass && r.reached)
        .map(|r| r.target_sockets)
        .max()
        .unwrap_or(0);
    Ladder {
        kernel: kernel.label().to_string(),
        cores,
        max_sockets,
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
                    msock(a.target_sockets)
                );
            }
        }
    }
}

fn sweep(
    core_counts: &[u16],
    targets: &[u64],
    s: Shape,
    check: bool,
    seed: u64,
) -> ConcurrencyReport {
    let mut ladders = Vec::new();
    for &cores in core_counts {
        for kernel in KERNELS {
            ladders.push(climb(kernel, cores, targets, s, check, seed));
        }
    }
    assert_shared_schedule(&ladders);
    ConcurrencyReport {
        measure_secs: s.measure,
        slo_p99_us: SLO_P99_US,
        goodput_floor: GOODPUT_FLOOR,
        ram_mb: s.ram_mb,
        scale: s.scale,
        seed,
        ladders,
    }
}

fn print_report(report: &ConcurrencyReport, core_counts: &[u16]) {
    println!(
        "max concurrent connections under a {} MiB modeled RAM budget \
         (x{} socket scale; p99 setup ≤ {:.0}µs, goodput ≥ {}, {:.2}s windows)",
        report.ram_mb,
        report.scale,
        report.slo_p99_us,
        pct(report.goodput_floor),
        report.measure_secs
    );
    println!();
    for &cores in core_counts {
        println!("held-vs-target at {cores} cores (setup p99 µs; * = pass):");
        let cohort: Vec<&Ladder> = report.ladders.iter().filter(|l| l.cores == cores).collect();
        let Some(longest) = cohort.iter().max_by_key(|l| l.rungs.len()) else {
            continue;
        };
        print!("{:<14}", "target");
        for r in &longest.rungs {
            print!("{:>10}", msock(r.target_sockets));
        }
        println!();
        for l in &cohort {
            print!("{:<14}", l.kernel);
            for r in &l.rungs {
                let mark = if r.slo_pass && r.reached { "*" } else { "" };
                print!("{:>10}", format!("{:.0}{mark}", r.setup_p99_us));
            }
            println!();
        }
        println!();
    }
    println!("max held modeled sockets (SLO met, population held, ledger balanced):");
    print!("{:<14}", "kernel");
    for &cores in core_counts {
        print!("{:>12}", format!("{cores} cores"));
    }
    println!();
    for kernel in KERNELS {
        print!("{:<14}", kernel.label());
        for &cores in core_counts {
            let v = report.max_sockets(kernel.label(), cores).unwrap_or(0);
            print!("{:>12}", msock(v));
        }
        println!();
    }
}

/// Schema gate for a full artifact: all three kernels at 8 cores,
/// fastsocket holding 1M+ modeled sockets under the SLO, and never
/// behind either baseline.
fn validate_full(path: &Path) {
    let report: ConcurrencyReport = read_artifact(path, "concurrency");
    for kernel in KERNELS {
        let max = report
            .max_sockets(kernel.label(), 8)
            .unwrap_or_else(|| panic!("{}: missing {} @ 8 cores", path.display(), kernel.label()));
        assert!(
            max > 0,
            "{}: {} @ 8 cores held nothing under the SLO",
            path.display(),
            kernel.label()
        );
    }
    for l in &report.ladders {
        for r in &l.rungs {
            assert!(
                r.balanced,
                "{}: {} @ {} cores @{} left an unbalanced ledger",
                path.display(),
                l.kernel,
                l.cores,
                msock(r.target_sockets)
            );
        }
    }
    let fs = report.max_sockets("fastsocket", 8).unwrap();
    let rp = report.max_sockets("linux-3.13", 8).unwrap();
    let base = report.max_sockets("base-2.6.32", 8).unwrap();
    assert!(
        fs >= 1_048_576,
        "{}: fastsocket must hold 1M+ modeled sockets under the SLO (held {})",
        path.display(),
        msock(fs)
    );
    assert!(
        fs >= rp && fs >= base,
        "{}: fastsocket fell behind a baseline ({} vs {} / {})",
        path.display(),
        msock(fs),
        msock(rp),
        msock(base)
    );
    println!(
        "{}: schema OK, 8-core max concurrency {} / {} / {} (fastsocket / linux-3.13 / base)",
        path.display(),
        msock(fs),
        msock(rp),
        msock(base)
    );
}

/// Short 2-core ladder under full sanitizers against a deliberately
/// tight 256 MiB budget, so the top rung crosses into the pressure
/// zone; emits its own bench artifact to a scratch path and re-parses
/// it, so the writer and the schema cannot drift apart.
fn smoke() {
    let s = Shape::smoke();
    let targets = ladder_targets(true);
    let report = sweep(&[2], &targets, s, true, 42);
    print_report(&report, &[2]);
    for l in &report.ladders {
        assert!(
            l.max_sockets > 0,
            "{} @ 2 cores never held a rung in smoke",
            l.kernel
        );
        assert!(
            l.rungs.iter().all(|r| r.balanced),
            "{} left an unbalanced ledger",
            l.kernel
        );
        let top = l.rungs.last().expect("ladder has rungs");
        if top.reached {
            assert!(
                top.enter_pressure > 0,
                "{}: top smoke rung held {} sockets but never crossed \
                 the pressure threshold of the 256 MiB budget",
                l.kernel,
                msock(top.peak_sockets)
            );
        }
    }
    let scratch = PathBuf::from("target/concurrency-smoke/BENCH_concurrency.json");
    write_artifact(&report, &scratch);
    let back: ConcurrencyReport = read_artifact(&scratch, "concurrency");
    assert_eq!(back.ladders.len(), report.ladders.len());
    for kernel in KERNELS {
        assert_eq!(
            back.max_sockets(kernel.label(), 2),
            report.max_sockets(kernel.label(), 2),
            "bench artifact round-trip drifted"
        );
    }
    println!(
        "\nconcurrency smoke clean: sanitizers quiet, ledger balanced, \
         reruns bit-identical, artifact round-trips."
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

    let args = HarnessArgs::parse(0.3, "BENCH_concurrency");
    let core_counts: Vec<u16> = args.cores.clone().unwrap_or_else(|| vec![8]);
    let s = Shape::full(args.measure_secs);
    let targets = ladder_targets(false);
    eprintln!(
        "concurrency ladder (cores {core_counts:?}, {} MiB budget, x{} scale, {:.2}s windows)...",
        s.ram_mb, s.scale, s.measure
    );
    let report = sweep(&core_counts, &targets, s, false, 42);
    print_report(&report, &core_counts);

    if core_counts.contains(&8) {
        let fs = report.max_sockets("fastsocket", 8).unwrap_or(0);
        let rp = report.max_sockets("linux-3.13", 8).unwrap_or(0);
        let base = report.max_sockets("base-2.6.32", 8).unwrap_or(0);
        println!(
            "\n8-core max concurrency: fastsocket {} vs linux-3.13 {} vs base {} \
             under {} MiB modeled RAM",
            msock(fs),
            msock(rp),
            msock(base),
            report.ram_mb
        );
        assert!(
            fs >= 1_048_576,
            "fastsocket must hold a million modeled concurrent sockets under the SLO"
        );
        assert!(
            fs >= rp && fs >= base,
            "fastsocket fell behind a baseline on max concurrency"
        );
    }

    args.write_json(&report);
}
