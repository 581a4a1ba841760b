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
use fastsocket_bench::{
    assert_round_trip, climb, find_ladder, gated_run, meets_slo, pct, print_ladders, read_artifact,
    sweep_ladders, HarnessArgs, Mode, SloLadder, SloRung, GOODPUT_FLOOR, KERNELS, SLO_P99_US,
};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A rung only counts as *held* when the ledger's peak reached this
/// fraction of the target population.
const REACH_FLOOR: f64 = 0.90;
/// Fraction of arrivals that hold their connection open.
const HELD_FRACTION: f64 = 0.9;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

impl SloRung for Rung {
    fn offered(&self) -> String {
        msock(self.target_sockets)
    }
    fn setup_p99_us(&self) -> f64 {
        self.setup_p99_us
    }
    fn passed(&self) -> bool {
        self.slo_pass && self.reached
    }
    fn schedule_digest(&self) -> &str {
        &self.schedule_digest
    }
}

/// One kernel's climb at one core count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Ladder {
    kernel: String,
    cores: u16,
    /// Highest held-and-passing modeled concurrency (0 if none).
    max_sockets: u64,
    rungs: Vec<Rung>,
}

impl SloLadder for Ladder {
    type Rung = Rung;
    const CURVE: &'static str = "held-vs-target";
    const MARK: &'static str = "pass";
    const AXIS: &'static str = "target";
    const SUMMARY: &'static str =
        "max held modeled sockets (SLO met, population held, ledger balanced):";
    fn kernel(&self) -> &str {
        &self.kernel
    }
    fn cores(&self) -> u16 {
        self.cores
    }
    fn rungs(&self) -> &[Rung] {
        &self.rungs
    }
    fn result(&self) -> String {
        msock(self.max_sockets)
    }
}

/// The whole emitted artifact (`BENCH_concurrency.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        find_ladder(&self.ladders, kernel, cores).map(|l| l.max_sockets)
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

/// Offered rate (cps) whose standing population — rate × held
/// fraction × hold, by Little's law — is the rung's target.
fn offered_rate(target: u64, s: Shape) -> f64 {
    (target / u64::from(s.scale)) as f64 / (HELD_FRACTION * s.hold_secs)
}

fn cell(
    kernel: KernelSpec,
    cores: u16,
    target: u64,
    s: Shape,
    check: bool,
    seed: u64,
) -> RunReport {
    // 2x headroom over the standing population: arrivals that find
    // every slot busy are abandoned, which is a client-pool artifact,
    // not the kernel's fault.
    let population = u32::try_from(target / u64::from(s.scale) * 2).expect("population fits u32");
    let cfg = SimConfig::new(kernel, AppSpec::web(), cores)
        .warmup_secs(s.warmup)
        .measure_secs(s.measure)
        .seed(seed)
        .trace(true)
        .check(check)
        .mem(MemConfig::ram_mb(s.ram_mb).scaled(s.scale))
        .open_loop(
            OpenLoopConfig::poisson(offered_rate(target, s))
                .population(population)
                .longlived(LongLivedMix::fraction_held(HELD_FRACTION, s.hold_secs)),
        );
    Simulation::new(cfg).run()
}

/// Runs one rung; `doubled` repeats it with the same seed and asserts
/// the reproducibility gate (bit-identical results and schedule).
fn run_rung(
    kernel: &KernelSpec,
    cores: u16,
    target: u64,
    s: Shape,
    check: bool,
    seed: u64,
    doubled: bool,
) -> Rung {
    let r = gated_run(
        format_args!("concurrency {} {cores}c @{}", kernel.label(), msock(target)),
        doubled,
        check,
        || cell(kernel.clone(), cores, target, s, check, seed),
    );
    let load = r.load.as_ref().expect("open-loop run reports load");
    let lat = r.latency.as_ref().expect("trace was on");
    let mem = r.mem.as_ref().expect("ledger was armed");
    let reactions = r.stack.mem.unwrap_or_default();
    let rate = offered_rate(target, s);
    let goodput = r.throughput_cps / rate;
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
        window_clamps: reactions.window_clamps,
        buffer_reclaims: reactions.buffer_reclaims,
        pressure_syn_drops: reactions.pressure_syn_drops,
        embryos_pruned: reactions.embryos_pruned,
        orphans_killed: reactions.orphans_killed,
        enter_pressure: reactions.enter_pressure,
        balanced: mem.balanced,
        reached: mem.peak_sockets as f64 >= REACH_FLOOR * target as f64,
        slo_pass: meets_slo(lat.setup.p99_us, goodput),
        schedule_digest: load.schedule_digest.clone(),
    }
}

/// Climbs every kernel's full target ladder at every core count (no
/// early stop: the top rungs are exactly where the pressure reactions
/// live).
fn sweep(
    core_counts: &[u16],
    targets: &[u64],
    s: Shape,
    check: bool,
    seed: u64,
) -> ConcurrencyReport {
    let ladders = sweep_ladders(core_counts, |kernel, cores| {
        let rungs = climb(targets, false, |&target, doubled| {
            let rung = run_rung(&kernel, cores, target, s, check, seed, doubled);
            eprintln!(
                "  {:<12} {cores:>2}c @{:>6}: held {:>6}  p99 {:>8.1}µs  goodput {}  {}{}",
                kernel.label(),
                msock(target),
                msock(rung.peak_sockets),
                rung.setup_p99_us,
                pct(rung.goodput),
                if rung.passed() { "pass" } else { "FAIL" },
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
            rung
        });
        let max_sockets = rungs
            .iter()
            .filter(|r| r.passed())
            .map(|r| r.target_sockets)
            .max()
            .unwrap_or(0);
        Ladder {
            kernel: kernel.label().to_string(),
            cores,
            max_sockets,
            rungs,
        }
    });
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
    print_ladders(&report.ladders, core_counts);
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
/// zone; round-trips its own bench artifact through a scratch path.
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
    assert_round_trip(
        &report,
        Path::new("target/concurrency-smoke/BENCH_concurrency.json"),
        "concurrency",
    );
    println!(
        "\nconcurrency smoke clean: sanitizers quiet, ledger balanced, \
         reruns bit-identical, artifact round-trips."
    );
}

fn main() {
    let args = HarnessArgs::parse(0.3, "BENCH_concurrency", &[Mode::Smoke, Mode::Validate]);
    if args.smoke {
        smoke();
        return;
    }
    if let Some(path) = &args.validate {
        validate_full(path);
        return;
    }

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
