//! Chaos matrix: every kernel × every fault scenario, with the
//! degrade-and-recover verdicts the paper's architecture implies.
//!
//! Four scheduled faults — a worker crash with restart, an RX queue
//! failure, a packet-loss burst, and a spoofed SYN flood — run against
//! the base 2.6.32 kernel, Linux 3.13 (`SO_REUSEPORT`), and Fastsocket.
//! Every run executes **twice** with the same seed and the two
//! [`RobustnessReport`]s must be bit-identical (the reproducibility
//! gate); the analysis itself must show Fastsocket's global fallback
//! riding out the crash with zero refusals and SYN cookies preserving
//! legitimate goodput under flood.
//!
//! `--smoke` runs one short schedule per kernel with the sanitizers
//! armed and exits nonzero on any finding or unrecovered fault — the
//! CI gate wired into `scripts/check.sh`.

use fastsocket::{
    AppSpec, FaultRecord, FaultSchedule, KernelSpec, RobustnessReport, RunReport, SimConfig,
    Simulation,
};
use fastsocket_bench::{assert_deterministic, fmt_recover, kcps, pct, HarnessArgs, Mode, KERNELS};
use serde::Serialize;
use sim_core::secs_to_cycles;

/// The fault scenarios of the matrix, in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    WorkerCrashRestart,
    QueueFailure,
    LossBurst,
    SynFlood,
}

impl Scenario {
    const ALL: [Scenario; 4] = [
        Scenario::WorkerCrashRestart,
        Scenario::QueueFailure,
        Scenario::LossBurst,
        Scenario::SynFlood,
    ];

    fn label(self) -> &'static str {
        match self {
            Scenario::WorkerCrashRestart => "worker-crash-restart",
            Scenario::QueueFailure => "queue-failure",
            Scenario::LossBurst => "loss-burst",
            Scenario::SynFlood => "syn-flood",
        }
    }
}

/// Injection/heal timing for one run, all in simulated seconds from
/// the start of the run (warmup included).
#[derive(Debug, Clone, Copy)]
struct Timing {
    warmup: f64,
    measure: f64,
    inject: f64,
    heal: f64,
}

impl Timing {
    fn full(measure: f64) -> Timing {
        // Inject a third of the way into the window so the analysis
        // gets a solid baseline before and recovery room after.
        Timing {
            warmup: 0.05,
            measure,
            inject: 0.05 + measure / 3.0,
            heal: 0.05 + measure / 2.0,
        }
    }

    fn smoke() -> Timing {
        Timing {
            warmup: 0.02,
            measure: 0.12,
            inject: 0.06,
            heal: 0.08,
        }
    }
}

/// One row of `results/robustness.json`.
#[derive(Debug, Serialize)]
struct Row {
    scenario: String,
    kernel: String,
    seed: u64,
    /// `RobustnessReport::digest()` — equal across the doubled runs.
    digest: String,
    completed: u64,
    resets: u64,
    timeouts: u64,
    throughput_cps: f64,
    /// Mean windowed throughput while the fault was active, as a
    /// fraction of the pre-fault baseline (legitimate goodput under
    /// flood; load retained under the other faults).
    goodput_ratio: f64,
    syn_cookies_sent: u64,
    syn_cookies_ok: u64,
    syn_drops: u64,
    mem_pressure_drops: u64,
    record: FaultRecord,
}

fn schedule(scenario: Scenario, t: Timing) -> FaultSchedule {
    let at = secs_to_cycles(t.inject);
    let heal = Some(secs_to_cycles(t.heal));
    let s = FaultSchedule::new().sample_every(secs_to_cycles(0.005));
    match scenario {
        Scenario::WorkerCrashRestart => s.worker_crash(at, heal, 2),
        Scenario::QueueFailure => s.queue_failure(at, heal, 2),
        Scenario::LossBurst => s.loss_burst(at, heal, 0.05),
        Scenario::SynFlood => s.syn_flood(at, heal, 6),
    }
}

fn config(kernel: KernelSpec, scenario: Scenario, t: Timing, check: bool) -> SimConfig {
    let fastsocket = matches!(kernel, KernelSpec::Fastsocket);
    let mut cfg = SimConfig::new(kernel, AppSpec::web(), 4)
        .warmup_secs(t.warmup)
        .measure_secs(t.measure)
        .concurrency(120)
        .seed(0xfa57)
        .check(check)
        .faults(schedule(scenario, t));
    match scenario {
        Scenario::WorkerCrashRestart | Scenario::QueueFailure => {
            // Stranded in-flight connections must time out inside the
            // run so the recovery window is visible.
            cfg = cfg.client_timeout_secs(0.04);
        }
        Scenario::LossBurst => {
            // Give RTO retransmission room to recover every loss.
            cfg = cfg.client_timeout_secs(0.2);
        }
        Scenario::SynFlood => {
            // A small backlog makes the flood bite; the cookie knob is
            // the variable under test — Fastsocket runs with cookies,
            // the stock kernels without, isolating the differential.
            cfg = cfg.client_timeout_secs(0.05);
            cfg = cfg.syn_cookies(fastsocket);
            cfg.backlog = 128;
        }
    }
    cfg
}

/// Mean windowed cps while the fault was active, over the baseline.
fn goodput_ratio(rob: &RobustnessReport, rec: &FaultRecord) -> f64 {
    let cycles_per_sec = secs_to_cycles(1.0) as f64;
    let until = rec.healed_at.unwrap_or(u64::MAX);
    let during: Vec<f64> = rob
        .samples
        .iter()
        .filter(|s| s.start < until && s.end > rec.injected_at)
        .map(|s| s.cps(cycles_per_sec))
        .collect();
    if during.is_empty() || rec.baseline_cps <= 0.0 {
        return 1.0;
    }
    (during.iter().sum::<f64>() / during.len() as f64) / rec.baseline_cps
}

/// Runs one cell twice with the same seed and verifies the two
/// robustness reports are bit-identical before returning the report.
fn run_cell(kernel: KernelSpec, scenario: Scenario, t: Timing, check: bool) -> (RunReport, Row) {
    let a = assert_deterministic(
        format_args!("{} × {}", kernel.label(), scenario.label()),
        || Simulation::new(config(kernel.clone(), scenario, t, check)).run(),
        |r| {
            r.robustness
                .as_ref()
                .expect("fault schedule => robustness")
                .digest()
        },
    );
    let ra = a.robustness.clone().expect("fault schedule => robustness");
    let rec = ra.faults[0].clone();
    let row = Row {
        scenario: scenario.label().to_string(),
        kernel: kernel.label().to_string(),
        seed: a.seed,
        digest: ra.digest(),
        completed: a.completed,
        resets: a.resets,
        timeouts: a.timeouts,
        throughput_cps: a.throughput_cps,
        goodput_ratio: goodput_ratio(&ra, &rec),
        syn_cookies_sent: a.stack.syn_cookies_sent,
        syn_cookies_ok: a.stack.syn_cookies_ok,
        syn_drops: a.stack.syn_drops,
        mem_pressure_drops: a.stack.mem_pressure_drops,
        record: rec,
    };
    (a, row)
}

fn smoke() {
    // One short schedule per kernel, sanitizers armed: the stock
    // kernels ride out a loss burst, Fastsocket a worker crash with
    // restart. Any sanitizer finding or unrecovered fault is fatal.
    let t = Timing::smoke();
    println!("chaos smoke: sanitizers armed, one fault schedule per kernel\n");
    let cells = [
        (KernelSpec::BaseLinux, Scenario::LossBurst),
        (KernelSpec::Linux313, Scenario::LossBurst),
        (KernelSpec::Fastsocket, Scenario::WorkerCrashRestart),
    ];
    for (kernel, scenario) in cells {
        let (report, row) = run_cell(kernel.clone(), scenario, t, true);
        let checks = report.checks.as_ref().expect("check(true) => report");
        println!(
            "{:<14} {:<22} depth {:<6} recover {:<8} sanitizers {}",
            row.kernel,
            row.scenario,
            pct(row.record.degradation_depth),
            fmt_recover(&row.record),
            if checks.is_clean() { "clean" } else { "DIRTY" }
        );
        assert!(
            checks.is_clean(),
            "{} × {}: sanitizer findings under fault schedule: {checks:?}",
            row.kernel,
            row.scenario
        );
        assert!(
            row.record.time_to_recover.is_some(),
            "{} × {}: throughput never recovered: {:?}",
            row.kernel,
            row.scenario,
            row.record
        );
    }
    println!("\nchaos smoke passed");
}

fn main() {
    let args = HarnessArgs::parse(0.3, "robustness", &[Mode::Smoke]);
    if args.smoke {
        smoke();
        return;
    }
    let t = Timing::full(args.measure_secs);
    println!(
        "chaos matrix: 3 kernels × 4 fault scenarios, {:.2}s windows, \
         inject at {:.2}s / heal at {:.2}s, doubled runs\n",
        t.measure, t.inject, t.heal
    );
    println!(
        "{:<22} {:<14} {:>9} {:>9} {:>7} {:>9} {:>8} {:>7} {:>7} {:>8}",
        "scenario",
        "kernel",
        "baseline",
        "degraded",
        "depth",
        "recover",
        "goodput",
        "resets",
        "refused",
        "digest"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut texts: Vec<String> = Vec::new();
    for scenario in Scenario::ALL {
        for kernel in KERNELS {
            let (report, row) = run_cell(kernel, scenario, t, false);
            println!(
                "{:<22} {:<14} {:>9} {:>9} {:>7} {:>9} {:>8} {:>7} {:>7} {:>8}",
                row.scenario,
                row.kernel,
                kcps(row.record.baseline_cps),
                kcps(row.record.degraded_cps),
                pct(row.record.degradation_depth),
                fmt_recover(&row.record),
                pct(row.goodput_ratio),
                row.record.resets_during,
                row.record.refusals_during,
                &row.digest[..8]
            );
            texts.push(format!(
                "== {} × {} ==\n{}",
                row.scenario,
                row.kernel,
                report.netstat_ext()
            ));
            rows.push(row);
        }
    }

    // The acceptance claims, asserted so a regression fails the run.
    let find = |s: Scenario, k: &str| {
        rows.iter()
            .find(|r| r.scenario == s.label() && r.kernel == k)
            .expect("matrix is complete")
    };
    let crash_fs = find(Scenario::WorkerCrashRestart, "fastsocket");
    assert_eq!(
        crash_fs.record.refusals_during, 0,
        "fastsocket's global fallback must refuse no client during the crash"
    );
    assert!(
        crash_fs.record.time_to_recover.is_some(),
        "fastsocket must return to 90% of baseline after the restart"
    );
    let crash_313 = find(Scenario::WorkerCrashRestart, "linux-3.13");
    assert!(
        crash_313.record.resets_during > crash_fs.record.resets_during,
        "SO_REUSEPORT strands the dead copy's connections; the fallback does not"
    );
    let flood_fs = find(Scenario::SynFlood, "fastsocket");
    let flood_base = find(Scenario::SynFlood, "base-2.6.32");
    assert!(
        flood_fs.goodput_ratio >= 0.5,
        "SYN cookies must preserve ≥50% legitimate goodput under flood: {}",
        flood_fs.goodput_ratio
    );
    assert!(
        flood_base.goodput_ratio < 0.5,
        "the cookie-less base kernel must drop below 50% goodput: {}",
        flood_base.goodput_ratio
    );
    assert!(flood_fs.syn_cookies_sent > 0 && flood_fs.syn_cookies_ok > 0);

    println!("\nverdicts:");
    println!(
        "  worker crash+restart: fastsocket refused {} clients, recovered in {} \
         (linux-3.13 reset {} clients)",
        crash_fs.record.refusals_during,
        fmt_recover(&crash_fs.record),
        crash_313.record.resets_during
    );
    println!(
        "  syn flood: fastsocket+cookies kept {} of baseline goodput; base-2.6.32 kept {}",
        pct(flood_fs.goodput_ratio),
        pct(flood_base.goodput_ratio)
    );
    println!("\nnetstat -s (TcpExt) per cell:\n");
    for t in &texts {
        println!("{t}");
    }
    args.write_json(&rows);
}
