//! Edge-tier resilience matrix: every kernel × {no-defense,
//! early-drop} × {backend-crash, backend-flap, syn-flood}, scoring the
//! health-checked pool's failover and the NIC pre-steering drop stage.
//!
//! Every cell executes **twice** with the same seed and the two
//! [`RunReport::results_digest`]s must be bit-identical (the
//! reproducibility gate). The analysis then asserts the edge tier's
//! headline claims: with a retry budget ≥ 1 a backend crash loses zero
//! requests end to end, and the XDP-style early-drop filter recovers at
//! least half of the SYN-flood throughput degradation measured without
//! it.
//!
//! `--smoke` runs one short cell per kernel with all five sim-check
//! detectors armed and exits nonzero on any finding or lost request —
//! the CI gate wired into `scripts/check.sh`.

use fastsocket::{
    AppSpec, EdgeReport, FaultRecord, FaultSchedule, KernelSpec, RunReport, SimConfig, Simulation,
};
use fastsocket_bench::{assert_deterministic, fmt_recover, kcps, pct, HarnessArgs, Mode, KERNELS};
use serde::Serialize;
use sim_apps::edge::EdgeConfig;
use sim_core::secs_to_cycles;

/// The fault scenarios of the matrix, in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    BackendCrash,
    BackendFlap,
    SynFlood,
}

impl Scenario {
    const ALL: [Scenario; 3] = [
        Scenario::BackendCrash,
        Scenario::BackendFlap,
        Scenario::SynFlood,
    ];

    fn label(self) -> &'static str {
        match self {
            Scenario::BackendCrash => "backend-crash",
            Scenario::BackendFlap => "backend-flap",
            Scenario::SynFlood => "syn-flood",
        }
    }
}

/// Injection/heal timing for one run, in simulated seconds from the
/// start of the run (warmup included).
#[derive(Debug, Clone, Copy)]
struct Timing {
    warmup: f64,
    measure: f64,
    inject: f64,
    heal: f64,
}

impl Timing {
    fn full(measure: f64) -> Timing {
        Timing {
            warmup: 0.04,
            measure,
            inject: 0.04 + measure / 3.0,
            heal: 0.04 + measure * 2.0 / 3.0,
        }
    }

    fn smoke() -> Timing {
        Timing {
            warmup: 0.02,
            measure: 0.10,
            inject: 0.05,
            heal: 0.09,
        }
    }
}

/// One row of `results/edge.json`.
#[derive(Debug, Serialize)]
struct Row {
    scenario: String,
    kernel: String,
    early_drop: bool,
    seed: u64,
    /// `RunReport::results_digest()` — equal across the doubled runs.
    digest: String,
    completed: u64,
    timeouts: u64,
    throughput_cps: f64,
    degradation_depth: f64,
    time_to_recover: Option<u64>,
    edge: EdgeReport,
    record: FaultRecord,
}

fn schedule(scenario: Scenario, t: Timing) -> FaultSchedule {
    let at = secs_to_cycles(t.inject);
    let heal = Some(secs_to_cycles(t.heal));
    let s = FaultSchedule::new().sample_every(secs_to_cycles(0.005));
    match scenario {
        Scenario::BackendCrash => s.backend_crash(at, heal, 0),
        Scenario::BackendFlap => {
            s.backend_flap(at, secs_to_cycles(0.01), secs_to_cycles(0.005), 2, 1)
        }
        Scenario::SynFlood => s.syn_flood(at, heal, 50),
    }
}

fn config(
    kernel: KernelSpec,
    scenario: Scenario,
    early_drop: bool,
    t: Timing,
    check: bool,
) -> SimConfig {
    let mut cfg = SimConfig::new(kernel, AppSpec::proxy(), 2)
        .warmup_secs(t.warmup)
        .measure_secs(t.measure)
        .concurrency(80)
        .seed(0xed9e)
        .check(check)
        .edge(EdgeConfig::default().early_drop(early_drop))
        .faults(schedule(scenario, t));
    if scenario == Scenario::SynFlood {
        // A small backlog and no cookies make the flood bite on every
        // kernel; the pre-steering drop filter is the variable under
        // test, not the cookie path already covered by `chaos`.
        cfg = cfg.syn_cookies(false).client_timeout_secs(0.05);
        cfg.backlog = 128;
    }
    cfg
}

/// Runs one cell twice with the same seed and verifies the two full
/// results digests are bit-identical before returning the report.
fn run_cell(
    kernel: KernelSpec,
    scenario: Scenario,
    early_drop: bool,
    t: Timing,
    check: bool,
) -> (RunReport, Row) {
    let defense = if early_drop {
        "early-drop"
    } else {
        "no-defense"
    };
    let a = assert_deterministic(
        format_args!("{} × {} × {}", kernel.label(), scenario.label(), defense),
        || Simulation::new(config(kernel.clone(), scenario, early_drop, t, check)).run(),
        RunReport::results_digest,
    );
    let rec = a
        .robustness
        .as_ref()
        .expect("fault schedule => robustness")
        .faults[0]
        .clone();
    let row = Row {
        scenario: scenario.label().to_string(),
        kernel: kernel.label().to_string(),
        early_drop,
        seed: a.seed,
        digest: a.results_digest(),
        completed: a.completed,
        timeouts: a.timeouts,
        throughput_cps: a.throughput_cps,
        degradation_depth: rec.degradation_depth,
        time_to_recover: rec.time_to_recover,
        edge: a.edge.clone().expect("edge config => edge report"),
        record: rec,
    };
    (a, row)
}

fn smoke() {
    // One short cell per kernel with all five sim-check detectors
    // armed. Any sanitizer finding or lost request is fatal.
    let t = Timing::smoke();
    println!("edge smoke: sanitizers armed, one edge fault schedule per kernel\n");
    let cells = [
        (KernelSpec::BaseLinux, Scenario::SynFlood, true),
        (KernelSpec::Linux313, Scenario::BackendFlap, false),
        (KernelSpec::Fastsocket, Scenario::BackendCrash, false),
    ];
    for (kernel, scenario, early_drop) in cells {
        let (report, row) = run_cell(kernel.clone(), scenario, early_drop, t, true);
        let checks = report.checks.as_ref().expect("check(true) => report");
        println!(
            "{:<14} {:<14} depth {:<6} recover {:<8} lost {:<3} sanitizers {}",
            row.kernel,
            row.scenario,
            pct(row.degradation_depth),
            fmt_recover(&row.record),
            row.edge.lost,
            if checks.is_clean() { "clean" } else { "DIRTY" }
        );
        assert!(
            checks.is_clean(),
            "{} × {}: sanitizer findings under edge fault schedule: {checks:?}",
            row.kernel,
            row.scenario
        );
        assert_eq!(
            row.edge.lost, 0,
            "{} × {}: the retry budget must save every request: {:?}",
            row.kernel, row.scenario, row.edge
        );
    }
    println!("\nedge smoke passed");
}

fn main() {
    let args = HarnessArgs::parse(0.3, "edge", &[Mode::Smoke]);
    if args.smoke {
        smoke();
        return;
    }
    let t = Timing::full(args.measure_secs);
    println!(
        "edge matrix: 3 kernels × 2 defenses × 3 scenarios, {:.2}s windows, \
         inject at {:.2}s / heal at {:.2}s, doubled runs\n",
        t.measure, t.inject, t.heal
    );
    println!(
        "{:<14} {:<14} {:<11} {:>9} {:>7} {:>9} {:>9} {:>7} {:>7} {:>5} {:>8}",
        "scenario",
        "kernel",
        "defense",
        "cps",
        "depth",
        "recover",
        "dropped",
        "retried",
        "f-over",
        "lost",
        "digest"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut texts: Vec<String> = Vec::new();
    for scenario in Scenario::ALL {
        for kernel in KERNELS {
            for early_drop in [false, true] {
                let (report, row) = run_cell(kernel.clone(), scenario, early_drop, t, false);
                println!(
                    "{:<14} {:<14} {:<11} {:>9} {:>7} {:>9} {:>9} {:>7} {:>7} {:>5} {:>8}",
                    row.scenario,
                    row.kernel,
                    if early_drop {
                        "early-drop"
                    } else {
                        "no-defense"
                    },
                    kcps(row.throughput_cps),
                    pct(row.degradation_depth),
                    fmt_recover(&row.record),
                    row.edge.early_dropped,
                    row.edge.retried,
                    row.edge.failed_over,
                    row.edge.lost,
                    &row.digest[..8]
                );
                if matches!(kernel, KernelSpec::Fastsocket) && early_drop {
                    texts.push(format!(
                        "== {} × fastsocket × early-drop ==\n{}",
                        row.scenario,
                        report.netstat_ext()
                    ));
                }
                rows.push(row);
            }
        }
    }

    // The acceptance claims, asserted so a regression fails the run.
    let find = |s: Scenario, k: &str, d: bool| {
        rows.iter()
            .find(|r| r.scenario == s.label() && r.kernel == k && r.early_drop == d)
            .expect("matrix is complete")
    };
    for kernel in KERNELS.map(|k| k.label()) {
        // Backend crash: with retry budget >= 1 every request that hit
        // the dead backend is re-dispatched — zero lost end to end.
        for d in [false, true] {
            let r = find(Scenario::BackendCrash, kernel, d);
            assert_eq!(
                r.edge.lost, 0,
                "{kernel}: crash failover must lose zero requests: {:?}",
                r.edge
            );
            assert!(
                r.edge.retried > 0 && r.edge.failed_over > 0,
                "{kernel}: the crash must force failover retries: {:?}",
                r.edge
            );
        }
        // SYN flood: the pre-steering drop filter must recover at
        // least half of the degradation measured without it.
        let nodef = find(Scenario::SynFlood, kernel, false);
        let def = find(Scenario::SynFlood, kernel, true);
        assert!(
            def.edge.early_dropped > 0 && nodef.edge.early_dropped == 0,
            "{kernel}: the filter must drop iff armed"
        );
        if nodef.degradation_depth > 0.10 {
            assert!(
                def.degradation_depth <= nodef.degradation_depth * 0.5,
                "{kernel}: early drop must recover ≥ half the flood degradation \
                 ({} with vs {} without)",
                pct(def.degradation_depth),
                pct(nodef.degradation_depth)
            );
        }
    }
    let flood_base = find(Scenario::SynFlood, "base-2.6.32", false);
    assert!(
        flood_base.degradation_depth > 0.10,
        "the undefended flood must bite on the cookie-less base kernel: {}",
        pct(flood_base.degradation_depth)
    );

    println!("\nverdicts:");
    for kernel in KERNELS.map(|k| k.label()) {
        let crash = find(Scenario::BackendCrash, kernel, false);
        let nodef = find(Scenario::SynFlood, kernel, false);
        let def = find(Scenario::SynFlood, kernel, true);
        println!(
            "  {kernel}: crash lost {} / retried {} / failed over {}; \
             flood depth {} undefended vs {} with early drop",
            crash.edge.lost,
            crash.edge.retried,
            crash.edge.failed_over,
            pct(nodef.degradation_depth),
            pct(def.degradation_depth)
        );
    }
    println!("\nnetstat -s (TcpExt) per fastsocket early-drop cell:\n");
    for t in &texts {
        println!("{t}");
    }
    args.write_json(&rows);
}
