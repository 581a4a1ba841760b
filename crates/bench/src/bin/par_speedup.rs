//! Parallel lane-sharding speedup: wall-clock of the threaded executor
//! vs the 1-lane run (a plain `Simulation::run`) on the Figure 4(a)
//! 24-core Fastsocket profile, across a lane-count sweep.
//!
//! Correctness rides along with the timing: at every lane count the
//! serial-windowed and threaded executors must produce bit-identical
//! [`RunReport`](fastsocket::RunReport) digests (the differential
//! oracle of `tests/par_engine.rs`, re-asserted here on the full-size
//! profile), so the speedup numbers are only ever reported for runs
//! the determinism gate accepted.
//!
//! Speedup is bounded by the host, not the simulation: a lane can only
//! run concurrently if a host core is free, so the emitted
//! `BENCH_par.json` records `host_cores`
//! ([`std::thread::available_parallelism`]) next to every measurement
//! and `--min-speedup X` lets CI gate the 8-lane point only on hosts
//! with enough parallelism to express it.
//!
//! `--smoke` is the `scripts/check.sh` stage: a short 2-lane run with
//! every sanitizer armed, digest-asserted against the serial executor.

use fastsocket::{effective_lanes, run_sharded, AppSpec, KernelSpec, ParConfig, SimConfig};
use fastsocket_bench::{kcps, HarnessArgs};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Lane counts swept by the full benchmark (all divisors of 24 that
/// the 24-core profile can express, plus the serial baseline).
const LANE_SWEEP: [u16; 6] = [1, 2, 4, 8, 12, 24];

/// One measured lane count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LanePoint {
    /// Requested lane count (1 = the plain 1-lane run).
    lanes: u16,
    /// Lane count the engine actually ran with.
    effective_lanes: u16,
    /// Wall-clock seconds, serial windowed executor.
    serial_wall_secs: f64,
    /// Wall-clock seconds, one host thread per lane.
    threaded_wall_secs: f64,
    /// 1-lane baseline wall over threaded wall.
    speedup: f64,
    /// `results_digest()` — identical across both executors.
    results_digest: String,
    /// Simulated connections/sec (sanity: the profile really ran).
    throughput_cps: f64,
}

/// The emitted `BENCH_par.json` artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ParBenchReport {
    /// Simulated seconds per measurement window.
    measure_secs: f64,
    /// Simulated cores of the profile.
    cores: u16,
    /// Host threads available to the executor — the hard ceiling on
    /// any observable speedup.
    host_cores: usize,
    seed: u64,
    /// Wall-clock of the 1-lane run (no `par` block).
    baseline_wall_secs: f64,
    points: Vec<LanePoint>,
}

fn profile(cores: u16, measure_secs: f64, check: bool) -> SimConfig {
    // Figure 4(a): nginx-like web workload on the 24-core Fastsocket
    // column — the run the paper's headline 475K cps comes from.
    SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), cores)
        .warmup_secs(0.05)
        .measure_secs(measure_secs)
        .check(check)
        .seed(0xf194a)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Times one digest-asserted (serial, threaded) executor pair.
fn measure_point(base: &SimConfig, lanes: u16, baseline_wall: f64) -> LanePoint {
    let serial_cfg = base.clone().par(ParConfig::lanes(lanes).threads(false));
    let threaded_cfg = base.clone().par(ParConfig::lanes(lanes));
    let effective = effective_lanes(&serial_cfg);

    let t0 = Instant::now();
    let serial = run_sharded(serial_cfg);
    let serial_wall = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let threaded = run_sharded(threaded_cfg);
    let threaded_wall = t1.elapsed().as_secs_f64();

    let digest = serial.results_digest();
    assert_eq!(
        digest,
        threaded.results_digest(),
        "{lanes} lanes: serial and threaded executors diverged"
    );

    LanePoint {
        lanes,
        effective_lanes: effective,
        serial_wall_secs: serial_wall,
        threaded_wall_secs: threaded_wall,
        speedup: baseline_wall / threaded_wall.max(1e-9),
        results_digest: digest,
        throughput_cps: serial.throughput_cps,
    }
}

fn sweep(cores: u16, measure_secs: f64, check: bool, seed_note: &str) -> ParBenchReport {
    let base = profile(cores, measure_secs, check);
    eprintln!(
        "par speedup sweep: fastsocket {cores}c web profile, {measure_secs}s windows, \
         host has {} core(s){seed_note}",
        host_cores()
    );

    // The 1-lane run (no par block at all) is the speedup denominator.
    let t0 = Instant::now();
    let one_lane = run_sharded(base.clone());
    let baseline_wall = t0.elapsed().as_secs_f64();
    eprintln!(
        "  1-lane run: {:.2}s wall, {} cps",
        baseline_wall,
        kcps(one_lane.throughput_cps)
    );

    let mut points = Vec::new();
    for lanes in LANE_SWEEP {
        if lanes > cores {
            continue;
        }
        let p = measure_point(&base, lanes, baseline_wall);
        eprintln!(
            "  {:>2} lanes (effective {:>2}): serial {:.2}s, threaded {:.2}s, \
             speedup {:.2}x, digest {}",
            p.lanes,
            p.effective_lanes,
            p.serial_wall_secs,
            p.threaded_wall_secs,
            p.speedup,
            &p.results_digest[..8.min(p.results_digest.len())]
        );
        points.push(p);
    }

    ParBenchReport {
        measure_secs,
        cores,
        host_cores: host_cores(),
        seed: base.seed,
        baseline_wall_secs: baseline_wall,
        points,
    }
}

/// The `scripts/check.sh` stage: 2 lanes, sanitizers armed, digests
/// asserted serial-vs-threaded, merged check report must be clean.
fn smoke() {
    println!("par smoke: 2-lane sharded run under sanitizers, digest-asserted\n");
    let base = profile(8, 0.05, true);
    let cfg = base.clone().par(ParConfig::lanes(2));
    assert_eq!(effective_lanes(&cfg), 2, "smoke profile must shard");
    let p = measure_point(&base, 2, 1.0);
    let report = run_sharded(base.par(ParConfig::lanes(2)));
    let checks = report.checks.expect("sanitizers were armed");
    assert!(
        checks.is_clean(),
        "sanitizer findings inside sharded lanes: {checks:?}"
    );
    println!(
        "par smoke clean: 2 lanes, digest {} reproduced across executors, \
         sanitizers quiet, {} cps",
        p.results_digest,
        kcps(report.throughput_cps)
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let min_speedup: Option<f64> = raw
        .iter()
        .position(|a| a == "--min-speedup")
        .map(|i| raw[i + 1].parse().expect("--min-speedup <x>"));
    // Strip `--min-speedup X` so HarnessArgs does not read X as the
    // measurement window.
    let args = HarnessArgs::parse_from(
        {
            let mut rest = raw.clone();
            if let Some(i) = rest.iter().position(|a| a == "--min-speedup") {
                rest.drain(i..=(i + 1).min(rest.len() - 1));
            }
            rest
        },
        0.2,
        "BENCH_par",
    );

    let report = sweep(24, args.measure_secs, false, "");

    println!("\nparallel lane-sharding speedup (fastsocket, 24 simulated cores)");
    println!(
        "{:>6} {:>10} {:>12} {:>14} {:>9}",
        "lanes", "effective", "serial wall", "threaded wall", "speedup"
    );
    for p in &report.points {
        println!(
            "{:>6} {:>10} {:>11.2}s {:>13.2}s {:>8.2}x",
            p.lanes, p.effective_lanes, p.serial_wall_secs, p.threaded_wall_secs, p.speedup
        );
    }
    println!(
        "\nhost cores: {} (speedup is capped by host parallelism, \
         not by the lane protocol)",
        report.host_cores
    );

    if let Some(min) = min_speedup {
        let eight = report
            .points
            .iter()
            .find(|p| p.lanes == 8)
            .expect("sweep includes 8 lanes");
        assert!(
            eight.speedup >= min,
            "8-lane speedup {:.2}x regressed below the {min:.1}x gate \
             (host cores: {})",
            eight.speedup,
            report.host_cores
        );
        println!(
            "8-lane speedup {:.2}x meets the {min:.1}x gate",
            eight.speedup
        );
    }

    args.write_json(&report);
}
