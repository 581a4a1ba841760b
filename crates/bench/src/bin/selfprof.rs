//! Self-profiles the simulator's event core: the fig4a 24-core cell
//! of each kernel, plus a queue-replay microbenchmark that drives the
//! timing wheel with the same event-arrival profile the cell generates.
//!
//! Writes `BENCH_event_core.json`; `--baseline <path>` compares events
//! per wall-clock second against a committed baseline and exits nonzero
//! on a >10% regression (tolerance overridable with `--tolerance 0.25`).
//! The field names keep the `wheel_` prefix from when a heap backend ran
//! alongside, so earlier artifacts still parse as baselines.

use std::path::PathBuf;
use std::time::Instant;

use fastsocket::{AppSpec, KernelSpec, SimConfig, Simulation};
use fastsocket_bench::{read_artifact, write_artifact};
use serde::{Deserialize, Serialize};
use sim_core::EventQueue;

/// One kernel's fig4a 24-core cell, timed.
#[derive(Debug, Serialize, Deserialize)]
struct CellRow {
    kernel: String,
    events: u64,
    wheel_secs: f64,
    wheel_events_per_sec: f64,
}

/// The queue-replay microbenchmark: event-core throughput alone.
#[derive(Debug, Serialize, Deserialize)]
struct ReplayRow {
    events: u64,
    wheel_secs: f64,
    wheel_events_per_sec: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct SelfProfile {
    /// Simulated seconds measured per cell.
    measure_secs: f64,
    cells: Vec<CellRow>,
    /// Wall-clock seconds summed over cells.
    total_wheel_secs: f64,
    /// Event-core replay of the cell's arrival profile (no dispatch).
    queue_replay: ReplayRow,
}

fn cell(kernel: KernelSpec, measure_secs: f64) -> (f64, fastsocket::RunReport) {
    let cfg = SimConfig::new(kernel, AppSpec::web(), 24)
        .warmup_secs(0.1)
        .measure_secs(measure_secs);
    let start = Instant::now();
    let report = Simulation::new(cfg).run();
    (start.elapsed().as_secs_f64(), report)
}

/// Replays the fig4a event-arrival profile through the event queue:
/// bursty same-timestamp NIC deliveries, near-future softirq/syscall
/// wakeups within the wheel horizon, and a far tail of RTO/TIME_WAIT
/// timers. The mix is generated from a deterministic LCG so every run
/// sees the identical schedule.
fn replay(total: u64) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::with_capacity(1 << 16);
    let mut rng: u64 = 0x5eed_cafe_f00d_0001;
    let mut next = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 11
    };
    let mut now: u64 = 0;
    let mut pushed: u64 = 0;
    let mut batch = Vec::new();
    let start = Instant::now();
    // Keep a steady backlog like the sim does (one event per in-flight
    // connection plus armed timers), popping batches between pushes.
    while pushed < total {
        for _ in 0..8 {
            let r = next();
            let delta = match r % 100 {
                // NIC burst: several segments at the same tick.
                0..=44 => r % 64,
                // softirq / syscall continuations: a few microseconds.
                45..=84 => 1_000 + r % 2_000_000,
                // delayed-ACK / RTO: around the wheel horizon.
                85..=97 => 2_000_000 + r % 600_000_000,
                // TIME_WAIT-scale far future.
                _ => 2_000_000_000 + r % 8_000_000_000,
            };
            q.push(now + delta, pushed as u32);
            pushed += 1;
        }
        while q.len() > 12_000 {
            if let Some(t) = q.pop_batch(&mut batch) {
                now = t;
                batch.clear();
            }
        }
    }
    while q.pop_batch(&mut batch).is_some() {
        batch.clear();
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut measure_secs = 0.05;
    let mut json_path: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut tolerance = 0.10;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_path = it.next().map(PathBuf::from),
            "--baseline" => baseline = it.next().map(PathBuf::from),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance <fraction>");
            }
            other => measure_secs = other.parse().expect("measure seconds"),
        }
    }
    if json_path.is_none() {
        if let Ok(dir) = std::env::var("FS_RESULTS_DIR") {
            json_path = Some(PathBuf::from(dir).join("BENCH_event_core.json"));
        }
    }

    eprintln!("self-profiling the event core (fig4a 24-core cells, {measure_secs}s windows)...");
    let mut cells = Vec::new();
    for kernel in [
        KernelSpec::BaseLinux,
        KernelSpec::Linux313,
        KernelSpec::Fastsocket,
    ] {
        let (wheel_secs, report) = cell(kernel, measure_secs);
        cells.push(CellRow {
            kernel: report.kernel,
            events: report.events,
            wheel_secs,
            wheel_events_per_sec: report.events as f64 / wheel_secs,
        });
    }

    let replay_events: u64 = 8_000_000;
    let wheel_secs = replay(replay_events);
    let profile = SelfProfile {
        measure_secs,
        total_wheel_secs: cells.iter().map(|c| c.wheel_secs).sum(),
        cells,
        queue_replay: ReplayRow {
            events: replay_events,
            wheel_secs,
            wheel_events_per_sec: replay_events as f64 / wheel_secs,
        },
    };

    println!("event-core self-profile (fig4a 24-core cell, {measure_secs}s simulated)");
    println!(
        "{:<14}{:>10}{:>12}{:>14}",
        "kernel", "events", "wall s", "events/s"
    );
    for c in &profile.cells {
        println!(
            "{:<14}{:>10}{:>12.3}{:>14.0}",
            c.kernel, c.events, c.wheel_secs, c.wheel_events_per_sec
        );
    }
    let r = &profile.queue_replay;
    println!(
        "{:<14}{:>10}{:>12.3}{:>14.0}",
        "queue-replay", r.events, r.wheel_secs, r.wheel_events_per_sec
    );

    if let Some(path) = &json_path {
        write_artifact(&profile, path);
    }

    if let Some(path) = &baseline {
        let base: SelfProfile = read_artifact(path, "event-core");
        // Compare events/sec rather than raw wall-clock so a short smoke
        // window can be held against the committed full-length baseline
        // (events/sec is window-independent; wall-clock is not).
        let eps = |p: &SelfProfile| {
            let events: u64 = p.cells.iter().map(|c| c.events).sum();
            events as f64 / p.total_wheel_secs
        };
        let (ours, theirs) = (eps(&profile), eps(&base));
        println!(
            "regression check: {ours:.0} ev/s vs baseline {theirs:.0} ev/s (-{:.0}% allowed)",
            tolerance * 100.0
        );
        if ours < theirs * (1.0 - tolerance) {
            eprintln!(
                "FAIL: event-core throughput regressed >{:.0}% vs baseline",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
    }
}
