//! Connection-setup tail latency vs cores — the paper's throughput
//! collapse (Figure 4) restated as latency: the base kernel's shared
//! accept queue and global locks stretch the SYN→ESTABLISHED tail as
//! cores grow, while Fastsocket's per-core partitioning holds it flat.
//!
//! Runs each kernel with tracing enabled and reports setup-latency
//! percentiles per core count. Set `FS_TRACE_DIR` to also dump the
//! 24-core Fastsocket run as chrome://tracing JSON and flamegraph
//! `.folded` text.

use fastsocket::{AppSpec, KernelSpec, SimConfig, Simulation};
use fastsocket_bench::{HarnessArgs, KERNELS};
use serde::Serialize;
use sim_core::usecs_to_cycles;
use sim_trace::{LatencyReport, Tracer};

const DEFAULT_CORES: [u16; 5] = [1, 4, 8, 16, 24];

/// One (kernel, cores) measurement.
#[derive(Debug, Clone, Serialize)]
struct LatencyPoint {
    kernel: String,
    cores: u16,
    seed: u64,
    config_hash: String,
    throughput_cps: f64,
    latency: LatencyReport,
}

/// The full sweep, as written to `--json` / `FS_RESULTS_DIR`.
#[derive(Debug, Clone, Serialize, Default)]
struct LatencyTail {
    points: Vec<LatencyPoint>,
}

fn run_one(kernel: &KernelSpec, cores: u16, measure_secs: f64) -> Option<(LatencyPoint, Tracer)> {
    // Moderate closed-loop load (50 slots/core, vs http_load's 500):
    // at full saturation every kernel's tail is dominated by its own
    // backlog queueing, which rewards *low* throughput; at matched
    // moderate load the tail isolates lock contention and accept-queue
    // serialization — the effects the paper attributes to the VFS and
    // shared listen queue.
    let cfg = SimConfig::new(kernel.clone(), AppSpec::web(), cores)
        .warmup_secs(0.05)
        .measure_secs(measure_secs)
        .concurrency(u32::from(cores) * 50)
        .trace(true);
    let sim = Simulation::new(cfg);
    let tracer = sim.tracer();
    let report = sim.run();
    let latency = report.latency?;
    Some((
        LatencyPoint {
            kernel: report.kernel,
            cores,
            seed: report.seed,
            config_hash: report.config_hash,
            throughput_cps: report.throughput_cps,
            latency,
        },
        tracer,
    ))
}

fn dump_trace(tracer: &Tracer, kernel: &str, cores: u16) {
    let Ok(dir) = std::env::var("FS_TRACE_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&dir);
    let chrome = dir.join(format!("{kernel}-{cores}c.trace.json"));
    let folded = dir.join(format!("{kernel}-{cores}c.folded"));
    let trace = tracer.chrome_trace(usecs_to_cycles(1.0) as f64);
    if let Err(e) = std::fs::write(&chrome, trace.to_json()) {
        eprintln!("warning: cannot write {}: {e}", chrome.display());
    }
    if let Err(e) = std::fs::write(&folded, tracer.folded()) {
        eprintln!("warning: cannot write {}: {e}", folded.display());
    } else {
        eprintln!(
            "(trace dumps written to {} and {})",
            chrome.display(),
            folded.display()
        );
    }
}

fn main() {
    let args = HarnessArgs::parse(0.2, "latency_tail", &[]);
    let cores = args.cores.clone().unwrap_or_else(|| DEFAULT_CORES.to_vec());
    eprintln!(
        "Tail latency sweep: connection setup percentiles (cores {cores:?}, {}s windows)...",
        args.measure_secs
    );

    let mut out = LatencyTail::default();
    for kernel in &KERNELS {
        for &c in &cores {
            let Some((point, tracer)) = run_one(kernel, c, args.measure_secs) else {
                eprintln!(
                    "warning: {} at {c} cores measured no setups",
                    kernel.label()
                );
                continue;
            };
            dump_trace(&tracer, &point.kernel, c);
            out.points.push(point);
        }
    }

    println!("Connection-setup latency (SYN -> ESTABLISHED), microseconds");
    println!(
        "{:<14}{:>6}{:>10}{:>10}{:>10}{:>10}{:>10}{:>12}",
        "kernel", "cores", "p50", "p90", "p99", "p99.9", "max", "setups/s"
    );
    for p in &out.points {
        let s = p.latency.setup;
        println!(
            "{:<14}{:>6}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>12.0}",
            p.kernel, p.cores, s.p50_us, s.p90_us, s.p99_us, s.p999_us, s.max_us, p.throughput_cps
        );
    }

    let tail = |kernel: &str, c: u16| {
        out.points
            .iter()
            .find(|p| p.kernel == kernel && p.cores == c)
            .map(|p| p.latency.setup.p99_us)
    };
    if let Some(&max_cores) = cores.iter().max() {
        if let (Some(base), Some(fs)) = (
            tail("base-2.6.32", max_cores),
            tail("fastsocket", max_cores),
        ) {
            println!(
                "\np99 setup at {max_cores} cores: base {base:.1}us vs fastsocket {fs:.1}us \
                 ({:.1}x)",
                base / fs.max(f64::EPSILON)
            );
        }
    }
    args.write_json(&out);
}
