//! Bulk-transfer goodput sweep: the sliding-window data plane under
//! multi-segment responses.
//!
//! The paper's experiments are all short-lived request/response
//! exchanges where connection *setup* dominates. This harness arms the
//! `sim-cc` data plane instead — real sequence/ACK-clocked bulk
//! responses with a pluggable congestion controller and NIC GSO/GRO
//! batch offload — and sweeps kernel × congestion-control algorithm ×
//! response size, reporting goodput in Gbps plus the retransmit
//! breakdown (RTO vs dup-ACK fast retransmit) from `netstat_ext`.
//!
//! The first cell of every (kernel, cc) column runs twice with the same
//! seed and must be bit-identical (`results_digest`), pinning the data
//! plane to the deterministic event path.
//!
//! `--smoke` runs a short 2-core matrix with the sanitizers armed and
//! schema-validates its own emitted `BENCH_bulk.json`; `--validate
//! <path>` schema-checks a committed full-matrix result. Both exit
//! nonzero on any violation — the CI gates wired into
//! `scripts/check.sh`.
//!
//! Full run: `bulk --json results/BENCH_bulk.json > results/bulk.txt`.

use fastsocket::{AppSpec, DataPlaneConfig, KernelSpec, RunReport, SimConfig, Simulation};
use fastsocket_bench::{assert_deterministic, kcps, read_artifact, write_artifact, HarnessArgs};
use serde::{Deserialize, Serialize};
use sim_nic::BatchConfig;
use std::path::{Path, PathBuf};
use tcp_stack::CcAlgo;

const KERNELS: [KernelSpec; 3] = [
    KernelSpec::BaseLinux,
    KernelSpec::Linux313,
    KernelSpec::Fastsocket,
];

/// Response sizes swept per (kernel, cc) column: one-ish window, a
/// 64 KiB page, and a quarter-megabyte object that must ACK-clock
/// through several congestion-window doublings.
const SIZES: [u32; 3] = [16_384, 65_536, 262_144];

/// Window lengths for one run.
#[derive(Debug, Clone, Copy)]
struct Timing {
    warmup: f64,
    measure: f64,
}

impl Timing {
    fn full(measure: f64) -> Timing {
        Timing {
            warmup: 0.02,
            measure,
        }
    }

    fn smoke() -> Timing {
        Timing {
            warmup: 0.01,
            measure: 0.04,
        }
    }
}

/// One (kernel, cc, response-size) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Cell {
    kernel: String,
    cc: String,
    response_bytes: u32,
    goodput_gbps: f64,
    throughput_cps: f64,
    payload_bytes: u64,
    /// RTO-driven retransmits (the pre-existing timer path).
    rto_retransmits: u64,
    /// Dup-ACK fast retransmits (data plane only).
    fast_retransmits: u64,
    ecn_echoes: u64,
    out_of_order_segments: u64,
    results_digest: String,
}

/// The whole emitted artifact (`BENCH_bulk.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BulkBenchReport {
    measure_secs: f64,
    cores: u16,
    seed: u64,
    cells: Vec<Cell>,
}

impl BulkBenchReport {
    fn find(&self, kernel: &str, cc: &str, size: u32) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.kernel == kernel && c.cc == cc && c.response_bytes == size)
    }
}

fn gbps(x: f64) -> String {
    format!("{x:.3}")
}

fn run(
    kernel: KernelSpec,
    cc: CcAlgo,
    size: u32,
    cores: u16,
    t: Timing,
    check: bool,
    seed: u64,
) -> RunReport {
    let cfg = SimConfig::new(kernel, AppSpec::web(), cores)
        .warmup_secs(t.warmup)
        .measure_secs(t.measure)
        .seed(seed)
        .check(check)
        .data_plane(DataPlaneConfig {
            cc,
            response_bytes: size,
            batch: BatchConfig::offload(),
            ..DataPlaneConfig::default()
        });
    Simulation::new(cfg).run()
}

/// Runs one cell; `doubled` repeats it with the same seed and asserts
/// bit-identical results — the data plane must live entirely on the
/// deterministic event path.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    kernel: KernelSpec,
    cc: CcAlgo,
    size: u32,
    cores: u16,
    t: Timing,
    check: bool,
    seed: u64,
    doubled: bool,
) -> Cell {
    let cell = || run(kernel.clone(), cc, size, cores, t, check, seed);
    let r = if doubled {
        assert_deterministic(
            format_args!("bulk {} {} {size}B", kernel.label(), cc.name()),
            cell,
            RunReport::results_digest,
        )
    } else {
        cell()
    };
    if check {
        let checks = r.checks.as_ref().expect("sanitizers were armed");
        assert!(
            checks.is_clean(),
            "sanitizer findings at {} {} {size}B: {checks:?}",
            kernel.label(),
            cc.name()
        );
    }
    let bulk = r.bulk.as_ref().expect("data plane was armed");
    assert_eq!(bulk.cc, cc.name(), "report credits the wrong controller");
    let dp = r.stack.dp.unwrap_or_default();
    Cell {
        kernel: kernel.label().to_string(),
        cc: cc.name().to_string(),
        response_bytes: size,
        goodput_gbps: bulk.goodput_gbps,
        throughput_cps: r.throughput_cps,
        payload_bytes: bulk.payload_bytes,
        rto_retransmits: r.stack.retransmits,
        fast_retransmits: dp.fast_retransmits,
        ecn_echoes: dp.ecn_echoes,
        out_of_order_segments: dp.out_of_order_segments,
        results_digest: r.results_digest(),
    }
}

fn sweep(cores: u16, t: Timing, check: bool, seed: u64) -> BulkBenchReport {
    let mut cells = Vec::new();
    for kernel in KERNELS {
        for cc in CcAlgo::ALL {
            for (i, &size) in SIZES.iter().enumerate() {
                let cell = run_cell(kernel.clone(), cc, size, cores, t, check, seed, i == 0);
                eprintln!(
                    "  {:<12} {:<8} {:>7}B: {:>7} Gbps  {:>6} cps  rto {} fast {} ecn {}",
                    kernel.label(),
                    cc.name(),
                    size,
                    gbps(cell.goodput_gbps),
                    kcps(cell.throughput_cps),
                    cell.rto_retransmits,
                    cell.fast_retransmits,
                    cell.ecn_echoes,
                );
                cells.push(cell);
            }
        }
    }
    BulkBenchReport {
        measure_secs: t.measure,
        cores,
        seed,
        cells,
    }
}

fn print_report(report: &BulkBenchReport) {
    println!(
        "Bulk-transfer goodput (Gbps) at {} cores, {:.2}s windows, GSO/GRO offload on",
        report.cores, report.measure_secs
    );
    for &size in &SIZES {
        println!("\nresponse size {size} bytes:");
        print!("{:<14}", "kernel");
        for cc in CcAlgo::ALL {
            print!("{:>10}", cc.name());
        }
        println!();
        for kernel in KERNELS {
            print!("{:<14}", kernel.label());
            for cc in CcAlgo::ALL {
                let v = report
                    .find(kernel.label(), cc.name(), size)
                    .map_or(0.0, |c| c.goodput_gbps);
                print!("{:>10}", gbps(v));
            }
            println!();
        }
    }
    println!("\nretransmit breakdown (rto / fast / ecn-echoes / out-of-order):");
    for cell in &report.cells {
        println!(
            "  {:<12} {:<8} {:>7}B: {} / {} / {} / {}",
            cell.kernel,
            cell.cc,
            cell.response_bytes,
            cell.rto_retransmits,
            cell.fast_retransmits,
            cell.ecn_echoes,
            cell.out_of_order_segments
        );
    }
}

/// Schema + coverage gate for a full-matrix artifact: all three
/// kernels × all three congestion controllers × at least three
/// response sizes, every cell moving payload.
fn validate_full(path: &Path) {
    let report: BulkBenchReport = read_artifact(path, "bulk");
    let mut sizes: Vec<u32> = report.cells.iter().map(|c| c.response_bytes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    assert!(
        sizes.len() >= 3,
        "{}: only {} response sizes swept (need >= 3)",
        path.display(),
        sizes.len()
    );
    for kernel in KERNELS {
        for cc in CcAlgo::ALL {
            for &size in &sizes {
                let cell = report
                    .find(kernel.label(), cc.name(), size)
                    .unwrap_or_else(|| {
                        panic!(
                            "{}: missing cell {} {} {size}B",
                            path.display(),
                            kernel.label(),
                            cc.name()
                        )
                    });
                assert!(
                    cell.goodput_gbps > 0.0 && cell.payload_bytes > 0,
                    "{}: {} {} {size}B moved no payload",
                    path.display(),
                    kernel.label(),
                    cc.name()
                );
            }
        }
    }
    println!(
        "{}: schema OK, {} cells ({} kernels x {} cc x {} sizes), all moving payload",
        path.display(),
        report.cells.len(),
        KERNELS.len(),
        CcAlgo::ALL.len(),
        sizes.len()
    );
}

/// Short 2-core matrix under full sanitizers; emits its own bench
/// artifact to a scratch path and re-parses it, so the writer and the
/// schema cannot drift apart.
fn smoke() {
    let t = Timing::smoke();
    let report = sweep(2, t, true, 42);
    print_report(&report);
    for cell in &report.cells {
        assert!(
            cell.goodput_gbps > 0.0 && cell.payload_bytes > 0,
            "{} {} {}B moved no payload in smoke",
            cell.kernel,
            cell.cc,
            cell.response_bytes
        );
    }
    // Same seed, same offered work: only the controller differs, and it
    // must leave a distinguishable fingerprint in the results.
    for kernel in KERNELS {
        let digests: Vec<&str> = CcAlgo::ALL
            .iter()
            .map(|cc| {
                report
                    .find(kernel.label(), cc.name(), SIZES[2])
                    .map_or("", |c| c.results_digest.as_str())
            })
            .collect();
        assert!(
            digests[0] != digests[1] && digests[1] != digests[2] && digests[0] != digests[2],
            "{}: congestion controllers produced identical runs: {digests:?}",
            kernel.label()
        );
    }
    let scratch = PathBuf::from("target/bulk-smoke/BENCH_bulk.json");
    write_artifact(&report, &scratch);
    let back: BulkBenchReport = read_artifact(&scratch, "bulk");
    assert_eq!(back.cells.len(), report.cells.len());
    for cell in &report.cells {
        let round = back
            .find(&cell.kernel, &cell.cc, cell.response_bytes)
            .expect("bench artifact round-trip lost a cell");
        assert_eq!(
            round.results_digest, cell.results_digest,
            "bench artifact round-trip drifted"
        );
    }
    println!("\nbulk smoke clean: sanitizers quiet, reruns bit-identical, artifact round-trips.");
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

    let args = HarnessArgs::parse(0.1, "BENCH_bulk");
    let cores = args
        .cores
        .as_ref()
        .and_then(|c| c.first().copied())
        .unwrap_or(8);
    let t = Timing::full(args.measure_secs);
    eprintln!(
        "bulk goodput sweep ({cores} cores, {:.2}s windows)...",
        t.measure
    );
    let report = sweep(cores, t, false, 42);
    print_report(&report);

    args.write_json(&report);
}
