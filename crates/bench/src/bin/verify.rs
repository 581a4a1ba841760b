//! Verification gate: every stock kernel variant must come out of the
//! full three-detector suite — lockset, happens-before vector clocks,
//! and the shard-safety certifier — **clean**, at 1, 8, and 24 cores,
//! with partition invariants promoted to hard failures (no fault
//! schedule is active, so strict mode is armed).
//!
//! Beyond the clean/dirty verdict, the run prints each kernel's
//! cross-core ownership traffic from the shard certifier's report:
//! how many objects of each kind ever changed cores, over how many
//! distinct core-pair edges, and whether every transfer rode a
//! synchronization channel. This is the simulator's analog of the
//! paper's Table 1 story — Fastsocket's partitioned tables shrink
//! cross-core edges to the connection objects that legitimately
//! migrate (RFD handoff), while shared-table kernels bounce table
//! buckets and listen sockets between every pair of cores.
//!
//! Determinism is part of the contract: a doubled same-seed run must
//! reproduce a bit-identical shard report digest per kernel.
//!
//! `verify 0.3 --cores 1,2,4,8,12,16,24` is the full sanitizer sweep:
//! lockdep and the table invariants are counted alongside the three
//! detectors, so every cell must show zero in every column.
//! `tests/check_negative.rs` proves each detector live: every
//! `FaultInjection` knob trips exactly its own.

use fastsocket::{AppSpec, KernelSpec, ShardReport, SimConfig, Simulation};
use fastsocket_bench::{assert_deterministic, HarnessArgs, KERNELS};

fn run(kernel: KernelSpec, cores: u16, measure: f64, seed: u64) -> fastsocket::RunReport {
    let cfg = SimConfig::new(kernel, AppSpec::web(), cores)
        .warmup_secs(0.05)
        .measure_secs(measure)
        .concurrency(u32::from(cores) * 80)
        .seed(seed)
        .check(true);
    Simulation::new(cfg).run()
}

fn shard_report(r: &fastsocket::RunReport) -> &ShardReport {
    r.checks
        .as_ref()
        .and_then(|c| c.shard_report.as_ref())
        .expect("check(true) must produce a shard report")
}

fn main() {
    let args = HarnessArgs::parse(0.25, "verify", &[]);
    let core_counts = args.cores.clone().unwrap_or_else(|| vec![1, 8, 24]);
    let max_cores = *core_counts.iter().max().expect("at least one core count");

    println!("verification gate: hb + lockset + shard + partition (strict), web workload\n");
    println!(
        "{:<14} {:>5} {:>4} {:>6} {:>8} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "kernel",
        "cores",
        "hb",
        "shard",
        "lockdep",
        "lockset",
        "partition",
        "invariant",
        "transfers",
        "verdict"
    );
    let mut failures = 0u32;
    let mut rows = Vec::new();
    let mut edge_tables: Vec<(String, u16, ShardReport)> = Vec::new();
    for kernel in KERNELS {
        for &cores in &core_counts {
            let r = run(kernel.clone(), cores, args.measure_secs, 0xfa57_50c7);
            let checks = r.checks.as_ref().expect("check report");
            let rep = shard_report(&r).clone();
            let clean = checks.is_clean();
            if !clean {
                failures += 1;
                for d in &checks.diagnostics {
                    eprintln!("  {d}");
                }
            }
            println!(
                "{:<14} {:>5} {:>4} {:>6} {:>8} {:>8} {:>10} {:>10} {:>10} {:>8}",
                kernel.label(),
                cores,
                checks.hb,
                checks.shard,
                checks.lockdep,
                checks.lockset,
                checks.partition,
                checks.invariant,
                rep.total_transfers(),
                if clean { "clean" } else { "DIRTY" }
            );
            if cores == max_cores {
                edge_tables.push((kernel.label().to_string(), cores, rep.clone()));
            }
            rows.push((kernel.label().to_string(), cores, checks.clone()));
        }
    }

    println!("\ncross-core ownership traffic at {max_cores} cores (shard certifier):\n");
    for (kernel, cores, rep) in &edge_tables {
        println!("  {kernel} x{cores}:");
        println!(
            "    {:<13} {:>8} {:>10} {:>9} {:>6} {:>10} {:>9}",
            "object kind", "objects", "transfers", "unsynced", "edges", "class", "allowed"
        );
        for k in &rep.kinds {
            println!(
                "    {:<13} {:>8} {:>10} {:>9} {:>6} {:>10} {:>9}",
                k.kind,
                k.objects,
                k.transfers,
                k.unsynced,
                k.edges.len(),
                k.class,
                k.allowed
            );
        }
        println!(
            "    total: {} transfers over {} core-pair edges\n",
            rep.total_transfers(),
            rep.total_edges()
        );
    }

    // Determinism: the same seed must reproduce the exact ownership
    // history, down to every edge and witness site.
    let det_cores = core_counts.iter().copied().find(|&c| c > 1).unwrap_or(1);
    println!("doubled-run determinism at {det_cores} cores:");
    for kernel in KERNELS {
        let a = assert_deterministic(
            format_args!("shard report {} {det_cores}c", kernel.label()),
            || {
                run(
                    kernel.clone(),
                    det_cores,
                    args.measure_secs.min(0.15),
                    0x5eed,
                )
            },
            |r| shard_report(r).digest(),
        );
        println!(
            "  {:<14} digest {}  reproduced",
            kernel.label(),
            shard_report(&a).digest()
        );
    }

    if failures == 0 {
        println!("\nall kernels verified clean at {core_counts:?} cores, digests stable");
    } else {
        println!("\n{failures} FAILURES");
    }
    args.write_json(&rows);
    assert_eq!(failures, 0, "verification gate failed");
}
