//! Regenerates Table 1: lock contention counts (HAProxy, 24 cores,
//! scaled to the paper's 60-second window) as Fastsocket features are
//! enabled incrementally.

use fastsocket::experiments::table1::{self, FeatureStep, PAPER_BASELINE, TABLE1_LOCKS};
use fastsocket_bench::{kcps, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(0.25, "table1", &[]);
    let cores = args
        .cores
        .as_ref()
        .and_then(|c| c.first().copied())
        .unwrap_or(24);
    eprintln!(
        "Table 1: lockstat across feature steps ({cores} cores, {}s windows, scaled to 60s)...",
        args.measure_secs
    );
    let table = table1::run(cores, args.measure_secs);

    println!("Table 1 — lock contention counts (scaled to 60 s), {cores} cores, HAProxy");
    print!("{:<14}", "lock");
    for step in FeatureStep::ALL {
        print!("{:>14}", step.label());
    }
    println!("{:>14}", "paper(Base)");
    for &lock in &TABLE1_LOCKS {
        print!("{lock:<14}");
        for step in FeatureStep::ALL {
            let v = table.get(step.label(), lock).unwrap_or(0);
            print!("{:>14}", humanize(v));
        }
        let paper = PAPER_BASELINE
            .iter()
            .find(|(n, _)| *n == lock)
            .map_or(0, |(_, v)| *v);
        println!("{:>14}", humanize(paper));
    }
    print!("{:<14}", "throughput");
    for col in &table.columns {
        print!("{:>14}", kcps(col.cps));
    }
    println!();

    // The paper's qualitative deltas.
    let final_step = FeatureStep::Vlre.label();
    let zeroed = [
        "dcache_lock",
        "inode_lock",
        "slock",
        "ep.lock",
        "ehash.lock",
    ]
    .iter()
    .all(|l| table.get(final_step, l) == Some(0));
    println!(
        "\nfull Fastsocket zeroes dcache/inode/slock/ep/ehash contention: {} (paper: yes)",
        if zeroed { "yes" } else { "NO" }
    );
    args.write_json(&table);
}

fn humanize(v: u64) -> String {
    if v >= 1_000_000 {
        format!("{:.1}M", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1}K", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}
