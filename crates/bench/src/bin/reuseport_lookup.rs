//! Regenerates the §2.1 in-text claim: with `SO_REUSEPORT`,
//! `inet_lookup_listener` costs 0.26% of CPU cycles on one core but
//! soars to 24.2% per core at 24 cores (the O(n) bucket walk over
//! per-process listen socket copies).

use fastsocket::experiments::micro;
use fastsocket_bench::{pct, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(0.2, "reuseport_lookup", &[]);
    let cores = args
        .cores
        .clone()
        .unwrap_or_else(|| vec![1, 4, 8, 12, 16, 20, 24]);
    eprintln!("SO_REUSEPORT listener-lookup cost sweep (cores {cores:?})...");
    let points = micro::reuseport_lookup_share(&cores, args.measure_secs);

    println!("inet_lookup_listener cycle share under SO_REUSEPORT (nginx workload)");
    println!("{:>6} {:>12} {:>14}", "cores", "share", "entries/walk");
    for p in &points {
        println!("{:>6} {:>12} {:>14.1}", p.cores, pct(p.share), p.avg_walk);
    }
    println!("\npaper: 0.26% at 1 core, 24.2% per core at 24 cores");
    args.write_json(&points);
}
