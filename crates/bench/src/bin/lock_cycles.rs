//! Regenerates the production profiling claims (§1, §4.2.4): on the
//! 8-core HAProxy boxes, spin locks consume ~9% (TCB) + ~11% (VFS) of
//! cycles before Fastsocket, and no more than 6% after.

use fastsocket::experiments::micro;
use fastsocket_bench::{pct, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(0.25, "lock_cycles", &[]);
    let cores = args
        .cores
        .as_ref()
        .and_then(|c| c.first().copied())
        .unwrap_or(8);
    eprintln!("lock-cycle shares (HAProxy, {cores} cores)...");
    let shares = micro::lock_cycle_shares(cores, args.measure_secs);

    println!("cycle shares on the {cores}-core HAProxy workload");
    println!(
        "{:<14} {:>10} {:>10} {:>12}",
        "kernel", "spin", "vfs", "throughput"
    );
    for s in &shares {
        println!(
            "{:<14} {:>10} {:>10} {:>11.0}cps",
            s.kernel,
            pct(s.spin),
            pct(s.vfs),
            s.cps
        );
    }
    println!(
        "\npaper: base spends 9% (TCB) + 11% (VFS) of cycles in spin locks; \
         with Fastsocket locks consume no more than 6%"
    );
    args.write_json(&shares);
}
