//! Regenerates Figure 5: throughput, L3 cache miss rate (5a) and local
//! packet proportion (5b) for the five NIC delivery configurations.

use fastsocket::experiments::fig5::{self, PAPER};
use fastsocket_bench::{kcps, pct, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(0.25, "fig5", &[]);
    let cores = args
        .cores
        .as_ref()
        .and_then(|c| c.first().copied())
        .unwrap_or(16);
    eprintln!(
        "Figure 5: NIC steering configurations (HAProxy, {cores} cores, {}s windows)...",
        args.measure_secs
    );
    let fig = fig5::run(cores, args.measure_secs);

    println!("Figure 5 — HAProxy on {cores} cores under NIC delivery features");
    println!(
        "{:<18} {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "configuration", "cps", "L3 miss", "local", "paper cps", "paper L3", "paper loc"
    );
    for row in &fig.rows {
        let paper = PAPER.iter().find(|(l, ..)| *l == row.setup);
        let (pc, pm, pl) = paper.map_or((0.0, 0.0, 0.0), |&(_, c, m, l)| (c, m, l));
        println!(
            "{:<18} {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
            row.setup,
            kcps(row.cps),
            pct(row.l3_miss_rate),
            pct(row.local_proportion),
            kcps(pc),
            pct(pm),
            pct(pl),
        );
    }

    // The paper's headline deltas.
    if let (Some(rss), Some(rfd_rss), Some(atr), Some(perfect)) = (
        fig.row("RSS"),
        fig.row("RFD+RSS"),
        fig.row("FDir_ATR"),
        fig.row("RFD+FDir_perfect"),
    ) {
        println!(
            "\nRFD over RSS: {:+.1}% throughput, {:+.1}pp L3 miss (paper: +6.1%, -6pp)",
            100.0 * (rfd_rss.cps / rss.cps - 1.0),
            100.0 * (rfd_rss.l3_miss_rate - rss.l3_miss_rate)
        );
        println!(
            "ATR locality {} (paper 76.5%); RFD+Perfect locality {} (paper 100%)",
            pct(atr.local_proportion),
            pct(perfect.local_proportion)
        );
        println!(
            "RFD+Perfect over ATR: {:+.1}% throughput (paper: +2.4% wrt ATR+RFD base of 293K)",
            100.0 * (perfect.cps / atr.cps - 1.0)
        );
    }
    args.write_json(&fig);
}
