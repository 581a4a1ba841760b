//! Regenerates Figure 3: per-core CPU utilization of two 8-core HAProxy
//! servers over a diurnal day — stock kernel vs Fastsocket — and the
//! derived 53.5% effective-capacity improvement.

use fastsocket::experiments::fig3::{self, PAPER_CAPACITY_IMPROVEMENT};
use fastsocket_bench::{pct, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(0.2, "fig3", &[]);
    let cores = args
        .cores
        .as_ref()
        .and_then(|c| c.first().copied())
        .unwrap_or(8);
    // Peak offered load: the production boxes run below saturation so
    // the hottest core stays under the 75% SLA threshold.
    let peak_cps: f64 = std::env::var("FIG3_PEAK_CPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42_000.0);
    eprintln!(
        "Figure 3: diurnal utilization ({cores}-core HAProxy, peak {peak_cps} cps, {}s windows per hour)...",
        args.measure_secs
    );
    let fig = fig3::run(cores, peak_cps, args.measure_secs);

    println!("Figure 3 — per-core utilization over 24 hours ({cores}-core HAProxy)");
    println!(
        "{:>4} {:>10} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "hour", "offered", "base avg", "min", "max", "fs avg", "min", "max"
    );
    for (b, f) in fig.base.hours.iter().zip(&fig.fastsocket.hours) {
        println!(
            "{:>4} {:>10.0} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
            b.hour,
            b.offered_cps,
            pct(b.avg),
            pct(b.min),
            pct(b.max),
            pct(f.avg),
            pct(f.min),
            pct(f.max),
        );
    }

    let busiest = fig
        .base
        .hours
        .iter()
        .max_by(|a, b| a.avg.total_cmp(&b.avg))
        .unwrap();
    let fs_same = &fig.fastsocket.hours[busiest.hour as usize];
    println!(
        "\nbusiest hour ({}:00): base avg {} spread {}..{}, fastsocket avg {} spread {}..{}",
        busiest.hour,
        pct(busiest.avg),
        pct(busiest.min),
        pct(busiest.max),
        pct(fs_same.avg),
        pct(fs_same.min),
        pct(fs_same.max),
    );
    println!(
        "paper at 18:30: base avg 45.1% spread 31.7%..57.7%, fastsocket avg 34.3% spread 32.7%..37.6%"
    );
    println!(
        "effective capacity improvement: {} (paper: {})",
        pct(fig.capacity_improvement()),
        pct(PAPER_CAPACITY_IMPROVEMENT)
    );
    println!(
        "average-utilization reduction at peak: {} (paper: 31.5% CPU-efficiency gain)",
        pct(fig.avg_utilization_reduction())
    );
    args.write_json(&fig);
}
