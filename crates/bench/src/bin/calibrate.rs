//! Calibration sweep: prints cps and diagnostic metrics across kernels
//! and core counts so the cost model can be tuned against the paper's
//! absolute numbers (Figure 4).
//!
//! Usage: `calibrate [app] [measure_secs]` where app = web | proxy.

use fastsocket::{AppSpec, SimConfig, Simulation};
use fastsocket_bench::KERNELS;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app_name = args.get(1).map_or("web", String::as_str);
    let measure: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let cores_list: Vec<u16> = args.get(3).map_or_else(
        || vec![1, 4, 8, 12, 16, 20, 24],
        |s| s.split(',').map(|x| x.parse().unwrap()).collect(),
    );

    println!(
        "{:<12} {:>5} {:>10} {:>7} {:>7} {:>7} {:>8} {:>8} {:>7} {:>7} {:>7}",
        "kernel",
        "cores",
        "cps",
        "spin%",
        "vfs%",
        "llkup%",
        "miss%",
        "local%",
        "util",
        "rst",
        "tmo"
    );
    for kernel in KERNELS {
        for &cores in &cores_list {
            let app = match app_name {
                "proxy" => AppSpec::proxy(),
                _ => AppSpec::web(),
            };
            let cfg = SimConfig::new(kernel.clone(), app, cores)
                .warmup_secs(0.1)
                .measure_secs(measure);
            let r = Simulation::new(cfg).run();
            println!(
                "{:<12} {:>5} {:>10.0} {:>6.1}% {:>6.1}% {:>6.1}% {:>7.1}% {:>7.1}% {:>6.2} {:>7} {:>7}",
                r.kernel,
                cores,
                r.throughput_cps,
                100.0 * r.lock_spin_share(),
                100.0 * r.cycle_share(sim_core::CycleClass::Vfs),
                100.0 * r.cycle_share(sim_core::CycleClass::ListenLookup),
                100.0 * r.l3_miss_rate,
                100.0 * r.local_packet_proportion,
                r.avg_utilization(),
                r.resets,
                r.timeouts,
            );
            if std::env::var("CAL_LOCKS").is_ok() {
                for l in &r.locks {
                    if l.acquisitions > 0 {
                        println!(
                            "    {:<14} acq={:<10} cont={:<10} wait_mcyc={:<9.1} reserved_mcyc={:.1}",
                            l.name,
                            l.acquisitions,
                            l.contentions,
                            l.wait_cycles as f64 / 1e6,
                            l.reserved_cycles as f64 / 1e6
                        );
                    }
                }
            }
        }
    }
}
