//! Related-work baseline (§5, IsoStack): dedicate one core to the whole
//! network stack and run applications on the rest.
//!
//! "when adopting IsoStack in 10G and even 40G network, the dedicated
//! single CPU core will be overloaded, especially in the CPU-intensive
//! short-lived connection scenarios. Fastsocket shows that full
//! partition of TCB management is a more efficient and feasible
//! alternative."

use fastsocket::{AppSpec, KernelSpec, SimConfig, Simulation};
use fastsocket_bench::{kcps, pct, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(0.2, "isostack", &[]);
    let cores_list = args.cores.clone().unwrap_or_else(|| vec![4, 8, 16, 24]);
    println!("web server throughput: IsoStack (dedicated stack core) vs Fastsocket\n");
    println!(
        "{:<12} {:>12} {:>16} {:>12}",
        "cores", "isostack", "stack-core util", "fastsocket"
    );
    let mut rows = Vec::new();
    for &cores in &cores_list {
        let iso = {
            let mut cfg = SimConfig::new(KernelSpec::BaseLinux, AppSpec::web(), cores)
                .warmup_secs(0.1)
                .measure_secs(args.measure_secs);
            cfg.dedicated_stack_core = true;
            Simulation::new(cfg).run()
        };
        let fs = {
            let cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), cores)
                .warmup_secs(0.1)
                .measure_secs(args.measure_secs);
            Simulation::new(cfg).run()
        };
        println!(
            "{:<12} {:>12} {:>16} {:>12}",
            cores,
            kcps(iso.throughput_cps),
            pct(iso.core_utilization[0]),
            kcps(fs.throughput_cps),
        );
        rows.push((
            cores,
            iso.throughput_cps,
            iso.core_utilization[0],
            fs.throughput_cps,
        ));
    }
    println!(
        "\nThe dedicated stack core saturates (util → 100%) and throughput \
         flatlines no\nmatter how many application cores are added; the \
         partitioned design keeps\nscaling — the paper's §5 argument."
    );
    args.write_json(&rows);
}
