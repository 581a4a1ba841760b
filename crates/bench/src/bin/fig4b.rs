//! Regenerates Figure 4(b): HAProxy connections/sec vs CPU cores.

use fastsocket::experiments::fig4::{self, CORE_COUNTS, PAPER_AT_24};
use fastsocket::AppSpec;
use fastsocket_bench::{kcps, HarnessArgs, KERNELS};

fn main() {
    let args = HarnessArgs::parse(0.2, "fig4b", &[]);
    let cores = args.cores.clone().unwrap_or_else(|| CORE_COUNTS.to_vec());
    eprintln!(
        "Figure 4(b): HAProxy throughput sweep (cores {cores:?}, {}s windows)...",
        args.measure_secs
    );
    let fig = fig4::run(AppSpec::proxy(), &cores, args.measure_secs);

    println!("Figure 4(b) — HAProxy connections/sec vs cores");
    print!("{:<14}", "kernel");
    for c in &cores {
        print!("{:>10}", format!("{c} cores"));
    }
    println!();
    for kernel in KERNELS.map(|k| k.label()) {
        print!("{kernel:<14}");
        for &c in &cores {
            let v = fig.at(kernel, c).map_or(0.0, |p| p.cps);
            print!("{:>10}", kcps(v));
        }
        println!();
    }

    println!("\npaper vs measured at 24 cores:");
    for (kernel, _, proxy_paper) in PAPER_AT_24 {
        if let Some(p) = fig.at(kernel, 24) {
            println!(
                "  {kernel:<14} paper {:>8}   measured {:>8}",
                kcps(proxy_paper),
                kcps(p.cps)
            );
        }
    }
    if let (Some(fs), Some(l313), Some(base)) = (
        fig.at("fastsocket", 24),
        fig.at("linux-3.13", 24),
        fig.at("base-2.6.32", 24),
    ) {
        println!(
            "  fastsocket lead at 24 cores: vs 3.13 +{}, vs base +{} \
             (paper: +139K, +370K)",
            kcps(fs.cps - l313.cps),
            kcps(fs.cps - base.cps)
        );
    }
    args.write_json(&fig);
}
