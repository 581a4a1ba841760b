//! Ablation: the three VFS designs at fixed TCP-stack features.
//!
//! Holding the listen/established tables constant (stock global
//! tables), swap only the VFS: 2.6.32's global locks, 3.13-era sharded
//! locks, and the Fastsocket-aware fast path. This isolates how much of
//! the scalability story is VFS alone.

use fastsocket::{AppSpec, KernelSpec, SimConfig, Simulation};
use fastsocket_bench::{kcps, pct, HarnessArgs};
use sim_os::vfs::VfsMode;
use tcp_stack::stack::StackConfig;

fn main() {
    let args = HarnessArgs::parse(0.15, "ablate_vfs", &[]);
    let cores_list = args.cores.clone().unwrap_or_else(|| vec![8, 16, 24]);
    println!("HAProxy throughput with ONLY the VFS swapped (stock TCP tables)\n");
    println!(
        "{:<12} {}",
        "vfs",
        cores_list
            .iter()
            .map(|c| format!("{:>16}", format!("{c} cores (spin)")))
            .collect::<String>()
    );
    let mut rows = Vec::new();
    for (label, mode) in [
        ("legacy", VfsMode::Legacy),
        ("sharded", VfsMode::Sharded),
        ("fastpath", VfsMode::Fastpath),
    ] {
        print!("{label:<12}");
        for &cores in &cores_list {
            let mut stack = StackConfig::base_linux(cores);
            stack.vfs_mode = mode;
            let cfg = SimConfig::new(KernelSpec::Custom(Box::new(stack)), AppSpec::proxy(), cores)
                .warmup_secs(0.05)
                .measure_secs(args.measure_secs);
            let r = Simulation::new(cfg).run();
            print!(
                "{:>16}",
                format!("{} ({})", kcps(r.throughput_cps), pct(r.lock_spin_share()))
            );
            rows.push((label, cores, r.throughput_cps, r.lock_spin_share()));
        }
        println!();
    }
    println!(
        "\nThe fast path removes the VFS wall entirely, but the remaining \
         global listen\nsocket still caps scaling — each partition matters \
         (Table 1's incremental story)."
    );
    args.write_json(&rows);
}
