//! Ablation: Flow Director ATR's locality as a function of its
//! signature-table size and sampling rate.
//!
//! The paper measures 76.5% local packets from ATR — a best-effort
//! figure set by hardware limits. This sweep shows the two mechanisms:
//! a small table collides (evicting live flows), and a large sampling
//! period misses short flows whose SYN/FIN installs got overwritten.

use fastsocket::experiments::fig5::NicSetup;
use fastsocket::{AppSpec, KernelSpec, SimConfig, Simulation};
use fastsocket_bench::{pct, HarnessArgs};
use sim_nic::AtrConfig;

fn main() {
    let args = HarnessArgs::parse(0.15, "ablate_atr", &[]);
    let cores = 16;
    println!("ATR locality vs signature-table size (HAProxy, {cores} cores)\n");
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "table slots", "sample rate", "local", "cps"
    );
    let mut rows = Vec::new();
    for slots in [512usize, 2_048, 8_192, 32_768] {
        for sample in [20u32, 200] {
            let mut cfg = SimConfig::new(
                KernelSpec::Custom(Box::new(NicSetup::FdirAtr.kernel(cores))),
                AppSpec::proxy(),
                cores,
            )
            .steering(sim_nic::SteeringMode::FdirAtr)
            .warmup_secs(0.05)
            .measure_secs(args.measure_secs);
            cfg.atr = AtrConfig {
                table_slots: slots,
                sample_rate: sample,
            };
            let r = Simulation::new(cfg).run();
            println!(
                "{:>12} {:>12} {:>12} {:>12.0}",
                slots,
                sample,
                pct(r.local_packet_proportion),
                r.throughput_cps
            );
            rows.push((slots, sample, r.local_packet_proportion, r.throughput_cps));
        }
    }
    println!("\npaper's 82599 measurement: 76.5% local under ATR");
    args.write_json(&rows);
}
