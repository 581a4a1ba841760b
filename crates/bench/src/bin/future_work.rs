//! The paper's §5 future-work candidates, measured: FlexSC-style
//! syscall batching and zero-copy I/O on top of full Fastsocket.
//!
//! "It is possible to implement system call batching in Fastsocket ...
//! integrating system call batching is left as future work. ...
//! Fastsocket can use zero-copy technologies in POSIX OSes."

use fastsocket::{AppSpec, KernelSpec, SimConfig, Simulation};
use fastsocket_bench::{kcps, HarnessArgs};
use tcp_stack::stack::StackConfig;

fn run(batching: bool, zero_copy: bool, cores: u16, measure: f64) -> f64 {
    let mut stack = StackConfig::fastsocket(cores);
    stack.syscall_batching = batching;
    stack.zero_copy = zero_copy;
    let cfg = SimConfig::new(KernelSpec::Custom(Box::new(stack)), AppSpec::web(), cores)
        .warmup_secs(0.1)
        .measure_secs(measure);
    Simulation::new(cfg).run().throughput_cps
}

fn main() {
    let args = HarnessArgs::parse(0.2, "future_work", &[]);
    let cores = args
        .cores
        .as_ref()
        .and_then(|c| c.first().copied())
        .unwrap_or(24);
    println!("Fastsocket web server on {cores} cores, §5 extensions\n");
    let mut rows = Vec::new();
    let base = run(false, false, cores, args.measure_secs);
    for (label, batching, zero_copy) in [
        ("fastsocket", false, false),
        ("+ syscall batching", true, false),
        ("+ zero-copy", false, true),
        ("+ both", true, true),
    ] {
        let cps = if batching || zero_copy {
            run(batching, zero_copy, cores, args.measure_secs)
        } else {
            base
        };
        println!(
            "{:<20} {:>10}  ({:+.1}%)",
            label,
            kcps(cps),
            100.0 * (cps / base - 1.0)
        );
        rows.push((label, cps));
    }
    println!(
        "\nBoth optimizations compose with the partitioned design: they shave \
         per-request\nfixed costs without touching the (already contention-free) \
         shared structures."
    );
    args.write_json(&rows);
}
