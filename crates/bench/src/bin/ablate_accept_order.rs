//! Ablation: why must `accept()` check the *global* queue before the
//! local one (Figure 2, step 7)?
//!
//! With a crashed worker, its core's connections land in the global
//! listen socket's accept queue. On a busy server the local queues are
//! never empty, so a local-first `accept()` would never reach the
//! global queue: the slow-path clients starve until they time out. The
//! paper's global-first ordering serves them immediately.

use fastsocket::{AppSpec, KernelSpec, SimConfig, Simulation};
use fastsocket_bench::HarnessArgs;
use sim_core::CoreId;
use tcp_stack::stack::StackConfig;

fn run(local_first: bool, measure: f64) -> (u64, u64, u64) {
    let mut stack = StackConfig::fastsocket(4);
    stack.accept_local_first = local_first;
    let cfg = SimConfig::new(KernelSpec::Custom(Box::new(stack)), AppSpec::web(), 4)
        .warmup_secs(0.05)
        .measure_secs(measure)
        .concurrency(800);
    let mut sim = Simulation::new(cfg);
    sim.crash_worker(CoreId(1));
    let r = sim.run();
    (r.stack.accepts_global, r.timeouts, r.completed)
}

fn main() {
    let args = HarnessArgs::parse(0.3, "ablate_accept_order", &[]);
    println!("4-core Fastsocket web server, worker on core 1 crashed, saturating load\n");
    println!(
        "{:<22} {:>16} {:>10} {:>12}",
        "accept() ordering", "global accepts", "timeouts", "completed"
    );
    let mut rows = Vec::new();
    for (label, local_first) in [
        ("global-first (paper)", false),
        ("local-first (naive)", true),
    ] {
        let (global, timeouts, completed) = run(local_first, args.measure_secs);
        println!("{label:<22} {global:>16} {timeouts:>10} {completed:>12}");
        rows.push((label, global, timeouts, completed));
    }
    println!(
        "\nIn this closed-loop regime workers drain their local queues to empty \
         on every\nwakeup, so both orderings serve the slow path and throughput \
         matches — i.e. the\npaper's global-first rule costs nothing. Its value \
         is the *guarantee*: under\nsustained overload a local queue may never \
         empty, and only global-first bounds\nthe slow-path wait (the ordering \
         is asserted in tests/stack_lifecycle.rs)."
    );
    args.write_json(&rows);
}
