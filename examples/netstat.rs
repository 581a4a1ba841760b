//! Compatibility demo: the `/proc/net/tcp` view that §3.4's
//! Fastsocket-aware VFS deliberately preserves, so `netstat` and `lsof`
//! keep working.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example netstat
//! ```

use sim_core::{usecs_to_cycles, CoreId, SimRng};
use sim_mem::{CacheCosts, CacheModel};
use sim_net::{FlowTuple, Packet, TcpFlags};
use sim_os::process::Pid;
use sim_os::KernelCtx;
use sim_sync::{LockCosts, LockTable};
use sim_trace::{LatencyReport, Tracer};
use std::net::Ipv4Addr;
use tcp_stack::stack::{OsServices, StackConfig, TcpStack};

fn main() {
    let config = StackConfig::fastsocket(2);
    let mut ctx = KernelCtx::new(
        2,
        LockTable::new(LockCosts::default()),
        CacheModel::new(CacheCosts::default()),
        SimRng::seed(2),
    );
    // Trace everything the stack does below, so the same run also
    // demonstrates the latency histogram and cycle attribution.
    let tracer = Tracer::enabled(2, 4096);
    ctx.set_tracer(tracer.clone());
    let mut os = OsServices::new(&mut ctx, &config);
    let mut stack = TcpStack::new(&mut ctx, config);

    // Listen on :80 with two Fastsocket workers, then establish a few
    // connections in different states.
    let mut op = ctx.begin(CoreId(0), 0);
    stack.listen(&mut ctx, &mut op, 80, 128, CoreId(0));
    for c in 0..2u16 {
        stack.local_listen(&mut ctx, &mut op, 80, 128, Pid(c.into()), CoreId(c));
    }
    op.commit(&mut ctx.cpu);

    for (i, take_to) in [("full", 3), ("handshake", 2), ("syn-only", 1)] {
        let _ = i;
        let flow = FlowTuple::new(
            Ipv4Addr::new(10, 0, 0, 2),
            40_000 + take_to,
            Ipv4Addr::new(10, 0, 0, 1),
            80,
        );
        let mut op = ctx.begin(CoreId(0), 0);
        let out = stack.net_rx(
            &mut ctx,
            &mut os,
            &mut op,
            &Packet::new(flow, TcpFlags::SYN).with_seq(100),
            false,
        );
        if take_to >= 2 {
            let synack = out.replies[0];
            stack.net_rx(
                &mut ctx,
                &mut os,
                &mut op,
                &Packet::new(flow, TcpFlags::ACK)
                    .with_seq(101)
                    .with_ack(synack.seq.wrapping_add(1)),
                false,
            );
        }
        op.commit(&mut ctx.cpu);
    }

    println!("Even under the Fastsocket-aware VFS fast path, /proc keeps working:\n");
    print!("{}", stack.proc_net_tcp());
    println!("\nsummary (ss -s style):");
    for (state, n) in stack.socket_summary() {
        println!("  {state:<12} {n}");
    }

    // The tracer watched every handshake above; print what it measured.
    let per_usec = usecs_to_cycles(1.0) as f64;
    println!("\nconnection-setup latency histogram (SYN -> ESTABLISHED):");
    let buckets = tracer.setup_buckets();
    let peak = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1);
    for (upper_cycles, count) in &buckets {
        let bar = "#".repeat((count * 40 / peak) as usize);
        println!(
            "  <= {:>8.2} us  {count:>4}  {bar}",
            *upper_cycles as f64 / per_usec
        );
    }
    let latency = tracer
        .lifecycle_histograms()
        .and_then(|h| LatencyReport::from_histograms(&h, per_usec));
    if let Some(latency) = latency {
        let s = latency.setup;
        println!(
            "  {} setups: p50 {:.2} us, p99 {:.2} us, max {:.2} us",
            s.count, s.p50_us, s.p99_us, s.max_us
        );
    }
    println!("\ncycle attribution (flamegraph .folded):");
    print!("{}", tracer.folded());
}
