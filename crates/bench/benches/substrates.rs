//! Criterion microbenchmarks of the simulation substrates: these bound
//! how much host time each model costs per simulated event, which is
//! what determines how long the figure-regeneration runs take.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sim_core::cpu::{CostSheet, CycleClass};
use sim_core::{CoreId, Cpu, EventQueue, SimRng};
use sim_mem::{CacheCosts, CacheModel, ObjKind};
use sim_net::{FlowTuple, Packet, TcpFlags};
use sim_nic::{Nic, NicConfig, QueueId, SteeringMode, RSS_TABLE};
use sim_sync::{LockClass, LockCosts, LockTable};
use std::net::Ipv4Addr;
use tcp_stack::established::flow_hash;

fn flow(port: u16) -> FlowTuple {
    FlowTuple::new(
        Ipv4Addr::new(10, 0, 0, 2),
        port,
        Ipv4Addr::new(10, 0, 0, 1),
        80,
    )
}

fn bench_toeplitz(c: &mut Criterion) {
    let f = flow(40_000);
    c.bench_function("toeplitz_hash_flow", |b| {
        b.iter(|| black_box(&RSS_TABLE).hash_flow(black_box(&f)));
    });
    c.bench_function("fnv_flow_hash", |b| b.iter(|| flow_hash(black_box(&f))));
}

fn bench_packet_codec(c: &mut Criterion) {
    let pkt = Packet::new(flow(40_000), TcpFlags::PSH | TcpFlags::ACK)
        .with_seq(1)
        .with_ack(2)
        .with_payload(600);
    c.bench_function("packet_to_wire_600B", |b| b.iter(|| pkt.to_wire()));
    let wire = pkt.to_wire();
    c.bench_function("packet_parse_600B", |b| {
        b.iter(|| Packet::parse(black_box(&wire)).unwrap());
    });
}

fn bench_nic(c: &mut Criterion) {
    let mut nic = Nic::new(NicConfig::new(24, SteeringMode::FdirAtr));
    let pkt = Packet::new(flow(40_001), TcpFlags::SYN);
    c.bench_function("nic_rx_queue_atr", |b| {
        b.iter(|| nic.rx_queue(black_box(&pkt)));
    });
    c.bench_function("nic_tx_atr_observe", |b| {
        b.iter(|| nic.tx(black_box(&pkt), QueueId(3)));
    });
}

fn bench_locks(c: &mut Criterion) {
    let mut t = LockTable::new(LockCosts::default());
    let lock = t.register(LockClass::Slock);
    let mut now = 0u64;
    c.bench_function("lock_acquire_uncontended", |b| {
        b.iter(|| {
            now += 10_000;
            t.set_epoch(now);
            t.acquire(lock, CoreId(0), now, 500)
        });
    });
    let mut t2 = LockTable::new(LockCosts::default());
    let hot = t2.register(LockClass::DcacheLock);
    let mut i = 0u64;
    c.bench_function("lock_acquire_contended_8core", |b| {
        b.iter(|| {
            i += 1;
            t2.set_epoch(i * 100);
            t2.acquire(hot, CoreId((i % 8) as u16), i * 100, 2_000)
        });
    });
}

fn bench_cache(c: &mut Criterion) {
    let mut cache = CacheModel::new(CacheCosts::default());
    let mut rng = SimRng::seed(1);
    let obj = cache.alloc(ObjKind::Tcb, CoreId(0));
    let mut i = 0u16;
    c.bench_function("cache_access_pingpong", |b| {
        b.iter(|| {
            i = (i + 1) % 2;
            cache.access(obj, CoreId(i), &mut rng)
        });
    });
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1_024);
            for i in 0..1_000u64 {
                q.push((i * 7919) % 10_000, i);
            }
            while q.pop().is_some() {}
        });
    });
    let mut cpu = Cpu::new(24);
    let mut sheet = CostSheet::new();
    sheet.add(CycleClass::AppWork, 1_000);
    c.bench_function("cpu_execute", |b| {
        b.iter(|| cpu.execute(CoreId(3), 0, black_box(&sheet)));
    });
}

criterion_group!(
    benches,
    bench_toeplitz,
    bench_packet_codec,
    bench_nic,
    bench_locks,
    bench_cache,
    bench_engine
);
criterion_main!(benches);
