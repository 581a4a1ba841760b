//! Layer probes: each times one layer's public entry points from the
//! outside, with tables, queues and contention sized to the workload.
//! They report host nanoseconds per call, so a change to one layer shows
//! in its own probe even when the whole run hides it.

use crate::workloads::Workload;
use sim_core::{CoreId, EventQueue, SimRng};
use sim_mem::{CacheCosts, CacheModel, ObjKind};
use sim_net::{FlowTuple, Packet, TcpFlags};
use sim_nic::{BatchConfig, Nic, NicConfig, SteeringMode};
use sim_os::KernelCtx;
use sim_sync::{LockClass, LockCosts, LockTable};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;
use tcp_stack::costs::StackCosts;
use tcp_stack::established::EstTable;
use tcp_stack::{EstVariant, SockId};

/// Calls each probe makes (divided by ten under `--smoke`).
pub const PROBE_OPS: u64 = 2_000_000;

/// Spread of event times in the queue probe: about four modeled RTTs.
const QUEUE_HORIZON: u64 = 1_080_000;

/// Modeled hold time of one lock acquisition in the lock probe.
const LOCK_HOLD: u64 = 500;

/// The probe names, in the order [`run`] reports them.
pub const NAMES: [&str; 5] = [
    "sim-core.queue_ns_per_op",
    "tcp-stack.est_lookup_ns",
    "sim-sync.acquire_ns",
    "sim-mem.access_ns",
    "sim-nic.rx_ns",
];

/// What the probes copy from a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    cores: u16,
    shared: bool,
    live: u32,
    batch: BatchConfig,
    seed: u64,
}

impl Shape {
    /// The probe shape of `w` under `seed`.
    pub fn of(w: Workload, seed: u64) -> Shape {
        Shape {
            cores: w.cores(),
            shared: w.shared_tables(),
            live: w.clients(),
            batch: w
                .config(seed, false)
                .data_plane
                .map_or_else(BatchConfig::default, |d| d.batch),
            seed,
        }
    }
}

/// Runs probe `index` (of [`NAMES`]) for `ops` calls and returns host
/// nanoseconds per call.
pub fn run(index: usize, s: Shape, ops: u64) -> f64 {
    let start = Instant::now();
    let done = match index {
        0 => queue(s, ops),
        1 => est(s, ops),
        2 => locks(s, ops),
        3 => cache(s, ops),
        4 => nic(s, ops),
        _ => unreachable!("probe index out of range"),
    };
    start.elapsed().as_secs_f64() * 1e9 / done as f64
}

fn flow(i: u32) -> FlowTuple {
    FlowTuple::new(
        Ipv4Addr::new(10, (1 + i / 250) as u8, (i % 250) as u8, 2),
        1_024 + (i % 60_000) as u16,
        Ipv4Addr::new(10, 0, 0, 1),
        80,
    )
}

/// `EventQueue` push and `pop_batch` with a standing backlog of one
/// pending event per client.
fn queue(s: Shape, ops: u64) -> u64 {
    let mut rng = SimRng::seed(s.seed);
    let mut q = EventQueue::with_capacity(s.live as usize);
    for i in 0..s.live {
        q.push(rng.below(QUEUE_HORIZON), i);
    }
    let mut batch = Vec::new();
    let mut done = 0;
    while done < ops {
        let t = q.pop_batch(&mut batch).expect("backlog never drains");
        for e in batch.drain(..) {
            q.push(t + 1 + rng.below(QUEUE_HORIZON), black_box(e));
            done += 2;
        }
    }
    done
}

/// `EstTable` lookups on the home core, with one remove-and-reinsert
/// per four lookups, over one live flow per client.
fn est(s: Shape, ops: u64) -> u64 {
    let cores = usize::from(s.cores);
    let mut ctx = KernelCtx::new(
        cores,
        LockTable::new(LockCosts::default()),
        CacheModel::new(CacheCosts::default()),
        SimRng::seed(s.seed),
    );
    let variant = if s.shared {
        EstVariant::Global
    } else {
        EstVariant::Local
    };
    let costs = StackCosts::default();
    let mut table = EstTable::new(&mut ctx, variant, cores, s.live as usize);
    let home = |i: u32| CoreId((i % u32::from(s.cores)) as u16);
    let mut op = ctx.begin(CoreId(0), 0);
    let mut homes = Vec::with_capacity(s.live as usize);
    for i in 0..s.live {
        homes.push(table.insert(&mut ctx, &mut op, home(i), flow(i), SockId(i), &costs));
    }
    op.commit(&mut ctx.cpu);
    let mut rng = SimRng::seed(s.seed ^ 1);
    let mut done = 0;
    while done < ops {
        // Retire the lock reservations earlier batches made, as the
        // simulation's event clock does.
        let now = ctx.cpu.free_at(CoreId(0));
        ctx.locks.set_epoch(now);
        let mut op = ctx.begin(CoreId(0), now);
        for _ in 0..1_024 {
            let i = rng.below(u64::from(s.live)) as u32;
            let found = table.lookup(&mut ctx, &mut op, home(i), &flow(i), &costs);
            assert_eq!(found, Some(SockId(i)), "est probe lost flow {i}");
            if done % 4 == 0 {
                let f = flow(i);
                table.remove(&mut ctx, &mut op, homes[i as usize], &f, &costs);
                homes[i as usize] = table.insert(&mut ctx, &mut op, home(i), f, SockId(i), &costs);
                done += 2;
            }
            done += 1;
        }
        op.commit(&mut ctx.cpu);
    }
    done
}

/// `LockTable::acquire` from every core at the same instant, round after
/// round: on one shared lock for shared-table kernels (every core but
/// one spins), on per-core locks otherwise (none does). Each round
/// starts once the previous one has released, so the queue stays short.
fn locks(s: Shape, ops: u64) -> u64 {
    let mut t = LockTable::new(LockCosts::default());
    let ids: Vec<_> = if s.shared {
        vec![t.register(LockClass::DcacheLock)]
    } else {
        (0..s.cores)
            .map(|_| t.register(LockClass::LocalEstLock))
            .collect()
    };
    let mut now = 0;
    let mut done = 0;
    while done < ops {
        let mut end = now;
        for core in 0..s.cores {
            let a = t.acquire(
                ids[usize::from(core) % ids.len()],
                CoreId(core),
                now,
                LOCK_HOLD,
            );
            end = end.max(black_box(a).acquired_at + LOCK_HOLD);
        }
        done += u64::from(s.cores);
        now = end + 1;
        t.set_epoch(now);
    }
    done
}

/// `CacheModel::access` over one TCB per client: from the owner core on
/// partitioned kernels, from any core on shared ones.
fn cache(s: Shape, ops: u64) -> u64 {
    let mut model = CacheModel::new(CacheCosts::default());
    let objs: Vec<_> = (0..s.live)
        .map(|i| model.alloc(ObjKind::Tcb, CoreId((i % u32::from(s.cores)) as u16)))
        .collect();
    let mut rng = SimRng::seed(s.seed);
    for _ in 0..ops {
        let obj = objs[rng.below(objs.len() as u64) as usize];
        let core = if s.shared {
            CoreId(rng.below(u64::from(s.cores)) as u16)
        } else {
            model.owner(obj)
        };
        black_box(model.access(obj, core, &mut rng));
    }
    ops
}

/// `Nic::rx_queue` under RSS over one flow per client.
fn nic(s: Shape, ops: u64) -> u64 {
    let mut cfg = NicConfig::new(s.cores, SteeringMode::Rss);
    cfg.batch = s.batch;
    let mut nic = Nic::new(cfg);
    let pkts: Vec<Packet> = (0..s.live)
        .map(|i| Packet::new(flow(i), TcpFlags::ACK))
        .collect();
    for i in 0..ops {
        black_box(nic.rx_queue(&pkts[(i % pkts.len() as u64) as usize]));
    }
    ops
}
