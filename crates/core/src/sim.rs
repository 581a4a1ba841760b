//! The discrete-event simulation driver.
//!
//! Wires together the kernel context, the TCP stack, the NIC model, the
//! worker processes and the scripted peers, and runs the event loop:
//!
//! ```text
//! client slot ──SYN──▶ wire ──▶ NIC steering ──▶ per-core softirq
//!      ▲                                             │ net_rx (RFD,
//!      │                                             │  demux, TCP)
//!      └── wire ◀── TX path ◀── worker syscalls ◀── epoll wakeups
//! ```
//!
//! Every step is costed on the simulated CPU; locks, cache lines and
//! steering decisions behave per their models, so throughput curves,
//! contention counts and miss rates *emerge* rather than being
//! scripted.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

use sim_apps::peer::{Backend, ClientSlot};
use sim_apps::sys::{Sys, Worker, LISTEN_TOKEN};
use sim_apps::{Proxy, WebServer};
use sim_check::CheckReport;
use sim_check::{Chan, Checker, PartitionPolicy, ShardClass, ShardPolicy};
use sim_core::{
    cycles_to_secs, usecs_to_cycles, CoreId, CycleClass, Cycles, EventQueue, SimRng, TimerKey,
};
use sim_fault::{FaultKind, RobustnessReport, WindowSample};
use sim_load::{ArrivalGen, LoadReport, OpenLoopConfig, ScheduleDigest};
use sim_mem::{CacheCosts, CacheModel, CacheStats};
use sim_net::{FlowTuple, Packet, TcpFlags};
use sim_nic::{LaneRouter, Nic, NicConfig, QueueId};
use sim_os::epoll::EpollId;
use sim_os::process::{Pid, ProcessTable};
use sim_os::softirq::SoftirqQueues;
use sim_os::KernelCtx;
use sim_sync::{ClassStats, LockClass, LockTable};
use sim_trace::{LatencyHistogram, TraceLabel, Tracer};
use tcp_stack::established::flow_hash;
use tcp_stack::stack::{OsServices, TcpStack};
use tcp_stack::StackStats;
use tcp_stack::{EstVariant, ListenVariant, SockId};

use crate::config::{AppSpec, SimConfig};
use crate::report::{EdgeReport, RunReport};

/// The server's IP address.
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// Softirq packet-processing budget per scheduled run (NAPI-style).
const SOFTIRQ_BUDGET: usize = 16;

/// `epoll_wait` maxevents per worker wakeup. Small batches keep each
/// operation's virtual-time span short, which keeps the per-core
/// clocks tightly coupled (necessary for faithful lock contention).
const EPOLL_BATCH: usize = 8;

#[derive(Debug)]
enum Ev {
    /// A packet arrives at the server NIC.
    ToServer(Packet),
    /// A packet arrives at a peer (client slot or backend).
    ToPeer(Packet),
    /// Run the NET_RX softirq on a core.
    Softirq(u16),
    /// Run a worker process.
    ProcWake(u32),
    /// A TIME_WAIT socket expires.
    TwExpire(SockId, u64),
    /// A retransmission timer expires.
    Rto(SockId, u64),
    /// A client slot starts its next connection.
    ClientStart(u32),
    /// A client connection attempt timed out.
    ClientTimeout(u32, u64),
    /// Client-side retransmission check (loss recovery).
    ClientNudge(u32, u64),
    /// A long-lived client releases its held connection (sends FIN).
    ClientRelease(u32, u64),
    /// Inject scheduled fault `i` of the fault schedule.
    Fault(u32),
    /// Heal scheduled fault `i`.
    Heal(u32),
    /// Record one windowed throughput sample (fault schedules only).
    Sample,
    /// Inject one burst of spoofed SYNs for flood fault `i`.
    FloodTick(u32),
    /// An open-loop connection arrival is due (`sim-load` generator).
    Arrival,
    /// Periodic edge-tier maintenance: release due failover retries and
    /// launch active health probes (edge runs only).
    EdgeTick,
}

impl Ev {
    /// Dispatch-mix label for the tracer.
    fn label(&self) -> &'static str {
        match self {
            Ev::ToServer(_) => "to_server",
            Ev::ToPeer(_) => "to_peer",
            Ev::Softirq(_) => "softirq",
            Ev::ProcWake(_) => "proc_wake",
            Ev::TwExpire(..) => "tw_expire",
            Ev::Rto(..) => "rto",
            Ev::ClientStart(_) => "client_start",
            Ev::ClientTimeout(..) => "client_timeout",
            Ev::ClientNudge(..) => "client_nudge",
            Ev::ClientRelease(..) => "client_release",
            Ev::Fault(_) => "fault",
            Ev::Heal(_) => "heal",
            Ev::Sample => "sample",
            Ev::FloodTick(_) => "flood_tick",
            Ev::Arrival => "arrival",
            Ev::EdgeTick => "edge_tick",
        }
    }
}

/// The cancellable timers guarding a client slot's current attempt.
#[derive(Debug, Clone, Copy, Default)]
struct ClientTimers {
    /// The pending `ClientTimeout`.
    timeout: Option<TimerKey>,
    /// The pending `ClientNudge` (lossy runs only).
    nudge: Option<TimerKey>,
}

/// Spacing of spoofed-SYN bursts during a SYN-flood fault.
const FLOOD_TICK_USECS: f64 = 50.0;

/// One arrival the open-loop engine has committed to but not yet
/// admitted (all client slots busy): it waits in the accept backlog of
/// the *population*, not the kernel.
#[derive(Debug, Clone, Copy)]
struct PendingSession {
    /// The cycle the arrival was scheduled for — latency is measured
    /// from here, never from admission (no coordinated omission).
    sched: Cycles,
    /// Number of requests in the session (keep-alive length).
    requests: u32,
    /// Idle hold after the last response before the client FINs
    /// (WebSocket-like long-lived sessions); `0` = close immediately.
    hold: Cycles,
}

/// Open-loop workload state (`SimConfig::open_loop`).
///
/// Arrival times and the long-lived draw come from dedicated forks of
/// one seeded root RNG, so the generated load is a pure function of
/// the seed — event interleaving and the kernel variant cannot perturb
/// it (the schedule digest proves it).
#[derive(Debug)]
struct OpenLoop {
    cfg: OpenLoopConfig,
    gen: ArrivalGen,
    /// Session shapes: whether an arrival joins the long-lived mix.
    shape_rng: SimRng,
    /// Client slots not currently running a session.
    free: Vec<u32>,
    /// Arrivals waiting for a free slot (population exhausted).
    backlog: VecDeque<PendingSession>,
    digest: ScheduleDigest,
    offered: u64,
    admitted: u64,
    queued_admissions: u64,
    abandoned_wait: u64,
    abandoned_connect: u64,
    completed_sessions: u64,
    peak_backlog: u64,
}

/// Cumulative client/stack counters at the last sample boundary.
#[derive(Debug, Clone, Copy, Default)]
struct SampleCursor {
    at: Cycles,
    completed: u64,
    resets: u64,
    timeouts: u64,
    refusals: u64,
}

/// One cross-lane message of the parallel lane-sharded engine: the only
/// traffic that crosses the simulated NIC boundary between lanes. Every
/// variant is timestamped by the *sender* at `emission + rtt/2`, which
/// is what makes the `rtt/2` lookahead horizon conservative.
#[derive(Debug)]
pub enum BoundaryMsg {
    /// A client→server packet bound for another lane's NIC.
    Server {
        /// Arrival cycle at the destination lane.
        at: Cycles,
        /// The packet.
        pkt: Packet,
    },
    /// A server→client packet bound for a client another lane owns.
    Peer {
        /// Arrival cycle at the destination lane.
        at: Cycles,
        /// The packet.
        pkt: Packet,
    },
    /// An open-loop lifecycle pre-mark (`SynArrival` at the scheduled
    /// arrival cycle) for a connection whose server-side state lives on
    /// another lane. Shipped *before* its SYN so the destination
    /// tracer's earliest-mark-wins rule sees the scheduled time first.
    Mark {
        /// Server-orientation flow hash keying the lifecycle tracker.
        conn: u64,
        /// The scheduled arrival cycle.
        ts: Cycles,
    },
}

/// Which lane of the sharded machine this `Simulation` instance is. A
/// plain [`Simulation::new`] is lane 0 of a 1-lane machine.
#[derive(Debug)]
struct LaneEnv {
    /// This lane's index.
    id: u16,
    /// Total lanes in the sharded machine.
    lanes: u16,
    /// Global client-slot count across all lanes (jitter arithmetic
    /// runs on global values, so a lane's slots start when they would
    /// on the whole machine).
    total_slots: u64,
    /// Cross-lane flow dispatcher.
    router: LaneRouter,
    /// Cross-lane messages emitted during the current window.
    outbox: Vec<(u16, BoundaryMsg)>,
    /// Warmup-boundary snapshot (see `Simulation::take_warmup_snapshot`).
    snap: Option<Snapshot>,
    /// Reusable dispatch batch for `lane_pump`.
    batch: Vec<Ev>,
}

impl LaneEnv {
    /// Lane `id` of `lanes` equal core blocks of a `cores`-core machine
    /// serving `total_slots` client slots.
    fn new(id: u16, lanes: u16, cores: u16, total_slots: u32) -> LaneEnv {
        LaneEnv {
            id,
            lanes,
            total_slots: u64::from(total_slots),
            router: LaneRouter::new(cores, lanes),
            outbox: Vec::new(),
            snap: None,
            batch: Vec::new(),
        }
    }

    /// Global id of local client slot `local`: a lane owns the global
    /// ids `≡ id (mod lanes)`, which keeps client IPs machine-unique.
    fn global_slot(&self, local: u32) -> u32 {
        u32::from(self.id) + local * u32::from(self.lanes)
    }

    /// Local index of global client slot `global` — the inverse of
    /// [`global_slot`](Self::global_slot) — or `None` when another lane
    /// owns it.
    fn local_slot(&self, global: u32) -> Option<u32> {
        let lanes = u32::from(self.lanes);
        (global % lanes == u32::from(self.id)).then_some(global / lanes)
    }
}

/// The mergeable measurement a lane hands back when its windowed run
/// finishes — the raw ingredients of [`RunReport`], kept as plain data
/// so it can cross a thread boundary (`Simulation` itself cannot).
pub(crate) struct LaneOutcome {
    /// When this lane's measurement window opened (its warmup snapshot).
    pub(crate) window_start: Cycles,
    pub(crate) completed: u64,
    pub(crate) responses: u64,
    pub(crate) resets: u64,
    pub(crate) timeouts: u64,
    pub(crate) core_utilization: Vec<f64>,
    pub(crate) busy_total: u64,
    pub(crate) class_delta: [u64; CycleClass::COUNT],
    pub(crate) locks: Vec<(LockClass, ClassStats)>,
    pub(crate) cache: CacheStats,
    pub(crate) stack: StackStats,
    pub(crate) hists: Option<[LatencyHistogram; 3]>,
    pub(crate) checks: Option<CheckReport>,
    pub(crate) robustness: Option<RobustnessReport>,
    pub(crate) load: Option<LoadReport>,
    pub(crate) payload_bytes: u64,
    pub(crate) edge: Option<EdgeReport>,
    pub(crate) events: u64,
    pub(crate) live_sockets: u32,
    pub(crate) mem: Option<sim_res::MemReport>,
}

/// One configured simulation, ready to [`run`](Simulation::run).
pub struct Simulation {
    cfg: SimConfig,
    ctx: KernelCtx,
    os: OsServices,
    stack: TcpStack,
    nic: Nic,
    softirq: SoftirqQueues<(Packet, bool)>,
    procs: ProcessTable,
    workers: Vec<Box<dyn Worker>>,
    eps: Vec<EpollId>,
    clients: Vec<ClientSlot>,
    client_attempt: Vec<u64>,
    /// Per-slot idle-hold duration of the session currently running
    /// (long-lived mix); consulted when the hold starts.
    client_hold: Vec<Cycles>,
    /// Per-slot keys of the timers guarding the current attempt,
    /// cancelled once the attempt ends or is superseded. Grown as slots
    /// first arm timers, which keeps it out of `Simulation::new`.
    client_timers: Vec<ClientTimers>,
    backends: Vec<Backend>,
    backend_by_ip: HashMap<Ipv4Addr, usize>,
    events: EventQueue<Ev>,
    /// Earliest time at or after warmup of a cancelled event
    /// (`Cycles::MAX` if none); see `Simulation::take_warmup_snapshot`.
    warmup_ghost: Cycles,
    peer_rng: SimRng,
    now: Cycles,
    timeouts: u64,
    pending_crashes: Vec<CoreId>,
    tracer: Tracer,
    checker: Checker,
    /// Current client-wire loss probability (differs from `cfg.loss`
    /// inside a loss-burst fault window).
    active_loss: f64,
    /// `stalled[c]` holds the heal time while core `c` is serving a
    /// softirq-starvation fault.
    stalled: Vec<Option<Cycles>>,
    /// Whether scheduled fault `i` is currently active.
    fault_active: Vec<bool>,
    /// Monotonic spoofed-SYN counter (distinct flood tuples).
    flood_seq: u32,
    samples: Vec<WindowSample>,
    sample_cursor: SampleCursor,
    /// Open-loop workload engine (`None` = closed loop).
    open: Option<OpenLoop>,
    /// Lane identity within the (possibly 1-lane) sharded machine.
    lane: LaneEnv,
}

/// Client slots [`client_ip`] can address: second octets 1..=255 of
/// 250 third octets each. Past it the second octet wraps, and
/// [`client_slot_of_ip`] no longer inverts the address.
const MAX_CLIENT_SLOTS: u32 = 255 * 250;

fn client_ip(slot: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, (1 + slot / 250) as u8, (slot % 250) as u8, 2)
}

/// The global client slot owning `ip` — the inverse of [`client_ip`].
/// `None` for every non-client address (server, backends, flood
/// spoofing space).
fn client_slot_of_ip(ip: Ipv4Addr) -> Option<u32> {
    let o = ip.octets();
    if o[0] == 10 && o[1] >= 1 && o[2] < 250 && o[3] == 2 {
        Some((u32::from(o[1]) - 1) * 250 + u32::from(o[2]))
    } else {
        None
    }
}

/// Per-kind shard-class bounds the kernel variant under test promises.
///
/// Only the full Fastsocket partition (local listen plus local
/// established plus RFD, no dedicated stack core) makes claims worth
/// certifying: its per-core tables, timer bases, and process zones are
/// supposed to keep connection state core-local, with the accept-path
/// handover and RFD warm-up as the only sanctioned migrations. Tcbs
/// and socket buffers may migrate once (softirq core to accepting
/// core before RFD has learned the flow) but must never ping-pong;
/// per-core infrastructure (listen socks, table buckets, timer bases,
/// fd tables, epoll instances) must stay strictly core-local. Stock
/// kernels share everything by design, so they certify permissively.
fn shard_policy(full_partition: bool) -> ShardPolicy {
    use sim_mem::ObjKind;
    if !full_partition {
        return ShardPolicy::permissive();
    }
    ShardPolicy::permissive()
        .with(ObjKind::Tcb, ShardClass::Migrated)
        .with(ObjKind::SockBuf, ShardClass::Migrated)
        .with(ObjKind::Dentry, ShardClass::Migrated)
        .with(ObjKind::Inode, ShardClass::Migrated)
        .with(ObjKind::ListenSock, ShardClass::CoreLocal)
        .with(ObjKind::TableBucket, ShardClass::CoreLocal)
        .with(ObjKind::Epoll, ShardClass::CoreLocal)
        .with(ObjKind::TimerBase, ShardClass::CoreLocal)
        .with(ObjKind::FdTable, ShardClass::CoreLocal)
}

/// Client slots `cfg` simulates: the open-loop population, or the
/// closed-loop concurrency.
fn client_slots(cfg: &SimConfig) -> u32 {
    cfg.open_loop
        .as_ref()
        .map_or(cfg.workload.concurrency(cfg.cores), |o| o.population)
}

/// Whether the server holds connections open across requests, with the
/// client closing first: every connection of the workload carries more
/// than one request, or the open loop's long-lived sessions do.
fn keep_alive(cfg: &SimConfig) -> bool {
    cfg.workload.requests_per_conn > 1
        || cfg
            .open_loop
            .as_ref()
            .and_then(|o| o.longlived)
            .is_some_and(|m| m.requests > 1)
}

impl Simulation {
    /// Builds the simulated machine, kernel, applications and peers:
    /// lane 0 of a 1-lane machine.
    pub fn new(cfg: SimConfig) -> Self {
        let lane = LaneEnv::new(0, 1, cfg.cores, client_slots(&cfg));
        Self::build(cfg, lane)
    }

    /// Builds lane `lane` of a `lanes`-lane sharded machine: a fully
    /// independent simulation owning `cores/lanes` cores, the client
    /// slots with global ids `≡ lane (mod lanes)`, and (open loop) a
    /// `1/lanes` thinning of the arrival process. All RNG streams are
    /// derived order-independently from `(seed, lane)`, so lanes built
    /// concurrently on different threads draw identical streams.
    pub(crate) fn new_lane(cfg: &SimConfig, lane: u16, lanes: u16) -> Self {
        assert!(lanes >= 2, "use Simulation::new for the 1-lane machine");
        let env = LaneEnv::new(lane, lanes, cfg.cores, client_slots(cfg));
        let mut lane_cfg = cfg.clone();
        lane_cfg.cores = cfg.cores / lanes;
        lane_cfg.open_loop = cfg
            .open_loop
            .as_ref()
            .map(|o| o.split(u32::from(lane), u32::from(lanes)));
        // Each lane polices a 1/lanes share of the machine budget (its
        // cores are a 1/lanes share too); the merged report re-adds the
        // shares.
        lane_cfg.mem = cfg.mem.map(|m| m.split(lanes));
        lane_cfg.par = None;
        Self::build(lane_cfg, env)
    }

    fn build(cfg: SimConfig, lane: LaneEnv) -> Self {
        // Lanes of a split machine derive every RNG stream
        // order-independently from the (seed, lane) pair; the 1-lane
        // machine seeds directly, which keeps its golden digests.
        let (id, split) = (lane.id, lane.lanes > 1);
        let stream = |seed: u64| {
            if split {
                SimRng::stream(seed, u64::from(id))
            } else {
                SimRng::seed(seed)
            }
        };
        let cores = cfg.cores;
        let mut stack_config = cfg.kernel.resolve(cores);
        stack_config.fault = cfg.fault;
        stack_config.tcb_cap = cfg.tcb_cap;
        stack_config.mem = cfg.mem;
        if let Some(on) = cfg.syn_cookies {
            stack_config.syn_cookies = on;
        }
        if let Some(dp) = cfg.data_plane {
            stack_config.cc = Some(dp.cc_config());
        }
        if let Some(e) = &cfg.edge {
            e.validate();
            assert!(
                matches!(cfg.app, AppSpec::Proxy(_)),
                "the edge tier is a proxy feature (SimConfig::edge with AppSpec::proxy)"
            );
            // Failed backends refuse connections with RSTs; the proxy
            // only learns of them if teardown posts an EPOLLERR-style
            // event, so the edge tier requires error events.
            stack_config.err_events = true;
        }
        let tracer = if cfg.trace {
            Tracer::enabled(cores, sim_trace::DEFAULT_RING_CAPACITY)
        } else {
            Tracer::disabled()
        };
        let checker = if cfg.check {
            // Arm the partition lints the kernel variant actually
            // promises. Timer affinity only holds under the full
            // Fastsocket partition (stock kernels legitimately re-arm
            // timers from remote cores); IsoStack's dedicated stack
            // core deliberately splits app and softirq cores.
            let full_partition = stack_config.listen == ListenVariant::Local
                && stack_config.established == EstVariant::Local
                && stack_config.rfd
                && !cfg.dedicated_stack_core;
            // A worker crash migrates its local queues to the global
            // fallback; the surviving workers then legitimately serve,
            // tear down, and re-arm timers for the migrated connections
            // from their own cores, so the est-affinity and
            // timer-affinity lints stand down for crash schedules.
            let crash_faults = cfg.faults.has_worker_crash();
            let checker = Checker::enabled(
                cores,
                PartitionPolicy {
                    local_listen: stack_config.listen == ListenVariant::Local,
                    local_est: stack_config.established == EstVariant::Local && !crash_faults,
                    rfd: stack_config.rfd,
                    timer_affinity: full_partition && !crash_faults,
                },
            );
            // The shard certifier's per-kind bounds hold for undamaged
            // runs only: a fault schedule migrates queues and legally
            // ping-pongs ownership, so it certifies permissively there.
            if cfg.faults.is_empty() {
                checker.set_shard_policy(shard_policy(full_partition));
            }
            // With no scheduled faults and no injection knob armed, a
            // broken table invariant is a bug — fail hard, as the
            // tables did before the fault-injection PR soft-downgraded
            // their assertions.
            checker
                .set_strict(cfg.faults.is_empty() && cfg.fault == tcp_stack::FaultInjection::None);
            checker
        } else {
            Checker::disabled()
        };
        let mut ctx = KernelCtx::new(
            cores as usize,
            LockTable::new(cfg.lock_costs),
            CacheModel::new(CacheCosts::default()),
            stream(cfg.seed),
        );
        ctx.set_tracer(tracer.clone());
        ctx.set_checker(checker.clone());
        let os = OsServices::new(&mut ctx, &stack_config);
        let stack = TcpStack::new(&mut ctx, stack_config);
        let mut nic_config = NicConfig::new(cores, cfg.steering);
        nic_config.atr = cfg.atr;
        nic_config.rfd_shift = stack.config().rfd_shift;
        if let Some(dp) = cfg.data_plane {
            nic_config.batch = dp.batch;
        }
        if cfg.edge.as_ref().is_some_and(|e| e.early_drop) {
            // XDP-style pre-steering drop: the spoofed SYN-flood source
            // space (172.16/12) never overlaps real clients (10/8), so
            // the blacklist is a pure hostile-traffic filter.
            nic_config.early_drop = Some(sim_nic::DropFilter::blacklisting(vec![(
                Ipv4Addr::new(172, 16, 0, 0),
                12,
            )]));
        }
        if cfg.dedicated_stack_core {
            // IsoStack: every RX queue interrupts the dedicated core.
            nic_config.irq_affinity = vec![CoreId(0); cores as usize];
        }
        let nic = Nic::new(nic_config);
        let softirq = SoftirqQueues::new(cores as usize);

        // The open-loop engine, when configured: arrival generator and
        // shape RNG are forks of one root seeded independently of the
        // kernel-side RNG, so the offered load is identical across
        // kernel variants.
        let open = cfg.open_loop.clone().map(|oc| {
            let mut root = stream(cfg.seed ^ 0x6f70_656e_6c6f_6f70); // "openloop"
            let gen = ArrivalGen::new(oc.arrivals.clone(), oc.profile.clone(), root.fork());
            let shape_rng = root.fork();
            let free = (0..oc.population).rev().collect();
            OpenLoop {
                cfg: oc,
                gen,
                shape_rng,
                free,
                backlog: VecDeque::new(),
                digest: ScheduleDigest::new(),
                offered: 0,
                admitted: 0,
                queued_admissions: 0,
                abandoned_wait: 0,
                abandoned_connect: 0,
                completed_sessions: 0,
                peak_backlog: 0,
            }
        });

        // Peers. Open loop sizes the slot pool from the client
        // population; closed loop from the workload concurrency.
        let n_clients = client_slots(&cfg);
        assert!(
            lane.total_slots <= u64::from(MAX_CLIENT_SLOTS),
            "{} client slots exceed the address plan's {MAX_CLIENT_SLOTS}",
            lane.total_slots
        );
        let mut clients = Vec::with_capacity(n_clients as usize);
        for s in 0..n_clients {
            let ip = client_ip(lane.global_slot(s));
            let mut slot = ClientSlot::new(
                ip,
                SERVER_IP,
                cfg.app.port(),
                cfg.workload.request_len,
                cfg.workload.requests_per_conn,
            );
            if let Some(dp) = cfg.data_plane {
                slot = slot.with_bulk(dp.response_bytes);
            }
            clients.push(slot);
        }
        let mut backends = Vec::new();
        let mut backend_by_ip = HashMap::new();
        if let AppSpec::Proxy(p) = &cfg.app {
            // The edge tier supplies its own backend set (the pools'
            // deduplicated union, whose indices are the FaultKind::
            // BackendCrash index space); plain proxies keep theirs.
            let ips: Vec<Ipv4Addr> = match &cfg.edge {
                Some(e) => e.union_backends(),
                None => p.backends.clone(),
            };
            let pooled = cfg.edge.as_ref().is_some_and(|e| e.pooling > 0);
            for (i, &ip) in ips.iter().enumerate() {
                backend_by_ip.insert(ip, i);
                let mut b = Backend::new(ip, p.backend_port, p.response_len);
                if let Some(dp) = cfg.data_plane {
                    b = b.with_bulk(dp.response_bytes, dp.mss);
                }
                if pooled {
                    // Pooled backend connections stay open across
                    // requests: the backend must not FIN after each
                    // response.
                    b = b.with_keep_alive(true);
                }
                backends.push(b);
            }
        }

        let peer_rng = stream(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut events = EventQueue::with_capacity(1 << 16);
        events.set_tracer(tracer.clone(), Ev::label);
        let active_loss = cfg.loss;
        let stalled = vec![None; cores as usize];
        let fault_active = vec![false; cfg.faults.events.len()];
        Simulation {
            cfg,
            ctx,
            os,
            stack,
            nic,
            softirq,
            procs: ProcessTable::new(),
            workers: Vec::new(),
            eps: Vec::new(),
            clients,
            client_attempt: vec![0; n_clients as usize],
            client_hold: vec![0; n_clients as usize],
            client_timers: Vec::new(),
            backends,
            backend_by_ip,
            events,
            warmup_ghost: Cycles::MAX,
            peer_rng,
            now: 0,
            timeouts: 0,
            pending_crashes: Vec::new(),
            tracer,
            checker,
            active_loss,
            stalled,
            fault_active,
            flood_seq: 0,
            samples: Vec::new(),
            sample_cursor: SampleCursor::default(),
            open,
            lane,
        }
    }

    /// A handle to this run's tracer. Clones share state, so the handle
    /// stays valid after [`Simulation::run`] consumes the simulation —
    /// grab it before running, read traces after.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// A handle to this run's sanitizer. Clones share state (same
    /// pattern as [`Simulation::tracer`]): grab it before running, read
    /// the [`sim_check::CheckReport`] after.
    pub fn checker(&self) -> Checker {
        self.checker.clone()
    }

    /// Schedules the worker pinned to `core` to crash at startup (after
    /// listen setup): its process dies and the kernel destroys its
    /// per-process listen socket — the robustness scenario of §2.1 /
    /// Figure 2's slow path.
    pub fn crash_worker(&mut self, core: CoreId) {
        self.pending_crashes.push(core);
    }

    /// Read-only access to the kernel context.
    pub fn ctx(&self) -> &KernelCtx {
        &self.ctx
    }

    fn setup(&mut self) {
        let cores = self.cfg.cores;
        let port = self.cfg.app.port();
        let backlog = self.cfg.backlog;

        // The master process creates the (global) listen socket.
        let mut op = self.ctx.begin(CoreId(0), 0);
        self.stack
            .listen(&mut self.ctx, &mut op, port, backlog, CoreId(0));
        op.commit(&mut self.ctx.cpu);

        // Fork one worker per core, pinned; register listen sockets and
        // epoll interest per the kernel variant. Under the IsoStack
        // architecture core 0 is reserved for the network stack.
        let first_worker_core: u16 = if self.cfg.dedicated_stack_core && cores > 1 {
            1
        } else {
            0
        };
        for c in first_worker_core..cores {
            self.spawn_worker(CoreId(c));
        }

        if let Some(o) = &mut self.open {
            // Open loop: connections start when the arrival process
            // says so, nothing else.
            let first = o.gen.next_arrival();
            self.events.push(first, Ev::Arrival);
        } else {
            // Stagger the client starts over ~2 RTTs to avoid a
            // synthetic SYN burst at t=0. The arithmetic runs on global
            // slot ids over the machine-wide population, so a lane's
            // slots keep the exact offsets they'd have on the whole
            // machine.
            let n = self.lane.total_slots;
            for s in 0..self.clients.len() as u32 {
                let g = self.lane.global_slot(s);
                let jitter = (u64::from(g) * 2 * self.cfg.rtt) / n.max(1);
                self.events.push(jitter, Ev::ClientStart(s));
            }
        }

        // Scheduled faults: injection, healing and the window sampler
        // that feeds the RobustnessReport.
        for (i, ev) in self.cfg.faults.events.iter().enumerate() {
            self.events.push(ev.at, Ev::Fault(i as u32));
            if let Some(h) = ev.heal_at {
                self.events.push(h, Ev::Heal(i as u32));
            }
        }
        if !self.cfg.faults.is_empty() {
            let w = self.sample_window_cycles();
            self.events.push(w, Ev::Sample);
        }

        // Edge maintenance heartbeat: retry release and health probes.
        if let Some(e) = &self.cfg.edge {
            self.events.push(e.probe_interval, Ev::EdgeTick);
        }
    }

    /// Forks a worker pinned to `core` and registers its listen/epoll
    /// interest per the kernel variant. Used at setup and again when a
    /// crashed worker restarts (fault healing).
    fn spawn_worker(&mut self, core: CoreId) {
        let port = self.cfg.app.port();
        let backlog = self.cfg.backlog;
        let variant = self.stack.config().listen;
        let global_ls = self.stack.listen_table_mut().global_of(port);
        let pid = self.procs.spawn(core);
        let ep = self.os.epolls.create(&mut self.ctx, core);
        self.eps.push(ep);
        let mut op = self.ctx.begin(core, self.now);
        match variant {
            ListenVariant::Global => {
                self.stack.watch_listen(
                    &mut self.ctx,
                    &mut self.os,
                    &mut op,
                    global_ls,
                    ep,
                    pid,
                    LISTEN_TOKEN,
                );
            }
            ListenVariant::ReusePort => {
                let copy =
                    self.stack
                        .reuseport_listen(&mut self.ctx, &mut op, port, backlog, pid, core);
                self.stack.watch_listen(
                    &mut self.ctx,
                    &mut self.os,
                    &mut op,
                    copy,
                    ep,
                    pid,
                    LISTEN_TOKEN,
                );
            }
            ListenVariant::Local => {
                let local =
                    self.stack
                        .local_listen(&mut self.ctx, &mut op, port, backlog, pid, core);
                self.stack.watch_listen(
                    &mut self.ctx,
                    &mut self.os,
                    &mut op,
                    local,
                    ep,
                    pid,
                    LISTEN_TOKEN,
                );
                self.stack.watch_listen(
                    &mut self.ctx,
                    &mut self.os,
                    &mut op,
                    global_ls,
                    ep,
                    pid,
                    LISTEN_TOKEN,
                );
            }
        }
        op.commit(&mut self.ctx.cpu);

        // Keep the server's lifecycle consistent with the workload:
        // multi-request connections require the client to close.
        let keep_alive = keep_alive(&self.cfg);
        let worker: Box<dyn Worker> = match &self.cfg.app {
            AppSpec::Web(w) => {
                let mut w = *w;
                w.keep_alive = keep_alive;
                let mut srv = WebServer::new(w);
                if let Some(dp) = self.cfg.data_plane {
                    srv = srv.with_bulk(dp.response_bytes);
                }
                Box::new(srv)
            }
            AppSpec::Proxy(p) => {
                let mut srv = Proxy::new(p.clone())
                    .with_keep_alive(keep_alive)
                    .with_bulk(self.cfg.data_plane.is_some());
                if let Some(e) = &self.cfg.edge {
                    // Per-worker retry-jitter stream, forked from a
                    // dedicated root so edge arming never perturbs the
                    // kernel-side or peer RNG sequences.
                    let rng = SimRng::stream(
                        self.cfg.seed ^ 0x6564_6765_7469_6572, // "edgetier"
                        u64::from(pid.0),
                    );
                    srv = srv.with_edge(e.clone(), rng);
                }
                Box::new(srv)
            }
        };
        self.workers.push(worker);

        // A restarted worker must notice connections that queued up on
        // the global fallback while its predecessor was dead.
        if self.stack.accept_ready(port, core) {
            self.wake(pid, self.now);
        }
    }

    /// Runs the simulation to completion and produces the report: the
    /// 1-lane case of the windowed lane run, with one window.
    pub fn run(mut self) -> RunReport {
        let end = self.cfg.warmup + self.cfg.measure;
        let cfg = self.cfg.clone();
        self.lane_start();
        self.lane_pump(end);
        crate::par::merge_outcomes(&cfg, 1, vec![self.lane_finish(end)], end)
    }

    // ------------------------------------------------------------------
    // Windowed lane execution (one window for `run`, many under
    // `crate::par`)
    // ------------------------------------------------------------------

    /// Runs setup, then kills the workers scheduled to crash at startup
    /// (`crash_worker`).
    pub(crate) fn lane_start(&mut self) {
        self.setup();
        let port = self.cfg.app.port();
        for core in std::mem::take(&mut self.pending_crashes) {
            if let Some(pid) = self.procs.on_core(core) {
                self.procs.kill(pid);
            }
            let orphans = self
                .stack
                .listen_table_mut()
                .destroy_process_socket(port, core);
            debug_assert!(orphans.is_empty(), "no connections exist yet");
        }
    }

    /// Pumps every event strictly before `until`, peek-based so events
    /// at or beyond the window boundary stay queued for later windows.
    /// Every event sharing the earliest timestamp is drained in one pull
    /// (a whole NIC burst, every same-tick softirq); events scheduled
    /// *at* `t` during dispatch carry later sequence numbers, so they
    /// form the next batch — the order is identical to per-event pops.
    pub(crate) fn lane_pump(&mut self, until: Cycles) {
        let mut batch = std::mem::take(&mut self.lane.batch);
        while let Some(t) = self.events.peek_time() {
            if t >= until {
                break;
            }
            let popped = self.events.pop_batch(&mut batch);
            debug_assert_eq!(popped, Some(t));
            self.now = t;
            self.ctx.locks.set_epoch(t);
            self.take_warmup_snapshot(t, until);
            for ev in batch.drain(..) {
                self.dispatch(ev);
            }
        }
        // A cancelled event may have been the window's first at or after
        // warmup.
        self.take_warmup_snapshot(until, until);
        self.lane.batch = batch;
    }

    /// Takes the warmup snapshot, if it falls due before `limit`, as the
    /// clock reaches `t`. It is due at the first event at or after
    /// warmup, counting cancelled events: left queued, they would have
    /// been dispatched as no-ops, so cancelling one never moves the
    /// measurement window.
    fn take_warmup_snapshot(&mut self, t: Cycles, limit: Cycles) {
        let at = t.min(self.warmup_ghost);
        if self.lane.snap.is_none() && at >= self.cfg.warmup && at < limit {
            let snap = self.snapshot(at);
            self.lane.snap = Some(snap);
            // Latency histograms and cycle attribution cover only the
            // measurement window; open spans and in-flight handshakes
            // carry over.
            self.tracer.reset_window();
        }
    }

    /// Withdraws a queued event whose handler would find nothing to do,
    /// remembering one due at or after warmup for the warmup snapshot.
    fn cancel(&mut self, key: TimerKey) {
        if self.events.cancel(key) && key.time() >= self.cfg.warmup {
            self.warmup_ghost = self.warmup_ghost.min(key.time());
        }
    }

    /// Moves this window's cross-lane messages into per-destination
    /// buckets (`buckets[dst]`), preserving emission order.
    pub(crate) fn lane_drain_outbox(&mut self, buckets: &mut [Vec<BoundaryMsg>]) {
        for (dst, msg) in self.lane.outbox.drain(..) {
            buckets[usize::from(dst)].push(msg);
        }
    }

    /// Applies one source lane's window batch. `not_before` is the
    /// window boundary: a valid lookahead horizon guarantees every
    /// timestamp is already at or past it, so the clamp is a no-op —
    /// with a *violated* horizon the clamp deterministically shifts
    /// arrivals, which is exactly how the negative determinism test
    /// observes the violation.
    pub(crate) fn lane_deliver(&mut self, msgs: Vec<BoundaryMsg>, not_before: Cycles) {
        for msg in msgs {
            match msg {
                BoundaryMsg::Server { at, pkt } => {
                    self.events.push(at.max(not_before), Ev::ToServer(pkt));
                }
                BoundaryMsg::Peer { at, pkt } => {
                    self.events.push(at.max(not_before), Ev::ToPeer(pkt));
                }
                BoundaryMsg::Mark { conn, ts } => {
                    self.tracer.mark(ts, 0, conn, TraceLabel::SynArrival);
                }
            }
        }
    }

    /// Finishes a windowed lane run at `end` and reduces it to the
    /// mergeable [`LaneOutcome`]: counters over this lane's measurement
    /// window, which opens at its warmup snapshot.
    pub(crate) fn lane_finish(mut self, end: Cycles) -> LaneOutcome {
        // Conservation audit at drain: whatever sockets remain must
        // account for every modeled byte and bucket still in the
        // ledger (strict runs panic on a mismatch).
        if let Some(detail) = self.stack.mem_imbalance() {
            self.checker.invariant_violation("mem_account", 0, detail);
        }
        let snap = match self.lane.snap.take() {
            Some(s) => s,
            None => self.snapshot(self.now),
        };
        self.tracer.finish(end);
        let window = end.saturating_sub(snap.at).max(1);
        let cores = self.cfg.cores as usize;

        let completed: u64 = self.clients.iter().map(|c| c.completed).sum::<u64>() - snap.completed;
        let responses: u64 = self.clients.iter().map(|c| c.responses).sum::<u64>() - snap.responses;
        let resets: u64 = self.clients.iter().map(|c| c.resets).sum::<u64>() - snap.resets;
        let timeouts = self.timeouts - snap.timeouts;
        let payload_bytes = self.clients.iter().map(|c| c.bytes_received).sum::<u64>() - snap.bytes;

        let mut core_utilization = Vec::with_capacity(cores);
        let mut class_delta = [0u64; CycleClass::COUNT];
        let mut busy_total = 0u64;
        for c in 0..cores {
            let busy = self.ctx.cpu.busy_cycles(CoreId(c as u16)) - snap.busy[c];
            busy_total += busy;
            core_utilization.push((busy as f64 / window as f64).min(1.0));
            for (i, cl) in CycleClass::ALL.iter().enumerate() {
                class_delta[i] +=
                    self.ctx.cpu.class_cycles(CoreId(c as u16), *cl) - snap.class[c][i];
            }
        }

        let robustness = (!self.cfg.faults.is_empty()).then(|| {
            let cycles_per_sec = 1.0 / cycles_to_secs(1);
            RobustnessReport::analyze(
                &self.cfg.faults,
                self.sample_window_cycles(),
                self.samples.clone(),
                cycles_per_sec,
            )
        });

        let load = self.open.as_ref().map(|o| LoadReport {
            offered: o.offered,
            admitted: o.admitted,
            queued_admissions: o.queued_admissions,
            abandoned_wait: o.abandoned_wait,
            abandoned_connect: o.abandoned_connect,
            completed_sessions: o.completed_sessions,
            peak_backlog: o.peak_backlog,
            offered_cps: o.offered as f64 / cycles_to_secs(end),
            schedule_digest: o.digest.hex(),
        });

        let edge = self.cfg.edge.as_ref().map(|_| {
            let mut c = sim_apps::EdgeCounters::default();
            for w in &self.workers {
                if let Some(wc) = w.edge_counters() {
                    c.merge(&wc);
                }
            }
            EdgeReport {
                early_dropped: self.nic.stats().early_dropped,
                probes_sent: c.probes_sent,
                probe_failures: c.probe_failures,
                retried: c.retried,
                failed_over: c.failed_over,
                lost: c.lost,
                readmissions: c.readmissions,
                reused_conns: c.reused_conns,
            }
        });

        LaneOutcome {
            window_start: snap.at,
            completed,
            responses,
            resets,
            timeouts,
            core_utilization,
            busy_total,
            class_delta,
            locks: self.ctx.locks.all_stats().to_vec(),
            cache: self.ctx.cache.stats(),
            stack: self.stack.stats(),
            hists: self.tracer.lifecycle_histograms(),
            checks: self.checker.report(),
            robustness,
            load,
            payload_bytes,
            edge,
            events: self.events.delivered(),
            live_sockets: self.stack.socks.live_count(),
            mem: self.stack.mem_report(),
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::ToServer(pkt) => self.on_to_server(pkt),
            Ev::ToPeer(pkt) => self.on_to_peer(pkt),
            Ev::Softirq(core) => self.on_softirq(core),
            Ev::ProcWake(pid) => self.on_proc_wake(pid),
            Ev::TwExpire(sock, gen) => self.stack.tw_expire(&mut self.ctx, &mut self.os, sock, gen),
            Ev::Rto(sock, gen) => self.on_rto(sock, gen),
            Ev::ClientStart(slot) => self.on_client_start(slot),
            Ev::ClientTimeout(slot, attempt) => self.on_client_timeout(slot, attempt),
            Ev::ClientNudge(slot, attempt) => self.on_client_nudge(slot, attempt),
            Ev::ClientRelease(slot, attempt) => self.on_client_release(slot, attempt),
            Ev::Fault(i) => self.on_fault(i),
            Ev::Heal(i) => self.on_heal(i),
            Ev::Sample => self.on_sample(),
            Ev::FloodTick(i) => self.on_flood_tick(i),
            Ev::Arrival => self.on_arrival(),
            Ev::EdgeTick => self.on_edge_tick(),
        }
    }

    // ------------------------------------------------------------------
    // Open-loop workload
    // ------------------------------------------------------------------

    /// One open-loop arrival: draw the session shape, admit it onto a
    /// free client slot (or queue it against the population), and
    /// schedule the next arrival.
    fn on_arrival(&mut self) {
        let Some(o) = &mut self.open else {
            return;
        };
        let sched = self.now;
        let request_len = self.cfg.workload.request_len;
        let mut requests = self.cfg.workload.requests_per_conn;
        let mut hold = 0;
        if let Some(mix) = o.cfg.longlived {
            // The long-lived draw rides the same shape stream; gated on
            // the option so legacy schedules draw the identical
            // sequence.
            if o.shape_rng.chance(mix.fraction) {
                requests = mix.requests;
                hold = mix.hold;
            }
        }
        o.digest.push(sched);
        o.digest
            .push((u64::from(request_len) << 32) | u64::from(requests));
        if o.cfg.longlived.is_some() {
            o.digest.push(hold);
        }
        o.offered += 1;
        let next = o.gen.next_arrival();
        self.events.push(next, Ev::Arrival);
        let pending = PendingSession {
            sched,
            requests,
            hold,
        };
        if let Some(slot) = o.free.pop() {
            o.admitted += 1;
            self.start_open_session(slot, pending);
        } else {
            o.backlog.push_back(pending);
            o.peak_backlog = o.peak_backlog.max(o.backlog.len() as u64);
        }
    }

    /// Starts one admitted open-loop session on client slot `slot`.
    ///
    /// The lifecycle tracker is pre-marked with `SynArrival` at the
    /// *scheduled* arrival cycle (the tracker keeps the earliest mark
    /// per connection), so setup latency includes any admission queueing
    /// — the open-loop engine cannot commit coordinated omission.
    fn start_open_session(&mut self, slot: u32, p: PendingSession) {
        // A held session must close from the client side regardless of
        // the keep-alive policy: the hold *is* client-owned lingering.
        let client_closes = keep_alive(&self.cfg) || p.hold > 0;
        self.clients[slot as usize].set_session(p.requests, client_closes);
        self.clients[slot as usize].set_hold(p.hold > 0);
        self.client_hold[slot as usize] = p.hold;
        let isn = self.peer_rng.next_u64() as u32;
        let syn = self.clients[slot as usize].start(isn);
        self.client_attempt[slot as usize] += 1;
        let attempt = self.client_attempt[slot as usize];
        // The stack keys lifecycle marks by the server-side flow
        // orientation. When the flow's server-side state lives on
        // another lane, the pre-mark ships with the SYN (mark first, so
        // the destination tracer's earliest-wins rule sees the
        // scheduled time before the stack marks actual arrival).
        let conn = flow_hash(&syn.flow.reversed());
        let at = self.now + self.cfg.rtt / 2;
        let dst = self.lane.router.lane_for_flow(&syn.flow);
        if dst == self.lane.id {
            self.tracer.mark(p.sched, 0, conn, TraceLabel::SynArrival);
            self.events.push(at, Ev::ToServer(syn));
        } else {
            self.lane
                .outbox
                .push((dst, BoundaryMsg::Mark { conn, ts: p.sched }));
            self.lane
                .outbox
                .push((dst, BoundaryMsg::Server { at, pkt: syn }));
        }
        self.arm_client_timers(slot, attempt);
    }

    /// Returns an open-loop client slot to the pool, first serving the
    /// admission backlog: queued arrivals past their patience abandon,
    /// the first still-willing one is admitted with its original
    /// scheduled time (so its measured latency includes the wait).
    fn release_slot(&mut self, slot: u32) {
        let next = {
            let Some(o) = &mut self.open else {
                return;
            };
            loop {
                match o.backlog.pop_front() {
                    Some(p) if self.now.saturating_sub(p.sched) > o.cfg.patience => {
                        o.abandoned_wait += 1;
                    }
                    Some(p) => {
                        o.admitted += 1;
                        o.queued_admissions += 1;
                        break Some(p);
                    }
                    None => {
                        o.free.push(slot);
                        break None;
                    }
                }
            }
        };
        if let Some(p) = next {
            self.start_open_session(slot, p);
        }
    }

    fn on_rto(&mut self, sock: SockId, gen: u64) {
        if let Some(seg) = self.stack.on_rto(&mut self.ctx, &mut self.os, sock, gen) {
            let core = self.stack.socks.get(sock).app_core;
            let q = self.nic.tx_queue_for_core(core);
            self.nic.tx(&seg, q);
            self.send_to_peer(self.now + self.cfg.rtt / 2, seg);
        }
        self.arm_rtos();
        // Retry-abandonment posts error events from timer context (no
        // softirq wakeup list to ride); deliver the wakeups here.
        for pid in self.stack.take_err_wakeups() {
            self.wake(pid, self.now);
        }
    }

    fn arm_rtos(&mut self) {
        // Expiries still queued for freed sockets would find no socket
        // (or a reincarnation of its slot with another generation).
        for key in self.stack.socks.take_dead_rto_keys() {
            self.cancel(key);
        }
        // Each arm carries its own delay: retransmission timers back
        // off exponentially with the attempt count.
        for (sock, gen, delay) in self.stack.take_rto_arms() {
            let key = self.events.push(self.now + delay, Ev::Rto(sock, gen));
            if !self.stack.socks.track_rto(sock, gen, key, self.now) {
                self.cancel(key);
            }
        }
    }

    /// Whether a packet crosses the lossy client wire (backends live on
    /// a lossless LAN). A lane applies loss at the *receiving* lane, so
    /// it classifies by the global client-IP pattern, not by the
    /// clients it hosts.
    fn on_client_wire(&self, pkt: &Packet) -> bool {
        client_slot_of_ip(pkt.flow.dst_ip).is_some() || client_slot_of_ip(pkt.flow.src_ip).is_some()
    }

    /// Dispatches a client-side packet toward the server NIC. The
    /// router decides which lane's NIC receives the flow; cross-lane
    /// packets go to the outbox for delivery at the next sync window.
    /// Backend LAN traffic is always lane-local (each lane owns backend
    /// replicas).
    fn send_to_server(&mut self, at: Cycles, pkt: Packet) {
        if client_slot_of_ip(pkt.flow.src_ip).is_some() {
            let dst = self.lane.router.lane_for_flow(&pkt.flow);
            if dst != self.lane.id {
                self.lane
                    .outbox
                    .push((dst, BoundaryMsg::Server { at, pkt }));
                return;
            }
        }
        self.events.push(at, Ev::ToServer(pkt));
    }

    /// Dispatches a server-side packet toward a peer: cross-lane when
    /// the destination client's global slot belongs to another lane.
    fn send_to_peer(&mut self, at: Cycles, pkt: Packet) {
        if let Some(slot) = client_slot_of_ip(pkt.flow.dst_ip) {
            let owner = (slot % u32::from(self.lane.lanes)) as u16;
            if owner != self.lane.id {
                self.lane
                    .outbox
                    .push((owner, BoundaryMsg::Peer { at, pkt }));
                return;
            }
        }
        self.events.push(at, Ev::ToPeer(pkt));
    }

    fn on_to_server(&mut self, pkt: Packet) {
        if self.active_loss > 0.0
            && self.on_client_wire(&pkt)
            && self.peer_rng.chance(self.active_loss)
        {
            return; // lost on the wire
        }
        // XDP-style pre-steering stage: blacklisted flows are discarded
        // in the driver before RSS/FDir, the softirq queues, and any
        // listen lock can see them.
        if self.nic.early_drop(&pkt) {
            return;
        }
        let core = self.nic.rx_core(&pkt);
        if self.softirq.push(core.index(), (pkt, false)) {
            self.events.push(self.now, Ev::Softirq(core.0));
        }
    }

    /// The heal time of a core-stall fault covering `core` right now.
    fn stalled_until(&self, core: CoreId) -> Option<Cycles> {
        self.stalled[core.index()].filter(|&t| t > self.now)
    }

    fn on_softirq(&mut self, core: u16) {
        if let Some(t) = self.stalled_until(CoreId(core)) {
            // Softirq starvation: the pending work sits in the per-core
            // backlog until the stall heals.
            self.events.push(t, Ev::Softirq(core));
            return;
        }
        let batch = self.softirq.drain(core as usize, SOFTIRQ_BUDGET);
        if batch.is_empty() {
            return;
        }
        let mut op = self.ctx.begin(CoreId(core), self.now);
        op.trace_enter(TraceLabel::Softirq);
        let mut tx: Vec<Packet> = Vec::new();
        let mut wakes: Vec<Pid> = Vec::new();
        let tw = self.stack.config().time_wait;
        for (pkt, steered) in batch {
            if steered {
                // The dequeue half of a cross-core softirq handoff:
                // order this core after whoever steered the packet.
                self.checker.hb_join(core, Chan::Softirq(core));
            }
            op.trace_enter(TraceLabel::NetRx);
            let out = self
                .stack
                .net_rx(&mut self.ctx, &mut self.os, &mut op, &pkt, steered);
            op.trace_exit(TraceLabel::NetRx);
            if let Some(target) = out.steer {
                // The enqueue half: published at the boundary below so
                // it carries the epoch stamping this packet's writes.
                self.checker.hb_publish(core, Chan::Softirq(target.0));
            }
            op.check_boundary();
            if let Some(target) = out.steer {
                if self.softirq.push(target.index(), (pkt, true)) {
                    self.events.push(op.now(), Ev::Softirq(target.0));
                }
                continue;
            }
            tx.extend(out.replies);
            wakes.extend(out.wakeups);
            for s in out.time_wait {
                let gen = self.stack.sock_gen(s);
                self.events.push(op.now() + tw, Ev::TwExpire(s, gen));
            }
        }
        op.trace_exit(TraceLabel::Softirq);
        let span = op.commit(&mut self.ctx.cpu);
        self.transmit(CoreId(core), tx, span.end);
        self.arm_rtos();
        for pid in wakes {
            self.wake(pid, span.end);
        }
        if self.softirq.pending(core as usize) > 0 && self.softirq.re_raise(core as usize) {
            self.events.push(span.end, Ev::Softirq(core));
        }
    }

    fn on_proc_wake(&mut self, pid_idx: u32) {
        let pid = Pid(pid_idx);
        if let Some(t) = self.stalled_until(self.procs.get(pid).core) {
            // Leave wake_pending set: the deferred event below is the
            // wakeup, so no new ones should be queued meanwhile.
            self.events.push(t, Ev::ProcWake(pid_idx));
            return;
        }
        self.procs.get_mut(pid).wake_pending = false;
        if !self.procs.get(pid).alive {
            return;
        }
        let core = self.procs.get(pid).core;
        let ep = self.eps[pid_idx as usize];
        let mut op = self.ctx.begin(core, self.now);
        op.trace_enter(TraceLabel::ProcWake);
        let mut events = Vec::new();
        op.trace_enter(TraceLabel::SysEpollWait);
        self.os
            .epolls
            .wait(&mut self.ctx, &mut op, ep, EPOLL_BATCH, &mut events);
        op.trace_exit(TraceLabel::SysEpollWait);
        op.check_boundary();
        let mut tx: Vec<Packet> = Vec::new();
        if !events.is_empty() {
            let mut sys = Sys {
                ctx: &mut self.ctx,
                os: &mut self.os,
                stack: &mut self.stack,
                op: &mut op,
                core,
                pid,
                ep,
                local_ip: SERVER_IP,
                tx: &mut tx,
            };
            self.workers[pid_idx as usize].on_events(&mut sys, &events);
        }
        op.trace_exit(TraceLabel::ProcWake);
        let span = op.commit(&mut self.ctx.cpu);
        self.transmit(core, tx, span.end);
        self.arm_rtos();
        if self.os.epolls.pending(ep) > 0 {
            self.wake(pid, span.end);
        }
    }

    /// One edge-tier maintenance tick: every live proxy worker releases
    /// its due failover retries and launches health probes toward
    /// backends without one in flight. Runs as a costed operation on
    /// the worker's own core (probes are syscalls the worker issues).
    fn on_edge_tick(&mut self) {
        let Some(interval) = self.cfg.edge.as_ref().map(|e| e.probe_interval) else {
            return;
        };
        for i in 0..self.workers.len() {
            let pid = Pid(i as u32);
            if !self.procs.get(pid).alive {
                continue;
            }
            let core = self.procs.get(pid).core;
            if self.stalled_until(core).is_some() {
                // A stalled core skips this tick; the next heartbeat
                // retries after the stall heals.
                continue;
            }
            let ep = self.eps[i];
            let mut op = self.ctx.begin(core, self.now);
            op.trace_enter(TraceLabel::ProcWake);
            let mut tx: Vec<Packet> = Vec::new();
            {
                let mut sys = Sys {
                    ctx: &mut self.ctx,
                    os: &mut self.os,
                    stack: &mut self.stack,
                    op: &mut op,
                    core,
                    pid,
                    ep,
                    local_ip: SERVER_IP,
                    tx: &mut tx,
                };
                self.workers[i].on_tick(&mut sys);
            }
            op.trace_exit(TraceLabel::ProcWake);
            let span = op.commit(&mut self.ctx.cpu);
            self.transmit(core, tx, span.end);
            self.arm_rtos();
            if self.os.epolls.pending(ep) > 0 {
                self.wake(pid, span.end);
            }
        }
        self.events.push(self.now + interval, Ev::EdgeTick);
    }

    fn transmit(&mut self, core: CoreId, mut tx: Vec<Packet>, at: Cycles) {
        let half_rtt = self.cfg.rtt / 2;
        let q = self.nic.tx_queue_for_core(core);
        // Burst transmit: the NIC's ECN queue-threshold model marks
        // data segments deep in the burst with CE. With batch offload
        // disabled this is exactly the old per-packet tx loop.
        self.nic.tx_burst(&mut tx, q);
        for pkt in tx {
            self.send_to_peer(at + half_rtt, pkt);
        }
    }

    fn wake(&mut self, pid: Pid, at: Cycles) {
        let p = self.procs.get_mut(pid);
        if p.alive && !p.wake_pending {
            p.wake_pending = true;
            self.events.push(at, Ev::ProcWake(pid.0));
        }
    }

    fn on_to_peer(&mut self, pkt: Packet) {
        if self.active_loss > 0.0
            && self.on_client_wire(&pkt)
            && self.peer_rng.chance(self.active_loss)
        {
            return; // lost on the wire
        }
        let dst = pkt.flow.dst_ip;
        let half_rtt = self.cfg.rtt / 2;
        let mut out = Vec::new();
        if let Some(&b) = self.backend_by_ip.get(&dst) {
            let isn = self.peer_rng.next_u64() as u32;
            self.backends[b].on_packet(&pkt, isn, &mut out);
            for r in out {
                self.send_to_server(self.now + half_rtt, r);
            }
            return;
        }
        let Some(slot) = client_slot_of_ip(dst)
            .and_then(|g| self.lane.local_slot(g))
            .filter(|&s| (s as usize) < self.clients.len())
        else {
            return; // stray packet to a non-existent peer
        };
        let client = &mut self.clients[slot as usize];
        // Ignore packets for a previous (timed-out) attempt.
        if client.idle() || client.flow().src_port != pkt.flow.dst_port {
            return;
        }
        let done = client.on_packet(&pkt, &mut out);
        for r in out {
            self.send_to_server(self.now + half_rtt, r);
        }
        if self.clients[slot as usize].take_hold_started() {
            // The slot parked instead of closing: invalidate and cancel
            // the pending connect-timeout/nudge (the hold may far exceed
            // them) and schedule the FIN for the end of the hold.
            self.client_attempt[slot as usize] += 1;
            self.cancel_client_timers(slot);
            let attempt = self.client_attempt[slot as usize];
            self.events.push(
                self.now + self.client_hold[slot as usize],
                Ev::ClientRelease(slot, attempt),
            );
        }
        if done {
            self.cancel_client_timers(slot);
            if self.open.is_some() {
                if let Some(o) = &mut self.open {
                    o.completed_sessions += 1;
                }
                self.release_slot(slot);
            } else {
                self.events
                    .push(self.now + self.cfg.think_time, Ev::ClientStart(slot));
            }
        }
    }

    fn on_client_start(&mut self, slot: u32) {
        if !self.clients[slot as usize].idle() {
            return;
        }
        let isn = self.peer_rng.next_u64() as u32;
        let syn = self.clients[slot as usize].start(isn);
        self.client_attempt[slot as usize] += 1;
        let attempt = self.client_attempt[slot as usize];
        self.send_to_server(self.now + self.cfg.rtt / 2, syn);
        self.arm_client_timers(slot, attempt);
    }

    /// Arms the timers guarding `slot`'s new attempt: the connect
    /// timeout, plus the loss-recovery nudge when packets can be lost.
    /// Whatever the previous attempt left queued is cancelled first.
    fn arm_client_timers(&mut self, slot: u32, attempt: u64) {
        self.cancel_client_timers(slot);
        let mut timers = ClientTimers {
            timeout: Some(self.events.push(
                self.now + self.cfg.client_timeout,
                Ev::ClientTimeout(slot, attempt),
            )),
            nudge: None,
        };
        if self.cfg.loss > 0.0 || self.cfg.faults.has_loss_burst() {
            timers.nudge = Some(self.events.push(
                self.now + self.nudge_interval(),
                Ev::ClientNudge(slot, attempt),
            ));
        }
        let i = slot as usize;
        if self.client_timers.len() <= i {
            self.client_timers.resize(i + 1, ClientTimers::default());
        }
        self.client_timers[i] = timers;
    }

    /// Cancels the timers guarding `slot`'s attempt once it completes,
    /// parks in a hold or is superseded: their handlers' attempt checks
    /// would discard them anyway.
    fn cancel_client_timers(&mut self, slot: u32) {
        let Some(timers) = self
            .client_timers
            .get_mut(slot as usize)
            .map(std::mem::take)
        else {
            return;
        };
        for key in [timers.timeout, timers.nudge].into_iter().flatten() {
            self.cancel(key);
        }
    }

    fn nudge_interval(&self) -> Cycles {
        // A bit above the server's RTO: let the server recover first.
        self.stack.config().rto * 4
    }

    fn on_client_nudge(&mut self, slot: u32, attempt: u64) {
        if self.client_attempt[slot as usize] != attempt || self.clients[slot as usize].idle() {
            return;
        }
        let mut out = Vec::new();
        self.clients[slot as usize].nudge(&mut out);
        for pkt in out {
            self.send_to_server(self.now + self.cfg.rtt / 2, pkt);
        }
        self.client_timers[slot as usize].nudge = Some(self.events.push(
            self.now + self.nudge_interval(),
            Ev::ClientNudge(slot, attempt),
        ));
    }

    /// The idle hold of a long-lived session ends: the client sends its
    /// FIN and the normal close handshake (with a fresh timeout guard)
    /// takes over.
    fn on_client_release(&mut self, slot: u32, attempt: u64) {
        if self.client_attempt[slot as usize] != attempt {
            return;
        }
        let mut out = Vec::new();
        if self.clients[slot as usize].release_hold(&mut out) {
            for pkt in out {
                self.send_to_server(self.now + self.cfg.rtt / 2, pkt);
            }
            self.client_timers[slot as usize].timeout = Some(self.events.push(
                self.now + self.cfg.client_timeout,
                Ev::ClientTimeout(slot, attempt),
            ));
        }
    }

    fn on_client_timeout(&mut self, slot: u32, attempt: u64) {
        if self.client_attempt[slot as usize] != attempt {
            return;
        }
        if let Some(rst) = self.clients[slot as usize].abort() {
            self.timeouts += 1;
            self.send_to_server(self.now + self.cfg.rtt / 2, rst);
            if self.open.is_some() {
                // Open loop: the human behind the connection gives up;
                // the slot turns to whatever arrival is waiting.
                if let Some(o) = &mut self.open {
                    o.abandoned_connect += 1;
                }
                self.release_slot(slot);
            } else {
                self.events.push(self.now, Ev::ClientStart(slot));
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Length of one throughput-sampling window.
    fn sample_window_cycles(&self) -> Cycles {
        if self.cfg.faults.sample_window > 0 {
            self.cfg.faults.sample_window
        } else {
            // Default: 20 windows across the measured interval.
            (self.cfg.measure / 20).max(1)
        }
    }

    fn on_fault(&mut self, idx: u32) {
        let ev = self.cfg.faults.events[idx as usize];
        self.fault_active[idx as usize] = true;
        match ev.kind {
            FaultKind::WorkerCrash { core } => {
                let core = CoreId(core);
                let port = self.cfg.app.port();
                if let Some(pid) = self.procs.on_core(core) {
                    self.procs.kill(pid);
                    let mut op = self.ctx.begin(core, self.now);
                    let out = self.stack.on_worker_crash(
                        &mut self.ctx,
                        &mut self.os,
                        &mut op,
                        port,
                        core,
                        pid,
                    );
                    let span = op.commit(&mut self.ctx.cpu);
                    self.transmit(core, out.replies, span.end);
                    for pid in out.wakeups {
                        self.wake(pid, span.end);
                    }
                }
            }
            FaultKind::QueueFailure { queue } => self.nic.fail_queue(QueueId(queue)),
            FaultKind::CoreStall { core } => {
                let until = ev.heal_at.unwrap_or(self.cfg.warmup + self.cfg.measure);
                self.stalled[core as usize] = Some(until);
            }
            FaultKind::LossBurst { loss } => self.active_loss = loss,
            FaultKind::SynFlood { .. } => {
                self.events.push(self.now, Ev::FloodTick(idx));
            }
            FaultKind::BackendCrash { backend } => {
                if let Some(b) = self.backends.get_mut(usize::from(backend)) {
                    b.crash();
                }
            }
        }
    }

    fn on_heal(&mut self, idx: u32) {
        let ev = self.cfg.faults.events[idx as usize];
        self.fault_active[idx as usize] = false;
        match ev.kind {
            FaultKind::WorkerCrash { core } => self.spawn_worker(CoreId(core)),
            FaultKind::QueueFailure { queue } => self.nic.heal_queue(QueueId(queue)),
            FaultKind::CoreStall { core } => self.stalled[core as usize] = None,
            FaultKind::LossBurst { .. } => self.active_loss = self.cfg.loss,
            FaultKind::SynFlood { .. } => {}
            FaultKind::BackendCrash { backend } => {
                if let Some(b) = self.backends.get_mut(usize::from(backend)) {
                    b.heal();
                }
            }
        }
    }

    /// One burst of spoofed SYNs from addresses no client owns, so the
    /// handshakes never complete — the classic SYN-flood shape.
    fn on_flood_tick(&mut self, idx: u32) {
        if !self.fault_active[idx as usize] {
            return;
        }
        let FaultKind::SynFlood { syns_per_tick } = self.cfg.faults.events[idx as usize].kind
        else {
            return;
        };
        let port = self.cfg.app.port();
        for _ in 0..syns_per_tick {
            let n = self.flood_seq;
            self.flood_seq = self.flood_seq.wrapping_add(1);
            // 172.16/12 space: never a client IP, so replies (SYN-ACKs,
            // cookies) vanish on the wire and loss doesn't apply.
            let ip = Ipv4Addr::new(
                172,
                16 + ((n >> 14) & 0x0f) as u8,
                ((n >> 8) & 0x3f) as u8,
                (n & 0xff) as u8,
            );
            let src_port = 1024 + (n % 60_000) as u16;
            let flow = FlowTuple::new(ip, src_port, SERVER_IP, port);
            let isn = self.peer_rng.next_u64() as u32;
            let syn = Packet::new(flow, TcpFlags::SYN).with_seq(isn);
            self.events.push(self.now, Ev::ToServer(syn));
        }
        self.events.push(
            self.now + usecs_to_cycles(FLOOD_TICK_USECS),
            Ev::FloodTick(idx),
        );
    }

    fn on_sample(&mut self) {
        let completed: u64 = self.clients.iter().map(|c| c.completed).sum();
        let resets: u64 = self.clients.iter().map(|c| c.resets).sum();
        let timeouts = self.timeouts;
        let s = self.stack.stats();
        // Server-side refusals: SYNs answered with RST or dropped for
        // backlog/memory pressure. Stack stats reset at the warmup
        // boundary, so a window spanning it falls back to the absolute
        // value (`checked_sub`).
        let refusals = s.syn_refusals + s.syn_drops + s.mem_pressure_drops;
        let prev = self.sample_cursor;
        self.samples.push(WindowSample {
            start: prev.at,
            end: self.now,
            completed: completed - prev.completed,
            resets: resets - prev.resets,
            timeouts: timeouts - prev.timeouts,
            refusals: refusals.checked_sub(prev.refusals).unwrap_or(refusals),
        });
        self.sample_cursor = SampleCursor {
            at: self.now,
            completed,
            resets,
            timeouts,
            refusals,
        };
        self.events
            .push(self.now + self.sample_window_cycles(), Ev::Sample);
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    fn snapshot(&mut self, at: Cycles) -> Snapshot {
        self.ctx.locks.reset_stats();
        self.ctx.cache.reset_stats();
        self.stack.reset_stats();
        let cores = self.cfg.cores as usize;
        let mut class = vec![[0u64; CycleClass::COUNT]; cores];
        let mut busy = vec![0u64; cores];
        for c in 0..cores {
            busy[c] = self.ctx.cpu.busy_cycles(CoreId(c as u16));
            for (i, cl) in CycleClass::ALL.iter().enumerate() {
                class[c][i] = self.ctx.cpu.class_cycles(CoreId(c as u16), *cl);
            }
        }
        Snapshot {
            at,
            busy,
            class,
            completed: self.clients.iter().map(|c| c.completed).sum(),
            responses: self.clients.iter().map(|c| c.responses).sum(),
            resets: self.clients.iter().map(|c| c.resets).sum(),
            timeouts: self.timeouts,
            bytes: self.clients.iter().map(|c| c.bytes_received).sum(),
        }
    }
}

#[derive(Debug)]
struct Snapshot {
    at: Cycles,
    busy: Vec<Cycles>,
    class: Vec<[Cycles; CycleClass::COUNT]>,
    completed: u64,
    responses: u64,
    resets: u64,
    timeouts: u64,
    bytes: u64,
}
