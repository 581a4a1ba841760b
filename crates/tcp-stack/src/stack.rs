//! The composed TCP stack: NET_RX receive path and socket syscalls.
//!
//! [`TcpStack`] glues the listen table, established table, Receive Flow
//! Deliver, and port allocator into the two halves the paper analyses:
//!
//! * **softirq half** — [`TcpStack::net_rx`]: RFD classification and
//!   steering, demultiplexing, handshake processing, data delivery,
//!   teardown; runs on whatever core the NIC (or RFD) delivered the
//!   packet to;
//! * **process half** — [`TcpStack::accept`], [`TcpStack::connect`],
//!   [`TcpStack::send`], [`TcpStack::recv`], [`TcpStack::close`]: runs
//!   on the core the application is pinned to.
//!
//! Under the full Fastsocket configuration both halves of any connection
//! execute on one core (the Per-Core Process Zone), which is precisely
//! why every shared-lock contention count in Table 1 drops to zero.

use sim_check::PartitionLint;
use sim_core::{CoreId, CycleClass, Cycles};
use sim_net::{FlowTuple, Packet, TcpFlags};
use sim_os::epoll::{EpollEvent, EpollId, EpollSystem};
use sim_os::process::Pid;
use sim_os::timer::{TimerCosts, TimerSystem};
use sim_os::vfs::{Vfs, VfsCosts, VfsMode};
use sim_os::{KernelCtx, Op};
use sim_res::{MemCharge, PressureLevel};

use sim_trace::TraceLabel;

use crate::cc::{AckCtx, CcConfig};
use crate::costs::StackCosts;
use crate::established::{flow_hash, EstTable, EstVariant};
use crate::listen::{ListenTable, ListenVariant, LsId};
use crate::ports::{PortAlloc, PortAllocVariant};
use crate::rfd::{ClassifiedBy, PacketClass, Rfd};
use crate::state::{self, TcpState};
use crate::stats::StackStats;
use crate::tcb::{SockId, SockTable};
use crate::window::{seq_gt, AckKind, DataPlane, DUP_ACK_THRESHOLD};

/// Seeded fault-injection knobs that break one kernel invariant on
/// purpose, so the `sim-check` sanitizers can be shown to catch real
/// bugs (each knob maps to exactly one detector — see the negative
/// system tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultInjection {
    /// No fault: the stock kernel.
    #[default]
    None,
    /// Softirq segment processing skips the socket `slock`, racing the
    /// syscall half on the TCB and socket buffer (lockset detector).
    SkipSlock,
    /// Softirq takes `base.lock` before the socket `slock`, inverting
    /// the RTO re-arm order `slock -> base.lock` (lockdep detector).
    ReverseLockOrder,
    /// RFD steers active-incoming packets to the wrong core (partition
    /// detector: `rfd_delivery`).
    MisSteer,
    /// `accept()` pops from the next core's local listen table
    /// (partition detector: `local_listen`).
    CrossCoreAccept,
    /// Established-segment timer maintenance re-arms on the next core's
    /// timer base (partition detector: `timer_base`).
    CrossCoreTimer,
    /// A fresh socket buffer is written on one remote core and then on
    /// another with no connecting synchronization channel (happens-
    /// before detector). Invisible to the lockset detector: the first
    /// write is exclusive, and the second holds a real lock so its
    /// candidate set never empties.
    SilentHandoff,
    /// A remote core briefly takes ownership of an established
    /// connection's socket buffer *under its socket lock*, so the
    /// owning core's next write bounces ownership straight back (shard
    /// certifier: `sock_buf` exceeds its migrated-once bound). The
    /// lock makes every write both lockset-clean and happens-before
    /// ordered, so no other detector fires.
    OwnerPingPong,
}

/// Full configuration of the simulated kernel's TCP stack.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Number of CPU cores.
    pub cores: u16,
    /// Listen-table design.
    pub listen: ListenVariant,
    /// Established-table design.
    pub established: EstVariant,
    /// Whether Receive Flow Deliver software steering is active.
    pub rfd: bool,
    /// Bit offset of RFD's core field within the source port (§3.3's
    /// security hardening; 0 = the plain low-bits mapping).
    pub rfd_shift: u8,
    /// VFS flavour (used when building [`OsServices`]).
    pub vfs_mode: VfsMode,
    /// Ephemeral-port allocator design.
    pub port_alloc: PortAllocVariant,
    /// Cycle costs.
    pub costs: StackCosts,
    /// TIME_WAIT duration before recycling (the production systems the
    /// paper targets run with TIME_WAIT recycling enabled).
    pub time_wait: Cycles,
    /// ABLATION ONLY: check the local listen table before the global
    /// socket in `accept()`. The paper argues this starves slow-path
    /// connections on a busy server (§3.2.1); keep `false`.
    pub accept_local_first: bool,
    /// Answer SYNs with stateless SYN cookies when the backlog is full
    /// (the security requirement of §1: SYN floods must not break
    /// service). Linux enables this by default.
    pub syn_cookies: bool,
    /// §5 future work: FlexSC-style syscall batching — user↔kernel
    /// transition cost is paid once per worker wakeup instead of per
    /// syscall.
    pub syscall_batching: bool,
    /// §5 future work: zero-copy send/receive — payload copy costs
    /// vanish (page remapping / copy-on-write).
    pub zero_copy: bool,
    /// Retransmission timeout, in cycles (compressed relative to
    /// Linux's 200 ms minimum to keep simulated runs short; the
    /// *mechanism* — timer-driven recovery of lost segments — is what
    /// matters). Doubles per retry up to [`MAX_RTO_BACKOFF_SHIFT`]
    /// doublings, as Linux's exponential backoff does.
    pub rto: Cycles,
    /// Post an epoll error event (readable, like `EPOLLERR`) to the
    /// owning process when an established or connecting socket is torn
    /// down by a peer RST or by retransmission abandonment. Off by
    /// default — the edge tier arms it so the proxy observes backend
    /// death instead of leaking the relay; the stock request/response
    /// benchmarks keep the historical silent-teardown behaviour (and
    /// their pinned digests).
    pub err_events: bool,
    /// Memory-pressure cap on live TCBs (Linux's `tcp_max_orphans` /
    /// `tcp_mem` analogue): when the socket slab holds this many live
    /// sockets, new embryo allocations are refused (admission-control
    /// drop, counted in `mem_pressure_drops`). `None` = uncapped.
    pub tcb_cap: Option<u32>,
    /// Deliberately broken invariant for sanitizer validation; keep
    /// [`FaultInjection::None`] for any measurement run.
    pub fault: FaultInjection,
    /// Sliding-window data plane: when set, every established
    /// connection gets send/receive windows and the configured
    /// congestion controller, enabling [`TcpStack::send_bulk`]
    /// multi-segment streaming. `None` keeps the single-packet
    /// request/response model byte-identical to the pre-data-plane
    /// stack.
    pub cc: Option<CcConfig>,
    /// Memory-accounting subsystem (`sim-res`): when set, every TCB,
    /// buffer byte, and TIME_WAIT/orphan bucket is charged to a
    /// per-core ledger with `tcp_mem`-style low/pressure/high
    /// thresholds, and the pressure reactions (SYN drops, embryo
    /// pruning, window clamping, receive-queue collapse, forced
    /// TIME_WAIT recycle, orphan killing) arm. `None` keeps the stack
    /// byte-identical to the unaccounted model.
    pub mem: Option<sim_res::MemConfig>,
}

impl StackConfig {
    /// The stock Linux 2.6.32 kernel: global listen socket, global
    /// established table, legacy VFS, global port allocator, no RFD.
    pub fn base_linux(cores: u16) -> Self {
        StackConfig {
            cores,
            listen: ListenVariant::Global,
            established: EstVariant::Global,
            rfd: false,
            rfd_shift: 0,
            vfs_mode: VfsMode::Legacy,
            port_alloc: PortAllocVariant::Global,
            costs: StackCosts::default(),
            time_wait: 2_700_000, // 1 ms at 2.7 GHz (recycled)
            accept_local_first: false,
            syn_cookies: true,
            syscall_batching: false,
            zero_copy: false,
            rto: 13_500_000, // 5 ms at 2.7 GHz
            err_events: false,
            tcb_cap: None,
            fault: FaultInjection::None,
            cc: None,
            mem: None,
        }
    }

    /// Linux 3.13: `SO_REUSEPORT` listen copies and finer-grained VFS
    /// locking; everything else as the base kernel.
    pub fn linux_313(cores: u16) -> Self {
        StackConfig {
            listen: ListenVariant::ReusePort,
            vfs_mode: VfsMode::Sharded,
            ..Self::base_linux(cores)
        }
    }

    /// Full Fastsocket: Local Listen Table, Local Established Table,
    /// Receive Flow Deliver, Fastsocket-aware VFS, per-core ports.
    pub fn fastsocket(cores: u16) -> Self {
        StackConfig {
            listen: ListenVariant::Local,
            established: EstVariant::Local,
            rfd: true,
            vfs_mode: VfsMode::Fastpath,
            port_alloc: PortAllocVariant::PerCore,
            ..Self::base_linux(cores)
        }
    }

    /// Pre-size hint for the established tables: the TCB cap when one
    /// is configured, else a 4Ki default. The tables grow past the
    /// hint as needed — pre-sizing only keeps a million-entry climb
    /// from rehashing mid-run.
    pub fn est_capacity(&self) -> usize {
        self.tcb_cap.map_or(4_096, |c| c as usize)
    }
}

/// The OS services the TCP stack drives (VFS, epoll, timers), built to
/// match a [`StackConfig`].
#[derive(Debug)]
pub struct OsServices {
    /// The VFS model.
    pub vfs: Vfs,
    /// All epoll instances.
    pub epolls: EpollSystem,
    /// Per-core timer bases.
    pub timers: TimerSystem,
}

impl OsServices {
    /// Builds the services for `config` in `ctx`.
    pub fn new(ctx: &mut KernelCtx, config: &StackConfig) -> Self {
        let mut ep_costs = sim_os::epoll::EpollCosts::default();
        if let Some(m) = &config.mem {
            // Million-connection realism: with the memory subsystem on,
            // `epoll_wait` pays a ready-list/interest-tree scan cost
            // that grows with the *modeled* watched-fd count (simulated
            // interest x the accounting scale). Zero (legacy-exact)
            // otherwise.
            ep_costs.wait_scan_per_1k = EPOLL_SCAN_PER_1K_WATCHED;
            ep_costs.watched_scale = m.scale.max(1);
        }
        OsServices {
            vfs: Vfs::new(ctx, config.vfs_mode, VfsCosts::default()),
            epolls: EpollSystem::new(ep_costs),
            timers: TimerSystem::new(ctx, config.cores as usize, TimerCosts::default()),
        }
    }
}

/// Where an accepted connection came from (Figure 2's fast vs slow
/// path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptSource {
    /// The core's local listen table (fast path) — or the only listen
    /// socket in non-Fastsocket kernels.
    Local,
    /// The global listen socket (Fastsocket slow path).
    Global,
}

/// Result of processing one received packet.
#[derive(Debug, Default)]
pub struct RxOutcome {
    /// RFD decided the packet belongs to another core: the driver must
    /// re-enqueue it there. Nothing else was done.
    pub steer: Option<CoreId>,
    /// Segments to transmit in response.
    pub replies: Vec<Packet>,
    /// Processes whose epoll gained its first ready event.
    pub wakeups: Vec<Pid>,
    /// Sockets that just entered TIME_WAIT (driver schedules expiry).
    pub time_wait: Vec<SockId>,
    /// Sockets that reached CLOSED and were freed.
    pub closed: Vec<SockId>,
}

/// RTO firings tolerated per segment before the connection is aborted
/// (Linux's `tcp_retries2`-style bound).
pub const MAX_RTX_ATTEMPTS: u8 = 8;

/// Maximum doublings of the base RTO under exponential backoff (the
/// retry timeout is capped at `rto << MAX_RTO_BACKOFF_SHIFT`, mirroring
/// Linux's `TCP_RTO_MAX` clamp).
pub const MAX_RTO_BACKOFF_SHIFT: u8 = 6;

/// `epoll_wait` scan cycles per 1024 *modeled* watched fds, armed by
/// [`OsServices::new`] when `StackConfig::mem` is set (~0.02 cycles of
/// interest-tree cache pressure per watched descriptor — ≈7 µs per
/// wait at 1M watched fds on the 2.7 GHz model).
pub const EPOLL_SCAN_PER_1K_WATCHED: u64 = 18;

/// The simulated kernel TCP stack.
#[derive(Debug)]
pub struct TcpStack {
    config: StackConfig,
    rfd_engine: Rfd,
    /// All sockets.
    pub socks: SockTable,
    listen_table: ListenTable,
    est: EstTable,
    ports: PortAlloc,
    stats: StackStats,
    cookie_secret: u64,
    pending_rto: Vec<(SockId, u64, Cycles)>,
    /// Processes woken by an error event posted outside softirq context
    /// (RTO abandonment has no [`RxOutcome`] to carry the wakeup); the
    /// driver drains these via [`TcpStack::take_err_wakeups`].
    pending_err_wakeups: Vec<Pid>,
    /// One-shot latch for the [`FaultInjection::SilentHandoff`] and
    /// [`FaultInjection::OwnerPingPong`] knobs.
    fault_fired: bool,
    /// Victim `(socket, generation)` armed for `OwnerPingPong`: the
    /// knob fires while a *different* connection is being processed so
    /// the victim has no writes pending in the current op segment.
    fault_victim: Option<(SockId, u64)>,
    /// The memory-accounting ledger (`StackConfig::mem`); `None` keeps
    /// every charge site a no-op.
    mem: Option<sim_res::MemAccounts>,
}

impl TcpStack {
    /// Builds the stack for `config`, registering tables in `ctx`.
    pub fn new(ctx: &mut KernelCtx, config: StackConfig) -> Self {
        let rfd_engine = Rfd::with_shift(config.cores, config.rfd_shift);
        let listen_table = ListenTable::new(config.listen, config.cores as usize);
        let est = EstTable::new(
            ctx,
            config.established,
            config.cores as usize,
            config.est_capacity(),
        );
        let ports = PortAlloc::with_rfd(ctx, config.port_alloc, config.cores, rfd_engine);
        let mem = config
            .mem
            .map(|m| sim_res::MemAccounts::new(m, config.cores as usize));
        TcpStack {
            config,
            rfd_engine,
            socks: SockTable::new(),
            listen_table,
            est,
            ports,
            stats: StackStats::default(),
            cookie_secret: ctx.rng.next_u64(),
            pending_rto: Vec::new(),
            pending_err_wakeups: Vec::new(),
            fault_fired: false,
            fault_victim: None,
            mem,
        }
    }

    /// Drains the `(socket, generation, delay)` triples whose
    /// retransmission timer must be (re)armed `delay` cycles from now
    /// (`config.rto`, exponentially backed off per retry). The driver
    /// schedules the expirations and calls [`TcpStack::on_rto`]; it
    /// hands each expiry's event key to [`SockTable::track_rto`] and
    /// cancels the keys [`SockTable::take_dead_rto_keys`] returns.
    pub fn take_rto_arms(&mut self) -> Vec<(SockId, u64, Cycles)> {
        std::mem::take(&mut self.pending_rto)
    }

    /// Drains the processes that gained their first ready event from an
    /// error notification posted outside softirq context (currently:
    /// retransmission abandonment with `err_events` armed). The driver
    /// schedules a process wakeup for each.
    pub fn take_err_wakeups(&mut self) -> Vec<Pid> {
        std::mem::take(&mut self.pending_err_wakeups)
    }

    // ------------------------------------------------------------------
    // Memory accounting (sim-res)
    // ------------------------------------------------------------------
    //
    // Every charge site below is a no-op when `StackConfig::mem` is
    // unset: no counters move, no RNG is drawn, no costs are paid, so
    // the unaccounted stack stays byte-identical (pinned digests).

    /// Records a pressure-zone transition reported by a charge.
    fn mem_note(&mut self, transition: Option<PressureLevel>) {
        if let Some(level) = transition {
            self.stats.mem_mut().on_transition(level);
        }
    }

    /// Whether the ledger sits at or past `level` (false when
    /// accounting is off).
    fn mem_at_least(&self, level: PressureLevel) -> bool {
        self.mem.as_ref().is_some_and(|m| m.level() >= level)
    }

    /// Charges a new embryonic connection and tags the TCB.
    fn mem_charge_embryo(&mut self, sock: SockId) {
        if self.mem.is_none() {
            return;
        }
        let core = {
            let t = self.socks.get_mut(sock);
            t.mem_charge = MemCharge::Embryo;
            t.mem_core
        };
        let tr = self
            .mem
            .as_mut()
            .expect("accounting armed")
            .charge_embryo(core);
        self.mem_note(tr);
    }

    /// Charges a full TCB for a connection that never held an embryo
    /// charge (active `connect`, cookie-validated handshake).
    fn mem_charge_tcb(&mut self, sock: SockId) {
        if self.mem.is_none() {
            return;
        }
        let core = {
            let t = self.socks.get_mut(sock);
            t.mem_charge = MemCharge::Tcb;
            t.mem_core
        };
        let tr = self
            .mem
            .as_mut()
            .expect("accounting armed")
            .charge_tcb(core);
        self.mem_note(tr);
    }

    /// Converts `sock`'s embryo charge into a full TCB charge
    /// (handshake completion).
    fn mem_promote(&mut self, sock: SockId) {
        if self.mem.is_none() {
            return;
        }
        let core = {
            let t = self.socks.get_mut(sock);
            debug_assert_eq!(t.mem_charge, MemCharge::Embryo, "promote without embryo");
            t.mem_charge = MemCharge::Tcb;
            t.mem_core
        };
        let tr = self.mem.as_mut().expect("accounting armed").promote(core);
        self.mem_note(tr);
    }

    /// Converts `sock`'s TCB charge into a TIME_WAIT bucket.
    fn mem_enter_tw(&mut self, sock: SockId) {
        if self.mem.is_none() {
            return;
        }
        let core = {
            let t = self.socks.get_mut(sock);
            debug_assert_eq!(t.mem_charge, MemCharge::Tcb, "TIME_WAIT without TCB");
            t.mem_charge = MemCharge::TimeWait;
            t.mem_core
        };
        let tr = self
            .mem
            .as_mut()
            .expect("accounting armed")
            .enter_time_wait(core);
        self.mem_note(tr);
    }

    /// Charges delivered payload (plus skb overhead) to the receive
    /// account; under pressure the queue is collapsed on the spot —
    /// the overhead slack is reclaimed (`tcp_collapse`), the data kept.
    fn mem_charge_recv(&mut self, sock: SockId, bytes: u16) {
        if bytes == 0 || self.mem.is_none() {
            return;
        }
        let charged = u64::from(bytes) + sim_res::SKB_OVERHEAD_BYTES;
        let core = {
            let t = self.socks.get_mut(sock);
            t.mem_rcv += charged as u32;
            t.mem_core
        };
        let tr = self
            .mem
            .as_mut()
            .expect("accounting armed")
            .charge_recv_buf(core, charged);
        self.mem_note(tr);
        if self.mem_at_least(PressureLevel::Pressure) {
            let slack = {
                let t = self.socks.get_mut(sock);
                let slack = t.mem_rcv.saturating_sub(t.rx_ready);
                t.mem_rcv = t.rx_ready;
                slack
            };
            if slack > 0 {
                let tr = self
                    .mem
                    .as_mut()
                    .expect("accounting armed")
                    .uncharge_recv_buf(core, u64::from(slack));
                self.mem_note(tr);
                let ms = self.stats.mem_mut();
                ms.buffer_reclaims += 1;
                ms.bytes_reclaimed += u64::from(slack);
            }
        }
    }

    /// Uncharges the socket's whole receive charge (the application
    /// read everything that was queued).
    fn mem_drain_recv(&mut self, sock: SockId) {
        if self.mem.is_none() {
            return;
        }
        let (core, charged) = {
            let t = self.socks.get_mut(sock);
            (t.mem_core, std::mem::take(&mut t.mem_rcv))
        };
        if charged == 0 {
            return;
        }
        let tr = self
            .mem
            .as_mut()
            .expect("accounting armed")
            .uncharge_recv_buf(core, u64::from(charged));
        self.mem_note(tr);
    }

    /// Charges queued-but-unacked payload to the send account.
    fn mem_charge_send(&mut self, sock: SockId, bytes: u16) {
        if bytes == 0 || self.mem.is_none() {
            return;
        }
        let core = {
            let t = self.socks.get_mut(sock);
            t.mem_snd += u32::from(bytes);
            t.mem_core
        };
        let tr = self
            .mem
            .as_mut()
            .expect("accounting armed")
            .charge_send_buf(core, u64::from(bytes));
        self.mem_note(tr);
    }

    /// Uncharges `bytes` of acknowledged send payload.
    fn mem_uncharge_send(&mut self, sock: SockId, bytes: u64) {
        if bytes == 0 || self.mem.is_none() {
            return;
        }
        let core = {
            let t = self.socks.get_mut(sock);
            t.mem_snd -= bytes as u32;
            t.mem_core
        };
        let tr = self
            .mem
            .as_mut()
            .expect("accounting armed")
            .uncharge_send_buf(core, bytes);
        self.mem_note(tr);
    }

    /// Uncharges everything `sock` still holds (bucket, buffer bytes,
    /// orphan). Every socket release funnels through here (via
    /// `teardown` or `abort_embryonic`), so the ledger provably drains
    /// with the socket table.
    fn mem_uncharge_sock(&mut self, sock: SockId) {
        if self.mem.is_none() {
            return;
        }
        let (core, kind, rcv, snd, orphan) = {
            let t = self.socks.get_mut(sock);
            (
                t.mem_core,
                std::mem::take(&mut t.mem_charge),
                std::mem::take(&mut t.mem_rcv),
                std::mem::take(&mut t.mem_snd),
                std::mem::take(&mut t.mem_orphan),
            )
        };
        let mem = self.mem.as_mut().expect("accounting armed");
        let tr = match kind {
            MemCharge::None => None,
            MemCharge::Embryo => mem.uncharge_embryo(core),
            MemCharge::Tcb => mem.uncharge_tcb(core),
            MemCharge::TimeWait => mem.leave_time_wait(core),
        };
        self.mem_note(tr);
        if rcv > 0 {
            let tr = self
                .mem
                .as_mut()
                .expect("accounting armed")
                .uncharge_recv_buf(core, u64::from(rcv));
            self.mem_note(tr);
        }
        if snd > 0 {
            let tr = self
                .mem
                .as_mut()
                .expect("accounting armed")
                .uncharge_send_buf(core, u64::from(snd));
            self.mem_note(tr);
        }
        if orphan {
            self.mem
                .as_mut()
                .expect("accounting armed")
                .uncharge_orphan(core);
        }
    }

    /// Audits the ledger against the socket table: each live socket's
    /// tagged bucket and buffer bytes, scaled, must equal the accounts
    /// exactly (zero once the table drains). Returns a description of
    /// the divergence, or `None` when clean or accounting is off. The
    /// driver runs this at end of run under the strict-mode invariant
    /// `mem_account`.
    pub fn mem_imbalance(&self) -> Option<String> {
        let mem = self.mem.as_ref()?;
        let scale = u64::from(self.config.mem.map_or(1, |m| m.scale.max(1)));
        let (mut bytes, mut sockets, mut embryos, mut tw, mut orphans) = (0u64, 0, 0, 0, 0u64);
        for t in self.socks.iter() {
            match t.mem_charge {
                MemCharge::None => {}
                MemCharge::Embryo => {
                    embryos += 1;
                    bytes += sim_res::EMBRYO_BYTES;
                }
                MemCharge::Tcb => {
                    sockets += 1;
                    bytes += sim_res::TCB_BYTES;
                }
                MemCharge::TimeWait => {
                    tw += 1;
                    bytes += sim_res::TW_BYTES;
                }
            }
            bytes += u64::from(t.mem_rcv) + u64::from(t.mem_snd);
            if t.mem_orphan {
                orphans += 1;
            }
        }
        let table = (
            bytes * scale,
            sockets * scale,
            embryos * scale,
            tw * scale,
            orphans * scale,
        );
        let ledger = (
            mem.total_bytes(),
            mem.sockets(),
            mem.embryos(),
            mem.time_wait(),
            mem.orphans(),
        );
        if ledger == table {
            return None;
        }
        Some(format!(
            "memory ledger diverges from socket table: ledger \
             (bytes {}, socks {}, embryos {}, tw {}, orphans {}) vs \
             table ({}, {}, {}, {}, {})",
            ledger.0,
            ledger.1,
            ledger.2,
            ledger.3,
            ledger.4,
            table.0,
            table.1,
            table.2,
            table.3,
            table.4,
        ))
    }

    /// The `mem` report block: ledger peaks and the conservation
    /// verdict (the reaction counters are in [`StackStats::mem`]).
    /// `None` when accounting is off.
    pub fn mem_report(&self) -> Option<sim_res::MemReport> {
        let mem = self.mem.as_ref()?;
        let mut r = sim_res::MemReport::from_accounts(mem);
        r.balanced = self.mem_imbalance().is_none();
        Some(r)
    }

    /// The backed-off retransmission timeout after `attempts` RTO
    /// firings: doubles per retry, capped at
    /// `rto << MAX_RTO_BACKOFF_SHIFT`.
    fn rto_after(&self, attempts: u8) -> Cycles {
        self.config.rto << attempts.min(MAX_RTO_BACKOFF_SHIFT)
    }

    /// Retransmission timeout for `sock` (if still live and matching
    /// `gen`): returns the oldest unacknowledged segment to resend, or
    /// `None` when everything has been acknowledged. The caller should
    /// re-arm the timer when a segment is returned.
    pub fn on_rto(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        sock: SockId,
        gen: u64,
    ) -> Option<Packet> {
        if !self.socks.exists(sock) || self.socks.get(sock).gen != gen {
            return None;
        }
        let core = self.socks.get(sock).app_core;
        let seg = self.socks.get(sock).unacked.front().copied()?;
        let attempts = {
            let t = self.socks.get_mut(sock);
            t.rtx_attempts += 1;
            t.rtx_attempts
        };
        let mut op = ctx.begin(core, 0);
        if attempts > MAX_RTX_ATTEMPTS {
            // Give up (as `tcp_retries2` does): the peer is gone.
            self.stats.rtx_abandoned += 1;
            if self.config.err_events {
                let mut tmp = RxOutcome::default();
                self.post_epoll(ctx, os, &mut op, sock, true, false, &mut tmp);
                self.pending_err_wakeups.extend(tmp.wakeups);
            }
            self.teardown(ctx, os, &mut op, sock);
            op.commit(&mut ctx.cpu);
            return None;
        }
        op.work(CycleClass::Timer, self.config.costs.tx_per_packet);
        if let Some(t) = self.socks.get(sock).rtx_timer {
            os.timers.modify(ctx, &mut op, t);
        }
        // Timeout is the congestion controller's strongest signal:
        // collapse cwnd and abandon any fast-recovery episode.
        let now = op.now();
        {
            let t = self.socks.get_mut(sock);
            let snd_nxt = t.snd_nxt;
            if let Some(dp) = t.dp.as_mut() {
                dp.cc.on_rto(dp.snd.inflight(snd_nxt), now);
                dp.snd.on_rto();
            }
        }
        op.commit(&mut ctx.cpu);
        self.stats.retransmits += 1;
        let delay = self.rto_after(attempts);
        self.pending_rto.push((sock, gen, delay));
        Some(seg)
    }

    /// Records `seg` as awaiting acknowledgment and requests an RTO arm
    /// for the socket.
    fn track_unacked(&mut self, sock: SockId, seg: Packet) {
        let gen = self.socks.get(sock).gen;
        let rto = self.config.rto;
        let t = self.socks.get_mut(sock);
        t.unacked.push_back(seg);
        self.pending_rto.push((sock, gen, rto));
        self.mem_charge_send(sock, seg.payload_len);
    }

    /// Like [`TcpStack::track_unacked`], but arms the RTO only on the
    /// empty→non-empty transition: a bulk transfer keeps many segments
    /// in flight and one armed expiry per flight suffices ([`on_rto`]
    /// re-arms while segments remain outstanding).
    ///
    /// [`on_rto`]: TcpStack::on_rto
    fn track_unacked_dp(&mut self, sock: SockId, seg: Packet) {
        let gen = self.socks.get(sock).gen;
        let rto = self.config.rto;
        let t = self.socks.get_mut(sock);
        if t.unacked.is_empty() {
            self.pending_rto.push((sock, gen, rto));
        }
        t.unacked.push_back(seg);
        self.mem_charge_send(sock, seg.payload_len);
    }

    /// Drops tracked segments fully acknowledged by `ack`; forward
    /// progress resets the retry counter.
    fn clear_acked(&mut self, sock: SockId, ack: u32) {
        let mut acked_payload = 0u64;
        let t = self.socks.get_mut(sock);
        while let Some(front) = t.unacked.front() {
            let end = front.seq.wrapping_add(front.seq_len());
            // Wrap-safe "end <= ack" via signed distance.
            if (ack.wrapping_sub(end) as i32) >= 0 {
                acked_payload += u64::from(front.payload_len);
                t.unacked.pop_front();
                t.rtx_attempts = 0;
            } else {
                break;
            }
        }
        self.mem_uncharge_send(sock, acked_payload);
    }

    /// Data-plane ACK processing: duplicate-ACK counting with
    /// dup-ACK-threshold fast retransmit, congestion-controller
    /// updates (including the ECN echo), NewReno partial-ACK
    /// retransmission during recovery, recovery exit on a full ACK,
    /// and transmission of whatever the freshly opened window now
    /// allows. Runs under the socket slock in the softirq half.
    fn dp_on_ack(&mut self, op: &mut Op, sock: SockId, pkt: &Packet, out: &mut RxOutcome) {
        let now = op.now();
        let mut fast_rtx: Option<Packet> = None;
        let mut ecn_echo = false;
        {
            let t = self.socks.get_mut(sock);
            let snd_nxt = t.snd_nxt;
            let front = t.unacked.front().copied();
            let Some(dp) = t.dp.as_mut() else { return };
            match dp.snd.on_ack(pkt.ack, snd_nxt, pkt.wnd) {
                AckKind::Old => {}
                AckKind::Dup { count } => {
                    if count == DUP_ACK_THRESHOLD && !dp.snd.in_recovery() {
                        dp.cc.on_fast_retransmit(dp.snd.inflight(snd_nxt), now);
                        dp.snd.enter_recovery(snd_nxt);
                        fast_rtx = front;
                    }
                }
                AckKind::Advance { acked } => {
                    let marked = pkt.flags.ece();
                    ecn_echo = marked;
                    let una = dp.snd.una();
                    dp.cc.on_ack(&AckCtx {
                        acked,
                        marked,
                        now,
                        una,
                        snd_nxt,
                    });
                    if dp.snd.in_recovery() {
                        if dp.snd.recovery_done() {
                            dp.snd.exit_recovery();
                            dp.cc.on_recovery_exit();
                        } else {
                            // NewReno partial ACK: the next hole starts
                            // at the new una (clear_acked already
                            // dropped what this ACK covered).
                            fast_rtx = front;
                        }
                    }
                }
            }
        }
        if ecn_echo {
            self.stats.dp_mut().ecn_echoes += 1;
        }
        if let Some(seg) = fast_rtx {
            self.stats.dp_mut().fast_retransmits += 1;
            self.transmit(op, seg, out);
        }
        self.push_segments(op, sock, out);
    }

    /// Segments and transmits as much queued data as the congestion
    /// and peer windows allow, charging GSO-amortized per-segment TX
    /// costs, then emits the deferred FIN once the queue drains. The
    /// caller holds the socket slock.
    fn push_segments(&mut self, op: &mut Op, sock: SockId, out: &mut RxOutcome) {
        let costs = self.config.costs;
        loop {
            let seg = {
                let t = self.socks.get_mut(sock);
                let (flow, snd_nxt, rcv_nxt) = (t.flow, t.snd_nxt, t.rcv_nxt);
                let Some(dp) = t.dp.as_mut() else { return };
                match dp.next_segment(snd_nxt) {
                    None => None,
                    Some((seg_len, idx)) => {
                        let cost = dp.batch.gso_cost(idx, costs.tx_per_packet);
                        let seg = Packet::new(flow, TcpFlags::PSH | TcpFlags::ACK)
                            .with_seq(snd_nxt)
                            .with_ack(rcv_nxt)
                            .with_payload(seg_len as u16)
                            .with_wnd(dp.rcv.advertised());
                        t.snd_nxt = snd_nxt.wrapping_add(seg_len);
                        Some((seg, cost))
                    }
                }
            };
            let Some((seg, cost)) = seg else { break };
            op.work(CycleClass::TxPath, cost);
            self.track_unacked_dp(sock, seg);
            self.stats.dp_mut().bytes_streamed += u64::from(seg.payload_len);
            out.replies.push(seg);
        }
        // Deferred FIN: close() ran while bytes were still queued; it
        // rides behind the final data segment.
        let fin = {
            let t = self.socks.get_mut(sock);
            let (flow, snd_nxt, rcv_nxt) = (t.flow, t.snd_nxt, t.rcv_nxt);
            let Some(dp) = t.dp.as_mut() else { return };
            if dp.snd.take_deferred_fin() {
                let fin = Packet::new(flow, TcpFlags::FIN | TcpFlags::ACK)
                    .with_seq(snd_nxt)
                    .with_ack(rcv_nxt)
                    .with_wnd(dp.rcv.advertised());
                t.snd_nxt = snd_nxt.wrapping_add(1);
                Some(fin)
            } else {
                None
            }
        };
        if let Some(fin) = fin {
            op.work(CycleClass::TxPath, costs.tx_per_packet);
            self.track_unacked_dp(sock, fin);
            out.replies.push(fin);
        }
    }

    /// Charges one user↔kernel transition (amortized under batching).
    fn syscall_entry(&self, op: &mut Op) {
        let full = self.config.costs.syscall_entry;
        let c = if self.config.syscall_batching && op.syscall_count() > 0 {
            full / 8
        } else {
            full
        };
        op.work(CycleClass::Syscall, c);
        op.count_syscall();
    }

    /// Payload copy cost (zero under the zero-copy option).
    fn copy_cost(&self, bytes: u32) -> Cycles {
        if self.config.zero_copy {
            0
        } else {
            self.config.costs.copy_cost(bytes)
        }
    }

    fn cookie_for(&self, lflow: &FlowTuple) -> u32 {
        (flow_hash(lflow) ^ self.cookie_secret) as u32
    }

    /// The active configuration.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// Resets statistics (after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = StackStats::default();
    }

    /// The RFD engine (port-to-core hash).
    pub fn rfd(&self) -> Rfd {
        self.rfd_engine
    }

    /// The listen table (for tests and fault injection).
    pub fn listen_table_mut(&mut self) -> &mut ListenTable {
        &mut self.listen_table
    }

    // ------------------------------------------------------------------
    // Setup syscalls
    // ------------------------------------------------------------------

    /// `socket()+bind()+listen()`: creates the global listen socket.
    pub fn listen(
        &mut self,
        ctx: &mut KernelCtx,
        op: &mut Op,
        port: u16,
        backlog: usize,
        core: CoreId,
    ) -> LsId {
        op.work(CycleClass::Syscall, self.config.costs.accept);
        self.listen_table
            .listen(ctx, &mut self.socks, port, backlog, core)
    }

    /// `SO_REUSEPORT` copy for the worker `pid` pinned to `core`.
    pub fn reuseport_listen(
        &mut self,
        ctx: &mut KernelCtx,
        op: &mut Op,
        port: u16,
        backlog: usize,
        pid: Pid,
        core: CoreId,
    ) -> LsId {
        op.work(CycleClass::Syscall, self.config.costs.accept);
        self.listen_table
            .add_reuseport_copy(ctx, &mut self.socks, port, backlog, pid, core)
    }

    /// Fastsocket `local_listen()` for the worker `pid` pinned to
    /// `core` (Figure 2, steps 1–2).
    pub fn local_listen(
        &mut self,
        ctx: &mut KernelCtx,
        op: &mut Op,
        port: u16,
        backlog: usize,
        pid: Pid,
        core: CoreId,
    ) -> LsId {
        op.work(CycleClass::Syscall, self.config.costs.accept);
        self.listen_table
            .local_listen(ctx, &mut self.socks, port, backlog, pid, core)
    }

    /// Registers `pid`'s epoll instance as a watcher of listen socket
    /// `ls` with the given `epoll_data` token.
    #[allow(clippy::too_many_arguments)]
    pub fn watch_listen(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        ls: LsId,
        ep: EpollId,
        pid: Pid,
        data: u64,
    ) {
        os.epolls.ctl_add(ctx, op, ep);
        self.listen_table.ls_mut(ls).watchers.push((ep, pid, data));
        // ep_insert polls the fd at EPOLL_CTL_ADD time: a listen socket
        // whose accept queue is already backlogged goes straight onto
        // the epoll ready list. Without this, a worker registered
        // mid-run (crash restart) would wait for the next
        // empty→non-empty edge of the shared queue — which never comes
        // while the surviving workers keep it backlogged.
        if !self.listen_table.ls(ls).accept_queue.is_empty() {
            os.epolls.post(
                ctx,
                op,
                ep,
                EpollEvent {
                    data,
                    readable: true,
                    writable: false,
                },
            );
        }
    }

    /// Registers a connection socket in `ep` with token `data`.
    pub fn register_epoll(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        sock: SockId,
        ep: EpollId,
        data: u64,
    ) {
        os.epolls.ctl_add(ctx, op, ep);
        let tcb = self.socks.get_mut(sock);
        tcb.epoll = Some(ep);
        tcb.epoll_data = data;
    }

    // ------------------------------------------------------------------
    // The NET_RX softirq half
    // ------------------------------------------------------------------

    /// Processes one received packet on `op.core()`. `already_steered`
    /// marks packets re-delivered by RFD so they are not steered (or
    /// counted) twice.
    pub fn net_rx(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        pkt: &Packet,
        already_steered: bool,
    ) -> RxOutcome {
        let costs = self.config.costs;
        let core = op.core();
        let mut out = RxOutcome::default();

        if self.config.fault == FaultInjection::SilentHandoff
            && !self.fault_fired
            && self.config.cores >= 3
        {
            self.fault_fired = true;
            self.inject_silent_handoff(ctx, os, core, op.now());
        }

        // A steered packet must have landed on its connection's owning
        // core — the delivery guarantee the Local Established Table
        // depends on (§3.3).
        if self.config.rfd && already_steered {
            if let Some(owner) = self.rfd_engine.steer_target(pkt) {
                op.checker()
                    .lint(PartitionLint::RfdDelivery, core.0, owner.0);
            }
        }

        // Receive Flow Deliver hooks in early (netif_receive_skb),
        // before the expensive stack traversal: classify, count
        // locality, steer. A steered packet costs this core only the
        // classification + backlog enqueue.
        if self.config.rfd && !already_steered {
            op.trace_enter(TraceLabel::RfdSteer);
            let (class, by) = self
                .rfd_engine
                .classify(&pkt.flow, |p| self.listen_table.has_listener(p));
            match by {
                ClassifiedBy::Rule1 => self.stats.rfd_rule1 += 1,
                ClassifiedBy::Rule2 => self.stats.rfd_rule2 += 1,
                ClassifiedBy::Rule3 => self.stats.rfd_rule3 += 1,
            }
            if class == PacketClass::ActiveIncoming {
                let mut target = self.rfd_engine.steer_target(pkt);
                if self.config.fault == FaultInjection::MisSteer {
                    target = target.map(|c| CoreId((c.0 + 1) % self.config.cores));
                }
                self.stats.active_in_packets += 1;
                if target == Some(core) || target.is_none() {
                    self.stats.active_in_local += 1;
                } else {
                    // Steer to the owning core (§3.3): cheap enqueue on
                    // the remote backlog; the driver re-delivers.
                    self.stats.steered_packets += 1;
                    op.work(CycleClass::Steering, costs.steer);
                    out.steer = target;
                    op.trace_exit(TraceLabel::RfdSteer);
                    return out;
                }
            }
            op.trace_exit(TraceLabel::RfdSteer);
        }
        op.work(CycleClass::SoftirqBase, costs.softirq_per_packet);

        // Demultiplex: established table first.
        let lflow = pkt.flow.reversed();
        if let Some(sock) = self.est.lookup(ctx, op, core, &lflow, &costs) {
            // tcp_tw_reuse: a fresh SYN may recycle a TIME_WAIT socket
            // for the same tuple (clients cycling through their
            // ephemeral range hit this on busy servers).
            if pkt.flags.syn()
                && !pkt.flags.ack()
                && self.socks.get(sock).state == TcpState::TimeWait
            {
                self.stats.tw_reused += 1;
                self.teardown(ctx, os, op, sock);
                op.trace_enter(TraceLabel::Handshake);
                self.process_syn(ctx, os, op, &lflow, pkt, &mut out);
                op.trace_exit(TraceLabel::Handshake);
                return out;
            }
            if !self.config.rfd {
                // Locality accounting when RFD is off (Figure 5's
                // RSS-only and ATR-only rows).
                let tcb = self.socks.get(sock);
                if tcb.active {
                    self.stats.active_in_packets += 1;
                    if tcb.app_core == core {
                        self.stats.active_in_local += 1;
                    }
                }
            }
            self.process_established(ctx, os, op, sock, pkt, &mut out);
            return out;
        }

        // Not established: handshake traffic for a listen socket.
        if pkt.flags.syn() && !pkt.flags.ack() {
            op.trace_enter(TraceLabel::Handshake);
            self.process_syn(ctx, os, op, &lflow, pkt, &mut out);
            op.trace_exit(TraceLabel::Handshake);
        } else if pkt.flags.rst() {
            // RST for a connection not in the established table: it may
            // target an embryonic (SYN-queue) entry — clean that up so
            // aborted handshakes do not clog the backlog.
            self.abort_embryonic(ctx, op, &lflow);
            self.stats.no_match_drops += 1;
        } else {
            op.trace_enter(TraceLabel::Handshake);
            self.process_handshake_ack(ctx, os, op, &lflow, pkt, &mut out);
            op.trace_exit(TraceLabel::Handshake);
        }
        out
    }

    /// Fault: writes a fresh socket buffer on remote core `a`, then on
    /// remote core `b`, with no synchronization channel between the two
    /// ops. The first write is exclusive (lockset stays full) and the
    /// second holds `b`'s timer base lock (candidate set stays
    /// nonempty), so only the happens-before detector can see that
    /// nothing ordered the handoff.
    fn inject_silent_handoff(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        core: CoreId,
        now: Cycles,
    ) {
        let a = CoreId((core.0 + 1) % self.config.cores);
        let b = CoreId((core.0 + 2) % self.config.cores);
        let obj = ctx.cache.alloc(sim_mem::ObjKind::SockBuf, a);
        let mut first = ctx.begin(a, now);
        first.touch_mut(ctx, obj);
        first.commit(&mut ctx.cpu);
        let mut second = ctx.begin(b, now);
        second.lock_do(&mut ctx.locks, os.timers.base_lock(b), CycleClass::Timer, 1);
        second.touch_mut(ctx, obj);
        second.commit(&mut ctx.cpu);
        ctx.cache.free(obj);
    }

    /// Fault: arms the first data-carrying connection as a victim, then
    /// — while a *different* connection is being processed, so the
    /// victim has no writes pending in the current op segment — a
    /// remote core takes the victim's socket lock and writes its
    /// buffer. The victim's owning core writes the buffer again soon
    /// after (it is an active connection), bouncing ownership back:
    /// `core-local → migrated → shared`, under a full lock discipline
    /// that keeps every other detector silent.
    fn inject_owner_ping_pong(
        &mut self,
        ctx: &mut KernelCtx,
        core: CoreId,
        now: Cycles,
        sock: SockId,
        payload: bool,
    ) {
        let Some((victim, gen)) = self.fault_victim else {
            if payload {
                self.fault_victim = Some((sock, self.socks.get(sock).gen));
            }
            return;
        };
        if victim == sock {
            return;
        }
        if !self.socks.exists(victim) || self.socks.get(victim).gen != gen {
            self.fault_victim = None; // victim recycled before the knob fired; re-arm
            return;
        }
        let t = self.socks.get(victim);
        let (lock, buf, app) = (t.lock, t.buf_obj, t.app_core);
        let mut thief_core = CoreId((app.0 + 1) % self.config.cores);
        if thief_core == core {
            thief_core = CoreId((app.0 + 2) % self.config.cores);
        }
        if thief_core == core || thief_core == app {
            return; // no usable third core right now; try again later
        }
        self.fault_fired = true;
        let mut thief = ctx.begin(thief_core, now);
        thief.lock_do(&mut ctx.locks, lock, CycleClass::TcbManage, 1);
        thief.touch_mut(ctx, buf);
        thief.commit(&mut ctx.cpu);
    }

    /// Segment processing for a socket found in the established table.
    fn process_established(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        sock: SockId,
        pkt: &Packet,
        out: &mut RxOutcome,
    ) {
        let costs = self.config.costs;
        if self.config.fault == FaultInjection::OwnerPingPong
            && !self.fault_fired
            && self.config.cores >= 3
        {
            self.inject_owner_ping_pong(ctx, op.core(), op.now(), sock, pkt.payload_len > 0);
        }
        let (lock, obj, timer) = {
            let t = self.socks.get(sock);
            (t.lock, t.obj, t.rtx_timer)
        };
        if self.config.fault == FaultInjection::ReverseLockOrder {
            // Fault: take this core's base.lock before the socket
            // slock — the reverse of the re-arm path's order.
            let base = os.timers.base_lock(op.core());
            let inverted = op.lock_scope(&mut ctx.locks, base, CycleClass::Timer, 1);
            op.lock_do(&mut ctx.locks, lock, CycleClass::TcbManage, 1);
            op.unlock(inverted);
        }
        op.touch_mut(ctx, obj);
        // Everything up to the queue/timer/epoll work happens under the
        // socket lock, as tcp_v4_rcv does.
        let mut slock = if self.config.fault == FaultInjection::SkipSlock {
            // Fault: segment processing without lock_sock().
            op.work(CycleClass::TcbManage, costs.slock_hold_softirq);
            None
        } else {
            Some(op.lock_scope(
                &mut ctx.locks,
                lock,
                CycleClass::TcbManage,
                costs.slock_hold_softirq,
            ))
        };

        if pkt.flags.ack() {
            self.clear_acked(sock, pkt.ack);
            if self.socks.get(sock).dp.is_some() {
                self.dp_on_ack(op, sock, pkt, out);
            }
        }
        // Duplicate of an already-received segment (the peer, or we,
        // retransmitted under loss): re-ACK and drop.
        {
            let t = self.socks.get(sock);
            let is_dup = pkt.seq_len() > 0
                && t.state != TcpState::SynSent
                && (t.rcv_nxt.wrapping_sub(pkt.seq.wrapping_add(pkt.seq_len())) as i32) >= 0;
            if is_dup {
                self.stats.duplicate_segments += 1;
                let mut reply = Packet::new(t.flow, TcpFlags::ACK)
                    .with_seq(t.snd_nxt)
                    .with_ack(t.rcv_nxt);
                if let Some(dp) = t.dp.as_ref() {
                    reply = reply.with_wnd(dp.rcv.advertised());
                }
                self.transmit(op, reply, out);
                if let Some(held) = slock.take() {
                    op.unlock(held);
                }
                return;
            }
        }
        // Data-plane receive windows have no reassembly queue: a
        // segment past `rcv_nxt` (a loss upstream) or beyond the buffer
        // budget is dropped, and a duplicate ACK asks the sender to
        // resend from `rcv_nxt`.
        if pkt.seq_len() > 0 && self.socks.get(sock).dp.is_some() {
            let reply = {
                let t = self.socks.get_mut(sock);
                let (flow, snd_nxt, rcv_nxt) = (t.flow, t.snd_nxt, t.rcv_nxt);
                let dp = t.dp.as_mut().expect("checked above");
                let ooo = seq_gt(pkt.seq, rcv_nxt);
                let over = !ooo && pkt.payload_len > 0 && !dp.rcv.accept(pkt.payload_len);
                (ooo || over).then(|| {
                    Packet::new(flow, TcpFlags::ACK)
                        .with_seq(snd_nxt)
                        .with_ack(rcv_nxt)
                        .with_wnd(dp.rcv.advertised())
                })
            };
            if let Some(reply) = reply {
                self.stats.dp_mut().out_of_order_segments += 1;
                self.transmit(op, reply, out);
                if let Some(held) = slock.take() {
                    op.unlock(held);
                }
                return;
            }
        }
        let trans = {
            let t = self.socks.get_mut(sock);
            let seg_end = pkt.seq.wrapping_add(pkt.seq_len());
            if t.dp.is_some() {
                // Wrap-safe advance: bulk transfers cross the u32
                // boundary when the random ISN sits near it.
                if seq_gt(seg_end, t.rcv_nxt) {
                    t.rcv_nxt = seg_end;
                }
            } else {
                t.rcv_nxt = t.rcv_nxt.max(seg_end);
            }
            state::on_segment(t.state, pkt.flags, pkt.payload_len)
        };

        if trans.reset {
            let t = self.socks.get_mut(sock);
            let reply = Packet::new(t.flow, TcpFlags::RST).with_seq(t.snd_nxt);
            t.state = TcpState::Closed;
            self.stats.rst_sent += 1;
            op.work(CycleClass::Handshake, costs.rst);
            self.transmit(op, reply, out);
            if self.config.err_events {
                self.post_epoll(ctx, os, op, sock, true, false, out);
            }
            self.teardown(ctx, os, op, sock);
            out.closed.push(sock);
            if let Some(held) = slock.take() {
                op.unlock(held);
            }
            return;
        }

        // Per-packet timer maintenance (re-arm RTO).
        if let Some(mut t) = timer {
            if self.config.fault == FaultInjection::CrossCoreTimer {
                // Fault: re-arm on the next core's wheel.
                t.base_core = CoreId((op.core().0 + 1) % self.config.cores);
            }
            os.timers.modify(ctx, op, t);
        }

        let mut notify_readable = false;
        let mut notify_writable = false;

        if trans.established {
            let cc_cfg = self.config.cc;
            let t = self.socks.get_mut(sock);
            t.state = trans.next;
            if t.dp.is_none() {
                let snd_nxt = t.snd_nxt;
                t.dp = cc_cfg
                    .as_ref()
                    .map(|c| Box::new(DataPlane::new(c, snd_nxt)));
            }
            let flow = t.flow;
            if t.active {
                self.stats.active_established += 1;
            } else {
                self.stats.passive_established += 1;
            }
            op.trace_mark(flow_hash(&flow), TraceLabel::Established);
            op.work(CycleClass::Handshake, costs.ack_promotion / 2);
            notify_writable = true;
        } else {
            self.socks.get_mut(sock).state = trans.next;
        }

        if pkt.payload_len > 0 {
            let t = self.socks.get_mut(sock);
            t.rx_ready += u32::from(pkt.payload_len);
            let buf = t.buf_obj;
            let flow = t.flow;
            // GRO: an in-order train of data-plane segments amortizes
            // the per-segment receive cost.
            let seg_cost = match t.dp.as_mut() {
                Some(dp) => dp.gro_advance(costs.data_segment),
                None => costs.data_segment,
            };
            op.work(CycleClass::SoftirqBase, seg_cost);
            op.work(
                CycleClass::SoftirqBase,
                costs.copy_cost(u32::from(pkt.payload_len)),
            );
            op.touch_mut(ctx, buf);
            op.trace_mark(flow_hash(&flow), TraceLabel::FirstByte);
            notify_readable = true;
            self.mem_charge_recv(sock, pkt.payload_len);
        }

        if trans.peer_fin {
            let t = self.socks.get_mut(sock);
            t.peer_fin_seen = true;
            op.work(CycleClass::Handshake, costs.fin_processing);
            notify_readable = true;
        }

        if trans.send_ack {
            let mut reply = {
                let t = self.socks.get(sock);
                let mut reply = Packet::new(t.flow, TcpFlags::ACK)
                    .with_seq(t.snd_nxt)
                    .with_ack(t.rcv_nxt);
                if let Some(dp) = t.dp.as_ref() {
                    reply = reply.with_wnd(dp.rcv.advertised());
                }
                reply
            };
            if reply.wnd > 0 && self.mem_at_least(PressureLevel::Pressure) {
                // Pressure reaction: halve the advertised window so
                // senders back off before the budget is breached.
                reply.wnd /= 2;
                self.stats.mem_mut().window_clamps += 1;
            }
            self.transmit(op, reply, out);
        }

        if notify_readable || notify_writable {
            self.post_epoll(ctx, os, op, sock, notify_readable, notify_writable, out);
        }

        if trans.enter_time_wait {
            self.disarm_timer(ctx, os, op, sock);
            let forced = self
                .mem
                .as_ref()
                .is_some_and(sim_res::MemAccounts::tw_at_cap);
            self.mem_enter_tw(sock);
            if forced {
                // tcp_max_tw_buckets overflow: recycle the bucket on
                // the spot instead of holding it for 2*MSL ("TCP: time
                // wait bucket table overflow").
                self.stats.mem_mut().tw_forced_recycles += 1;
                self.teardown(ctx, os, op, sock);
                self.stats.closed += 1;
                out.closed.push(sock);
            } else {
                out.time_wait.push(sock);
            }
        } else if trans.next == TcpState::Closed {
            // A peer RST lands here. With error events armed, the owner
            // learns of the death through its epoll (EPOLLERR-style
            // readable event) instead of a silent teardown — `ctl_del`
            // leaves already-posted events on the ready list, so the
            // notification survives the teardown below.
            if self.config.err_events {
                self.post_epoll(ctx, os, op, sock, true, false, out);
            }
            self.teardown(ctx, os, op, sock);
            self.stats.closed += 1;
            out.closed.push(sock);
        }
        if let Some(held) = slock.take() {
            op.unlock(held);
        }
    }

    /// SYN processing: find a listen socket, create the embryonic
    /// connection, reply SYN-ACK (Figure 2, steps 3–5).
    fn process_syn(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        lflow: &FlowTuple,
        pkt: &Packet,
        out: &mut RxOutcome,
    ) {
        let costs = self.config.costs;
        let core = op.core();
        let Some(ls_id) =
            self.listen_table
                .lookup(ctx, op, core, lflow, &self.socks, &costs, &mut self.stats)
        else {
            // No listener: refuse.
            let reply = Packet::new(*lflow, TcpFlags::RST).with_ack(pkt.seq.wrapping_add(1));
            self.stats.rst_sent += 1;
            self.stats.syn_refusals += 1;
            op.work(CycleClass::Handshake, costs.rst);
            self.transmit(op, reply, out);
            return;
        };

        if self.mem_at_least(PressureLevel::High) {
            // tcp_mem[2]: the hard budget is exhausted. Drop the SYN
            // outright (no cookie either — even a stateless reply
            // invites a handshake completion the budget cannot hold)
            // and prune the oldest embryo to claw memory back.
            self.stats.mem_mut().pressure_syn_drops += 1;
            self.prune_embryo(ctx, os, op, ls_id);
            return;
        }

        let (ls_sock, has_room) = {
            let ls = self.listen_table.ls(ls_id);
            (ls.sock, ls.has_room())
        };
        if !has_room {
            if self.config.syn_cookies {
                // Stateless SYN cookie: answer without consuming backlog
                // (the §1 security requirement — SYN floods must not
                // deny service). `tcp_conn_request` still runs under the
                // listener lock before the cookie decision, so a flood
                // hammers the *shared* listener lock on stock kernels
                // while Fastsocket's per-core listeners each absorb only
                // their slice of it.
                let ls_lock = self.socks.get(ls_sock).lock;
                let ls_obj = self.socks.get(ls_sock).obj;
                op.touch_mut(ctx, ls_obj);
                op.lock_do_nested(
                    &mut ctx.locks,
                    ls_lock,
                    CycleClass::Handshake,
                    costs.listen_hold_softirq / 2,
                    1,
                );
                let isn = self.cookie_for(lflow);
                let reply = Packet::new(*lflow, TcpFlags::SYN | TcpFlags::ACK)
                    .with_seq(isn)
                    .with_ack(pkt.seq.wrapping_add(1));
                self.stats.syn_cookies_sent += 1;
                op.trace_mark(flow_hash(lflow), TraceLabel::SynArrival);
                op.work(CycleClass::Handshake, costs.syn_processing / 2);
                self.transmit(op, reply, out);
            } else {
                self.stats.syn_drops += 1;
            }
            return;
        }

        if let Some(cap) = self.config.tcb_cap {
            // Memory pressure: refuse to allocate another embryo once
            // the socket slab is at the cap (admission control à la
            // `tcp_max_orphans`; the cookie path above stays available
            // because it allocates nothing).
            if self.socks.live_count() >= cap {
                self.stats.mem_pressure_drops += 1;
                return;
            }
        }

        op.trace_mark(flow_hash(lflow), TraceLabel::SynArrival);
        op.work(CycleClass::Handshake, costs.syn_processing);
        let isn = ctx.rng.next_u64() as u32;
        let child = self
            .socks
            .alloc(ctx, *lflow, TcpState::SynRcvd, false, core);
        {
            let t = self.socks.get_mut(child);
            t.snd_nxt = isn.wrapping_add(1);
            t.rcv_nxt = pkt.seq.wrapping_add(1);
        }

        // Queue manipulation under the listen socket's slock: on the
        // shared global socket this is the accept-path bottleneck.
        // Listen-socket slocks nest under connection slocks in the
        // real kernel (SINGLE_DEPTH_NESTING), hence subclass 1.
        let ls_lock = self.socks.get(ls_sock).lock;
        let ls_obj = self.socks.get(ls_sock).obj;
        op.touch_mut(ctx, ls_obj);
        op.lock_do_nested(
            &mut ctx.locks,
            ls_lock,
            CycleClass::Handshake,
            costs.listen_hold_softirq,
            1,
        );
        self.listen_table
            .ls_mut(ls_id)
            .syn_queue
            .insert(*lflow, child);
        self.socks.get_mut(child).syn_queued_in = Some(ls_id);
        self.mem_charge_embryo(child);

        let (rcv_nxt, snd_isn) = {
            let t = self.socks.get(child);
            (t.rcv_nxt, isn)
        };
        let reply = Packet::new(*lflow, TcpFlags::SYN | TcpFlags::ACK)
            .with_seq(snd_isn)
            .with_ack(rcv_nxt);
        self.track_unacked(child, reply);
        self.transmit(op, reply, out);
    }

    /// Prunes the oldest embryonic connection queued on listener
    /// `ls_id` (deterministically: minimum allocation generation),
    /// clawing memory back under `tcp_mem` high pressure.
    fn prune_embryo(&mut self, ctx: &mut KernelCtx, os: &mut OsServices, op: &mut Op, ls_id: LsId) {
        let victim = self
            .listen_table
            .ls(ls_id)
            .syn_queue
            .values()
            .copied()
            .min_by_key(|&s| self.socks.get(s).gen);
        if let Some(v) = victim {
            self.stats.mem_mut().embryos_pruned += 1;
            self.teardown(ctx, os, op, v);
        }
    }

    /// Third-ACK processing: promote an embryonic connection to
    /// established and queue it for `accept()` (Figure 2, steps 4–5).
    fn process_handshake_ack(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        lflow: &FlowTuple,
        pkt: &Packet,
        out: &mut RxOutcome,
    ) {
        let costs = self.config.costs;
        let core = op.core();
        let found =
            self.listen_table
                .lookup(ctx, op, core, lflow, &self.socks, &costs, &mut self.stats);
        // SYN-queue removal and accept-queue insertion happen under one
        // hold of the listen socket's slock (as `tcp_v4_syn_recv_sock`
        // does); the lock is taken below, together with the queue push.
        let child = found.and_then(|ls_id| {
            self.listen_table
                .ls_mut(ls_id)
                .syn_queue
                .remove(lflow)
                .map(|c| (ls_id, c))
        });
        let Some((ls_id, child)) = child else {
            // Not in any SYN queue: it may complete a SYN-cookie
            // handshake (stateless — reconstruct the connection from
            // the cookie embedded in the acknowledgment number).
            if self.config.syn_cookies
                && pkt.flags.ack()
                && pkt.ack == self.cookie_for(lflow).wrapping_add(1)
            {
                if let Some(ls_id) = found {
                    self.stats.syn_cookies_ok += 1;
                    self.complete_cookie_handshake(ctx, os, op, ls_id, lflow, pkt, out);
                    return;
                }
            }
            // Unknown connection: reset (this is exactly what a naive
            // table partition without the global fallback would hit —
            // §2.1).
            if !pkt.flags.rst() {
                let t_reply = Packet::new(*lflow, TcpFlags::RST).with_seq(pkt.ack);
                self.stats.rst_sent += 1;
                op.work(CycleClass::Handshake, costs.rst);
                self.transmit(op, t_reply, out);
            }
            self.stats.no_match_drops += 1;
            return;
        };

        self.socks.get_mut(child).syn_queued_in = None;
        op.work(CycleClass::Handshake, costs.ack_promotion);
        if pkt.flags.ack() {
            // The handshake ACK acknowledges our SYN-ACK.
            self.clear_acked(child, pkt.ack);
        }
        let trans = {
            let t = self.socks.get_mut(child);
            let trans = state::on_segment(t.state, pkt.flags, pkt.payload_len);
            t.state = trans.next;
            t.rcv_nxt = t.rcv_nxt.max(pkt.seq.wrapping_add(pkt.seq_len()));
            trans
        };
        debug_assert!(trans.established, "3rd ACK must establish");
        self.stats.passive_established += 1;
        self.mem_promote(child);
        op.trace_mark(flow_hash(lflow), TraceLabel::Established);
        if pkt.payload_len > 0 {
            op.trace_mark(flow_hash(lflow), TraceLabel::FirstByte);
        }

        // Insert into the established table (home = current core under
        // the Local variant — RFD/RSS guarantee later packets arrive
        // here too).
        let home = self.est.insert(ctx, op, core, *lflow, child, &costs);
        {
            let cc_cfg = self.config.cc;
            let t = self.socks.get_mut(child);
            t.in_est = true;
            t.est_home = home;
            let snd_nxt = t.snd_nxt;
            t.dp = cc_cfg
                .as_ref()
                .map(|c| Box::new(DataPlane::new(c, snd_nxt)));
            if pkt.payload_len > 0 {
                t.rx_ready += u32::from(pkt.payload_len);
                if let Some(dp) = t.dp.as_mut() {
                    let _ = dp.rcv.accept(pkt.payload_len);
                }
            }
        }
        self.mem_charge_recv(child, pkt.payload_len);

        // Queue on the accept queue under the listen slock (held across
        // the watcher notification, as __inet_csk_reqsk_queue_add +
        // sk_data_ready run under the listener lock; subclass 1 because
        // listener slocks nest under connection slocks) and notify the
        // watchers on the empty→non-empty edge (epoll reports readiness
        // transitions; a queue that stays backlogged posts nothing new).
        let ls_sock = self.listen_table.ls(ls_id).sock;
        let ls_lock = self.socks.get(ls_sock).lock;
        let ls_obj = self.socks.get(ls_sock).obj;
        op.touch_mut(ctx, ls_obj);
        let held = op.lock_scope_nested(
            &mut ctx.locks,
            ls_lock,
            CycleClass::Handshake,
            costs.listen_hold_softirq,
            1,
        );
        let was_empty = self.listen_table.ls(ls_id).accept_queue.is_empty();
        self.listen_table
            .ls_mut(ls_id)
            .accept_queue
            .push_back(child);
        self.socks.get_mut(child).queued_in = Some(ls_id);

        if was_empty {
            self.notify_accept_watchers(ctx, os, op, ls_id, out);
        }
        op.unlock(held);
    }

    /// Posts readiness to every epoll watching `ls_id`, rotating the
    /// starting point pseudo-randomly on the base kernel's shared
    /// accept queue. A real kernel's wait queue order depends on
    /// accumulated sleep/wake history; iterating the watcher list
    /// deterministically from index 0 instead pins one worker as the
    /// permanent hot core of the shared accept queue and overstates the
    /// base kernel's worst-core load (Figure 3's whiskers). The
    /// Fastsocket global fallback keeps the deterministic order: its
    /// queue only sees mis-steered connections, and the robustness
    /// guarantee asserted in `stack_lifecycle.rs` is about *who* drains
    /// it, not fairness.
    fn notify_accept_watchers(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        ls_id: LsId,
        out: &mut RxOutcome,
    ) {
        let watchers: Vec<(EpollId, Pid, u64)> = self.listen_table.ls(ls_id).watchers.clone();
        let n = watchers.len();
        if n == 0 {
            return;
        }
        let start = if n > 1 && self.listen_table.variant() == ListenVariant::Global {
            (ctx.rng.next_u64() % n as u64) as usize
        } else {
            0
        };
        for k in 0..n {
            let (ep, pid, data) = watchers[(start + k) % n];
            let woke = os.epolls.post(
                ctx,
                op,
                ep,
                EpollEvent {
                    data,
                    readable: true,
                    writable: false,
                },
            );
            if woke {
                out.wakeups.push(pid);
            }
        }
    }

    /// Whether `accept()` on `port` from `core` would find a ready
    /// connection (level-triggered readiness probe for applications).
    pub fn accept_ready(&self, port: u16, core: CoreId) -> bool {
        let global_ready = !self
            .listen_table
            .ls(self.listen_table.global_of(port))
            .accept_queue
            .is_empty();
        match self.config.listen {
            ListenVariant::Global => global_ready,
            ListenVariant::ReusePort => self
                .listen_table
                .copy_of(port, core)
                .is_some_and(|ls| !self.listen_table.ls(ls).accept_queue.is_empty()),
            ListenVariant::Local => {
                global_ready
                    || self
                        .listen_table
                        .local_of(port, core)
                        .is_some_and(|ls| !self.listen_table.ls(ls).accept_queue.is_empty())
            }
        }
    }

    /// A worker process died mid-run (fault injection): destroys its
    /// per-process listen socket and disposes of the stranded
    /// connections per the listen variant — the behavioral contrast at
    /// the heart of §2.1:
    ///
    /// * `Local` (Fastsocket): stranded embryos and un-accepted
    ///   connections migrate to the global fallback socket, so the
    ///   surviving workers drain them through Figure 2's slow path;
    ///   no client sees a reset.
    /// * `ReusePort`: the dead copy's queues cannot be re-attached —
    ///   every stranded connection is reset and torn down.
    /// * `Global`: the shared listen socket survives; only the dead
    ///   worker's epoll registration goes away.
    pub fn on_worker_crash(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        port: u16,
        core: CoreId,
        pid: Pid,
    ) -> RxOutcome {
        let mut out = RxOutcome::default();
        // The kernel tears the dead process's epoll registrations on
        // *surviving* listen sockets down with its file table.
        let global = self.listen_table.global_of(port);
        self.listen_table
            .ls_mut(global)
            .watchers
            .retain(|&(_, p, _)| p != pid);
        let dead = self.listen_table.destroy_process_socket(port, core);
        if dead.is_empty() {
            return out;
        }
        match self.config.listen {
            ListenVariant::Local => {
                let was_empty = self.listen_table.ls(global).accept_queue.is_empty();
                for &(flow, sock) in &dead.embryos {
                    self.listen_table
                        .ls_mut(global)
                        .syn_queue
                        .insert(flow, sock);
                    self.socks.get_mut(sock).syn_queued_in = Some(global);
                }
                for &sock in &dead.accepted {
                    self.listen_table
                        .ls_mut(global)
                        .accept_queue
                        .push_back(sock);
                    self.socks.get_mut(sock).queued_in = Some(global);
                }
                if was_empty && !dead.accepted.is_empty() {
                    self.notify_accept_watchers(ctx, os, op, global, &mut out);
                }
            }
            ListenVariant::ReusePort | ListenVariant::Global => {
                for &(_, sock) in &dead.embryos {
                    // The dead queue entry is already drained.
                    self.socks.get_mut(sock).syn_queued_in = None;
                    self.reset_stranded(ctx, os, op, sock, &mut out);
                }
                for &sock in &dead.accepted {
                    self.socks.get_mut(sock).queued_in = None;
                    self.reset_stranded(ctx, os, op, sock, &mut out);
                }
            }
        }
        out
    }

    /// Resets and frees one connection stranded by a worker crash.
    fn reset_stranded(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        sock: SockId,
        out: &mut RxOutcome,
    ) {
        let (flow, snd_nxt) = {
            let t = self.socks.get(sock);
            (t.flow, t.snd_nxt)
        };
        let rst = Packet::new(flow, TcpFlags::RST).with_seq(snd_nxt);
        self.stats.rst_sent += 1;
        op.work(CycleClass::Handshake, self.config.costs.rst);
        self.transmit(op, rst, out);
        self.teardown(ctx, os, op, sock);
    }

    // ------------------------------------------------------------------
    // The process half (syscalls)
    // ------------------------------------------------------------------

    /// `accept()`: takes one ready connection for the worker `pid`
    /// pinned to `core`. Implements Figure 2's ordering: the global
    /// listen socket's accept queue is checked first (a lock-free read;
    /// checking local first would starve slow-path connections), then
    /// the core-appropriate queue.
    pub fn accept(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        port: u16,
        core: CoreId,
        pid: Pid,
    ) -> Option<(SockId, AcceptSource)> {
        let costs = self.config.costs;
        self.syscall_entry(op);
        op.work(CycleClass::Syscall, costs.accept);

        let (child, source) = match self.config.listen {
            ListenVariant::Global => {
                let ls_id = self.listen_table.global_of(port);
                let ls_sock = self.listen_table.ls(ls_id).sock;
                let ls_lock = self.socks.get(ls_sock).lock;
                let ls_obj = self.socks.get(ls_sock).obj;
                op.touch_mut(ctx, ls_obj);
                op.lock_do_nested(
                    &mut ctx.locks,
                    ls_lock,
                    CycleClass::Syscall,
                    costs.listen_hold_accept,
                    1,
                );
                (
                    self.listen_table.ls_mut(ls_id).accept_queue.pop_front(),
                    AcceptSource::Local,
                )
            }
            ListenVariant::ReusePort => {
                let ls_id = self.listen_table.copy_of(port, core)?;
                let ls_sock = self.listen_table.ls(ls_id).sock;
                let ls_lock = self.socks.get(ls_sock).lock;
                let ls_obj = self.socks.get(ls_sock).obj;
                op.touch_mut(ctx, ls_obj);
                op.lock_do_nested(
                    &mut ctx.locks,
                    ls_lock,
                    CycleClass::Syscall,
                    costs.listen_hold_accept,
                    1,
                );
                (
                    self.listen_table.ls_mut(ls_id).accept_queue.pop_front(),
                    AcceptSource::Local,
                )
            }
            ListenVariant::Local => {
                // Check the global queue first — a single atomic read
                // when it is empty (the common case). (The ablation
                // flag reverses the order to demonstrate starvation.)
                let global = self.listen_table.global_of(port);
                op.work(CycleClass::Syscall, 25);
                let local_first = self.config.accept_local_first
                    && self
                        .listen_table
                        .local_of(port, core)
                        .is_some_and(|l| !self.listen_table.ls(l).accept_queue.is_empty());
                let lookup_core = if self.config.fault == FaultInjection::CrossCoreAccept {
                    // Fault: pop from the next core's local table.
                    CoreId((core.0 + 1) % self.config.cores)
                } else {
                    core
                };
                if !local_first && !self.listen_table.ls(global).accept_queue.is_empty() {
                    let ls_sock = self.listen_table.ls(global).sock;
                    let ls_lock = self.socks.get(ls_sock).lock;
                    let ls_obj = self.socks.get(ls_sock).obj;
                    op.touch_mut(ctx, ls_obj);
                    op.lock_do_nested(
                        &mut ctx.locks,
                        ls_lock,
                        CycleClass::Syscall,
                        costs.listen_hold_accept,
                        1,
                    );
                    (
                        self.listen_table.ls_mut(global).accept_queue.pop_front(),
                        AcceptSource::Global,
                    )
                } else if let Some(local) = self.listen_table.local_of(port, lookup_core) {
                    let ls = self.listen_table.ls(local);
                    if let Some(owner) = ls.core {
                        // A local listen table entry belongs to exactly
                        // one core (§3.2.1).
                        op.checker()
                            .lint(PartitionLint::LocalListen, core.0, owner.0);
                    }
                    let ls_sock = ls.sock;
                    let ls_lock = self.socks.get(ls_sock).lock;
                    let ls_obj = self.socks.get(ls_sock).obj;
                    op.touch_mut(ctx, ls_obj);
                    op.lock_do_nested(
                        &mut ctx.locks,
                        ls_lock,
                        CycleClass::Syscall,
                        costs.listen_hold_accept,
                        1,
                    );
                    (
                        self.listen_table.ls_mut(local).accept_queue.pop_front(),
                        AcceptSource::Local,
                    )
                } else {
                    (None, AcceptSource::Local)
                }
            }
        };

        let child = child?;
        match source {
            AcceptSource::Local => self.stats.accepts_local += 1,
            AcceptSource::Global => self.stats.accepts_global += 1,
        }

        // The accepting process owns the connection now.
        let obj = {
            let t = self.socks.get_mut(child);
            t.queued_in = None;
            t.owner = Some(pid);
            t.app_core = core;
            t.obj
        };
        op.touch_mut(ctx, obj);
        // VFS socket-FD materialization + descriptor allocation.
        let node = os.vfs.alloc_socket(ctx, op, core);
        self.socks.get_mut(child).vfs = Some(node);
        op.work(CycleClass::Syscall, costs.fd_alloc);
        Some((child, source))
    }

    /// `connect()`: opens an active connection from `core` to
    /// `(dst_ip, dst_port)`. Returns the socket and the SYN to send.
    /// `None` when the ephemeral range is exhausted.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        core: CoreId,
        pid: Pid,
        src_ip: std::net::Ipv4Addr,
        dst_ip: std::net::Ipv4Addr,
        dst_port: u16,
    ) -> Option<(SockId, Packet)> {
        let costs = self.config.costs;
        self.syscall_entry(op);
        op.work(CycleClass::Syscall, costs.connect);
        let port = self.ports.alloc(ctx, op, core, dst_ip, dst_port, &costs)?;
        let flow = FlowTuple::new(src_ip, port, dst_ip, dst_port);
        let isn = ctx.rng.next_u64() as u32;
        let sock = self.socks.alloc(ctx, flow, TcpState::SynSent, true, core);
        {
            let t = self.socks.get_mut(sock);
            t.owner = Some(pid);
            t.snd_nxt = isn.wrapping_add(1);
        }
        self.mem_charge_tcb(sock);
        let node = os.vfs.alloc_socket(ctx, op, core);
        self.socks.get_mut(sock).vfs = Some(node);
        op.work(CycleClass::Syscall, costs.fd_alloc);

        let home = self.est.insert(ctx, op, core, flow, sock, &costs);
        {
            let t = self.socks.get_mut(sock);
            t.in_est = true;
            t.est_home = home;
        }
        let timer = os.timers.arm(ctx, op);
        self.socks.get_mut(sock).rtx_timer = Some(timer);

        let syn = Packet::new(flow, TcpFlags::SYN).with_seq(isn);
        self.track_unacked(sock, syn);
        let mut dummy = RxOutcome::default();
        self.transmit(op, syn, &mut dummy);
        Some((sock, dummy.replies.pop().unwrap()))
    }

    /// `write()`: sends `bytes` of payload on an established socket.
    /// Returns the data segment, or `None` if the state forbids
    /// sending.
    pub fn send(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        sock: SockId,
        bytes: u16,
    ) -> Option<Packet> {
        let costs = self.config.costs;
        let (lock, buf, can, timer) = {
            let t = self.socks.get(sock);
            (t.lock, t.buf_obj, t.state.can_send(), t.rtx_timer)
        };
        if !can {
            return None;
        }
        self.syscall_entry(op);
        op.work(CycleClass::Syscall, costs.send);
        op.work(CycleClass::Syscall, self.copy_cost(u32::from(bytes)));
        op.touch_mut(ctx, buf);
        // The slock covers buffer queueing and RTO re-arm, as
        // tcp_sendmsg under lock_sock() does.
        let held = op.lock_scope(
            &mut ctx.locks,
            lock,
            CycleClass::TcbManage,
            costs.slock_hold_app,
        );
        match timer {
            Some(t) => os.timers.modify(ctx, op, t),
            None => {
                let t = os.timers.arm(ctx, op);
                self.socks.get_mut(sock).rtx_timer = Some(t);
            }
        }
        op.unlock(held);
        let t = self.socks.get_mut(sock);
        let seg = Packet::new(t.flow, TcpFlags::PSH | TcpFlags::ACK)
            .with_seq(t.snd_nxt)
            .with_ack(t.rcv_nxt)
            .with_payload(bytes);
        t.snd_nxt = t.snd_nxt.wrapping_add(u32::from(bytes));
        self.track_unacked(sock, seg);
        let mut dummy = RxOutcome::default();
        self.transmit(op, seg, &mut dummy);
        Some(dummy.replies.pop().unwrap())
    }

    /// `write()` for bulk responses: queues `bytes` on the send window
    /// and transmits as many MSS segments as the congestion and peer
    /// windows currently allow (GSO-amortized). Returns the segments
    /// to put on the wire; the rest follow from the softirq half as
    /// ACKs open the window. Falls back to one plain
    /// [`TcpStack::send`] segment when the data plane is disabled.
    pub fn send_bulk(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        sock: SockId,
        bytes: u32,
    ) -> Vec<Packet> {
        if self.socks.get(sock).dp.is_none() {
            return self
                .send(ctx, os, op, sock, bytes.min(u32::from(u16::MAX)) as u16)
                .into_iter()
                .collect();
        }
        let costs = self.config.costs;
        let (lock, buf, can, timer) = {
            let t = self.socks.get(sock);
            (t.lock, t.buf_obj, t.state.can_send(), t.rtx_timer)
        };
        if !can || bytes == 0 {
            return Vec::new();
        }
        self.syscall_entry(op);
        op.work(CycleClass::Syscall, costs.send);
        op.work(CycleClass::Syscall, self.copy_cost(bytes));
        op.touch_mut(ctx, buf);
        // The slock covers window queueing, segmentation and the RTO
        // arm, as tcp_sendmsg under lock_sock() does.
        let held = op.lock_scope(
            &mut ctx.locks,
            lock,
            CycleClass::TcbManage,
            costs.slock_hold_app,
        );
        match timer {
            Some(t) => os.timers.modify(ctx, op, t),
            None => {
                let t = os.timers.arm(ctx, op);
                self.socks.get_mut(sock).rtx_timer = Some(t);
            }
        }
        if let Some(dp) = self.socks.get_mut(sock).dp.as_mut() {
            dp.snd.queue(u64::from(bytes));
        }
        let mut out = RxOutcome::default();
        self.push_segments(op, sock, &mut out);
        op.unlock(held);
        out.replies
    }

    /// `read()`: drains the receive queue, returning the bytes read
    /// and — under the data plane — a window-update ACK when the drain
    /// reopens a mostly-closed advertised window.
    pub fn recv(
        &mut self,
        ctx: &mut KernelCtx,
        op: &mut Op,
        sock: SockId,
    ) -> (u32, Option<Packet>) {
        let costs = self.config.costs;
        let (lock, buf) = {
            let t = self.socks.get(sock);
            (t.lock, t.buf_obj)
        };
        self.syscall_entry(op);
        op.work(CycleClass::Syscall, costs.recv);
        op.touch_mut(ctx, buf);
        op.lock_do(
            &mut ctx.locks,
            lock,
            CycleClass::TcbManage,
            costs.slock_hold_app,
        );
        let t = self.socks.get_mut(sock);
        let bytes = std::mem::take(&mut t.rx_ready);
        let (flow, snd_nxt, rcv_nxt) = (t.flow, t.snd_nxt, t.rcv_nxt);
        let update = t.dp.as_mut().and_then(|dp| dp.rcv.drain(bytes)).map(|wnd| {
            Packet::new(flow, TcpFlags::ACK)
                .with_seq(snd_nxt)
                .with_ack(rcv_nxt)
                .with_wnd(wnd)
        });
        self.mem_drain_recv(sock);
        op.work(CycleClass::Syscall, self.copy_cost(bytes));
        if update.is_some() {
            op.work(CycleClass::TxPath, costs.tx_per_packet);
        }
        (bytes, update)
    }

    /// `close()`: releases the FD-side resources and initiates the TCP
    /// teardown. Returns the FIN to send, if one is needed.
    pub fn close(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        sock: SockId,
    ) -> Option<Packet> {
        let costs = self.config.costs;
        self.syscall_entry(op);
        op.work(CycleClass::Syscall, costs.close);
        let lock = self.socks.get(sock).lock;
        op.lock_do(
            &mut ctx.locks,
            lock,
            CycleClass::TcbManage,
            costs.slock_hold_app,
        );

        // FD-side teardown happens immediately (VFS + epoll).
        if let Some(node) = self.socks.get_mut(sock).vfs.take() {
            os.vfs.free_socket(ctx, op, node);
        }
        if let Some(ep) = self.socks.get_mut(sock).epoll.take() {
            os.epolls.ctl_del(ctx, op, ep);
        }

        let state = self.socks.get(sock).state;
        match state::on_close(state) {
            Some((next, send_fin)) => {
                self.socks.get_mut(sock).state = next;
                if send_fin && self.mem.is_some() {
                    if self
                        .mem
                        .as_ref()
                        .is_some_and(sim_res::MemAccounts::orphans_at_cap)
                    {
                        // tcp_max_orphans analogue: too many fd-less
                        // sockets already in teardown — abort with a
                        // RST instead of lingering through FIN states.
                        self.stats.mem_mut().orphans_killed += 1;
                        let rst = {
                            let t = self.socks.get(sock);
                            Packet::new(t.flow, TcpFlags::RST | TcpFlags::ACK)
                                .with_seq(t.snd_nxt)
                                .with_ack(t.rcv_nxt)
                        };
                        self.stats.rst_sent += 1;
                        self.teardown(ctx, os, op, sock);
                        self.stats.closed += 1;
                        let mut dummy = RxOutcome::default();
                        self.transmit(op, rst, &mut dummy);
                        return dummy.replies.pop();
                    }
                    let core = {
                        let t = self.socks.get_mut(sock);
                        t.mem_orphan = true;
                        t.mem_core
                    };
                    if let Some(m) = self.mem.as_mut() {
                        m.charge_orphan(core);
                    }
                }
                // Data plane: bytes still queued for segmentation mean
                // the FIN must ride behind them — push_segments emits
                // it once the window lets the queue drain.
                let defer_fin = send_fin
                    && self
                        .socks
                        .get_mut(sock)
                        .dp
                        .as_mut()
                        .is_some_and(|dp| dp.snd.defer_fin());
                if defer_fin {
                    None
                } else if send_fin {
                    let (timer,) = { (self.socks.get(sock).rtx_timer,) };
                    match timer {
                        Some(t) => os.timers.modify(ctx, op, t),
                        None => {
                            let t = os.timers.arm(ctx, op);
                            self.socks.get_mut(sock).rtx_timer = Some(t);
                        }
                    }
                    let t = self.socks.get_mut(sock);
                    let mut fin = Packet::new(t.flow, TcpFlags::FIN | TcpFlags::ACK)
                        .with_seq(t.snd_nxt)
                        .with_ack(t.rcv_nxt);
                    if let Some(dp) = t.dp.as_ref() {
                        fin = fin.with_wnd(dp.rcv.advertised());
                    }
                    t.snd_nxt = t.snd_nxt.wrapping_add(1);
                    self.track_unacked(sock, fin);
                    let mut dummy = RxOutcome::default();
                    self.transmit(op, fin, &mut dummy);
                    Some(dummy.replies.pop().unwrap())
                } else {
                    // e.g. closing a SYN_SENT socket: vanish quietly.
                    self.teardown(ctx, os, op, sock);
                    None
                }
            }
            None => None,
        }
    }

    /// Removes an aborted embryonic connection from its listen socket's
    /// SYN queue, if present.
    fn abort_embryonic(&mut self, ctx: &mut KernelCtx, op: &mut Op, lflow: &FlowTuple) {
        let costs = self.config.costs;
        let core = op.core();
        let Some(ls_id) =
            self.listen_table
                .lookup(ctx, op, core, lflow, &self.socks, &costs, &mut self.stats)
        else {
            return;
        };
        if let Some(child) = self.listen_table.ls_mut(ls_id).syn_queue.remove(lflow) {
            self.mem_uncharge_sock(child);
            self.socks.release(ctx, child);
            op.trace_mark(flow_hash(lflow), TraceLabel::Closed);
        }
    }

    /// The generation token of a socket (pass back to
    /// [`TcpStack::tw_expire`] so a deferred expiry cannot recycle an
    /// unrelated reuse of the slab slot).
    pub fn sock_gen(&self, sock: SockId) -> u64 {
        self.socks.get(sock).gen
    }

    /// TIME_WAIT expiry (driven by the simulation's timer events):
    /// recycles the socket. `gen` must match the token captured when
    /// the socket entered TIME_WAIT.
    pub fn tw_expire(&mut self, ctx: &mut KernelCtx, os: &mut OsServices, sock: SockId, gen: u64) {
        if !self.socks.exists(sock) || self.socks.get(sock).gen != gen {
            return;
        }
        if self.socks.get(sock).state != TcpState::TimeWait {
            return;
        }
        let core = self.socks.get(sock).app_core;
        let mut op = ctx.begin(core, 0);
        op.work(CycleClass::Timer, 300);
        self.teardown(ctx, os, &mut op, sock);
        self.stats.closed += 1;
        op.commit(&mut ctx.cpu);
    }

    /// Completes a stateless SYN-cookie handshake: creates the socket
    /// directly in ESTABLISHED (there was never a SYN-queue entry) and
    /// queues it for `accept()`.
    #[allow(clippy::too_many_arguments)]
    fn complete_cookie_handshake(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        ls_id: LsId,
        lflow: &FlowTuple,
        pkt: &Packet,
        out: &mut RxOutcome,
    ) {
        let costs = self.config.costs;
        let core = op.core();
        op.work(CycleClass::Handshake, costs.ack_promotion);
        let child = self
            .socks
            .alloc(ctx, *lflow, TcpState::Established, false, core);
        {
            let cc_cfg = self.config.cc;
            let t = self.socks.get_mut(child);
            t.snd_nxt = pkt.ack;
            t.rcv_nxt = pkt.seq.wrapping_add(pkt.seq_len());
            t.dp = cc_cfg
                .as_ref()
                .map(|c| Box::new(DataPlane::new(c, pkt.ack)));
            if pkt.payload_len > 0 {
                t.rx_ready += u32::from(pkt.payload_len);
                if let Some(dp) = t.dp.as_mut() {
                    let _ = dp.rcv.accept(pkt.payload_len);
                }
            }
        }
        self.mem_charge_tcb(child);
        self.mem_charge_recv(child, pkt.payload_len);
        self.stats.passive_established += 1;
        op.trace_mark(flow_hash(lflow), TraceLabel::SynArrival);
        op.trace_mark(flow_hash(lflow), TraceLabel::Established);
        if pkt.payload_len > 0 {
            op.trace_mark(flow_hash(lflow), TraceLabel::FirstByte);
        }
        let home = self.est.insert(ctx, op, core, *lflow, child, &costs);
        {
            let t = self.socks.get_mut(child);
            t.in_est = true;
            t.est_home = home;
        }
        let ls_sock = self.listen_table.ls(ls_id).sock;
        let ls_lock = self.socks.get(ls_sock).lock;
        let ls_obj = self.socks.get(ls_sock).obj;
        op.touch_mut(ctx, ls_obj);
        let held = op.lock_scope_nested(
            &mut ctx.locks,
            ls_lock,
            CycleClass::Handshake,
            costs.listen_hold_softirq,
            1,
        );
        let was_empty = self.listen_table.ls(ls_id).accept_queue.is_empty();
        self.listen_table
            .ls_mut(ls_id)
            .accept_queue
            .push_back(child);
        self.socks.get_mut(child).queued_in = Some(ls_id);
        if was_empty {
            self.notify_accept_watchers(ctx, os, op, ls_id, out);
        }
        op.unlock(held);
    }

    /// Full resource teardown of a socket: established-table removal,
    /// port release, timers, VFS leftovers, TCB free.
    fn teardown(&mut self, ctx: &mut KernelCtx, os: &mut OsServices, op: &mut Op, sock: SockId) {
        self.mem_uncharge_sock(sock);
        let costs = self.config.costs;
        let (in_est, est_home, flow, active, queued_in, syn_queued_in) = {
            let t = self.socks.get(sock);
            (
                t.in_est,
                t.est_home,
                t.flow,
                t.active,
                t.queued_in,
                t.syn_queued_in,
            )
        };
        if let Some(ls_id) = queued_in {
            // The connection dies while waiting in an accept queue
            // (e.g. the client reset it): unlink it.
            self.listen_table
                .ls_mut(ls_id)
                .accept_queue
                .retain(|&s| s != sock);
        }
        if let Some(ls_id) = syn_queued_in {
            // The embryo dies mid-handshake (e.g. SYN-ACK retries
            // exhausted): unlink its SYN-queue entry so a late
            // handshake ACK cannot resolve to a freed socket.
            self.listen_table.ls_mut(ls_id).syn_queue.remove(&flow);
        }
        if in_est {
            self.est.remove(ctx, op, est_home, &flow, &costs);
        }
        if active {
            self.ports
                .release(flow.dst_ip, flow.dst_port, flow.src_port);
        }
        self.disarm_timer(ctx, os, op, sock);
        if let Some(node) = self.socks.get_mut(sock).vfs.take() {
            os.vfs.free_socket(ctx, op, node);
        }
        if let Some(ep) = self.socks.get_mut(sock).epoll.take() {
            os.epolls.ctl_del(ctx, op, ep);
        }
        self.socks.release(ctx, sock);
        op.trace_mark(flow_hash(&flow), TraceLabel::Closed);
    }

    fn disarm_timer(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        sock: SockId,
    ) {
        if let Some(t) = self.socks.get_mut(sock).rtx_timer.take() {
            os.timers.disarm(ctx, op, t);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn post_epoll(
        &mut self,
        ctx: &mut KernelCtx,
        os: &mut OsServices,
        op: &mut Op,
        sock: SockId,
        readable: bool,
        writable: bool,
        out: &mut RxOutcome,
    ) {
        let (ep, data, owner) = {
            let t = self.socks.get(sock);
            (t.epoll, t.epoll_data, t.owner)
        };
        if let (Some(ep), Some(pid)) = (ep, owner) {
            let woke = os.epolls.post(
                ctx,
                op,
                ep,
                EpollEvent {
                    data,
                    readable,
                    writable,
                },
            );
            if woke {
                out.wakeups.push(pid);
            }
        }
    }

    fn transmit(&mut self, op: &mut Op, pkt: Packet, out: &mut RxOutcome) {
        op.work(CycleClass::TxPath, self.config.costs.tx_per_packet);
        out.replies.push(pkt);
    }

    /// Renders the socket table in `/proc/net/tcp` format — the
    /// compatibility surface §3.4 deliberately preserves so `netstat`
    /// and `lsof` keep working under the Fastsocket-aware VFS.
    ///
    /// ```text
    ///   sl  local_address rem_address   st
    ///    0: 0100000A:0050 00000000:0000 0A
    /// ```
    pub fn proc_net_tcp(&self) -> String {
        fn hex_addr(ip: std::net::Ipv4Addr, port: u16) -> String {
            // Linux prints the address as little-endian hex.
            let o = ip.octets();
            format!(
                "{:02X}{:02X}{:02X}{:02X}:{:04X}",
                o[3], o[2], o[1], o[0], port
            )
        }
        fn state_code(state: TcpState) -> u8 {
            match state {
                TcpState::Established => 0x01,
                TcpState::SynSent => 0x02,
                TcpState::SynRcvd => 0x03,
                TcpState::FinWait1 => 0x04,
                TcpState::FinWait2 => 0x05,
                TcpState::TimeWait => 0x06,
                TcpState::Closed => 0x07,
                TcpState::CloseWait => 0x08,
                TcpState::LastAck => 0x09,
                TcpState::Listen => 0x0A,
                TcpState::Closing => 0x0B,
            }
        }
        let mut out = String::from(
            "  sl  local_address rem_address   st
",
        );
        for (i, tcb) in self.socks.iter().enumerate() {
            out.push_str(&format!(
                "{:4}: {} {} {:02X}
",
                i,
                hex_addr(tcb.flow.src_ip, tcb.flow.src_port),
                hex_addr(tcb.flow.dst_ip, tcb.flow.dst_port),
                state_code(tcb.state),
            ));
        }
        out
    }

    /// Socket counts by state (a `ss -s`-style summary).
    pub fn socket_summary(&self) -> Vec<(TcpState, usize)> {
        let mut counts: Vec<(TcpState, usize)> = Vec::new();
        for tcb in self.socks.iter() {
            match counts.iter_mut().find(|(s, _)| *s == tcb.state) {
                Some((_, n)) => *n += 1,
                None => counts.push((tcb.state, 1)),
            }
        }
        counts
    }
}
