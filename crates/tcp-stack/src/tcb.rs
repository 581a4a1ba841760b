//! TCP control blocks (sockets) and their registry.

use serde::{Deserialize, Serialize};
use sim_core::{CoreId, Cycles, TimerKey};
use sim_mem::{ObjId, ObjKind};
use sim_net::FlowTuple;
use sim_os::epoll::EpollId;
use sim_os::process::Pid;
use sim_os::timer::TimerHandle;
use sim_os::vfs::VfsNode;
use sim_os::KernelCtx;
use sim_sync::{LockClass, LockId};

use crate::state::TcpState;

/// Identifies one socket (TCB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SockId(pub u32);

/// A TCP control block.
///
/// `flow` is stored from the local endpoint's perspective (`src` =
/// local address/port). `app_core` records where the owning application
/// runs — the reference point for connection-locality accounting.
///
/// Every field has one owning component:
///
/// | Component | Fields |
/// |---|---|
/// | `tcb.rs` (identity & registry) | `id`, `gen`, `flow`, `active`, `lock`, `obj`, `buf_obj`, `app_core` |
/// | `state.rs` (state machine) | `state` |
/// | `stack.rs` (sequence & retransmit path) | `snd_nxt`, `rcv_nxt`, `rx_ready`, `peer_fin_seen`, `unacked`, `rtx_attempts`, `rtx_timer` |
/// | sim-os integration (vfs/epoll/process) | `owner`, `epoll`, `epoll_data`, `vfs` |
/// | `listen.rs` (accept & SYN queues) | `queued_in`, `syn_queued_in` |
/// | `established.rs` (table membership) | `in_est`, `est_home` |
/// | `window.rs` (data plane) | `dp` |
/// | `stack.rs` `mem_*` helpers (sim-res ledger) | `mem_charge`, `mem_rcv`, `mem_snd`, `mem_orphan`, `mem_core` |
#[derive(Debug)]
pub struct Tcb {
    /// This socket's id.
    pub id: SockId,
    /// Allocation generation: distinguishes reuses of the same slab
    /// slot (deferred events like TIME_WAIT expiry carry this token).
    pub gen: u64,
    /// Local-perspective connection tuple.
    pub flow: FlowTuple,
    /// Current connection state.
    pub state: TcpState,
    /// Whether this connection was actively opened (`connect`).
    pub active: bool,
    /// Next sequence number to send.
    pub snd_nxt: u32,
    /// Next sequence number expected from the peer.
    pub rcv_nxt: u32,
    /// The per-socket spinlock (`slock`).
    pub lock: LockId,
    /// Cache object for the TCB itself.
    pub obj: ObjId,
    /// Cache object for the socket buffers.
    pub buf_obj: ObjId,
    /// The core the owning application runs on.
    pub app_core: CoreId,
    /// Owning process, once accepted/connected.
    pub owner: Option<Pid>,
    /// Epoll instance watching this socket, if registered.
    pub epoll: Option<EpollId>,
    /// The `epoll_data` token the application registered with.
    pub epoll_data: u64,
    /// Whether this socket is currently in the established table.
    pub in_est: bool,
    /// Retransmission timer, when armed.
    pub rtx_timer: Option<TimerHandle>,
    /// VFS state, once the socket has an FD.
    pub vfs: Option<VfsNode>,
    /// Bytes received and not yet read by the application.
    pub rx_ready: u32,
    /// Whether the peer's FIN has been delivered to the application.
    pub peer_fin_seen: bool,
    /// For the Local Established Table: which core's table holds this
    /// socket (`None` under the global table).
    pub est_home: Option<CoreId>,
    /// The listen socket whose accept queue currently holds this
    /// connection (so an abort can unlink it).
    pub queued_in: Option<crate::listen::LsId>,
    /// The listen socket whose SYN queue holds this embryo (so an
    /// abort before handshake completion can unlink it).
    pub syn_queued_in: Option<crate::listen::LsId>,
    /// Sent-but-unacknowledged segments, oldest first (retransmitted on
    /// RTO expiry under packet loss).
    pub unacked: std::collections::VecDeque<sim_net::Packet>,
    /// Consecutive RTO firings without forward progress; the
    /// connection is aborted past the retry limit.
    pub rtx_attempts: u8,
    /// Sliding-window data-plane state (send/receive windows and the
    /// congestion controller); present only when `StackConfig::cc`
    /// enables bulk transfer. The single-packet request/response paths
    /// never allocate it, so they stay byte-identical to the pre-data-
    /// plane model.
    pub dp: Option<Box<crate::window::DataPlane>>,
    /// What the memory ledger holds for this socket (`StackConfig::mem`
    /// accounting only): the bucket kind to uncharge at teardown, kept
    /// separately from `state` because resets rewrite the TCP state
    /// before release.
    pub mem_charge: sim_res::MemCharge,
    /// Receive-buffer bytes (payload + skb overhead) currently charged
    /// to the memory ledger for this socket, unscaled.
    pub mem_rcv: u32,
    /// Send-buffer bytes currently charged for this socket's unacked
    /// queue, unscaled.
    pub mem_snd: u32,
    /// Whether an orphan bucket is charged (fd closed, TCP alive).
    pub mem_orphan: bool,
    /// The core whose account holds this socket's charges. Pinned at
    /// the first charge so later `app_core` rebinds (accept moves the
    /// socket to the accepting core) cannot unbalance a core account.
    pub mem_core: CoreId,
}

/// The socket registry (slab).
#[derive(Debug, Default)]
pub struct SockTable {
    socks: Vec<Option<Tcb>>,
    /// Per-slot event keys of the slot's queued RTO expiries. Kept
    /// across slot reuse so each vector's capacity is recycled too.
    rto_keys: Vec<Vec<TimerKey>>,
    /// Keys of queued RTO expiries whose sockets were freed.
    dead_rto_keys: Vec<TimerKey>,
    free: Vec<u32>,
    live: u32,
    next_gen: u64,
}

impl SockTable {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a TCB in `state` for `flow`, registering its lock and
    /// cache objects on `core`.
    pub fn alloc(
        &mut self,
        ctx: &mut KernelCtx,
        flow: FlowTuple,
        state: TcpState,
        active: bool,
        core: CoreId,
    ) -> SockId {
        let lock = ctx.locks.register(LockClass::Slock);
        let kind = if state == TcpState::Listen {
            ObjKind::ListenSock
        } else {
            ObjKind::Tcb
        };
        let obj = ctx.cache.alloc(kind, core);
        let buf_obj = ctx.cache.alloc(ObjKind::SockBuf, core);
        self.next_gen += 1;
        let tcb = Tcb {
            id: SockId(0), // patched below
            gen: self.next_gen,
            flow,
            state,
            active,
            snd_nxt: 0,
            rcv_nxt: 0,
            lock,
            obj,
            buf_obj,
            app_core: core,
            owner: None,
            epoll: None,
            epoll_data: 0,
            in_est: false,
            rtx_timer: None,
            vfs: None,
            rx_ready: 0,
            peer_fin_seen: false,
            est_home: None,
            queued_in: None,
            syn_queued_in: None,
            unacked: std::collections::VecDeque::new(),
            rtx_attempts: 0,
            dp: None,
            mem_charge: sim_res::MemCharge::None,
            mem_rcv: 0,
            mem_snd: 0,
            mem_orphan: false,
            mem_core: core,
        };
        self.live += 1;
        let id = if let Some(idx) = self.free.pop() {
            self.socks[idx as usize] = Some(tcb);
            SockId(idx)
        } else {
            let idx = self.socks.len() as u32;
            self.socks.push(Some(tcb));
            self.rto_keys.push(Vec::new());
            SockId(idx)
        };
        self.get_mut(id).id = id;
        id
    }

    /// Frees a TCB, destroying its lock and cache objects. The caller
    /// must have already torn down VFS state and timers. The keys of
    /// its queued RTO expiries move to
    /// [`take_dead_rto_keys`](Self::take_dead_rto_keys).
    pub fn release(&mut self, ctx: &mut KernelCtx, id: SockId) {
        let tcb = self.socks[id.0 as usize]
            .take()
            .unwrap_or_else(|| panic!("double free of socket {id:?}"));
        debug_assert!(tcb.rtx_timer.is_none(), "freeing socket with armed timer");
        debug_assert!(tcb.vfs.is_none(), "freeing socket with live VFS state");
        ctx.locks.destroy(tcb.lock);
        ctx.cache.free(tcb.obj);
        ctx.cache.free(tcb.buf_obj);
        self.free.push(id.0);
        self.dead_rto_keys.append(&mut self.rto_keys[id.0 as usize]);
        self.live -= 1;
    }

    /// Records `key` as the queued expiry of an RTO the stack armed for
    /// socket `id` at generation `gen`, forgetting keys of expiries due
    /// before `now` (already dispatched). Returns `false` when that
    /// socket is gone: the expiry can only find nothing to do, so the
    /// caller should cancel it.
    pub fn track_rto(&mut self, id: SockId, gen: u64, key: TimerKey, now: Cycles) -> bool {
        let i = id.0 as usize;
        if !matches!(self.socks.get(i), Some(Some(t)) if t.gen == gen) {
            return false;
        }
        let keys = &mut self.rto_keys[i];
        keys.retain(|k| k.time() >= now);
        keys.push(key);
        true
    }

    /// Drains the keys of RTO expiries still queued for sockets freed
    /// since the last call; the driver cancels them.
    pub fn take_dead_rto_keys(&mut self) -> Vec<TimerKey> {
        std::mem::take(&mut self.dead_rto_keys)
    }

    /// Returns the TCB behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if the socket does not exist.
    pub fn get(&self, id: SockId) -> &Tcb {
        self.socks[id.0 as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("no such socket {id:?}"))
    }

    /// Returns the TCB mutably.
    ///
    /// # Panics
    ///
    /// Panics if the socket does not exist.
    pub fn get_mut(&mut self, id: SockId) -> &mut Tcb {
        self.socks[id.0 as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("no such socket {id:?}"))
    }

    /// Whether `id` refers to a live socket.
    pub fn exists(&self, id: SockId) -> bool {
        self.socks.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// Number of live sockets.
    pub fn live_count(&self) -> u32 {
        self.live
    }

    /// Iterates over all live sockets.
    pub fn iter(&self) -> impl Iterator<Item = &Tcb> {
        self.socks.iter().filter_map(|s| s.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimRng;
    use sim_mem::{CacheCosts, CacheModel};
    use sim_sync::{LockCosts, LockTable};
    use std::net::Ipv4Addr;

    fn ctx() -> KernelCtx {
        KernelCtx::new(
            4,
            LockTable::new(LockCosts::default()),
            CacheModel::new(CacheCosts::default()),
            SimRng::seed(3),
        )
    }

    fn flow() -> FlowTuple {
        FlowTuple::new(
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            Ipv4Addr::new(10, 0, 0, 2),
            40_000,
        )
    }

    #[test]
    fn alloc_sets_identity_and_state() {
        let mut c = ctx();
        let mut t = SockTable::new();
        let id = t.alloc(&mut c, flow(), TcpState::SynRcvd, false, CoreId(2));
        let tcb = t.get(id);
        assert_eq!(tcb.id, id);
        assert_eq!(tcb.state, TcpState::SynRcvd);
        assert_eq!(tcb.app_core, CoreId(2));
        assert!(!tcb.active);
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn release_recycles_slots() {
        let mut c = ctx();
        let mut t = SockTable::new();
        let a = t.alloc(&mut c, flow(), TcpState::Established, true, CoreId(0));
        t.release(&mut c, a);
        assert!(!t.exists(a));
        assert_eq!(t.live_count(), 0);
        let b = t.alloc(&mut c, flow(), TcpState::SynSent, true, CoreId(1));
        assert_eq!(a.0, b.0, "slot reused");
        assert!(t.exists(b));
    }

    #[test]
    fn release_hands_back_queued_rto_keys() {
        let mut c = ctx();
        let mut t = SockTable::new();
        let mut q = sim_core::EventQueue::new();
        let a = t.alloc(&mut c, flow(), TcpState::Established, true, CoreId(0));
        let gen = t.get(a).gen;
        let fired = q.push(10, ());
        let queued = q.push(50, ());
        assert!(t.track_rto(a, gen, fired, 0));
        assert!(t.track_rto(a, gen, queued, 20));
        assert!(!t.track_rto(a, gen + 1, queued, 20), "stale generation");
        t.release(&mut c, a);
        assert_eq!(t.take_dead_rto_keys(), vec![queued], "fired key forgotten");
        assert!(t.take_dead_rto_keys().is_empty());
        assert!(!t.track_rto(a, gen, queued, 20), "freed socket");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_release_panics() {
        let mut c = ctx();
        let mut t = SockTable::new();
        let a = t.alloc(&mut c, flow(), TcpState::Established, true, CoreId(0));
        t.release(&mut c, a);
        t.release(&mut c, a);
    }

    #[test]
    fn live_lock_and_cache_objects_match_sockets() {
        let mut c = ctx();
        let mut t = SockTable::new();
        let ids: Vec<SockId> = (0..10)
            .map(|i| t.alloc(&mut c, flow(), TcpState::Established, false, CoreId(i % 4)))
            .collect();
        assert_eq!(c.locks.live_locks(), 10);
        for id in ids {
            t.release(&mut c, id);
        }
        assert_eq!(c.locks.live_locks(), 0);
        assert_eq!(c.cache.footprint(), 0);
    }
}
