//! Kernel memory accounting and pressure model for million-connection
//! scale.
//!
//! The paper proves short-lived *churn* scales once the shared tables
//! are partitioned; the sequel question ("Scouting the Path to a
//! Million-Client Server") is what breaks between 500K conn/s and 1M+
//! *concurrent* sockets, where the binding constraint is kernel memory
//! — TCB and buffer bytes, TIME_WAIT and orphan buckets — not lock
//! contention. Linux makes those limits explicit policy:
//!
//! * `tcp_mem = low / pressure / high` page thresholds drive a global
//!   memory-pressure flag that clamps window advertisements and
//!   triggers receive-queue collapse;
//! * `tcp_max_tw_buckets` caps TIME_WAIT sockets, killing the newest
//!   ones instantly on overflow ("time wait bucket table overflow");
//! * `tcp_max_orphans` caps FIN-orphaned sockets (closed fd, live
//!   TCP), resetting the excess ("too many orphaned sockets").
//!
//! This crate is the *ledger* for that policy: per-core
//! [`CoreAccount`]s (TCB bytes, send/recv buffer bytes, embryo /
//! TIME_WAIT / orphan buckets) rolled up into a global
//! [`MemAccounts`] budget with a [`PressureLevel`] derived from the
//! `tcp_mem`-style thresholds. The *reactions* — SYN drops, embryo
//! pruning, window clamping, buffer reclaim, forced TIME_WAIT recycle,
//! orphan killing — live in the TCP stack, which consults
//! [`MemAccounts::level`] and bumps [`MemStats`] counters.
//!
//! Every charge has a matching uncharge; [`MemAccounts::balance`]
//! certifies the ledger drains to zero so a strict-mode invariant can
//! fail the run on any leak.
//!
//! A [`MemConfig::scale`] factor lets one simulated socket stand in
//! for `scale` modeled sockets, so a ladder can model 1M+ concurrent
//! connections against a real RAM budget without 1M simulated client
//! slots.
//!
//! # Example
//!
//! ```
//! use sim_core::CoreId;
//! use sim_res::{MemAccounts, MemConfig, PressureLevel};
//!
//! let mut mem = MemAccounts::new(MemConfig::ram_mb(1), 2);
//! assert_eq!(mem.level(), PressureLevel::Low);
//! mem.charge_embryo(CoreId(0));
//! mem.promote(CoreId(0));
//! mem.charge_recv_buf(CoreId(0), 4096);
//! mem.uncharge_recv_buf(CoreId(0), 4096);
//! mem.enter_time_wait(CoreId(0));
//! mem.leave_time_wait(CoreId(0));
//! assert!(mem.balance().is_ok());
//! ```

use serde::{Deserialize, Serialize};
use sim_core::CoreId;

/// Modeled resident bytes of one embryonic (SYN_RCVD) connection
/// (`struct tcp_request_sock`, rounded).
pub const EMBRYO_BYTES: u64 = 304;
/// Modeled resident bytes of one established TCB (`struct tcp_sock`,
/// rounded — matches the sim-mem cache footprint).
pub const TCB_BYTES: u64 = 1_664;
/// Modeled resident bytes of one TIME_WAIT bucket
/// (`struct tcp_timewait_sock`, rounded).
pub const TW_BYTES: u64 = 208;
/// Modeled skb truesize overhead charged per delivered segment on top
/// of its payload. Receive-queue collapse (`tcp_collapse`) reclaims
/// exactly this slack under pressure: the data stays, the overhead is
/// repacked away.
pub const SKB_OVERHEAD_BYTES: u64 = 256;

/// What the ledger currently holds for one simulated socket. Stored on
/// the TCB by the stack so every teardown path can uncharge exactly
/// what was charged, even after the TCP state was rewritten (an RST
/// turns any state into `Closed` before release).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemCharge {
    /// Nothing charged: accounting is off, or a listen socket.
    #[default]
    None,
    /// An embryonic request-sock charge ([`EMBRYO_BYTES`]).
    Embryo,
    /// A full TCB charge ([`TCB_BYTES`]).
    Tcb,
    /// A TIME_WAIT bucket charge ([`TW_BYTES`]).
    TimeWait,
}

/// Global memory-pressure level, the `tcp_mem` three-zone model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PressureLevel {
    /// Below the `low` threshold: no accounting reactions.
    Low,
    /// Between `pressure` and `high`: clamp window advertisements,
    /// reclaim buffers.
    Pressure,
    /// At or above `high`: additionally drop SYNs and prune embryos.
    High,
}

impl PressureLevel {
    /// Stable short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PressureLevel::Low => "low",
            PressureLevel::Pressure => "pressure",
            PressureLevel::High => "high",
        }
    }
}

/// Budget thresholds and bucket caps — the simulated sysctl block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemConfig {
    /// `tcp_mem[0]`: below this many modeled bytes the subsystem is
    /// quiescent (hysteresis exit point for the pressure flag).
    pub low_bytes: u64,
    /// `tcp_mem[1]`: entering this zone sets the pressure flag.
    pub pressure_bytes: u64,
    /// `tcp_mem[2]`: the hard budget; at or above it SYNs are dropped
    /// and embryos pruned.
    pub high_bytes: u64,
    /// `tcp_max_tw_buckets`: modeled TIME_WAIT sockets beyond this are
    /// recycled instantly instead of waiting out 2*MSL.
    pub max_tw_buckets: u64,
    /// `tcp_max_orphans`: modeled orphans beyond this are reset
    /// instead of finishing a graceful FIN handshake.
    pub max_orphans: u64,
    /// Each simulated socket models this many real sockets; every
    /// charge (bytes and buckets) is multiplied by it.
    pub scale: u32,
}

impl MemConfig {
    /// Budget derived from a modeled RAM size: `high` = the full
    /// budget, `pressure` = 3/4, `low` = 1/2, with bucket caps sized
    /// the way Linux derives its defaults from memory (TIME_WAIT
    /// buckets ≈ budget / 4 KiB, orphans ≈ budget / 64 KiB).
    pub fn ram_bytes(bytes: u64) -> MemConfig {
        MemConfig {
            low_bytes: bytes / 2,
            pressure_bytes: bytes / 4 * 3,
            high_bytes: bytes,
            max_tw_buckets: bytes / 4_096,
            max_orphans: bytes / 65_536,
            scale: 1,
        }
    }

    /// [`MemConfig::ram_bytes`] in mebibytes.
    pub fn ram_mb(mb: u64) -> MemConfig {
        Self::ram_bytes(mb * 1024 * 1024)
    }

    /// Overrides the TIME_WAIT bucket cap.
    pub fn tw_buckets(mut self, cap: u64) -> MemConfig {
        self.max_tw_buckets = cap;
        self
    }

    /// Overrides the orphan cap.
    pub fn orphans(mut self, cap: u64) -> MemConfig {
        self.max_orphans = cap;
        self
    }

    /// Sets the socket modeling scale (see [`MemConfig::scale`]).
    pub fn scaled(mut self, scale: u32) -> MemConfig {
        self.scale = scale.max(1);
        self
    }

    /// Divides the budget across `lanes` equal machine partitions, for
    /// the lane-sharded parallel executor. Thresholds and caps round
    /// down identically for every lane so lane outcomes are
    /// permutation-stable.
    pub fn split(&self, lanes: u16) -> MemConfig {
        let l = u64::from(lanes.max(1));
        MemConfig {
            low_bytes: self.low_bytes / l,
            pressure_bytes: self.pressure_bytes / l,
            high_bytes: self.high_bytes / l,
            max_tw_buckets: self.max_tw_buckets / l,
            max_orphans: self.max_orphans / l,
            scale: self.scale,
        }
    }
}

/// One core's slice of the ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreAccount {
    /// Modeled TCB bytes (established + TIME_WAIT control blocks).
    pub tcb_bytes: u64,
    /// Modeled send-buffer bytes awaiting ACK.
    pub send_buf_bytes: u64,
    /// Modeled receive-buffer bytes awaiting `recv()`.
    pub recv_buf_bytes: u64,
    /// Embryonic (SYN_RCVD) connections.
    pub embryos: u64,
    /// TIME_WAIT buckets.
    pub time_wait: u64,
    /// Orphans (fd closed, TCP still alive).
    pub orphans: u64,
}

impl CoreAccount {
    /// Total modeled bytes charged to this core.
    pub fn bytes(&self) -> u64 {
        self.tcb_bytes + self.send_buf_bytes + self.recv_buf_bytes
    }

    fn is_zero(&self) -> bool {
        *self == CoreAccount::default()
    }
}

/// The rolled-up machine ledger: per-core accounts, cached global
/// totals, watermarks, and the current [`PressureLevel`].
#[derive(Debug, Clone)]
pub struct MemAccounts {
    cfg: MemConfig,
    cores: Vec<CoreAccount>,
    total_bytes: u64,
    sockets: u64,
    embryos: u64,
    time_wait: u64,
    orphans: u64,
    level: PressureLevel,
    peak_bytes: u64,
    peak_sockets: u64,
    peak_embryos: u64,
    peak_time_wait: u64,
    peak_orphans: u64,
}

impl MemAccounts {
    /// Creates an empty ledger over `cores` per-core accounts.
    pub fn new(cfg: MemConfig, cores: usize) -> MemAccounts {
        MemAccounts {
            cfg,
            cores: vec![CoreAccount::default(); cores.max(1)],
            total_bytes: 0,
            sockets: 0,
            embryos: 0,
            time_wait: 0,
            orphans: 0,
            level: PressureLevel::Low,
            peak_bytes: 0,
            peak_sockets: 0,
            peak_embryos: 0,
            peak_time_wait: 0,
            peak_orphans: 0,
        }
    }

    /// The configured budget.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    fn unit(&self) -> u64 {
        u64::from(self.cfg.scale.max(1))
    }

    fn core(&mut self, core: CoreId) -> &mut CoreAccount {
        let idx = (core.0 as usize) % self.cores.len();
        &mut self.cores[idx]
    }

    /// Recomputes the pressure level with `tcp_mem`-style hysteresis:
    /// the pressure flag set above `pressure_bytes` only clears below
    /// `low_bytes`. Returns the new level when it changed.
    fn relevel(&mut self) -> Option<PressureLevel> {
        let next = if self.total_bytes >= self.cfg.high_bytes {
            PressureLevel::High
        } else if self.total_bytes >= self.cfg.pressure_bytes {
            PressureLevel::Pressure
        } else if self.total_bytes >= self.cfg.low_bytes && self.level >= PressureLevel::Pressure {
            // Hysteresis: stay in the pressure zone until we drain
            // below `low`.
            PressureLevel::Pressure
        } else {
            PressureLevel::Low
        };
        if next == self.level {
            return None;
        }
        self.level = next;
        Some(next)
    }

    fn add_bytes(&mut self, core: CoreId, bytes: u64, slot: fn(&mut CoreAccount) -> &mut u64) {
        let scaled = bytes * self.unit();
        *slot(self.core(core)) += scaled;
        self.total_bytes += scaled;
        self.peak_bytes = self.peak_bytes.max(self.total_bytes);
    }

    fn sub_bytes(&mut self, core: CoreId, bytes: u64, slot: fn(&mut CoreAccount) -> &mut u64) {
        let scaled = bytes * self.unit();
        let s = slot(self.core(core));
        debug_assert!(*s >= scaled, "memory account underflow");
        *s -= scaled;
        self.total_bytes -= scaled;
    }

    /// Charges one embryonic connection (SYN accepted into the syn
    /// queue). Returns the pressure transition, if any.
    pub fn charge_embryo(&mut self, core: CoreId) -> Option<PressureLevel> {
        let n = self.unit();
        self.core(core).embryos += n;
        self.embryos += n;
        self.peak_embryos = self.peak_embryos.max(self.embryos);
        self.add_bytes(core, EMBRYO_BYTES, |c| &mut c.tcb_bytes);
        self.relevel()
    }

    /// Uncharges an embryo that dies without promoting (prune, RST,
    /// retransmit-abandon).
    pub fn uncharge_embryo(&mut self, core: CoreId) -> Option<PressureLevel> {
        let n = self.unit();
        let c = self.core(core);
        debug_assert!(c.embryos >= n, "embryo bucket underflow");
        c.embryos -= n;
        self.embryos -= n;
        self.sub_bytes(core, EMBRYO_BYTES, |c| &mut c.tcb_bytes);
        self.relevel()
    }

    /// Promotes an embryo to a full established TCB (third-ACK
    /// completion): swaps the request-sock charge for a tcp_sock
    /// charge and counts a live socket.
    pub fn promote(&mut self, core: CoreId) -> Option<PressureLevel> {
        let n = self.unit();
        let c = self.core(core);
        debug_assert!(c.embryos >= n, "promotion without embryo charge");
        c.embryos -= n;
        self.embryos -= n;
        self.sub_bytes(core, EMBRYO_BYTES, |c| &mut c.tcb_bytes);
        self.charge_tcb(core)
    }

    /// Charges a full TCB directly (actively-opened client sockets and
    /// cookie-validated promotions that never held an embryo charge).
    pub fn charge_tcb(&mut self, core: CoreId) -> Option<PressureLevel> {
        self.sockets += self.unit();
        self.peak_sockets = self.peak_sockets.max(self.sockets);
        self.add_bytes(core, TCB_BYTES, |c| &mut c.tcb_bytes);
        self.relevel()
    }

    /// Uncharges a full TCB on teardown (from any live state except
    /// TIME_WAIT, which uses [`MemAccounts::leave_time_wait`]).
    pub fn uncharge_tcb(&mut self, core: CoreId) -> Option<PressureLevel> {
        let n = self.unit();
        debug_assert!(self.sockets >= n, "socket count underflow");
        self.sockets -= n;
        self.sub_bytes(core, TCB_BYTES, |c| &mut c.tcb_bytes);
        self.relevel()
    }

    /// Shrinks a TCB to a TIME_WAIT bucket: the tcp_sock is freed, a
    /// timewait-sock bucket is charged.
    pub fn enter_time_wait(&mut self, core: CoreId) -> Option<PressureLevel> {
        let n = self.unit();
        debug_assert!(self.sockets >= n, "TIME_WAIT entry without live socket");
        self.sockets -= n;
        self.sub_bytes(core, TCB_BYTES, |c| &mut c.tcb_bytes);
        let c = self.core(core);
        c.time_wait += n;
        self.time_wait += n;
        self.peak_time_wait = self.peak_time_wait.max(self.time_wait);
        self.add_bytes(core, TW_BYTES, |c| &mut c.tcb_bytes);
        self.relevel()
    }

    /// Releases a TIME_WAIT bucket (2*MSL expiry, tw_reuse recycling,
    /// or forced recycle at the bucket cap).
    pub fn leave_time_wait(&mut self, core: CoreId) -> Option<PressureLevel> {
        let n = self.unit();
        let c = self.core(core);
        debug_assert!(c.time_wait >= n, "TIME_WAIT bucket underflow");
        c.time_wait -= n;
        self.time_wait -= n;
        self.sub_bytes(core, TW_BYTES, |c| &mut c.tcb_bytes);
        self.relevel()
    }

    /// Charges an orphan bucket (fd closed while TCP lives on; the TCB
    /// bytes stay charged — this only tracks the bucket count).
    pub fn charge_orphan(&mut self, core: CoreId) {
        let n = self.unit();
        self.core(core).orphans += n;
        self.orphans += n;
        self.peak_orphans = self.peak_orphans.max(self.orphans);
    }

    /// Releases an orphan bucket (the orphan's TCP finally died).
    pub fn uncharge_orphan(&mut self, core: CoreId) {
        let n = self.unit();
        let c = self.core(core);
        debug_assert!(c.orphans >= n, "orphan bucket underflow");
        c.orphans -= n;
        self.orphans -= n;
    }

    /// Charges send-buffer bytes (queued, not yet fully ACKed).
    pub fn charge_send_buf(&mut self, core: CoreId, bytes: u64) -> Option<PressureLevel> {
        self.add_bytes(core, bytes, |c| &mut c.send_buf_bytes);
        self.relevel()
    }

    /// Uncharges ACKed send-buffer bytes.
    pub fn uncharge_send_buf(&mut self, core: CoreId, bytes: u64) -> Option<PressureLevel> {
        self.sub_bytes(core, bytes, |c| &mut c.send_buf_bytes);
        self.relevel()
    }

    /// Charges receive-buffer bytes (delivered, not yet `recv()`ed).
    pub fn charge_recv_buf(&mut self, core: CoreId, bytes: u64) -> Option<PressureLevel> {
        self.add_bytes(core, bytes, |c| &mut c.recv_buf_bytes);
        self.relevel()
    }

    /// Uncharges drained receive-buffer bytes.
    pub fn uncharge_recv_buf(&mut self, core: CoreId, bytes: u64) -> Option<PressureLevel> {
        self.sub_bytes(core, bytes, |c| &mut c.recv_buf_bytes);
        self.relevel()
    }

    /// Current global pressure level.
    pub fn level(&self) -> PressureLevel {
        self.level
    }

    /// Whether the TIME_WAIT bucket cap is exhausted (the next entry
    /// must be recycled instantly).
    pub fn tw_at_cap(&self) -> bool {
        self.time_wait + self.unit() > self.cfg.max_tw_buckets
    }

    /// Whether the orphan cap is exhausted (the next orphan must be
    /// reset instead of finishing a graceful close).
    pub fn orphans_at_cap(&self) -> bool {
        self.orphans + self.unit() > self.cfg.max_orphans
    }

    /// Total modeled bytes currently charged.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Live modeled sockets (established + states past it, excluding
    /// embryos and TIME_WAIT buckets).
    pub fn sockets(&self) -> u64 {
        self.sockets
    }

    /// Live modeled embryos.
    pub fn embryos(&self) -> u64 {
        self.embryos
    }

    /// Live modeled TIME_WAIT buckets.
    pub fn time_wait(&self) -> u64 {
        self.time_wait
    }

    /// Live modeled orphans.
    pub fn orphans(&self) -> u64 {
        self.orphans
    }

    /// High-watermarks observed since construction, in modeled units:
    /// `(bytes, sockets, embryos, time_wait, orphans)`.
    pub fn peaks(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.peak_bytes,
            self.peak_sockets,
            self.peak_embryos,
            self.peak_time_wait,
            self.peak_orphans,
        )
    }

    /// Certifies the ledger drained to zero: every per-core account
    /// and every global bucket empty. Returns a human-readable
    /// imbalance description otherwise — the strict-mode invariant
    /// fails the run with it.
    pub fn balance(&self) -> Result<(), String> {
        if self.total_bytes == 0
            && self.sockets == 0
            && self.embryos == 0
            && self.time_wait == 0
            && self.orphans == 0
            && self.cores.iter().all(CoreAccount::is_zero)
        {
            return Ok(());
        }
        let leaky: Vec<String> = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| {
                format!(
                    "core{i}: {}B tcb / {}B snd / {}B rcv / {} embryo / {} tw / {} orphan",
                    c.tcb_bytes,
                    c.send_buf_bytes,
                    c.recv_buf_bytes,
                    c.embryos,
                    c.time_wait,
                    c.orphans
                )
            })
            .collect();
        Err(format!(
            "memory accounts did not drain: {} bytes, {} sockets, {} embryos, {} tw, \
             {} orphans still charged [{}]",
            self.total_bytes,
            self.sockets,
            self.embryos,
            self.time_wait,
            self.orphans,
            leaky.join("; ")
        ))
    }
}

/// Pressure-reaction counters, kept by the TCP stack next to its other
/// statistics (merged across lanes like every other stats block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// SYNs dropped because the budget was at `high`.
    pub pressure_syn_drops: u64,
    /// Embryonic connections pruned from syn queues at `high`.
    pub embryos_pruned: u64,
    /// TIME_WAIT entries recycled instantly at the bucket cap.
    pub tw_forced_recycles: u64,
    /// Orphans reset instead of closing gracefully at the orphan cap.
    pub orphans_killed: u64,
    /// ACKs whose advertised window was clamped under pressure.
    pub window_clamps: u64,
    /// Receive-queue collapse passes under pressure.
    pub buffer_reclaims: u64,
    /// Modeled bytes returned by those reclaim passes.
    pub bytes_reclaimed: u64,
    /// Transitions into the `pressure` zone.
    pub enter_pressure: u64,
    /// Transitions into the `high` zone.
    pub enter_high: u64,
}

impl MemStats {
    /// Folds `other`'s counters into `self` (lane merge).
    pub fn merge(&mut self, other: &MemStats) {
        self.pressure_syn_drops += other.pressure_syn_drops;
        self.embryos_pruned += other.embryos_pruned;
        self.tw_forced_recycles += other.tw_forced_recycles;
        self.orphans_killed += other.orphans_killed;
        self.window_clamps += other.window_clamps;
        self.buffer_reclaims += other.buffer_reclaims;
        self.bytes_reclaimed += other.bytes_reclaimed;
        self.enter_pressure += other.enter_pressure;
        self.enter_high += other.enter_high;
    }

    /// Records a level transition.
    pub fn on_transition(&mut self, level: PressureLevel) {
        match level {
            PressureLevel::Low => {}
            PressureLevel::Pressure => self.enter_pressure += 1,
            PressureLevel::High => self.enter_high += 1,
        }
    }
}

/// The `mem` block of a run report: budget and watermarks, in modeled
/// units. The pressure-reaction counters ([`MemStats`]) live in the
/// stack's statistics, once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemReport {
    /// Hard budget (`tcp_mem[2]`) in modeled bytes.
    pub budget_bytes: u64,
    /// Socket modeling scale in effect.
    pub scale: u32,
    /// Peak modeled bytes charged.
    pub peak_bytes: u64,
    /// Peak modeled concurrent sockets (established and later,
    /// excluding embryos / TIME_WAIT).
    pub peak_sockets: u64,
    /// Peak modeled embryonic connections.
    pub peak_embryos: u64,
    /// Peak modeled TIME_WAIT buckets.
    pub peak_time_wait: u64,
    /// Peak modeled orphans.
    pub peak_orphans: u64,
    /// Whether the ledger was conserved at the end of the run: every
    /// freed socket and drained buffer was uncharged, so the accounts
    /// match the surviving socket table exactly (and drain to zero
    /// once it empties). [`MemReport::from_accounts`] seeds this with
    /// the strict drained-to-zero check; the stack overrides it with
    /// its ledger-vs-socket-table audit, which also holds mid-flight.
    pub balanced: bool,
}

impl MemReport {
    /// Assembles the report block from a drained ledger.
    pub fn from_accounts(mem: &MemAccounts) -> MemReport {
        let (peak_bytes, peak_sockets, peak_embryos, peak_time_wait, peak_orphans) = mem.peaks();
        MemReport {
            budget_bytes: mem.config().high_bytes,
            scale: mem.config().scale,
            peak_bytes,
            peak_sockets,
            peak_embryos,
            peak_time_wait,
            peak_orphans,
            balanced: mem.balance().is_ok(),
        }
    }

    /// Folds a lane's report into a machine-wide one: peaks add
    /// (lanes are disjoint machine partitions observed at the same
    /// barrier cadence), budgets add back to the pre-split total, and
    /// balance is conjunctive.
    pub fn merge(&mut self, other: &MemReport) {
        self.budget_bytes += other.budget_bytes;
        self.peak_bytes += other.peak_bytes;
        self.peak_sockets += other.peak_sockets;
        self.peak_embryos += other.peak_embryos;
        self.peak_time_wait += other.peak_time_wait;
        self.peak_orphans += other.peak_orphans;
        self.balanced &= other.balanced;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemConfig {
        MemConfig::ram_bytes(100_000).tw_buckets(3).orphans(2)
    }

    #[test]
    fn ram_budget_derivation() {
        let c = MemConfig::ram_mb(2);
        assert_eq!(c.high_bytes, 2 * 1024 * 1024);
        assert_eq!(c.low_bytes, 1024 * 1024);
        assert_eq!(c.pressure_bytes, 2 * 1024 * 1024 / 4 * 3);
        assert_eq!(c.max_tw_buckets, 2 * 1024 * 1024 / 4096);
        assert_eq!(c.max_orphans, 2 * 1024 * 1024 / 65_536);
        assert_eq!(c.scale, 1);
    }

    #[test]
    fn lifecycle_balances() {
        let mut m = MemAccounts::new(cfg(), 4);
        m.charge_embryo(CoreId(1));
        m.promote(CoreId(1));
        m.charge_recv_buf(CoreId(1), 512);
        m.charge_send_buf(CoreId(1), 256);
        assert_eq!(m.sockets(), 1);
        assert!(m.total_bytes() > TCB_BYTES);
        m.uncharge_recv_buf(CoreId(1), 512);
        m.uncharge_send_buf(CoreId(1), 256);
        m.enter_time_wait(CoreId(1));
        assert_eq!(m.time_wait(), 1);
        assert_eq!(m.sockets(), 0);
        m.leave_time_wait(CoreId(1));
        assert!(m.balance().is_ok());
        assert_eq!(m.total_bytes(), 0);
    }

    #[test]
    fn imbalance_is_described() {
        let mut m = MemAccounts::new(cfg(), 2);
        m.charge_embryo(CoreId(0));
        let err = m.balance().unwrap_err();
        assert!(err.contains("1 embryos"), "{err}");
        assert!(err.contains("core0"), "{err}");
    }

    #[test]
    fn levels_follow_thresholds_with_hysteresis() {
        let c = MemConfig {
            low_bytes: 1_000,
            pressure_bytes: 2_000,
            high_bytes: 3_000,
            max_tw_buckets: 100,
            max_orphans: 100,
            scale: 1,
        };
        let mut m = MemAccounts::new(c, 1);
        assert_eq!(m.level(), PressureLevel::Low);
        let t = m.charge_recv_buf(CoreId(0), 2_500);
        assert_eq!(t, Some(PressureLevel::Pressure));
        let t = m.charge_recv_buf(CoreId(0), 600);
        assert_eq!(t, Some(PressureLevel::High));
        // Drop below pressure_bytes but above low: hysteresis holds.
        let t = m.uncharge_recv_buf(CoreId(0), 1_600);
        assert_eq!(t, Some(PressureLevel::Pressure));
        assert_eq!(m.level(), PressureLevel::Pressure);
        // Only draining below `low` clears the flag.
        let t = m.uncharge_recv_buf(CoreId(0), 1_000);
        assert_eq!(t, Some(PressureLevel::Low));
    }

    #[test]
    fn bucket_caps() {
        let mut m = MemAccounts::new(cfg(), 1);
        for _ in 0..3 {
            m.charge_embryo(CoreId(0));
            m.promote(CoreId(0));
            assert!(!m.tw_at_cap());
            m.enter_time_wait(CoreId(0));
        }
        assert!(m.tw_at_cap());
        m.leave_time_wait(CoreId(0));
        assert!(!m.tw_at_cap());

        assert!(!m.orphans_at_cap());
        m.charge_orphan(CoreId(0));
        m.charge_orphan(CoreId(0));
        assert!(m.orphans_at_cap());
        m.uncharge_orphan(CoreId(0));
        assert!(!m.orphans_at_cap());
    }

    #[test]
    fn scale_multiplies_everything() {
        let mut m = MemAccounts::new(cfg().scaled(16), 2);
        m.charge_embryo(CoreId(0));
        assert_eq!(m.embryos(), 16);
        assert_eq!(m.total_bytes(), 16 * EMBRYO_BYTES);
        m.promote(CoreId(0));
        assert_eq!(m.sockets(), 16);
        assert_eq!(m.total_bytes(), 16 * TCB_BYTES);
        m.enter_time_wait(CoreId(0));
        assert_eq!(m.time_wait(), 16);
        m.leave_time_wait(CoreId(0));
        assert!(m.balance().is_ok());
        let (pb, ps, pe, ptw, _) = m.peaks();
        assert_eq!(ps, 16);
        assert_eq!(pe, 16);
        assert_eq!(ptw, 16);
        assert!(pb >= 16 * TCB_BYTES);
    }

    #[test]
    fn split_divides_budget() {
        let c = MemConfig::ram_bytes(100_000).scaled(8).split(4);
        assert_eq!(c.high_bytes, 25_000);
        assert_eq!(c.low_bytes, 12_500);
        assert_eq!(c.scale, 8);
    }

    #[test]
    fn report_merge_adds_partitions() {
        let mut m1 = MemAccounts::new(cfg(), 1);
        m1.charge_embryo(CoreId(0));
        m1.promote(CoreId(0));
        m1.uncharge_tcb(CoreId(0));
        let mut m2 = MemAccounts::new(cfg(), 1);
        m2.charge_embryo(CoreId(0));
        m2.uncharge_embryo(CoreId(0));
        let mut r = MemReport::from_accounts(&m1);
        r.merge(&MemReport::from_accounts(&m2));
        assert_eq!(r.peak_sockets, 1);
        assert_eq!(r.peak_embryos, 2);
        assert!(r.balanced);
        assert_eq!(r.budget_bytes, 200_000);
    }

    #[test]
    fn transitions_are_counted() {
        let mut s = MemStats::default();
        s.on_transition(PressureLevel::Pressure);
        s.on_transition(PressureLevel::High);
        s.on_transition(PressureLevel::Low);
        assert_eq!(s.enter_pressure, 1);
        assert_eq!(s.enter_high, 1);
    }
}
