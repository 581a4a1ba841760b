//! Sliding-window data plane: sequence-space arithmetic and the
//! per-connection send/receive window components.
//!
//! Window and congestion state is carved into component-scoped structs
//! with `&mut self` write boundaries (the mlwip-style decomposition
//! from the roadmap): [`SendWindow`] owns everything the ACK clock
//! mutates on the sender side, [`RecvWindow`] owns the receive-buffer
//! budget, and [`DataPlane`] composes them with the pluggable
//! congestion controller. The stack only writes this state through the
//! component methods while holding the socket `slock`, so the
//! sim-check lockset masks align with the component edges.
//!
//! All sequence comparisons are wrap-safe over the `u32` boundary
//! (RFC 1982-style serial arithmetic), property-tested below.

use crate::cc::{self, CcConfig, CongestionControl};
use sim_nic::BatchConfig;

/// `a < b` in sequence space (wrap-safe).
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a <= b` in sequence space (wrap-safe).
pub fn seq_le(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) <= 0
}

/// `a > b` in sequence space (wrap-safe).
pub fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

/// `a >= b` in sequence space (wrap-safe).
pub fn seq_ge(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) >= 0
}

/// Distance from `b` forward to `a` in sequence space.
pub fn seq_sub(a: u32, b: u32) -> u32 {
    a.wrapping_sub(b)
}

/// Third duplicate ACK triggers fast retransmit (RFC 5681).
pub const DUP_ACK_THRESHOLD: u8 = 3;

/// What an incoming ACK meant to the send window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckKind {
    /// Stale or irrelevant (acks nothing, nothing in flight).
    Old,
    /// Duplicate ACK with data outstanding; `count` is the running
    /// duplicate counter including this one.
    Dup {
        /// Consecutive duplicates seen so far.
        count: u8,
    },
    /// New data acknowledged.
    Advance {
        /// Bytes newly acknowledged.
        acked: u32,
    },
}

/// Sender-side sliding window: unacknowledged floor, peer-advertised
/// window, duplicate-ACK accounting, fast-recovery bookkeeping and the
/// backlog of application bytes not yet segmented.
///
/// The fields are private, so only this module writes window state;
/// the stack goes through the methods:
///
/// ```compile_fail
/// let mut w = tcp_stack::SendWindow::new(0);
/// w.pending = 1_448;
/// ```
#[derive(Debug, Clone)]
pub struct SendWindow {
    /// Oldest unacknowledged sequence number.
    una: u32,
    /// Most recent window advertised by the peer, in bytes.
    peer_wnd: u32,
    /// Consecutive duplicate ACKs observed.
    dup_acks: u8,
    /// Inside NewReno-style fast recovery.
    in_recovery: bool,
    /// `snd_nxt` when recovery was entered; recovery ends once `una`
    /// passes this point (the RFC 6582 `recover` variable).
    recover: u32,
    /// Application bytes queued but not yet segmented.
    pending: u64,
    /// A close() was issued while data was still queued; emit the FIN
    /// after the last data segment.
    fin_pending: bool,
}

impl SendWindow {
    /// A fresh window with nothing in flight, starting at `iss`.
    pub fn new(iss: u32) -> SendWindow {
        SendWindow {
            una: iss,
            peer_wnd: 65_535,
            dup_acks: 0,
            in_recovery: false,
            recover: iss,
            pending: 0,
            fin_pending: false,
        }
    }

    /// Oldest unacknowledged sequence number.
    pub(crate) fn una(&self) -> u32 {
        self.una
    }

    /// Whether the sender is inside fast recovery.
    pub(crate) fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Bytes in flight given the current `snd_nxt`.
    pub fn inflight(&self, snd_nxt: u32) -> u32 {
        seq_sub(snd_nxt, self.una)
    }

    /// Queues application bytes for segmentation.
    pub fn queue(&mut self, bytes: u64) {
        self.pending += bytes;
    }

    /// Bytes the sender may put on the wire right now: the lesser of
    /// the congestion and peer windows, minus what is in flight.
    pub fn usable(&self, snd_nxt: u32, cwnd: u32) -> u32 {
        cwnd.min(self.peer_wnd)
            .saturating_sub(self.inflight(snd_nxt))
    }

    /// Classifies an incoming ACK and updates `una`, the peer window
    /// and the duplicate counter.
    pub fn on_ack(&mut self, ack: u32, snd_nxt: u32, wnd: u16) -> AckKind {
        self.peer_wnd = u32::from(wnd);
        if seq_lt(snd_nxt, ack) || seq_lt(ack, self.una) {
            return AckKind::Old;
        }
        if ack == self.una {
            if self.inflight(snd_nxt) > 0 {
                self.dup_acks = self.dup_acks.saturating_add(1);
                return AckKind::Dup {
                    count: self.dup_acks,
                };
            }
            return AckKind::Old;
        }
        let acked = seq_sub(ack, self.una);
        self.una = ack;
        self.dup_acks = 0;
        AckKind::Advance { acked }
    }

    /// Enters fast recovery; it ends when `una` reaches the current
    /// `snd_nxt`.
    pub fn enter_recovery(&mut self, snd_nxt: u32) {
        self.in_recovery = true;
        self.recover = snd_nxt;
        self.dup_acks = 0;
    }

    /// Whether a full ACK has taken `una` past the recovery point.
    pub fn recovery_done(&self) -> bool {
        self.in_recovery && seq_ge(self.una, self.recover)
    }

    /// Leaves fast recovery.
    pub fn exit_recovery(&mut self) {
        self.in_recovery = false;
    }

    /// An RTO fired: recovery state is abandoned (the RTO path owns
    /// retransmission from here).
    pub fn on_rto(&mut self) {
        self.dup_acks = 0;
        self.in_recovery = false;
    }

    /// `close()` ran: if data is still queued, remember to emit the FIN
    /// once the backlog drains. Returns whether the FIN was deferred.
    pub fn defer_fin(&mut self) -> bool {
        let defer = self.pending > 0;
        self.fin_pending |= defer;
        defer
    }

    /// Whether a deferred FIN is ready to ride out now (backlog empty);
    /// consumes the pending flag when it is.
    pub fn take_deferred_fin(&mut self) -> bool {
        if self.fin_pending && self.pending == 0 {
            self.fin_pending = false;
            true
        } else {
            false
        }
    }
}

/// Receiver-side window: a per-connection buffer budget backing the
/// advertised window. Without window scaling the advertisement is
/// capped at 65535.
#[derive(Debug, Clone)]
pub struct RecvWindow {
    /// Total buffer budget in bytes.
    budget: u32,
    /// Bytes delivered to the socket but not yet consumed by the app.
    used: u32,
}

impl RecvWindow {
    /// A window backed by `budget` bytes of socket buffer.
    pub fn new(budget: u32) -> RecvWindow {
        RecvWindow { budget, used: 0 }
    }

    /// Remaining budget.
    pub fn available(&self) -> u32 {
        self.budget.saturating_sub(self.used)
    }

    /// The window to advertise on the wire (no window scaling).
    pub fn advertised(&self) -> u16 {
        self.available().min(65_535) as u16
    }

    /// Accepts `len` payload bytes if they fit the budget; returns
    /// whether the segment was accepted.
    pub fn accept(&mut self, len: u16) -> bool {
        if u32::from(len) <= self.available() {
            self.used += u32::from(len);
            true
        } else {
            false
        }
    }

    /// The application consumed `bytes` via `recv`. Returns the window
    /// to advertise when it reopened from below half the budget (the
    /// heuristic real stacks use to suppress silly-window updates).
    pub fn drain(&mut self, bytes: u32) -> Option<u16> {
        let before = self.advertised();
        self.used = self.used.saturating_sub(bytes);
        let after = self.advertised();
        (after > before && u32::from(before) < self.budget / 2).then_some(after)
    }
}

/// Per-connection data-plane state: the two window components, the
/// congestion controller, and batch-offload counters. Boxed inside the
/// TCB and present only when `StackConfig::cc` is set, so the
/// single-packet request/response paths carry no data-plane state.
#[derive(Debug)]
pub struct DataPlane {
    /// Sender-side window component.
    pub snd: SendWindow,
    /// Receiver-side budget component.
    pub rcv: RecvWindow,
    /// The pluggable congestion controller.
    pub cc: Box<dyn CongestionControl>,
    /// Maximum segment size for segmentation.
    pub mss: u16,
    /// GSO/GRO amortization parameters (mirrors the NIC's).
    pub batch: BatchConfig,
    /// Cumulative TX segment index, for GSO burst accounting.
    gso_idx: u16,
    /// Cumulative in-order RX segment index, for GRO accounting.
    gro_idx: u16,
}

impl DataPlane {
    /// Fresh data-plane state for a connection whose next send
    /// sequence is `snd_nxt` (everything before it already acked).
    pub fn new(cfg: &CcConfig, snd_nxt: u32) -> DataPlane {
        DataPlane {
            snd: SendWindow::new(snd_nxt),
            rcv: RecvWindow::new(cfg.rcv_buf),
            cc: cc::build(cfg),
            mss: cfg.mss.max(1),
            batch: cfg.batch,
            gso_idx: 0,
            gro_idx: 0,
        }
    }

    /// Carves the next data segment off the send backlog if both
    /// windows allow a full one: consumes the backlog bytes, advances
    /// the GSO counter, and returns `(segment_len, gso_index)`.
    pub fn next_segment(&mut self, snd_nxt: u32) -> Option<(u32, u16)> {
        if self.snd.pending == 0 {
            return None;
        }
        let seg_len = self.snd.pending.min(u64::from(self.mss)) as u32;
        if self.snd.usable(snd_nxt, self.cc.cwnd()) < seg_len {
            return None;
        }
        self.snd.pending -= u64::from(seg_len);
        let idx = self.gso_idx;
        self.gso_idx = self.gso_idx.wrapping_add(1);
        Some((seg_len, idx))
    }

    /// One in-order data segment arrived: advances the GRO train
    /// counter and returns the amortized per-segment receive cost.
    pub fn gro_advance(&mut self, per_segment: u64) -> u64 {
        let cost = self.batch.gro_cost(self.gro_idx, per_segment);
        self.gro_idx = self.gro_idx.wrapping_add(1);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ack_classification() {
        let mut w = SendWindow::new(1_000);
        // 2_000 bytes in flight.
        let snd_nxt = 3_000;
        assert_eq!(
            w.on_ack(2_000, snd_nxt, 65_535),
            AckKind::Advance { acked: 1_000 }
        );
        assert_eq!(w.una, 2_000);
        assert_eq!(w.on_ack(1_500, snd_nxt, 65_535), AckKind::Old);
        assert_eq!(w.on_ack(2_000, snd_nxt, 65_535), AckKind::Dup { count: 1 });
        assert_eq!(w.on_ack(2_000, snd_nxt, 65_535), AckKind::Dup { count: 2 });
        assert_eq!(
            w.on_ack(3_000, snd_nxt, 65_535),
            AckKind::Advance { acked: 1_000 }
        );
        assert_eq!(w.dup_acks, 0);
        // Nothing in flight: repeats are old, not duplicates.
        assert_eq!(w.on_ack(3_000, snd_nxt, 65_535), AckKind::Old);
        // An ACK beyond snd_nxt is nonsense and ignored.
        assert_eq!(w.on_ack(9_000, snd_nxt, 65_535), AckKind::Old);
    }

    #[test]
    fn usable_respects_both_windows_and_inflight() {
        let mut w = SendWindow::new(0);
        w.peer_wnd = 10_000;
        assert_eq!(w.usable(4_000, 8_000), 4_000); // cwnd 8k - 4k inflight
        assert_eq!(w.usable(4_000, 20_000), 6_000); // peer 10k - 4k
        assert_eq!(w.usable(12_000, 20_000), 0); // overshoot saturates
    }

    #[test]
    fn recovery_tracks_recover_point() {
        let mut w = SendWindow::new(0);
        let snd_nxt = 10_000;
        w.on_ack(2_000, snd_nxt, 65_535);
        w.enter_recovery(snd_nxt);
        assert!(w.in_recovery);
        w.on_ack(6_000, snd_nxt, 65_535); // partial ACK
        assert!(!w.recovery_done());
        w.on_ack(10_000, snd_nxt, 65_535); // full ACK
        assert!(w.recovery_done());
        w.exit_recovery();
        assert!(!w.in_recovery);
    }

    #[test]
    fn recv_window_budget() {
        let mut r = RecvWindow::new(4_000);
        assert_eq!(r.advertised(), 4_000);
        assert!(r.accept(1_448));
        assert!(r.accept(1_448));
        assert_eq!(r.advertised(), 4_000 - 2 * 1_448);
        assert!(!r.accept(1_448), "third segment exceeds the budget");
        r.drain(1_448);
        assert!(r.accept(1_448));
        r.drain(10_000); // over-drain saturates at zero
        assert_eq!(r.used, 0);
    }

    #[test]
    fn large_budget_advertises_capped_window() {
        let r = RecvWindow::new(1 << 20);
        assert_eq!(r.advertised(), 65_535);
    }

    proptest! {
        // seq_lt/seq_gt etc. agree with integer comparison whenever the
        // two points are within half the sequence space of each other,
        // including across the u32 wrap boundary.
        #[test]
        fn seq_cmp_matches_offset_sign(base in any::<u32>(), off in 1u32..0x7fff_ffff) {
            let ahead = base.wrapping_add(off);
            prop_assert!(seq_lt(base, ahead));
            prop_assert!(seq_le(base, ahead));
            prop_assert!(seq_gt(ahead, base));
            prop_assert!(seq_ge(ahead, base));
            prop_assert!(!seq_lt(ahead, base));
            prop_assert!(!seq_ge(base, ahead));
        }

        #[test]
        fn seq_cmp_is_reflexive(a in any::<u32>()) {
            prop_assert!(seq_le(a, a));
            prop_assert!(seq_ge(a, a));
            prop_assert!(!seq_lt(a, a));
            prop_assert!(!seq_gt(a, a));
        }

        #[test]
        fn seq_sub_inverts_wrapping_add(base in any::<u32>(), off in any::<u32>()) {
            prop_assert_eq!(seq_sub(base.wrapping_add(off), base), off);
        }

        // Advancing the window by ACKs across the wrap boundary keeps
        // inflight consistent: ack of k bytes reduces inflight by k.
        #[test]
        fn ack_advance_reduces_inflight(iss in any::<u32>(),
                                        sent in 1u32..1_000_000,
                                        acked in 1u32..1_000_000) {
            let acked = acked.min(sent);
            let mut w = SendWindow::new(iss);
            let snd_nxt = iss.wrapping_add(sent);
            prop_assert_eq!(w.inflight(snd_nxt), sent);
            let kind = w.on_ack(iss.wrapping_add(acked), snd_nxt, 65_535);
            prop_assert_eq!(kind, AckKind::Advance { acked });
            prop_assert_eq!(w.inflight(snd_nxt), sent - acked);
        }

        // Duplicate ACKs never move una, and the counter resets on the
        // next advance, wherever the window sits in sequence space.
        #[test]
        fn dup_then_advance_resets_counter(iss in any::<u32>(), dups in 1u8..10) {
            let mut w = SendWindow::new(iss);
            let snd_nxt = iss.wrapping_add(5_000);
            for i in 1..=dups {
                prop_assert_eq!(w.on_ack(iss, snd_nxt, 65_535), AckKind::Dup { count: i });
                prop_assert_eq!(w.una, iss);
            }
            prop_assert_eq!(
                w.on_ack(snd_nxt, snd_nxt, 65_535),
                AckKind::Advance { acked: 5_000 }
            );
            prop_assert_eq!(w.dup_acks, 0);
        }
    }
}
