//! Run reports: everything the paper's evaluation section measures.

use serde::{Deserialize, Serialize};
use sim_check::CheckReport;
use sim_core::{CycleClass, Cycles};
use sim_fault::RobustnessReport;
use sim_load::LoadReport;
use sim_mem::CacheStats;
use sim_res::MemReport;
use sim_sync::{ClassStats, LockClass};
use sim_trace::LatencyReport;
use tcp_stack::StackStats;

/// Lockstat-style row for one lock class (Table 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LockReport {
    /// The lock name as Table 1 prints it.
    pub name: String,
    /// Acquisitions during the measured window.
    pub acquisitions: u64,
    /// Contended acquisitions (lockstat `contentions`).
    pub contentions: u64,
    /// Cycles spent spinning.
    pub wait_cycles: Cycles,
    /// Total cycles the lock was reserved (held + handoff storms).
    pub reserved_cycles: Cycles,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Kernel label (`base-2.6.32`, `linux-3.13`, `fastsocket`, ...).
    pub kernel: String,
    /// Application label (`nginx`, `haproxy`).
    pub app: String,
    /// Server core count.
    pub cores: u16,
    /// NIC steering label (`rss`, `fdir_atr`, `fdir_perfect`).
    pub steering: String,
    /// RNG seed the run used (reproduce with `SimConfig::seed`).
    pub seed: u64,
    /// FNV-1a digest of the full configuration
    /// ([`SimConfig::config_digest`](crate::SimConfig::config_digest)).
    pub config_hash: String,
    /// Connection latency percentiles over the measured window —
    /// `None` unless the run had tracing enabled (`SimConfig::trace`).
    pub latency: Option<LatencyReport>,
    /// Sanitizer verdict (lockdep, lockset races, partition lints) —
    /// `None` unless the run had checking enabled (`SimConfig::check`).
    pub checks: Option<CheckReport>,
    /// Degrade-and-recover analysis — `None` unless the run had a
    /// fault schedule installed (`SimConfig::faults`).
    pub robustness: Option<RobustnessReport>,
    /// Measured window length in (simulated) seconds.
    pub measure_secs: f64,
    /// Connections per second completed by the clients — the paper's
    /// throughput metric.
    pub throughput_cps: f64,
    /// Requests (responses) per second — differs from connections/sec
    /// only for keep-alive (long-lived) workloads.
    pub requests_per_sec: f64,
    /// Connections completed in the window.
    pub completed: u64,
    /// Responses received in the window.
    pub responses: u64,
    /// Client-observed resets in the window.
    pub resets: u64,
    /// Client-side connect timeouts in the window.
    pub timeouts: u64,
    /// Per-core utilization over the window, in `[0, 1]`.
    pub core_utilization: Vec<f64>,
    /// Lockstat rows, one per lock class.
    pub locks: Vec<LockReport>,
    /// L3 cache miss rate over tracked accesses.
    pub l3_miss_rate: f64,
    /// Fraction of active-connection packets NIC-delivered to the
    /// owning core (Figure 5b).
    pub local_packet_proportion: f64,
    /// Share of busy cycles per [`CycleClass`], by class name.
    pub cycle_shares: Vec<(String, f64)>,
    /// Raw TCP-stack counters.
    pub stack: StackStats,
    /// Average listen-bucket entries walked per lookup.
    pub avg_listen_walk: f64,
    /// Simulation events processed (diagnostics).
    pub events: u64,
    /// Sockets still live when the run ended (listen sockets plus
    /// in-flight connections; a per-connection leak would show here).
    pub live_sockets: u32,
    /// Open-loop load accounting — `None` for closed-loop runs, which
    /// also keeps their serialized form (and thus
    /// [`results_digest`](RunReport::results_digest)) byte-identical to
    /// before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub load: Option<LoadReport>,
    /// Bulk-transfer accounting — `None` for 1-packet runs
    /// (`SimConfig::data_plane` unset), which keeps their serialized
    /// form byte-identical to before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub bulk: Option<BulkReport>,
    /// Edge-tier resilience accounting — `None` unless the run armed
    /// `SimConfig::edge`, which keeps legacy serialized forms
    /// byte-identical to before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub edge: Option<EdgeReport>,
    /// Memory-accounting and pressure report — `None` unless the run
    /// armed `SimConfig::mem`, which keeps legacy serialized forms
    /// byte-identical to before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mem: Option<MemReport>,
}

/// Goodput accounting for sliding-window bulk-transfer runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BulkReport {
    /// Congestion-control algorithm label (`newreno`, `cubic`,
    /// `dctcp`).
    pub cc: String,
    /// Response body size per request, in bytes.
    pub response_bytes: u32,
    /// Response payload bytes delivered to clients in the measured
    /// window.
    pub payload_bytes: u64,
    /// Goodput over the measured window, in Gbps (payload bits only).
    pub goodput_gbps: f64,
}

/// Resilience accounting for edge-tier runs: the proxy workers'
/// merged [`EdgeCounters`](sim_apps::EdgeCounters) plus the NIC's
/// pre-steering drop count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeReport {
    /// Hostile packets discarded by the NIC early-drop stage before
    /// they could touch listen locks.
    pub early_dropped: u64,
    /// Active health probes the proxy workers sent.
    pub probes_sent: u64,
    /// Probes that failed (connect refused or reset).
    pub probe_failures: u64,
    /// Client requests re-dispatched after a backend error.
    pub retried: u64,
    /// Retries that landed on a *different* backend than the failed
    /// attempt — the failover count proper.
    pub failed_over: u64,
    /// Client requests dropped after the retry budget ran out.
    pub lost: u64,
    /// Down→Up health transitions (backends re-admitted after
    /// recovery).
    pub readmissions: u64,
    /// Backend connections served from the idle pool instead of a
    /// fresh connect.
    pub reused_conns: u64,
}

impl RunReport {
    /// FNV-1a digest over the report's full JSON serialization. Two runs
    /// of the same configuration produce the same digest.
    pub fn results_digest(&self) -> String {
        let json = serde_json::to_string(self).expect("RunReport serializes");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in json.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Mean core utilization.
    pub fn avg_utilization(&self) -> f64 {
        if self.core_utilization.is_empty() {
            0.0
        } else {
            self.core_utilization.iter().sum::<f64>() / self.core_utilization.len() as f64
        }
    }

    /// (min, max) core utilization — Figure 3's whiskers.
    pub fn utilization_spread(&self) -> (f64, f64) {
        let min = self
            .core_utilization
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let max = self
            .core_utilization
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if self.core_utilization.is_empty() {
            (0.0, 0.0)
        } else {
            (min, max)
        }
    }

    /// Contention count for one lock class, by Table 1 name.
    pub fn lock_contentions(&self, name: &str) -> u64 {
        self.locks
            .iter()
            .find(|l| l.name == name)
            .map_or(0, |l| l.contentions)
    }

    /// Share of all busy cycles spent in one class, by name.
    pub fn cycle_share(&self, class: CycleClass) -> f64 {
        self.cycle_shares
            .iter()
            .find(|(n, _)| n == class.name())
            .map_or(0.0, |(_, s)| *s)
    }

    /// Share of busy cycles wasted spinning on locks — the paper's
    /// "spin lock consumes N% of total CPU cycles".
    pub fn lock_spin_share(&self) -> f64 {
        self.cycle_share(CycleClass::LockSpin)
    }

    /// `netstat -s`-style TcpExt counter block, so chaos runs are
    /// debuggable from the `.txt` artifacts alone.
    pub fn netstat_ext(&self) -> String {
        let s = &self.stack;
        let mut out = String::from("TcpExt:\n");
        for (label, v) in [
            ("passive connections established", s.passive_established),
            ("connections reset by client", self.resets),
            ("client connect timeouts", self.timeouts),
            ("RSTs sent", s.rst_sent),
            ("SYNs refused (no listener)", s.syn_refusals),
            ("SYNs dropped (backlog full)", s.syn_drops),
            ("SYNs dropped (memory pressure)", s.mem_pressure_drops),
            ("SYN cookies sent", s.syn_cookies_sent),
            ("SYN cookies validated", s.syn_cookies_ok),
            ("segments retransmitted", s.retransmits),
            ("connections aborted on retries", s.rtx_abandoned),
            ("no-match drops", s.no_match_drops),
            ("TIME_WAIT sockets recycled", s.tw_reused),
        ] {
            out.push_str(&format!("    {v} {label}\n"));
        }
        if let Some(dp) = &s.dp {
            for (label, v) in [
                (
                    "segments fast-retransmitted (dup ACKs)",
                    dp.fast_retransmits,
                ),
                ("out-of-order segments dropped", dp.out_of_order_segments),
                ("ECN echoes consumed", dp.ecn_echoes),
                ("payload bytes streamed", dp.bytes_streamed),
            ] {
                out.push_str(&format!("    {v} {label}\n"));
            }
        }
        if let Some(m) = &self.mem {
            let ms = s.mem.unwrap_or_default();
            for (label, v) in [
                ("peak modeled bytes charged", m.peak_bytes),
                ("peak modeled concurrent sockets", m.peak_sockets),
                ("peak modeled TIME_WAIT buckets", m.peak_time_wait),
                ("peak modeled orphans", m.peak_orphans),
                ("SYNs dropped at tcp_mem high", ms.pressure_syn_drops),
                ("embryonic connections pruned", ms.embryos_pruned),
                ("TIME_WAIT buckets force-recycled", ms.tw_forced_recycles),
                ("orphans reset at tcp_max_orphans", ms.orphans_killed),
                ("window advertisements clamped", ms.window_clamps),
                ("receive queues collapsed", ms.buffer_reclaims),
            ] {
                out.push_str(&format!("    {v} {label}\n"));
            }
        }
        if let Some(e) = &self.edge {
            for (label, v) in [
                ("packets early-dropped pre-steering", e.early_dropped),
                ("health probes sent", e.probes_sent),
                ("health probes failed", e.probe_failures),
                ("requests retried after backend error", e.retried),
                ("requests failed over to another backend", e.failed_over),
                ("requests lost (retry budget exhausted)", e.lost),
                ("backends re-admitted after recovery", e.readmissions),
                ("backend connections reused from pool", e.reused_conns),
            ] {
                out.push_str(&format!("    {v} {label}\n"));
            }
        }
        out
    }
}

/// Builds the lockstat rows from raw class stats.
pub fn lock_reports(all: &[(LockClass, ClassStats)]) -> Vec<LockReport> {
    all.iter()
        .map(|(class, s)| LockReport {
            name: class.name().to_string(),
            acquisitions: s.acquisitions,
            contentions: s.contentions,
            wait_cycles: s.wait_cycles,
            reserved_cycles: s.hold_cycles,
        })
        .collect()
}

/// Computes the miss rate from cache stats (helper for reports).
pub fn miss_rate(stats: &CacheStats) -> f64 {
    stats.miss_rate()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            kernel: "fastsocket".into(),
            app: "nginx".into(),
            cores: 4,
            steering: "rss".into(),
            seed: 0xfa57_50c7,
            config_hash: "0123456789abcdef".into(),
            latency: None,
            checks: None,
            robustness: None,
            measure_secs: 1.0,
            throughput_cps: 100_000.0,
            requests_per_sec: 100_000.0,
            completed: 100_000,
            responses: 100_000,
            resets: 0,
            timeouts: 0,
            core_utilization: vec![0.5, 0.6, 0.4, 0.7],
            locks: vec![LockReport {
                name: "dcache_lock".into(),
                acquisitions: 10,
                contentions: 3,
                wait_cycles: 100,
                reserved_cycles: 1_000,
            }],
            l3_miss_rate: 0.07,
            local_packet_proportion: 1.0,
            cycle_shares: vec![("lock_spin".into(), 0.05), ("app_work".into(), 0.2)],
            stack: StackStats::default(),
            avg_listen_walk: 1.0,
            events: 42,
            live_sockets: 5,
            load: None,
            bulk: None,
            edge: None,
            mem: None,
        }
    }

    #[test]
    fn utilization_helpers() {
        let r = report();
        assert!((r.avg_utilization() - 0.55).abs() < 1e-12);
        assert_eq!(r.utilization_spread(), (0.4, 0.7));
    }

    #[test]
    fn lock_and_share_lookups() {
        let r = report();
        assert_eq!(r.lock_contentions("dcache_lock"), 3);
        assert_eq!(r.lock_contentions("missing"), 0);
        assert!((r.lock_spin_share() - 0.05).abs() < 1e-12);
        assert_eq!(r.cycle_share(CycleClass::Vfs), 0.0);
    }

    #[test]
    fn report_serializes() {
        let json = serde_json::to_string(&report()).unwrap();
        assert!(json.contains("fastsocket"));
        assert!(json.contains("dcache_lock"));
    }

    #[test]
    fn netstat_ext_lists_cookie_and_refusal_counters() {
        let mut r = report();
        r.stack.syn_cookies_sent = 12;
        r.stack.syn_refusals = 3;
        r.stack.mem_pressure_drops = 4;
        let text = r.netstat_ext();
        assert!(text.starts_with("TcpExt:"));
        assert!(text.contains("12 SYN cookies sent"));
        assert!(text.contains("3 SYNs refused (no listener)"));
        assert!(text.contains("4 SYNs dropped (memory pressure)"));
    }

    #[test]
    fn netstat_ext_gates_data_plane_rows() {
        let mut r = report();
        assert!(
            !r.netstat_ext().contains("fast-retransmitted"),
            "no data-plane rows without data-plane counters"
        );
        r.stack.dp_mut().fast_retransmits = 7;
        r.stack.dp_mut().ecn_echoes = 9;
        let text = r.netstat_ext();
        assert!(text.contains("7 segments fast-retransmitted (dup ACKs)"));
        assert!(text.contains("9 ECN echoes consumed"));
    }

    #[test]
    fn report_digest_unchanged_by_absent_bulk() {
        let a = report();
        let d = a.results_digest();
        let mut b = report();
        b.bulk = Some(BulkReport {
            cc: "cubic".into(),
            response_bytes: 65_536,
            payload_bytes: 1 << 30,
            goodput_gbps: 8.6,
        });
        assert_ne!(d, b.results_digest());
        assert!(!serde_json::to_string(&a).unwrap().contains("bulk"));
    }

    #[test]
    fn report_digest_unchanged_by_absent_edge() {
        let a = report();
        let d = a.results_digest();
        let mut b = report();
        b.edge = Some(EdgeReport {
            early_dropped: 100,
            probes_sent: 8,
            probe_failures: 2,
            retried: 3,
            failed_over: 3,
            lost: 0,
            readmissions: 1,
            reused_conns: 40,
        });
        assert_ne!(d, b.results_digest());
        assert!(!serde_json::to_string(&a).unwrap().contains("edge"));
        let text = b.netstat_ext();
        assert!(text.contains("100 packets early-dropped pre-steering"));
        assert!(text.contains("3 requests failed over to another backend"));
        assert!(text.contains("0 requests lost (retry budget exhausted)"));
        assert!(
            !a.netstat_ext().contains("early-dropped"),
            "no edge rows without an edge report"
        );
    }

    #[test]
    fn report_digest_unchanged_by_absent_mem() {
        let a = report();
        let d = a.results_digest();
        let mut b = report();
        b.mem = Some(MemReport {
            budget_bytes: 1 << 30,
            scale: 16,
            peak_bytes: 1 << 29,
            peak_sockets: 1_048_576,
            peak_embryos: 4_096,
            peak_time_wait: 180_000,
            peak_orphans: 64,
            balanced: true,
        });
        b.stack.mem = Some(sim_res::MemStats {
            pressure_syn_drops: 5,
            tw_forced_recycles: 7,
            ..sim_res::MemStats::default()
        });
        assert_ne!(d, b.results_digest());
        assert!(!serde_json::to_string(&a).unwrap().contains("\"mem\""));
        let text = b.netstat_ext();
        assert!(text.contains("1048576 peak modeled concurrent sockets"));
        assert!(text.contains("7 TIME_WAIT buckets force-recycled"));
        assert!(
            !a.netstat_ext().contains("modeled"),
            "no mem rows without a mem report"
        );
    }
}
