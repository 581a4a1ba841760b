//! Every metric the benchmark emits, with its unit and direction.
//! `BENCHMARK.json` must list exactly these; a test holds them together.

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

/// What a user of the simulator sees: its speed and memory on the host,
/// and the modeled kernel's throughput and connection-setup latency.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Lower),
    def("sim_s_per_wall_s", "sim-s/s", Higher),
    def("peak_rss_mb", "MiB", Lower),
    def("cps", "conn/s", Higher),
    def("setup_p50_us", "us", Lower),
    def("setup_p99_us", "us", Lower),
    def("setup_p999_us", "us", Lower),
    def("goodput_gbps", "Gbps", Higher),
];

/// Single-layer metrics, named `<crate>.<metric>` (`cyc.` for modeled
/// cycles per kernel layer, `bench.` for the host reference loop).
pub const PER_LAYER: &[Def] = &[
    // Host time, timed by the benchmark around the public API.
    def("core.run_wall_s", "s", Lower),
    def("core.report_s", "s", Lower),
    def("sim-core.ns_per_event", "ns", Lower),
    def("sim-trace.overhead_frac", "ratio", Lower),
    def("bench.calib_s", "s", Lower),
    // Layer probes.
    def("sim-core.queue_ns_per_op", "ns", Lower),
    def("tcp-stack.est_lookup_ns", "ns", Lower),
    def("sim-sync.acquire_ns", "ns", Lower),
    def("sim-mem.access_ns", "ns", Lower),
    def("sim-nic.rx_ns", "ns", Lower),
    // Counts from the report and the traced run.
    def("sim-trace.setup_samples", "count", Higher),
    def("sim-core.events_per_conn", "events/conn", Lower),
    def("sim-core.ev.to_peer_per_conn", "events/conn", Lower),
    def("sim-core.ev.to_server_per_conn", "events/conn", Lower),
    def("sim-core.ev.rto_per_conn", "events/conn", Lower),
    def("sim-core.ev.softirq_per_conn", "events/conn", Lower),
    def("sim-core.ev.client_start_per_conn", "events/conn", Lower),
    def("sim-core.ev.tw_expire_per_conn", "events/conn", Lower),
    def("sim-core.ev.proc_wake_per_conn", "events/conn", Lower),
    def("sim-core.ev.arrival_per_conn", "events/conn", Lower),
    def("sim-core.ev.client_release_per_conn", "events/conn", Lower),
    def("tcp-stack.rto_useful_frac", "ratio", Higher),
    def("tcp-stack.retx_per_conn", "segs/conn", Lower),
    def("tcp-stack.fast_retx_per_conn", "segs/conn", Lower),
    def("tcp-stack.syn_cookie_frac", "ratio", Lower),
    def("tcp-stack.live_sockets", "count", Lower),
    def("sim-sync.contended_frac", "ratio", Lower),
    def("sim-sync.wait_cycles_per_conn", "cycles/conn", Lower),
    def("sim-mem.l3_miss_rate", "ratio", Lower),
    def("sim-os.core_util", "ratio", Lower),
    def("sim-load.queued_admissions", "count", Lower),
    def("sim-res.peak_sockets", "count", Higher),
    def("cyc.softirq_per_conn", "cycles/conn", Lower),
    def("cyc.listen_lookup_per_conn", "cycles/conn", Lower),
    def("cyc.est_lookup_per_conn", "cycles/conn", Lower),
    def("cyc.handshake_per_conn", "cycles/conn", Lower),
    def("cyc.tcb_manage_per_conn", "cycles/conn", Lower),
    def("cyc.lock_spin_per_conn", "cycles/conn", Lower),
    def("cyc.cache_miss_per_conn", "cycles/conn", Lower),
    def("cyc.vfs_per_conn", "cycles/conn", Lower),
    def("cyc.syscall_per_conn", "cycles/conn", Lower),
    def("cyc.epoll_per_conn", "cycles/conn", Lower),
    def("cyc.timer_per_conn", "cycles/conn", Lower),
    def("cyc.app_work_per_conn", "cycles/conn", Lower),
    def("cyc.tx_path_per_conn", "cycles/conn", Lower),
    def("cyc.steering_per_conn", "cycles/conn", Lower),
];

/// The engine event kinds reported per connection, by dispatch label.
pub const EVENT_KINDS: [&str; 9] = [
    "to_peer",
    "to_server",
    "rto",
    "softirq",
    "client_start",
    "tw_expire",
    "proc_wake",
    "arrival",
    "client_release",
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its definition.
    pub def: Def,
    /// The value as measured.
    pub value: f64,
}
