//! Simulation configuration.

use serde::{Deserialize, Serialize};
use sim_apps::edge::EdgeConfig;
use sim_apps::proxy::ProxyConfig;
use sim_apps::web::WebConfig;
use sim_apps::HttpWorkload;
use sim_core::{secs_to_cycles, usecs_to_cycles, Cycles};
use sim_fault::FaultSchedule;
use sim_load::OpenLoopConfig;
use sim_nic::{AtrConfig, BatchConfig, SteeringMode};
use sim_res::MemConfig;
use sim_sync::LockCosts;
use tcp_stack::stack::{FaultInjection, StackConfig};
use tcp_stack::{CcAlgo, CcConfig};

/// Which kernel is being simulated.
#[derive(Debug, Clone)]
pub enum KernelSpec {
    /// Stock Linux 2.6.32 ("base" in Figure 4).
    BaseLinux,
    /// Linux 3.13 with `SO_REUSEPORT`.
    Linux313,
    /// Fastsocket (on 2.6.32, as deployed).
    Fastsocket,
    /// An explicit configuration — used for Table 1's incremental
    /// feature columns and the ablation benches.
    Custom(Box<StackConfig>),
}

impl KernelSpec {
    /// Resolves to a full stack configuration for `cores` cores.
    pub fn resolve(&self, cores: u16) -> StackConfig {
        match self {
            KernelSpec::BaseLinux => StackConfig::base_linux(cores),
            KernelSpec::Linux313 => StackConfig::linux_313(cores),
            KernelSpec::Fastsocket => StackConfig::fastsocket(cores),
            KernelSpec::Custom(c) => {
                let mut c = (**c).clone();
                c.cores = cores;
                c
            }
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            KernelSpec::BaseLinux => "base-2.6.32",
            KernelSpec::Linux313 => "linux-3.13",
            KernelSpec::Fastsocket => "fastsocket",
            KernelSpec::Custom(_) => "custom",
        }
    }
}

/// Which server application runs on the simulated machine.
#[derive(Debug, Clone)]
pub enum AppSpec {
    /// nginx-like web server.
    Web(WebConfig),
    /// HAProxy-like proxy (client side passive, backend side active).
    Proxy(ProxyConfig),
}

impl AppSpec {
    /// A web server with default tuning.
    pub fn web() -> Self {
        AppSpec::Web(WebConfig::default())
    }

    /// A proxy with default tuning.
    pub fn proxy() -> Self {
        AppSpec::Proxy(ProxyConfig::default())
    }

    /// The service port.
    pub fn port(&self) -> u16 {
        match self {
            AppSpec::Web(w) => w.port,
            AppSpec::Proxy(p) => p.port,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AppSpec::Web(_) => "nginx",
            AppSpec::Proxy(_) => "haproxy",
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The kernel under test.
    pub kernel: KernelSpec,
    /// The server application.
    pub app: AppSpec,
    /// Number of server cores (= NIC queue pairs).
    pub cores: u16,
    /// NIC receive steering.
    pub steering: SteeringMode,
    /// Client workload profile.
    pub workload: HttpWorkload,
    /// Per-slot pause between connections, in cycles (0 = saturating
    /// closed loop; nonzero paces the load for utilization studies).
    pub think_time: Cycles,
    /// Client↔server round-trip time in cycles.
    pub rtt: Cycles,
    /// Warmup duration (statistics discarded).
    pub warmup: Cycles,
    /// Measured duration.
    pub measure: Cycles,
    /// RNG seed.
    pub seed: u64,
    /// Listen backlog per listen socket.
    pub backlog: usize,
    /// Per-client connection-attempt timeout in cycles.
    pub client_timeout: Cycles,
    /// Lock-model cost parameters (ablation knob).
    pub lock_costs: LockCosts,
    /// Flow Director ATR parameters (ablation knob).
    pub atr: AtrConfig,
    /// Packet-loss probability on the client↔server wire (the WAN
    /// side; the backend LAN is lossless). Lost segments are recovered
    /// by the stack's RTO retransmission.
    pub loss: f64,
    /// IsoStack-style architecture (related work, §5): all NIC
    /// interrupts target core 0, which runs *only* the network stack;
    /// worker processes occupy the remaining cores. The paper argues
    /// this dedicated core saturates under short-lived connections.
    pub dedicated_stack_core: bool,
    /// Whether the tracer records events (spans, lifecycle marks,
    /// dispatch counts). Off by default: a disabled tracer costs one
    /// branch per would-be event.
    pub trace: bool,
    /// Whether the `sim-check` sanitizers (lockdep, lockset race
    /// detection, partition lints) run. Off by default; a disabled
    /// checker costs one branch per would-be hook.
    pub check: bool,
    /// Fault-injection knob forwarded to the stack (sanitizer
    /// validation only).
    pub fault: FaultInjection,
    /// Scheduled fault timeline (worker crashes, queue failures, core
    /// stalls, loss bursts, SYN floods). Non-empty schedules also turn
    /// on windowed throughput sampling and attach a
    /// [`sim_fault::RobustnessReport`] to the run report.
    pub faults: FaultSchedule,
    /// Memory-pressure cap on live TCBs forwarded to the stack
    /// (`None` = uncapped; see `StackConfig::tcb_cap`).
    pub tcb_cap: Option<u32>,
    /// Whether backlog overflow answers with SYN cookies (`None` =
    /// keep the kernel variant's default; chaos scenarios force it off
    /// to isolate the cookies' contribution under a SYN flood).
    pub syn_cookies: Option<bool>,
    /// Open-loop workload (`sim-load`): arrivals come from a seeded
    /// arrival process instead of the closed-loop client slots. `None`
    /// (the default) keeps the closed-loop `http_load` model that every
    /// paper figure uses. The config digest canonicalizes a `None`
    /// away so closed-loop digests are unchanged by the field's
    /// existence.
    pub open_loop: Option<OpenLoopConfig>,
    /// Sliding-window bulk-transfer data plane (`sim-cc`): when set,
    /// responses stream as multi-segment sequence/ACK-driven transfers
    /// under the selected congestion controller instead of the
    /// single-packet response model. `None` (the default) keeps the
    /// 1-packet paths byte-identical to the pre-data-plane model.
    /// Trailing `Option` fields must stay **last**: the config digest
    /// canonicalizes a `None` away so legacy digests are unchanged by
    /// the field's existence.
    pub data_plane: Option<DataPlaneConfig>,
    /// Parallel lane-sharded execution (`run_sharded`): partition the
    /// simulated machine into per-lane event loops synchronized at the
    /// NIC boundary. `None` (the default) runs the machine as one lane.
    /// Lane *count* forks result provenance (it changes the client→lane
    /// decomposition); the executor (`threads`) and `horizon` do not —
    /// the digest canonicalizes them away, which is exactly the
    /// serial==parallel bit-identity the differential oracle asserts.
    pub par: Option<ParConfig>,
    /// Edge-tier resilience (`sim_apps::edge`): weighted backend pools,
    /// health checks, failover retries, connection pooling, and the
    /// NIC's XDP-style early-drop stage. `None` (the default) keeps the
    /// plain round-robin proxy; the digest canonicalizes an absent
    /// config away so legacy digests are unchanged.
    pub edge: Option<EdgeConfig>,
    /// Memory accounting and pressure (`sim-res`): per-core ledgers of
    /// TCB / buffer bytes and embryo / TIME_WAIT / orphan buckets
    /// rolled into a `tcp_mem`-style budget, with the pressure
    /// reactions (window clamping, SYN drops, forced TIME_WAIT
    /// recycle, orphan kills) armed in the stack. `None` (the default)
    /// keeps the unaccounted legacy model byte-identical; the digest
    /// canonicalizes an absent config away so legacy digests are
    /// unchanged.
    pub mem: Option<MemConfig>,
}

/// Configuration of the parallel lane-sharded execution engine.
#[derive(Debug, Clone, Copy)]
pub struct ParConfig {
    /// Requested lane count. The engine uses the largest divisor of
    /// `cores` that is ≤ this (each lane owns an equal block of cores);
    /// an effective count of 1 is a plain [`Simulation::run`](crate::Simulation::run).
    pub lanes: u16,
    /// Run lanes on host threads (`true`) or pump them serially on the
    /// calling thread (`false`). Result-identical by construction;
    /// excluded from the config digest.
    pub threads: bool,
    /// Conservative-sync window (lookahead horizon) in cycles. `None`
    /// picks the model's minimum cross-lane latency (`rtt / 2`), the
    /// largest horizon that is always safe. Values above that violate
    /// lookahead and are only useful to the negative determinism test.
    pub horizon: Option<Cycles>,
}

impl ParConfig {
    /// `lanes` lanes, threaded executor, default horizon.
    pub fn lanes(n: u16) -> ParConfig {
        ParConfig {
            lanes: n,
            threads: true,
            horizon: None,
        }
    }

    /// Switches between the threaded and serial-reference executors
    /// (builder style).
    pub fn threads(mut self, on: bool) -> Self {
        self.threads = on;
        self
    }

    /// Overrides the sync horizon in cycles (builder style).
    pub fn horizon(mut self, cycles: Cycles) -> Self {
        self.horizon = Some(cycles);
        self
    }
}

/// Configuration of the sliding-window data plane (see
/// [`tcp_stack::cc`]).
#[derive(Debug, Clone, Copy)]
pub struct DataPlaneConfig {
    /// Congestion-control algorithm driving cwnd.
    pub cc: CcAlgo,
    /// Maximum segment size in bytes.
    pub mss: u16,
    /// Initial congestion window in segments (RFC 6928 default: 10).
    pub init_cwnd_segs: u16,
    /// Per-connection receive-buffer budget in bytes, backing the
    /// advertised window.
    pub rcv_buf: u32,
    /// NIC GSO/GRO batch-offload and ECN-marking model.
    pub batch: BatchConfig,
    /// Response body size streamed per request, in bytes.
    pub response_bytes: u32,
}

impl Default for DataPlaneConfig {
    fn default() -> Self {
        DataPlaneConfig {
            cc: CcAlgo::NewReno,
            mss: 1448,
            init_cwnd_segs: 10,
            rcv_buf: 65_535,
            batch: BatchConfig::default(),
            response_bytes: 65_536,
        }
    }
}

impl DataPlaneConfig {
    /// The stack-facing slice of this configuration.
    pub fn cc_config(&self) -> CcConfig {
        CcConfig {
            algo: self.cc,
            mss: self.mss,
            init_cwnd_segs: self.init_cwnd_segs,
            rcv_buf: self.rcv_buf,
            batch: self.batch,
        }
    }
}

impl SimConfig {
    /// A configuration with the paper's defaults: 100 µs LAN RTT, RSS
    /// steering, `http_load` concurrency of 500 × cores, 0.2 s warmup,
    /// 1 s measurement.
    pub fn new(kernel: KernelSpec, app: AppSpec, cores: u16) -> Self {
        SimConfig {
            kernel,
            app,
            cores,
            steering: SteeringMode::Rss,
            workload: HttpWorkload::default(),
            think_time: 0,
            rtt: usecs_to_cycles(100.0),
            warmup: secs_to_cycles(0.2),
            measure: secs_to_cycles(1.0),
            seed: 0xfa57_50c7,
            backlog: 8_192,
            client_timeout: secs_to_cycles(2.0),
            lock_costs: LockCosts::default(),
            atr: AtrConfig::default(),
            loss: 0.0,
            dedicated_stack_core: false,
            trace: false,
            check: false,
            fault: FaultInjection::None,
            faults: FaultSchedule::default(),
            tcb_cap: None,
            syn_cookies: None,
            open_loop: None,
            data_plane: None,
            par: None,
            edge: None,
            mem: None,
        }
    }

    /// Sets the client-wire packet-loss probability (builder style).
    pub fn loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability in [0,1)");
        self.loss = p;
        self
    }

    /// Sets the warmup duration in seconds (builder style).
    pub fn warmup_secs(mut self, secs: f64) -> Self {
        self.warmup = secs_to_cycles(secs);
        self
    }

    /// Sets the measurement duration in seconds (builder style).
    pub fn measure_secs(mut self, secs: f64) -> Self {
        self.measure = secs_to_cycles(secs);
        self
    }

    /// Sets the NIC steering mode (builder style).
    pub fn steering(mut self, mode: SteeringMode) -> Self {
        self.steering = mode;
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets total client concurrency directly (builder style).
    pub fn concurrency(mut self, total: u32) -> Self {
        self.workload.concurrency_per_core = (total / u32::from(self.cores.max(1))).max(1);
        self
    }

    /// Sets per-slot think time in seconds, pacing the offered load
    /// (builder style).
    pub fn think_secs(mut self, secs: f64) -> Self {
        self.think_time = secs_to_cycles(secs);
        self
    }

    /// Enables or disables event tracing (builder style).
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enables or disables the sanitizers (builder style).
    pub fn check(mut self, on: bool) -> Self {
        self.check = on;
        self
    }

    /// Selects a fault-injection knob (builder style); implies nothing
    /// about `check` — enable that separately to observe the fault.
    pub fn fault(mut self, fault: FaultInjection) -> Self {
        self.fault = fault;
        self
    }

    /// Installs a scheduled fault timeline (builder style).
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = schedule;
        self
    }

    /// Caps the number of live TCBs (builder style); SYNs beyond the
    /// cap are dropped by admission control.
    pub fn tcb_cap(mut self, cap: u32) -> Self {
        self.tcb_cap = Some(cap);
        self
    }

    /// Forces SYN cookies on or off (builder style), overriding the
    /// kernel variant's default.
    pub fn syn_cookies(mut self, on: bool) -> Self {
        self.syn_cookies = Some(on);
        self
    }

    /// Sets the per-client connection-attempt timeout in seconds
    /// (builder style). Fault scenarios shorten this so clients
    /// stranded by a crashed worker re-attempt within the run.
    pub fn client_timeout_secs(mut self, secs: f64) -> Self {
        self.client_timeout = secs_to_cycles(secs);
        self
    }

    /// Switches the run to an open-loop workload (builder style): the
    /// given arrival process replaces the closed-loop client slots.
    /// See [`OpenLoopConfig`].
    pub fn open_loop(mut self, cfg: OpenLoopConfig) -> Self {
        self.open_loop = Some(cfg);
        self
    }

    /// Arms the sliding-window data plane (builder style): responses
    /// stream as sequence/ACK-driven bulk transfers under `cfg`'s
    /// congestion controller. See [`DataPlaneConfig`].
    pub fn data_plane(mut self, cfg: DataPlaneConfig) -> Self {
        self.data_plane = Some(cfg);
        self
    }

    /// Arms the parallel lane-sharded engine (builder style). See
    /// [`ParConfig`].
    pub fn par(mut self, cfg: ParConfig) -> Self {
        self.par = Some(cfg);
        self
    }

    /// Arms the resilient edge tier (builder style): weighted backend
    /// pools with health checks, failover retries, and (optionally) the
    /// NIC early-drop stage. Proxy workloads only. See [`EdgeConfig`].
    pub fn edge(mut self, cfg: EdgeConfig) -> Self {
        self.edge = Some(cfg);
        self
    }

    /// Arms the memory-accounting and pressure subsystem (builder
    /// style): every TCB, buffer byte, and TIME_WAIT / orphan bucket
    /// is charged against `cfg`'s budget and the stack's pressure
    /// reactions engage at its thresholds. See [`MemConfig`].
    pub fn mem(mut self, cfg: MemConfig) -> Self {
        self.mem = Some(cfg);
        self
    }

    /// FNV-1a hash of the full configuration (via its `Debug` form),
    /// surfaced in reports so results can be tied back to the exact
    /// parameter set that produced them.
    pub fn config_digest(&self) -> String {
        let mut canon = self.clone();
        // Of the parallel-engine knobs only the lane count is
        // provenance: the executor and horizon are implementation
        // details the serial==parallel differential oracle proves
        // immaterial.
        canon.par = canon.par.map(|p| ParConfig {
            lanes: p.lanes,
            threads: false,
            horizon: None,
        });
        let mut s = format!("{canon:?}");
        if canon.open_loop.is_none() {
            // Closed-loop configs must digest exactly as they did
            // before the field existed (pinned by the golden-digest
            // regression test), so an absent open loop is erased from
            // the canonical form rather than printed as `None`.
            s = s.replace(", open_loop: None", "");
        }
        if canon.data_plane.is_none() {
            // Same treatment for the data plane: 1-packet configs must
            // digest exactly as they did before the field existed.
            s = s.replace(", data_plane: None", "");
        }
        if canon.par.is_none() {
            // Same treatment for an absent parallel engine.
            s = s.replace(", par: None", "");
        }
        if canon.edge.is_none() {
            // Same treatment for an absent edge tier.
            s = s.replace(", edge: None", "");
        }
        if canon.mem.is_none() {
            // Same treatment for absent memory accounting.
            s = s.replace(", mem: None", "");
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// Summary row identifying a run (used by experiment outputs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunLabel {
    /// Kernel label.
    pub kernel: String,
    /// Application label.
    pub app: String,
    /// Core count.
    pub cores: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_specs_resolve() {
        let base = KernelSpec::BaseLinux.resolve(8);
        assert_eq!(base.cores, 8);
        assert!(!base.rfd);
        let fs = KernelSpec::Fastsocket.resolve(24);
        assert!(fs.rfd);
        assert_eq!(fs.cores, 24);
        let custom = KernelSpec::Custom(Box::new(StackConfig::fastsocket(4))).resolve(16);
        assert_eq!(custom.cores, 16, "custom spec re-targets core count");
    }

    #[test]
    fn builder_methods_chain() {
        let c = SimConfig::new(KernelSpec::BaseLinux, AppSpec::web(), 4)
            .warmup_secs(0.1)
            .measure_secs(0.5)
            .seed(7)
            .concurrency(2_000);
        assert_eq!(c.seed, 7);
        assert_eq!(c.workload.concurrency_per_core, 500);
        assert_eq!(c.warmup, sim_core::secs_to_cycles(0.1));
    }

    #[test]
    fn config_digest_is_stable_and_seed_sensitive() {
        let a = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4);
        let b = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4);
        assert_eq!(a.config_digest(), b.config_digest());
        let c = b.seed(1);
        assert_ne!(a.config_digest(), c.config_digest());
        assert!(a.trace(true).trace);
    }

    #[test]
    fn config_digest_unchanged_by_absent_open_loop() {
        // Pinned from before `open_loop` existed: the canonicalization
        // must keep every closed-loop digest stable.
        let a = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4);
        assert_eq!(a.config_digest(), "e207c5c69a370d1f");
        let b = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4)
            .open_loop(OpenLoopConfig::poisson(50_000.0));
        assert_ne!(a.config_digest(), b.config_digest());
    }

    #[test]
    fn config_digest_unchanged_by_absent_data_plane() {
        // Same pin as above: arming the data plane must fork the
        // digest, but its absence must leave legacy digests alone.
        let a = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4);
        assert_eq!(a.config_digest(), "e207c5c69a370d1f");
        let b = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4)
            .data_plane(DataPlaneConfig::default());
        assert_ne!(a.config_digest(), b.config_digest());
        let c =
            SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4).data_plane(DataPlaneConfig {
                cc: CcAlgo::Cubic,
                ..DataPlaneConfig::default()
            });
        assert_ne!(
            b.config_digest(),
            c.config_digest(),
            "CC algo is provenance"
        );
    }

    #[test]
    fn config_digest_unchanged_by_absent_par() {
        // Same pin again: the parallel-engine knob must leave legacy
        // digests alone when absent.
        let a = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4);
        assert_eq!(a.config_digest(), "e207c5c69a370d1f");
        let b = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4).par(ParConfig::lanes(4));
        assert_ne!(
            a.config_digest(),
            b.config_digest(),
            "lane count is provenance"
        );
    }

    #[test]
    fn config_digest_unchanged_by_absent_edge() {
        // Same pin again: the edge-tier knob must leave legacy digests
        // alone when absent, and fork them when armed.
        let a = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4);
        assert_eq!(a.config_digest(), "e207c5c69a370d1f");
        let b =
            SimConfig::new(KernelSpec::Fastsocket, AppSpec::proxy(), 4).edge(EdgeConfig::default());
        let c = SimConfig::new(KernelSpec::Fastsocket, AppSpec::proxy(), 4);
        assert_ne!(b.config_digest(), c.config_digest());
        let d = SimConfig::new(KernelSpec::Fastsocket, AppSpec::proxy(), 4)
            .edge(EdgeConfig::default().early_drop(true));
        assert_ne!(
            b.config_digest(),
            d.config_digest(),
            "early-drop arming is provenance"
        );
    }

    #[test]
    fn config_digest_unchanged_by_absent_mem() {
        // Same pin again: memory accounting must leave legacy digests
        // alone when absent, and fork them when armed.
        let a = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4);
        assert_eq!(a.config_digest(), "e207c5c69a370d1f");
        let b =
            SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4).mem(MemConfig::ram_mb(512));
        assert_ne!(a.config_digest(), b.config_digest());
        let c = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 4)
            .mem(MemConfig::ram_mb(512).scaled(16));
        assert_ne!(
            b.config_digest(),
            c.config_digest(),
            "modeling scale is provenance"
        );
    }

    #[test]
    fn config_digest_ignores_par_executor_and_horizon() {
        let base = || SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 8);
        let threads = base().par(ParConfig::lanes(4));
        let serial = base().par(ParConfig::lanes(4).threads(false));
        let horizon = base().par(ParConfig::lanes(4).horizon(999));
        assert_eq!(threads.config_digest(), serial.config_digest());
        assert_eq!(threads.config_digest(), horizon.config_digest());
        let two = base().par(ParConfig::lanes(2));
        assert_ne!(threads.config_digest(), two.config_digest());
    }

    #[test]
    fn app_specs_have_ports_and_labels() {
        assert_eq!(AppSpec::web().port(), 80);
        assert_eq!(AppSpec::proxy().label(), "haproxy");
        assert_eq!(KernelSpec::Fastsocket.label(), "fastsocket");
    }
}
