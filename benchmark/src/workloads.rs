//! The four workloads. Each is one `SimConfig` built from the seed, plus
//! the sizes the layer probes copy from it.

use fastsocket::{
    AppSpec, DataPlaneConfig, KernelSpec, LongLivedMix, MemConfig, OpenLoopConfig, SimConfig,
};
use sim_nic::BatchConfig;
use tcp_stack::CcAlgo;

/// Modeled sockets `held_fs8` holds open (Little's law sets its rate).
pub const HELD_TARGET: u64 = 1_572_864;
/// Modeled sockets per simulated socket in `held_fs8`.
const HELD_SCALE: u32 = 256;
/// Share of `held_fs8` sessions that park on their connection.
const HELD_FRACTION: f64 = 0.9;
/// How long a held session parks, in seconds.
const HELD_SECS: f64 = 0.08;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fastsocket, 24 cores, closed-loop 1-packet churn (Fig. 4a).
    ShortFs24,
    /// The same traffic through stock 2.6.32's shared tables.
    ShortBase24,
    /// Fastsocket, 8 cores, 128 clients fetching 64 KiB CUBIC responses
    /// with GSO/GRO.
    BulkFs8,
    /// Fastsocket, 8 cores, open-loop arrivals holding ~1.6 M modeled
    /// sockets against the memory ledger.
    HeldFs8,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ShortFs24,
        Workload::ShortBase24,
        Workload::BulkFs8,
        Workload::HeldFs8,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShortFs24 => "short_fs24",
            Workload::ShortBase24 => "short_base24",
            Workload::BulkFs8 => "bulk_fs8",
            Workload::HeldFs8 => "held_fs8",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated server cores.
    pub fn cores(self) -> u16 {
        match self {
            Workload::ShortFs24 | Workload::ShortBase24 => 24,
            Workload::BulkFs8 | Workload::HeldFs8 => 8,
        }
    }

    /// Whether the kernel shares its tables and locks across cores.
    pub fn shared_tables(self) -> bool {
        self == Workload::ShortBase24
    }

    /// Simulated client slots: closed-loop clients, or the open-loop
    /// population. The probes size their tables and queues from it.
    pub fn clients(self) -> u32 {
        match self {
            Workload::ShortFs24 | Workload::ShortBase24 => 500 * u32::from(self.cores()),
            // 16 streams per core keep the server just below the point
            // where retransmission storms set in; past it, tail latency
            // swings by 30-45% from one seed to the next.
            Workload::BulkFs8 => 16 * u32::from(self.cores()),
            Workload::HeldFs8 => held_population(),
        }
    }

    /// `(warmup, measure)` in simulated seconds; `--smoke` divides both
    /// by ten.
    pub fn windows(self, smoke: bool) -> (f64, f64) {
        let (warmup, measure) = match self {
            Workload::ShortFs24 => (0.05, 0.25),
            Workload::ShortBase24 => (0.05, 0.5),
            Workload::BulkFs8 => (0.02, 0.5),
            // The warmup outlasts one hold, so the held population is
            // standing when measurement starts.
            Workload::HeldFs8 => (0.12, 0.75),
        };
        if smoke {
            (warmup / 10.0, measure / 10.0)
        } else {
            (warmup, measure)
        }
    }

    /// The untraced simulation config for `seed`.
    pub fn config(self, seed: u64, smoke: bool) -> SimConfig {
        let (warmup, measure) = self.windows(smoke);
        let kernel = if self.shared_tables() {
            KernelSpec::BaseLinux
        } else {
            KernelSpec::Fastsocket
        };
        let cfg = SimConfig::new(kernel, AppSpec::web(), self.cores())
            .warmup_secs(warmup)
            .measure_secs(measure)
            .seed(seed)
            .check(false);
        match self {
            Workload::ShortFs24 | Workload::ShortBase24 => cfg.concurrency(self.clients()),
            Workload::BulkFs8 => cfg.concurrency(self.clients()).data_plane(DataPlaneConfig {
                cc: CcAlgo::Cubic,
                response_bytes: 65_536,
                batch: BatchConfig::offload(),
                ..DataPlaneConfig::default()
            }),
            Workload::HeldFs8 => {
                // Standing population = rate x held share x hold time, so
                // the rate follows from the target; the population has 2x
                // headroom so arrivals never find every slot busy.
                let rate = held_sim_target() as f64 / (HELD_FRACTION * HELD_SECS);
                cfg.mem(MemConfig::ram_mb(8_192).scaled(HELD_SCALE))
                    .open_loop(
                        OpenLoopConfig::poisson(rate)
                            .population(held_population())
                            .longlived(LongLivedMix::fraction_held(HELD_FRACTION, HELD_SECS)),
                    )
            }
        }
    }
}

fn held_sim_target() -> u64 {
    HELD_TARGET / u64::from(HELD_SCALE)
}

fn held_population() -> u32 {
    u32::try_from(2 * held_sim_target()).expect("population fits u32")
}
