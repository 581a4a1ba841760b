//! Figure 3: 24-hour per-core CPU utilization of two 8-core HAProxy
//! servers serving the same diurnal traffic — one stock, one
//! Fastsocket.
//!
//! The paper's box plot shows two effects: Fastsocket lowers *average*
//! utilization (less lock/cache overhead per connection) and collapses
//! the *spread* across cores (per-core process zones balance perfectly,
//! while the shared accept queue makes some cores persistently hotter).
//! From the 18:30 sample the paper derives a 53.5% effective-capacity
//! improvement; [`Fig3::capacity_improvement`] reproduces that formula.

use serde::{Deserialize, Serialize};
use sim_core::CYCLES_PER_SEC;
use sim_load::DEFAULT_DIURNAL;

use crate::config::{AppSpec, KernelSpec, SimConfig};
use crate::sim::Simulation;

/// One hourly utilization sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HourSample {
    /// Hour of day, 0–23.
    pub hour: u8,
    /// Offered load (connections/sec target).
    pub offered_cps: f64,
    /// Achieved connections/sec.
    pub cps: f64,
    /// Mean core utilization.
    pub avg: f64,
    /// Minimum core utilization.
    pub min: f64,
    /// Maximum core utilization (the effective-capacity limiter).
    pub max: f64,
}

/// One server's day.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DayTrace {
    /// Kernel label.
    pub kernel: String,
    /// Hourly samples.
    pub hours: Vec<HourSample>,
}

/// The full figure: both servers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3 {
    /// Stock-kernel server.
    pub base: DayTrace,
    /// Fastsocket server.
    pub fastsocket: DayTrace,
}

/// Paper values at the 18:30 sample: base utilization 31.7–57.7%
/// (avg 45.1%), Fastsocket 32.7–37.6% (avg 34.3%), capacity +53.5%.
pub const PAPER_CAPACITY_IMPROVEMENT: f64 = 0.535;

fn run_day(
    kernel: KernelSpec,
    cores: u16,
    peak_cps: f64,
    measure_secs: f64,
    seed: u64,
) -> DayTrace {
    let mut hours = Vec::new();
    let concurrency: u32 = u32::from(cores) * 120;
    for (hour, frac) in DEFAULT_DIURNAL.iter().enumerate() {
        let offered = peak_cps * frac;
        // Closed-loop pacing: each of C slots completes one connection
        // per (latency + think); pick think so C/(latency+think) ==
        // offered. Latency ≈ RTT + service.
        let latency_secs = 0.000_25;
        let think = (f64::from(concurrency) / offered - latency_secs).max(0.0);
        let cfg = SimConfig::new(kernel.clone(), AppSpec::proxy(), cores)
            .warmup_secs(0.1)
            .measure_secs(measure_secs)
            .concurrency(concurrency)
            .think_secs(think)
            .seed(seed ^ (hour as u64) << 32);
        let r = Simulation::new(cfg).run();
        let (min, max) = r.utilization_spread();
        hours.push(HourSample {
            hour: hour as u8,
            offered_cps: offered,
            cps: r.throughput_cps,
            avg: r.avg_utilization(),
            min,
            max,
        });
    }
    DayTrace {
        kernel: kernel.label().to_string(),
        hours,
    }
}

/// Runs both servers through the diurnal day. `peak_cps` is the peak
/// offered load; the paper's 8-core production boxes with 1GE NICs run
/// well below saturation (the SLA keeps the hottest core under 75%).
pub fn run(cores: u16, peak_cps: f64, measure_secs: f64) -> Fig3 {
    Fig3 {
        base: run_day(KernelSpec::BaseLinux, cores, peak_cps, measure_secs, 7),
        fastsocket: run_day(KernelSpec::Fastsocket, cores, peak_cps, measure_secs, 7),
    }
}

impl Fig3 {
    /// The paper's effective-capacity formula at the busiest hour:
    /// capacity is inversely proportional to the *hottest* core's
    /// utilization, so the improvement is
    /// `(1/max_fs - 1/max_base) / (1/max_base)`.
    pub fn capacity_improvement(&self) -> f64 {
        let busiest = |d: &DayTrace| {
            d.hours
                .iter()
                .max_by(|a, b| a.max.total_cmp(&b.max))
                .map(|h| h.max)
                .unwrap_or(1.0)
        };
        let base = busiest(&self.base);
        let fs = busiest(&self.fastsocket);
        if fs <= 0.0 {
            return 0.0;
        }
        (1.0 / fs - 1.0 / base) / (1.0 / base)
    }

    /// Average utilization reduction at the busiest base hour.
    pub fn avg_utilization_reduction(&self) -> f64 {
        let peak_hour = self
            .base
            .hours
            .iter()
            .max_by(|a, b| a.avg.total_cmp(&b.avg))
            .map(|h| h.hour)
            .unwrap_or(19);
        let b = &self.base.hours[peak_hour as usize];
        let f = &self.fastsocket.hours[peak_hour as usize];
        if b.avg <= 0.0 {
            0.0
        } else {
            (b.avg - f.avg) / b.avg
        }
    }
}

/// Sanity helper: cycles corresponding to `secs` (re-exported for the
/// harness binaries).
pub fn secs(secs: f64) -> u64 {
    (secs * CYCLES_PER_SEC as f64) as u64
}
