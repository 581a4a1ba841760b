//! Parallel lane-sharded execution of a [`Simulation`].
//!
//! The simulated machine is partitioned into `lanes` equal blocks of
//! cores. Each lane is a fully independent [`Simulation`] — its own
//! event wheel, kernel context, per-core stacks, NIC replica, client
//! slots and RNG streams — and the lanes only interact through
//! explicitly timestamped packets crossing the simulated NIC boundary.
//! Because every cross-lane packet takes at least `rtt/2` cycles of
//! wire latency, a conservative null-message protocol with lookahead
//! horizon `rtt/2` is exact: lanes pump `[T, T+H)` independently,
//! exchange their boundary messages (an empty vector is the null
//! message), and advance.
//!
//! Both executors — [`run_lanes_serial`] on one thread and
//! [`run_lanes_threads`] on one host thread per lane — run the
//! *identical* windowed protocol, so their [`RunReport`]s are
//! bit-identical; the differential oracle in `tests/par_engine.rs`
//! asserts exactly that, with all sanitizers armed inside the lanes.
//!
//! Kernels whose tables are shared across all cores (stock Linux, and
//! `SO_REUSEPORT` without local established tables) have no NIC-only
//! interaction boundary to cut along, so [`effective_lanes`] runs them
//! as one lane — the per-kernel `ShardPolicy` is the certification of
//! exactly this property: only the full Fastsocket partition promises
//! core-local state.
//!
//! One lane is the ordinary [`Simulation::run`]: the same windowed
//! pump with a single window, folded into its report by the same
//! [`merge_outcomes`] that folds a sharded machine's lanes.

use sim_core::{
    cycles_to_secs, run_lanes_serial, run_lanes_threads, usecs_to_cycles, CycleClass, Cycles,
    LaneSchedule, LaneSim,
};
use sim_load::{LoadReport, ScheduleDigest};
use sim_mem::CacheStats;
use sim_nic::SteeringMode;
use tcp_stack::{EstVariant, FaultInjection, ListenVariant, StackStats};

use crate::config::SimConfig;
use crate::report::{lock_reports, BulkReport, RunReport};
use crate::sim::{BoundaryMsg, LaneOutcome, Simulation};

impl LaneSim for Simulation {
    type Msg = BoundaryMsg;

    fn pump(&mut self, until: Cycles) {
        self.lane_pump(until);
    }

    fn drain_outbox(&mut self, buckets: &mut [Vec<BoundaryMsg>]) {
        self.lane_drain_outbox(buckets);
    }

    fn deliver(&mut self, _src: u16, msgs: Vec<BoundaryMsg>, not_before: Cycles) {
        self.lane_deliver(msgs, not_before);
    }
}

/// The lane count `cfg` actually runs with: the largest divisor of
/// `cfg.cores` not exceeding the requested lane count — or 1 when the
/// configuration cannot be partitioned:
///
/// * no `par` block, or fewer than 2 effective lanes;
/// * a kernel without the full Fastsocket partition (shared listen or
///   established tables have cross-core state the NIC boundary cannot
///   isolate — the same property the `ShardPolicy` certifies);
/// * IsoStack's dedicated stack core (cross-core by design);
/// * any fault schedule or fault-injection knob (faults address global
///   core/queue ids);
/// * an armed edge tier (backend health and failover are shared state);
/// * an open-loop population smaller than the lane count.
pub fn effective_lanes(cfg: &SimConfig) -> u16 {
    let Some(p) = cfg.par else {
        return 1;
    };
    let stack = cfg.kernel.resolve(cfg.cores);
    let full_partition = stack.listen == ListenVariant::Local
        && stack.established == EstVariant::Local
        && stack.rfd
        && !cfg.dedicated_stack_core;
    if !full_partition || !cfg.faults.is_empty() || cfg.fault != FaultInjection::None {
        return 1;
    }
    // Edge-tier runs are serial: backend health, failover retries, and
    // fault schedules address shared backend state lanes cannot shard.
    if cfg.edge.is_some() {
        return 1;
    }
    if let Some(o) = &cfg.open_loop {
        if o.population < u32::from(p.lanes.max(1)) {
            return 1;
        }
    }
    let mut best = 1;
    for d in 1..=cfg.cores.min(p.lanes) {
        if cfg.cores.is_multiple_of(d) {
            best = d;
        }
    }
    best
}

/// Runs `cfg` on the lane-sharded engine and merges the per-lane
/// outcomes into one machine-wide [`RunReport`]. Configurations that
/// [`effective_lanes`] resolves to a single lane are a plain
/// [`Simulation::run`], which is the same pump and fold on one lane.
///
/// The report is bit-identical between the serial and threaded
/// executors: lanes are deterministic given `(seed, lane)`, the window
/// protocol delivers messages in (source lane, emission) order in both,
/// and the merge below folds outcomes in lane-index order.
pub fn run_sharded(cfg: SimConfig) -> RunReport {
    let lanes = effective_lanes(&cfg);
    if lanes <= 1 {
        return Simulation::new(cfg).run();
    }
    let threads = cfg.par.map(|p| p.threads).unwrap_or(false);
    let end = cfg.warmup + cfg.measure;
    // The largest always-safe horizon is the minimum cross-lane
    // latency: every boundary message is stamped `emission + rtt/2`.
    let horizon = cfg
        .par
        .and_then(|p| p.horizon)
        .unwrap_or((cfg.rtt / 2).max(1))
        .max(1);
    let sched = LaneSchedule::new(horizon, end);

    let outcomes: Vec<LaneOutcome> = if threads {
        let builders: Vec<_> = (0..lanes)
            .map(|l| {
                let cfg = cfg.clone();
                move || {
                    let mut lane = Simulation::new_lane(&cfg, l, lanes);
                    lane.lane_start();
                    lane
                }
            })
            .collect();
        run_lanes_threads(builders, sched, |lane| lane.lane_finish(end))
    } else {
        let mut sims: Vec<Simulation> = (0..lanes)
            .map(|l| {
                let mut lane = Simulation::new_lane(&cfg, l, lanes);
                lane.lane_start();
                lane
            })
            .collect();
        run_lanes_serial(&mut sims, sched);
        sims.into_iter().map(|lane| lane.lane_finish(end)).collect()
    };

    merge_outcomes(&cfg, lanes, outcomes, end)
}

/// Folds per-lane outcomes (in lane-index order) into the machine-wide
/// report — the one place a [`RunReport`] is built. Core-indexed data
/// concatenates (lane `l` owns cores `[l*k, (l+1)*k)`); counters sum;
/// sanitizer diagnostics remap their core ids by the lane's offset. The
/// measurement window opens at the earliest lane's warmup snapshot.
pub(crate) fn merge_outcomes(
    cfg: &SimConfig,
    lanes: u16,
    outcomes: Vec<LaneOutcome>,
    end: Cycles,
) -> RunReport {
    let k = cfg.cores / lanes;
    let start = outcomes
        .iter()
        .map(|o| o.window_start)
        .min()
        .expect("a run has at least one lane");
    let secs = cycles_to_secs(end.saturating_sub(start).max(1));

    let mut completed = 0u64;
    let mut responses = 0u64;
    let mut resets = 0u64;
    let mut timeouts = 0u64;
    let mut payload_bytes = 0u64;
    let mut events = 0u64;
    let mut live_sockets = 0u32;
    let mut busy_total = 0u64;
    let mut class_delta = [0u64; CycleClass::COUNT];
    let mut core_utilization = Vec::with_capacity(cfg.cores as usize);
    let mut locks_acc = None;
    let mut cache = CacheStats::default();
    let mut stack = StackStats::default();
    let mut hists = None;
    let mut checks = None;
    let mut load: Option<LoadReport> = None;
    let mut lane_digests = ScheduleDigest::new();
    let mut mem_acc: Option<sim_res::MemReport> = None;
    // Fault schedules and the edge tier run on one lane only
    // (`effective_lanes`), so their reports pass through.
    let mut robustness = None;
    let mut edge = None;

    for (l, o) in outcomes.into_iter().enumerate() {
        completed += o.completed;
        responses += o.responses;
        resets += o.resets;
        timeouts += o.timeouts;
        payload_bytes += o.payload_bytes;
        events += o.events;
        live_sockets += o.live_sockets;
        busy_total += o.busy_total;
        for (i, d) in o.class_delta.iter().enumerate() {
            class_delta[i] += d;
        }
        core_utilization.extend(o.core_utilization);
        cache.merge(&o.cache);
        stack.merge(&o.stack);
        match &mut locks_acc {
            None => locks_acc = Some(o.locks),
            Some(acc) => {
                for (slot, (_, s)) in acc.iter_mut().zip(o.locks.iter()) {
                    slot.1.merge(s);
                }
            }
        }
        if let Some(h) = o.hists {
            match &mut hists {
                None => hists = Some(h),
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(h.iter()) {
                        a.merge(b);
                    }
                }
            }
        }
        if let Some(c) = o.checks {
            let offset = l as u16 * k;
            match &mut checks {
                None => checks = Some(c),
                Some(acc) => acc.merge(&c, offset),
            }
        }
        robustness = robustness.or(o.robustness);
        edge = edge.or(o.edge);
        if let Some(ll) = o.load {
            // A lone lane keeps its own schedule digest; a sharded
            // machine's hashes its lanes' digests in lane order.
            let digest = u64::from_str_radix(&ll.schedule_digest, 16);
            lane_digests.push(digest.expect("schedule digests are hex"));
            match &mut load {
                None => load = Some(ll),
                Some(acc) => {
                    acc.offered += ll.offered;
                    acc.admitted += ll.admitted;
                    acc.queued_admissions += ll.queued_admissions;
                    acc.abandoned_wait += ll.abandoned_wait;
                    acc.abandoned_connect += ll.abandoned_connect;
                    acc.completed_sessions += ll.completed_sessions;
                    // Lanes queue independently, so the machine-wide
                    // peak is bounded by (and reported as) the sum of
                    // per-lane peaks.
                    acc.peak_backlog += ll.peak_backlog;
                    acc.offered_cps = acc.offered as f64 / cycles_to_secs(end);
                    acc.schedule_digest = lane_digests.hex();
                }
            }
        }
        if let Some(m) = o.mem {
            // Budgets and peaks re-add across the lane shares;
            // `balanced` stays conjunctive (one unbalanced lane taints
            // the machine).
            match &mut mem_acc {
                None => mem_acc = Some(m),
                Some(acc) => acc.merge(&m),
            }
        }
    }

    let cycle_shares: Vec<(String, f64)> = CycleClass::ALL
        .iter()
        .enumerate()
        .map(|(i, cl)| {
            let share = if busy_total == 0 {
                0.0
            } else {
                class_delta[i] as f64 / busy_total as f64
            };
            (cl.name().to_string(), share)
        })
        .collect();

    let bulk = cfg.data_plane.map(|dp| BulkReport {
        cc: dp.cc.name().to_string(),
        response_bytes: dp.response_bytes,
        payload_bytes,
        goodput_gbps: payload_bytes as f64 * 8.0 / secs / 1e9,
    });

    let locks = locks_acc.unwrap_or_default();
    let steering = match cfg.steering {
        SteeringMode::Rss => "rss",
        SteeringMode::FdirAtr => "fdir_atr",
        SteeringMode::FdirPerfect => "fdir_perfect",
    };
    let latency = hists
        .and_then(|h| sim_trace::LatencyReport::from_histograms(&h, usecs_to_cycles(1.0) as f64));

    RunReport {
        kernel: cfg.kernel.label().to_string(),
        app: cfg.app.label().to_string(),
        cores: cfg.cores,
        steering: steering.to_string(),
        seed: cfg.seed,
        config_hash: cfg.config_digest(),
        latency,
        checks,
        robustness,
        measure_secs: secs,
        throughput_cps: completed as f64 / secs,
        requests_per_sec: responses as f64 / secs,
        completed,
        responses,
        resets,
        timeouts,
        core_utilization,
        locks: lock_reports(&locks),
        l3_miss_rate: cache.miss_rate(),
        local_packet_proportion: stack.local_packet_proportion(),
        cycle_shares,
        stack,
        avg_listen_walk: stack.avg_listen_walk(),
        events,
        live_sockets,
        load,
        bulk,
        edge,
        mem: mem_acc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppSpec, KernelSpec, ParConfig};
    use sim_load::OpenLoopConfig;

    /// Lane RNG streams fork by stable lane id, so the order lanes are
    /// *constructed* in (which is the order their streams are derived
    /// in) must not change the arrival schedules — the property that
    /// makes the threaded executor deterministic under host-thread
    /// scheduling.
    #[test]
    fn permuted_lane_startup_order_keeps_the_schedule_digest() {
        let cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 8)
            .warmup_secs(0.003)
            .measure_secs(0.01)
            .seed(77)
            .open_loop(OpenLoopConfig::poisson(20_000.0).population(64))
            .par(ParConfig::lanes(4).threads(false));
        let lanes = effective_lanes(&cfg);
        assert_eq!(lanes, 4);
        let run = |order: &[u16]| {
            let end = cfg.warmup + cfg.measure;
            let mut slots: Vec<Option<Simulation>> = (0..lanes).map(|_| None).collect();
            for &l in order {
                let mut lane = Simulation::new_lane(&cfg, l, lanes);
                lane.lane_start();
                slots[usize::from(l)] = Some(lane);
            }
            let mut sims: Vec<Simulation> = slots
                .into_iter()
                .map(|s| s.expect("all lanes built"))
                .collect();
            run_lanes_serial(&mut sims, LaneSchedule::new((cfg.rtt / 2).max(1), end));
            let outcomes = sims.into_iter().map(|s| s.lane_finish(end)).collect();
            merge_outcomes(&cfg, lanes, outcomes, end)
        };
        let a = run(&[0, 1, 2, 3]);
        let b = run(&[2, 0, 3, 1]);
        assert_eq!(
            a.load.as_ref().expect("open loop ran").schedule_digest,
            b.load.as_ref().expect("open loop ran").schedule_digest,
            "lane construction order leaked into the arrival schedule"
        );
        assert_eq!(a.results_digest(), b.results_digest());
    }

    /// An armed edge tier forces a single lane: backend health and
    /// failover retries are shared state no lane partition can own.
    #[test]
    fn edge_tier_forces_serial_execution() {
        let base =
            SimConfig::new(KernelSpec::Fastsocket, AppSpec::proxy(), 8).par(ParConfig::lanes(4));
        assert_eq!(effective_lanes(&base), 4);
        let edged = base.edge(sim_apps::edge::EdgeConfig::default());
        assert_eq!(
            effective_lanes(&edged),
            1,
            "edge fault domains must run on one lane"
        );
    }
}
