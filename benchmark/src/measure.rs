//! One workload, measured: untraced repeats (with their set-up builds)
//! for the host metrics, traced runs for the modeled latency and the
//! per-layer counts, the layer probes, and the correctness checks.

use crate::metrics::{Def, Metric, END_TO_END, EVENT_KINDS, PER_LAYER};
use crate::probes;
use crate::spans::Spans;
use crate::workloads::{Workload, HELD_TARGET};
use fastsocket::{AppSpec, RunReport, SimConfig, Simulation};
use serde_json::Value;
use sim_core::{cycles_to_secs, secs_to_cycles, usecs_to_cycles, CycleClass};
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulations one run pools, each on its own seed derived from the
/// run's seed. On `bulk_fs8` one seed's tail latency differs from the
/// next one's by up to ~10%; pooling four about halves that.
const SEEDS_PER_RUN: u64 = 4;
/// `Simulation::new` builds timed for `setup_s` in each untraced
/// repeat, the last of which runs. Spread over the whole run, they keep
/// a short burst of contention on a shared host, which can slow these
/// sub-millisecond builds by half, from setting the median.
const BUILDS_PER_REPEAT: usize = 3;
/// Rounds of untraced repeats (one repeat per pooled seed) run however
/// short `--seconds` is; two arm the repeat-digest check.
const MIN_ROUNDS: usize = 2;

/// How one workload is measured.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The run's seed; the pooled simulation seeds derive from it.
    pub seed: u64,
    /// Wall seconds of untraced repeats to run (at least `MIN_ROUNDS`
    /// rounds).
    pub seconds: f64,
    /// Simulated windows and probes divided by ten.
    pub smoke: bool,
}

/// Everything one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics, in `END_TO_END` order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in `PER_LAYER` order.
    pub per_layer: Vec<Metric>,
    /// Simulated connections attempted in the traced runs' windows.
    pub attempted: u64,
    /// Of those, reset, timed out or abandoned.
    pub failed: u64,
    /// Untraced repeats run.
    pub repeats: usize,
    /// Failed correctness checks; empty when the outputs are correct.
    pub errors: Vec<String>,
    /// The benchmark's own spans.
    pub spans: Spans,
}

/// Seed of pooled simulation `i` of a run seeded `seed`.
fn sim_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(SEEDS_PER_RUN).wrapping_add(i)
}

/// One traced simulation and what its tracer recorded.
struct Traced {
    report: RunReport,
    dispatch: Vec<(&'static str, u64)>,
    buckets: Vec<(u64, u64)>,
    wall: f64,
}

/// Measures workload `w` under `plan`.
pub fn measure(w: Workload, plan: Plan) -> Outcome {
    let cfgs: Vec<SimConfig> = (0..SEEDS_PER_RUN)
        .map(|i| w.config(sim_seed(plan.seed, i), plan.smoke))
        .collect();
    let mut spans = Spans::new();
    let root = spans.open(w.name(), 0);

    let mut setup_times = Vec::new();
    let mut walls = Vec::new();
    let mut ns_per_event = Vec::new();
    let mut digest_times = Vec::new();
    let mut digests = vec![Vec::new(); cfgs.len()];
    let mut untraced = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < plan.seconds {
        let round = spans.open("round", root);
        for (i, cfg) in cfgs.iter().enumerate() {
            let rep = spans.open("repeat", round);
            let mut sim = None;
            for _ in 0..BUILDS_PER_REPEAT {
                // One simulation alive at a time, as in a plain run.
                drop(sim.take());
                let c = cfg.clone();
                let (built, secs) = spans.time("new", rep, || Simulation::new(c));
                setup_times.push(secs);
                sim = Some(built);
            }
            let sim = sim.expect("every repeat builds");
            let (r, wall) = spans.time("run", rep, || sim.run());
            let (digest, secs) = spans.time("digest", rep, || r.results_digest());
            spans.close(rep);
            walls.push(wall);
            ns_per_event.push(wall * 1e9 / r.events as f64);
            digest_times.push(secs);
            digests[i].push(digest);
            if rounds == 0 {
                untraced.push(r);
            }
        }
        spans.close(round);
        rounds += 1;
    }
    let peak_rss_mb = peak_rss_mib();

    let traced_span = spans.open("traced", root);
    let traced: Vec<Traced> = cfgs
        .iter()
        .map(|cfg| {
            let sim = Simulation::new(cfg.clone().trace(true));
            let tracer = sim.tracer();
            let (report, wall) = spans.time("run", traced_span, || sim.run());
            Traced {
                report,
                dispatch: tracer.dispatch_counts(),
                buckets: tracer.setup_buckets(),
                wall,
            }
        })
        .collect();
    spans.close(traced_span);

    let probes_span = spans.open("probes", root);
    let shape = probes::Shape::of(w, plan.seed);
    let ops = if plan.smoke {
        probes::PROBE_OPS / 10
    } else {
        probes::PROBE_OPS
    };
    let probe_ns: Vec<f64> = probes::NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            spans
                .time(name, probes_span, || probes::run(i, shape, ops))
                .0
        })
        .collect();
    spans.close(probes_span);
    let calib_s = median(
        &(0..3)
            .map(|_| spans.time("calib", root, calib).1)
            .collect::<Vec<_>>(),
    );
    spans.close(root);

    let mut errors = Vec::new();
    for d in &digests {
        errors.extend(check_repeats(d).err());
    }
    for (u, t) in untraced.iter().zip(&traced) {
        errors.extend(check_unperturbed(u, &t.report).err());
        errors.extend(check_workload(w, u).err());
    }

    let mean = |f: &dyn Fn(&Traced) -> f64| traced.iter().map(f).sum::<f64>() / traced.len() as f64;
    let mut pooled = BTreeMap::new();
    for (upper, n) in traced.iter().flat_map(|t| t.buckets.iter().copied()) {
        *pooled.entry(upper).or_insert(0) += n;
    }
    let buckets: Vec<(u64, u64)> = pooled.into_iter().collect();
    let per_us = usecs_to_cycles(1.0) as f64;
    let wall = median(&walls);
    let mut e2e = Emit::new(END_TO_END);
    e2e.push("setup_s", median(&setup_times));
    e2e.push(
        "sim_s_per_wall_s",
        cycles_to_secs(cfgs[0].warmup + cfgs[0].measure) / wall,
    );
    e2e.push("peak_rss_mb", peak_rss_mb);
    e2e.push("cps", mean(&|t| t.report.throughput_cps));
    e2e.push("setup_p50_us", percentile(&buckets, 0.50) / per_us);
    e2e.push("setup_p99_us", percentile(&buckets, 0.99) / per_us);
    e2e.push("setup_p999_us", percentile(&buckets, 0.999) / per_us);
    e2e.push("goodput_gbps", mean(&|t| goodput_gbps(&t.report, &cfgs[0])));

    let mut layer = Emit::new(PER_LAYER);
    layer.push("core.run_wall_s", wall);
    layer.push("core.report_s", median(&digest_times));
    layer.push("sim-core.ns_per_event", median(&ns_per_event));
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall).collect();
    layer.push(
        "sim-trace.overhead_frac",
        median(&traced_walls) / wall - 1.0,
    );
    layer.push("bench.calib_s", calib_s);
    for (name, ns) in probes::NAMES.iter().zip(probe_ns) {
        layer.push(name, ns);
    }
    layer.push(
        "sim-trace.setup_samples",
        buckets.iter().map(|(_, n)| *n as f64).sum(),
    );
    let per_run: Vec<Vec<(String, f64)>> = traced
        .iter()
        .map(|t| model_layers(&t.report, &t.dispatch))
        .collect();
    for (k, (name, _)) in per_run[0].iter().enumerate() {
        layer.push(
            name,
            per_run.iter().map(|m| m[k].1).sum::<f64>() / per_run.len() as f64,
        );
    }

    let (end_to_end, per_layer) = (e2e.done(), layer.done());
    for m in &end_to_end {
        if !m.value.is_finite() || m.value == 0.0 {
            errors.push(format!("end-to-end metric {} read {}", m.def.name, m.value));
        }
    }
    for m in per_layer.iter().filter(|m| !m.value.is_finite()) {
        errors.push(format!("per-layer metric {} read {}", m.def.name, m.value));
    }

    let failed: u64 = traced.iter().map(|t| failures(&t.report)).sum();
    Outcome {
        end_to_end,
        per_layer,
        attempted: traced.iter().map(|t| t.report.completed).sum::<u64>() + failed,
        failed,
        repeats: walls.len(),
        errors,
        spans,
    }
}

/// Collects metrics against a definition table, in table order.
struct Emit {
    defs: &'static [Def],
    values: Vec<Option<f64>>,
}

impl Emit {
    fn new(defs: &'static [Def]) -> Emit {
        Emit {
            defs,
            values: vec![None; defs.len()],
        }
    }

    fn push(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not defined"));
        self.values[i] = Some(value);
    }

    fn done(self) -> Vec<Metric> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(def, v)| Metric {
                def: *def,
                value: v.unwrap_or_else(|| panic!("metric {} was not measured", def.name)),
            })
            .collect()
    }
}

/// Per-layer counts of the modeled kernel from one traced run (whose
/// model the perturbation check proves equal to the untraced one).
fn model_layers(r: &RunReport, dispatch: &[(&'static str, u64)]) -> Vec<(String, f64)> {
    let conns = r.completed.max(1) as f64;
    let per_conn = |v: f64| v / conns;
    let dispatched = |kind: &str| {
        dispatch
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n) as f64
    };
    let s = &r.stack;
    let mut out = vec![(
        "sim-core.events_per_conn".to_string(),
        per_conn(dispatch.iter().map(|(_, n)| *n).sum::<u64>() as f64),
    )];
    for kind in EVENT_KINDS {
        out.push((
            format!("sim-core.ev.{kind}_per_conn"),
            per_conn(dispatched(kind)),
        ));
    }
    let acquisitions: u64 = r.locks.iter().map(|l| l.acquisitions).sum();
    let contentions: u64 = r.locks.iter().map(|l| l.contentions).sum();
    let wait: u64 = r.locks.iter().map(|l| l.wait_cycles).sum();
    let load = r.load.as_ref();
    let counts = [
        (
            "tcp-stack.rto_useful_frac",
            s.retransmits as f64 / dispatched("rto").max(1.0),
        ),
        ("tcp-stack.retx_per_conn", per_conn(s.retransmits as f64)),
        (
            "tcp-stack.fast_retx_per_conn",
            per_conn(s.dp.map_or(0, |d| d.fast_retransmits) as f64),
        ),
        (
            "tcp-stack.syn_cookie_frac",
            s.syn_cookies_sent as f64 / s.passive_established.max(1) as f64,
        ),
        ("tcp-stack.live_sockets", f64::from(r.live_sockets)),
        (
            "sim-sync.contended_frac",
            contentions as f64 / acquisitions.max(1) as f64,
        ),
        ("sim-sync.wait_cycles_per_conn", per_conn(wait as f64)),
        ("sim-mem.l3_miss_rate", r.l3_miss_rate),
        ("sim-os.core_util", r.avg_utilization()),
        (
            "sim-load.queued_admissions",
            load.map_or(0.0, |l| l.queued_admissions as f64),
        ),
        (
            "sim-res.peak_sockets",
            r.mem.as_ref().map_or(0.0, |m| m.peak_sockets as f64),
        ),
    ];
    out.extend(counts.into_iter().map(|(k, v)| (k.to_string(), v)));
    // Busy cycles in the window: utilization x window, summed over cores.
    let window = secs_to_cycles(r.measure_secs) as f64;
    let busy = r.core_utilization.iter().sum::<f64>() * window;
    for class in CycleClass::ALL {
        out.push((
            format!("cyc.{}_per_conn", class.name()),
            per_conn(r.cycle_share(class) * busy),
        ));
    }
    out
}

/// Connections reset, timed out or abandoned.
fn failures(r: &RunReport) -> u64 {
    let abandoned = r
        .load
        .as_ref()
        .map_or(0, |l| l.abandoned_wait + l.abandoned_connect);
    r.resets + r.timeouts + abandoned
}

/// Response payload delivered, in Gbps: the data plane's own count, or
/// the web server's fixed 1-packet response size times the responses.
fn goodput_gbps(r: &RunReport, cfg: &SimConfig) -> f64 {
    match (&r.bulk, &cfg.app) {
        (Some(b), _) => b.goodput_gbps,
        (None, AppSpec::Web(web)) => {
            r.responses as f64 * f64::from(web.response_len) * 8.0 / r.measure_secs / 1e9
        }
        (None, AppSpec::Proxy(_)) => unreachable!("every workload serves the web app"),
    }
}

/// Untraced repeats of one config must produce one results digest.
pub fn check_repeats(digests: &[String]) -> Result<(), String> {
    match digests.iter().position(|d| *d != digests[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "untraced repeat {i} digest {} differs from repeat 0 digest {}",
            digests[i], digests[0]
        )),
    }
}

/// Tracing must not perturb the model: apart from the latency block
/// tracing adds and the config hash that records the trace switch, the
/// traced report must equal the untraced one field by field.
pub fn check_unperturbed(untraced: &RunReport, traced: &RunReport) -> Result<(), String> {
    let mut t = traced.clone();
    t.latency = None;
    t.config_hash.clone_from(&untraced.config_hash);
    let (Value::Object(a), Value::Object(b)) = (
        serde_json::to_value(untraced).expect("report serializes"),
        serde_json::to_value(&t).expect("report serializes"),
    ) else {
        unreachable!("a report serializes to an object");
    };
    let a: BTreeMap<_, _> = a.into_iter().collect();
    let b: BTreeMap<_, _> = b.into_iter().collect();
    let differ: Vec<&str> = a
        .keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .map(String::as_str)
        .collect();
    if differ.is_empty() {
        Ok(())
    } else {
        Err(format!("tracing perturbed the model: {differ:?} differ"))
    }
}

/// Workload-specific sanity: work completed, the ledger balanced and
/// full, the data plane moved bytes under the configured controller.
pub fn check_workload(w: Workload, r: &RunReport) -> Result<(), String> {
    if r.completed == 0 {
        return Err(format!("{} completed no connections", w.name()));
    }
    match w {
        Workload::HeldFs8 => {
            let m = r.mem.as_ref().ok_or("held_fs8 reported no ledger")?;
            if !m.balanced {
                return Err("held_fs8 ledger did not balance at drain".into());
            }
            if (m.peak_sockets as f64) < 0.9 * HELD_TARGET as f64 {
                return Err(format!(
                    "held_fs8 peaked at {} modeled sockets, below 90% of {HELD_TARGET}",
                    m.peak_sockets
                ));
            }
        }
        Workload::BulkFs8 => {
            let b = r.bulk.as_ref().ok_or("bulk_fs8 reported no data plane")?;
            if b.cc != "cubic" || b.payload_bytes == 0 {
                return Err(format!(
                    "bulk_fs8 ran cc {} and moved {} bytes",
                    b.cc, b.payload_bytes
                ));
            }
        }
        Workload::ShortFs24 | Workload::ShortBase24 => {}
    }
    Ok(())
}

/// Percentile `p` of a log-bucketed histogram given as `(upper bound,
/// count)` rows, interpolated linearly inside the bucket so it moves
/// smoothly with the samples instead of jumping between bucket bounds.
pub fn percentile(buckets: &[(u64, u64)], p: f64) -> f64 {
    let total: u64 = buckets.iter().map(|(_, n)| n).sum();
    let rank = p * total as f64;
    let mut below = 0.0;
    for &(upper, n) in buckets {
        let n = n as f64;
        if below + n >= rank {
            // Buckets under 32 hold one value; above, each power-of-two
            // octave is split into 16 equal buckets.
            let width = if upper < 32 {
                0.0
            } else {
                (1u64 << (upper.ilog2() - 4)) as f64
            };
            return upper as f64 - (1.0 - (rank - below) / n) * width;
        }
        below += n;
    }
    buckets.last().map_or(0.0, |b| b.0 as f64)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed standard-library workload (hash, sort, allocate) that makes
/// host drift visible next to the simulator's numbers.
fn calib() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u64> = (0..400_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut map = std::collections::HashMap::new();
    for (i, k) in v.iter().enumerate().step_by(4) {
        map.insert(*k, i);
    }
    std::hint::black_box(v.iter().fold(map.len() as u64, |h, k| {
        (h ^ k).wrapping_mul(0x100_0000_01b3)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsocket::KernelSpec;

    fn tiny(trace: bool) -> RunReport {
        let cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 2)
            .warmup_secs(0.002)
            .measure_secs(0.01)
            .seed(7)
            .trace(trace);
        Simulation::new(cfg).run()
    }

    #[test]
    fn smoke_run_passes_every_check() {
        let o = measure(
            Workload::BulkFs8,
            Plan {
                seed: 42,
                seconds: 0.0,
                smoke: true,
            },
        );
        assert!(o.errors.is_empty(), "{:?}", o.errors);
        assert!(o.attempted > 0);
        assert_eq!(o.failed, 0);
        assert_eq!(o.repeats, MIN_ROUNDS * SEEDS_PER_RUN as usize);
    }

    #[test]
    fn mismatched_digests_fail_the_repeat_check() {
        assert!(check_repeats(&["ab".into(), "ab".into()]).is_ok());
        let err = check_repeats(&["ab".into(), "ab".into(), "cd".into()]).unwrap_err();
        assert!(err.contains("repeat 2"), "{err}");
    }

    #[test]
    fn a_trace_perturbed_counter_fails_the_model_check() {
        let untraced = tiny(false);
        let traced = tiny(true);
        assert!(traced.latency.is_some());
        check_unperturbed(&untraced, &traced).expect("tracing leaves the model alone");
        let mut perturbed = traced.clone();
        perturbed.stack.retransmits += 1;
        let err = check_unperturbed(&untraced, &perturbed).unwrap_err();
        assert!(err.contains("stack"), "{err}");
        let mut perturbed = traced;
        perturbed.events += 1;
        let err = check_unperturbed(&untraced, &perturbed).unwrap_err();
        assert!(err.contains("events"), "{err}");
    }

    #[test]
    fn percentile_interpolates_inside_a_bucket() {
        // Values 1024..=1087 share one bucket: upper bound 1087, width 64.
        let b = [(1_087, 100)];
        assert_eq!(percentile(&b, 1.0), 1_087.0);
        assert_eq!(percentile(&b, 0.5), 1_055.0);
        // Buckets below 32 hold a single value each.
        assert_eq!(percentile(&[(7, 3), (9, 1)], 0.5), 7.0);
        assert_eq!(percentile(&[(7, 3), (9, 1)], 1.0), 9.0);
    }
}
