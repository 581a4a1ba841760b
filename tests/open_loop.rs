//! Open-loop workload gates: closed-loop digests must not move, and
//! same-seed open-loop runs must be bit-identical — across repeated
//! runs and under keep-alive sessions.
//!
//! The golden digests below pin every modeled output of five closed-loop
//! cells and three open-loop ones. The closed-loop rows hold the promise
//! that `sim-load` is purely additive: every closed-loop figure
//! reproduces byte-for-byte.

use fastsocket::{
    AppSpec, KernelSpec, LongLivedMix, MemConfig, MmppPhase, OpenLoopConfig, RunReport, SimConfig,
    Simulation,
};
use proptest::prelude::*;

/// The exact closed-loop cells whose digests were pinned from the seed
/// tree (8-core web sweep plus a 4-core proxy cell), and a 24-core
/// stock-kernel cell whose shared locks carry long hold lists.
fn golden_cell(kernel: KernelSpec, app: AppSpec, cores: u16) -> SimConfig {
    SimConfig::new(kernel, app, cores)
        .warmup_secs(0.02)
        .measure_secs(0.06)
        .concurrency(u32::from(cores) * 60)
}

/// [`RunReport::results_digest`] with the diagnostic `events` count
/// zeroed and the `config_hash` blanked: how many events the simulator
/// dispatches is not a modeled output, and each golden row pins its
/// config digest separately, so the model pins leave both out.
fn model_digest(r: &RunReport) -> String {
    let mut r = r.clone();
    r.events = 0;
    r.config_hash.clear();
    r.results_digest()
}

#[test]
fn closed_loop_golden_digests_are_unchanged() {
    let golden: [(KernelSpec, AppSpec, u16, &str, &str); 5] = [
        (
            KernelSpec::BaseLinux,
            AppSpec::web(),
            8,
            "ea1b7d60a2280ce4",
            "3fccd2e5ca7856e9",
        ),
        (
            KernelSpec::Linux313,
            AppSpec::web(),
            8,
            "b96827bd22c00196",
            "8f9bafeb266ceac4",
        ),
        (
            KernelSpec::Fastsocket,
            AppSpec::web(),
            8,
            "7d760786cd0be12e",
            "8ad78bce67523c47",
        ),
        (
            KernelSpec::Fastsocket,
            AppSpec::proxy(),
            4,
            "153e2a3de7d4fc05",
            "ae4afced329433d9",
        ),
        (
            KernelSpec::BaseLinux,
            AppSpec::web(),
            24,
            "941d73747f6f07d2",
            "cb9e490a93698229",
        ),
    ];
    for (kernel, app, cores, cfg_digest, report_digest) in golden {
        let label = kernel.label();
        let app_label = app.label();
        let cfg = golden_cell(kernel, app, cores);
        assert_eq!(
            cfg.config_digest(),
            cfg_digest,
            "config digest moved: {label}/{app_label}"
        );
        let r = Simulation::new(cfg).run();
        assert_eq!(
            model_digest(&r),
            report_digest,
            "model digest moved: {label}/{app_label}"
        );
        assert!(r.load.is_none(), "closed loop must not report load");
    }
}

fn open_cell(rate_cps: f64, seed: u64) -> SimConfig {
    SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 2)
        .warmup_secs(0.02)
        .measure_secs(0.08)
        .seed(seed)
        .open_loop(OpenLoopConfig::poisson(rate_cps).population(400))
}

/// Half the sessions hold their connection open for 30 ms after the
/// last response, on the stock kernel under the memory ledger.
fn held_mix_cell() -> SimConfig {
    SimConfig::new(KernelSpec::BaseLinux, AppSpec::web(), 2)
        .warmup_secs(0.02)
        .measure_secs(0.08)
        .seed(11)
        .mem(MemConfig::ram_mb(64).scaled(16))
        .open_loop(
            OpenLoopConfig::poisson(20_000.0)
                .population(800)
                .longlived(LongLivedMix::fraction_held(0.5, 0.03)),
        )
}

/// Every modeled output of three open-loop cells: a short-lived web
/// storm, keep-alive proxy sessions, and the held-session mix. The
/// config hash is blanked (see [`model_digest`]), so the pins cover the
/// model, not the spelling of the config.
#[test]
fn open_loop_golden_model_digests_are_unchanged() {
    let mut proxy = SimConfig::new(KernelSpec::Fastsocket, AppSpec::proxy(), 2)
        .warmup_secs(0.02)
        .measure_secs(0.08)
        .open_loop(OpenLoopConfig::poisson(6_000.0).population(300));
    proxy.workload.requests_per_conn = 3;
    let golden: [(&str, SimConfig, &str); 3] = [
        ("fastsocket web", open_cell(30_000.0, 7), "4dd414703f585f06"),
        ("fastsocket proxy keep-alive", proxy, "e6ac8f31455f8153"),
        ("base web held mix", held_mix_cell(), "e4dfc3f26e9ee10f"),
    ];
    for (label, cfg, report_digest) in golden {
        let r = Simulation::new(cfg).run();
        assert!(r.load.is_some(), "{label}: open loop must report load");
        assert_eq!(
            model_digest(&r),
            report_digest,
            "model digest moved: {label}"
        );
    }
}

/// A held client ACKs the response it parks on, so with no loss
/// configured the server has nothing to retransmit during the hold.
#[test]
fn held_sessions_do_not_retransmit_without_loss() {
    let r = Simulation::new(held_mix_cell()).run();
    assert!(r.completed > 0, "the held mix completes sessions");
    assert_eq!(
        r.stack.retransmits, 0,
        "no loss, yet the server retransmitted"
    );
}

#[test]
fn same_seed_open_loop_runs_are_bit_identical() {
    let a = Simulation::new(open_cell(30_000.0, 7)).run();
    let b = Simulation::new(open_cell(30_000.0, 7)).run();
    assert_eq!(a.results_digest(), b.results_digest());
    let (la, lb) = (a.load.unwrap(), b.load.unwrap());
    assert_eq!(la.schedule_digest, lb.schedule_digest);
    assert_eq!(la, lb);
    // And a different seed forks the schedule.
    let c = Simulation::new(open_cell(30_000.0, 8)).run();
    assert_ne!(
        la.schedule_digest,
        c.load.unwrap().schedule_digest,
        "seed must drive the arrival schedule"
    );
}

#[test]
fn open_loop_offers_the_configured_rate() {
    let r = Simulation::new(open_cell(30_000.0, 3)).run();
    let load = r.load.expect("open-loop run reports load");
    // 0.1 s at 30K cps ⇒ ~3000 arrivals (±4σ ≈ ±220).
    assert!(
        (2_700..=3_300).contains(&load.offered),
        "offered {} out of range",
        load.offered
    );
    assert!(load.admitted > 0);
    assert!(
        load.offered >= load.admitted,
        "cannot admit more than offered"
    );
    // The server keeps up at this rate: nearly everything completes.
    assert!(
        load.completed_sessions * 10 >= load.admitted * 9,
        "completed {} of {} admitted",
        load.completed_sessions,
        load.admitted
    );
}

/// The open loop connects under the closed loop's client timeout: a
/// timeout shorter than one round trip abandons every admitted session
/// at connect.
#[test]
fn open_loop_honours_client_timeout() {
    let r = Simulation::new(open_cell(30_000.0, 7).client_timeout_secs(0.000_05)).run();
    let load = r.load.expect("open-loop run reports load");
    assert_eq!(r.completed, 0, "no session outlives a 50 µs timeout");
    assert!(
        load.abandoned_connect > 0,
        "sessions must abandon at connect: {load:?}"
    );
}

#[test]
fn keep_alive_sessions_multiply_requests_over_connections() {
    let mut cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 2)
        .warmup_secs(0.02)
        .measure_secs(0.08)
        .open_loop(OpenLoopConfig::poisson(12_000.0).population(400));
    cfg.workload.requests_per_conn = 4;
    let r = Simulation::new(cfg).run();
    assert!(r.completed > 0, "sessions must complete");
    assert!(
        r.requests_per_sec > 3.0 * r.throughput_cps,
        "4-request sessions: {} req/s vs {} cps",
        r.requests_per_sec,
        r.throughput_cps
    );
}

#[test]
fn proxy_serves_open_loop_keep_alive_sessions() {
    let mut cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::proxy(), 2)
        .warmup_secs(0.02)
        .measure_secs(0.08)
        .open_loop(OpenLoopConfig::poisson(6_000.0).population(300));
    cfg.workload.requests_per_conn = 3;
    let r = Simulation::new(cfg).run();
    assert!(r.completed > 0, "proxy sessions must complete");
    assert!(
        r.requests_per_sec > 2.0 * r.throughput_cps,
        "3-request proxy sessions: {} req/s vs {} cps",
        r.requests_per_sec,
        r.throughput_cps
    );
    assert!(r.stack.active_established > 0, "backend conns happened");
}

#[test]
fn mmpp_bursts_overflow_a_small_population() {
    // A flash crowd against a tiny population: the burst phase must
    // overflow into the admission backlog (and some arrivals abandon),
    // which the closed loop structurally cannot express.
    let cfg = SimConfig::new(KernelSpec::BaseLinux, AppSpec::web(), 1)
        .warmup_secs(0.0)
        .measure_secs(0.12)
        .open_loop(
            OpenLoopConfig::mmpp(vec![
                MmppPhase {
                    rate_cps: 2_000.0,
                    mean_dwell_secs: 0.02,
                },
                MmppPhase {
                    rate_cps: 150_000.0,
                    mean_dwell_secs: 0.01,
                },
            ])
            .population(64)
            .patience_secs(0.01),
        );
    let r = Simulation::new(cfg).run();
    let load = r.load.unwrap();
    assert!(load.peak_backlog > 0, "burst should overflow the slots");
    assert!(
        load.abandoned_wait > 0,
        "short patience should shed backlog"
    );
}

#[test]
fn queue_wait_is_charged_to_setup_latency() {
    // Coordinated omission gate: identical load, but a starved
    // population forces arrivals through the admission backlog. The
    // pre-marked scheduled arrival time must charge that wait to setup
    // latency, so the starved run's p99 is far above the roomy run's.
    let run = |population: u32| {
        let cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 2)
            .warmup_secs(0.0)
            .measure_secs(0.08)
            .trace(true)
            .open_loop(
                OpenLoopConfig::poisson(40_000.0)
                    .population(population)
                    .patience_secs(10.0),
            );
        Simulation::new(cfg).run()
    };
    let roomy = run(800);
    let starved = run(4);
    assert!(
        starved.load.as_ref().unwrap().queued_admissions > 0,
        "population 4 at 40K cps must queue admissions"
    );
    let roomy_p99 = roomy.latency.as_ref().unwrap().setup.p99_us;
    let starved_p99 = starved.latency.as_ref().unwrap().setup.p99_us;
    assert!(
        starved_p99 > 10.0 * roomy_p99,
        "queue wait missing from setup latency: starved p99 {starved_p99}µs \
         vs roomy p99 {roomy_p99}µs"
    );
}

proptest! {
    /// Same seed ⇒ the arrival-schedule digest depends only on the
    /// seed and workload — never on the kernel under test (the offered
    /// load is identical for every column of a capacity table).
    #[test]
    fn open_loop_digests_are_scheduler_and_kernel_invariant(
        seed in 0u64..1_000,
        kernel_pick in 0u8..3,
        rate in 2_000f64..8_000f64,
    ) {
        let kernel = match kernel_pick {
            0 => KernelSpec::BaseLinux,
            1 => KernelSpec::Linux313,
            _ => KernelSpec::Fastsocket,
        };
        let cell = |kernel: KernelSpec| {
            let cfg = SimConfig::new(kernel, AppSpec::web(), 1)
                .warmup_secs(0.005)
                .measure_secs(0.02)
                .seed(seed)
                .open_loop(OpenLoopConfig::poisson(rate).population(100));
            Simulation::new(cfg).run()
        };
        let sched = cell(kernel.clone()).load.unwrap().schedule_digest;
        // A different kernel serves the identical arrival schedule.
        let other = match kernel {
            KernelSpec::BaseLinux => KernelSpec::Fastsocket,
            _ => KernelSpec::BaseLinux,
        };
        let cross = cell(other);
        prop_assert_eq!(&sched, &cross.load.unwrap().schedule_digest);
    }
}
