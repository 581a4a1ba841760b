//! Whole-system tests of the paper's central claim: the full partition
//! eliminates every shared-lock contention, feature by feature
//! (Table 1's structure), and connection locality governs cache
//! behaviour (Figure 5's structure). Every run arms the `sim-check`
//! sanitizers and must come out clean: each feature step, steering
//! mode and partial partition is a kernel the sanitizers see nowhere
//! else.

use fastsocket::experiments::table1::FeatureStep;
use fastsocket::{AppSpec, KernelSpec, RunReport, SimConfig, Simulation};
use sim_nic::SteeringMode;

/// Runs `cfg` with the sanitizers armed and asserts they found nothing.
fn run_checked(cfg: SimConfig) -> RunReport {
    let r = Simulation::new(cfg.check(true)).run();
    let checks = r
        .checks
        .as_ref()
        .expect("check(true) must produce a report");
    assert!(
        checks.is_clean(),
        "sanitizer findings: {:#?}",
        checks.diagnostics
    );
    r
}

fn run_step(step: FeatureStep, cores: u16) -> RunReport {
    let cfg = SimConfig::new(
        KernelSpec::Custom(Box::new(step.config(cores))),
        AppSpec::proxy(),
        cores,
    )
    .warmup_secs(0.03)
    .measure_secs(0.12)
    .concurrency(u32::from(cores) * 60);
    run_checked(cfg)
}

#[test]
fn vfs_fastpath_eliminates_dcache_and_inode_contention() {
    let cores = 6;
    let baseline = run_step(FeatureStep::Baseline, cores);
    let v = run_step(FeatureStep::V, cores);
    assert!(
        baseline.lock_contentions("dcache_lock") > 0,
        "baseline must contend on dcache: {baseline:?}"
    );
    assert_eq!(v.lock_contentions("dcache_lock"), 0);
    assert_eq!(v.lock_contentions("inode_lock"), 0);
    // Removing the VFS bottleneck raises throughput (the paper's "+V"
    // column shows the other locks getting hotter because of this).
    assert!(v.throughput_cps > baseline.throughput_cps);
}

#[test]
fn full_fastsocket_contends_on_nothing() {
    let r = run_step(FeatureStep::Vlre, 6);
    for lock in [
        "dcache_lock",
        "inode_lock",
        "slock",
        "ep.lock",
        "ehash.lock",
    ] {
        assert_eq!(
            r.lock_contentions(lock),
            0,
            "{lock} contended under full Fastsocket"
        );
    }
    assert!(r.lock_spin_share() < 0.01);
}

#[test]
fn each_feature_step_never_hurts_throughput() {
    let cores = 6;
    let mut last = 0.0;
    for step in FeatureStep::ALL {
        let r = run_step(step, cores);
        assert!(
            r.throughput_cps >= last * 0.97, // allow 3% noise
            "{} regressed: {} after {}",
            step.label(),
            r.throughput_cps,
            last
        );
        last = r.throughput_cps;
    }
}

#[test]
fn rfd_software_steering_fixes_every_active_packet() {
    // RSS delivers active-connection packets blindly; RFD must re-steer
    // exactly the non-local ones, and none may be processed remotely.
    let cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::proxy(), 4)
        .warmup_secs(0.03)
        .measure_secs(0.1)
        .concurrency(200);
    let r = run_checked(cfg);
    assert_eq!(
        r.stack.steered_packets,
        r.stack.active_in_packets - r.stack.active_in_local,
        "steered must equal the non-local remainder"
    );
}

#[test]
fn perfect_filtering_yields_full_nic_locality_and_lower_misses() {
    let mk = |steering| {
        let cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::proxy(), 4)
            .steering(steering)
            .warmup_secs(0.03)
            .measure_secs(0.1)
            .concurrency(200);
        run_checked(cfg)
    };
    let rss = mk(SteeringMode::Rss);
    let perfect = mk(SteeringMode::FdirPerfect);
    assert!(rss.local_packet_proportion < 0.5);
    assert!(perfect.local_packet_proportion > 0.999);
    assert_eq!(perfect.stack.steered_packets, 0, "nothing left to steer");
}

#[test]
fn atr_learns_most_flows_but_not_all() {
    let cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::proxy(), 8)
        .steering(SteeringMode::FdirAtr)
        .warmup_secs(0.05)
        .measure_secs(0.15)
        .concurrency(2_000);
    let r = run_checked(cfg);
    assert!(
        r.local_packet_proportion > 0.4,
        "ATR should learn most flows: {}",
        r.local_packet_proportion
    );
    assert!(
        r.local_packet_proportion < 0.999,
        "ATR's finite signature table must collide sometimes: {}",
        r.local_packet_proportion
    );
}
