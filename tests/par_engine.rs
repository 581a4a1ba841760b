//! Differential oracle for the parallel lane-sharded engine.
//!
//! The contract under test: for every configuration, the serial
//! windowed executor and the threaded executor produce **bit-identical**
//! [`RunReport`] digests — same seed, same lanes, same everything —
//! with every sanitizer armed inside the lanes. A deliberately violated
//! lookahead horizon must *break* the digest (against the default
//! horizon) while remaining internally deterministic, proving the
//! digest actually watches the synchronization protocol.

use fastsocket::{
    effective_lanes, run_sharded, AppSpec, DataPlaneConfig, KernelSpec, OpenLoopConfig, ParConfig,
    SimConfig,
};
use proptest::prelude::*;

fn base_cfg(kernel: KernelSpec, cores: u16) -> SimConfig {
    SimConfig::new(kernel, AppSpec::web(), cores)
        .warmup_secs(0.01)
        .measure_secs(0.03)
        .check(true)
        .seed(0x1a7e5)
}

fn digest_of(cfg: SimConfig) -> String {
    run_sharded(cfg).results_digest()
}

/// All three kernels at 1, 8 and 24 simulated cores: the serial and
/// threaded executors must agree bit-for-bit. Shared-table kernels
/// resolve to one lane (both executors take the identical legacy path);
/// Fastsocket actually shards.
#[test]
fn serial_and_threaded_executors_are_bit_identical() {
    for kernel in [
        KernelSpec::BaseLinux,
        KernelSpec::Linux313,
        KernelSpec::Fastsocket,
    ] {
        for cores in [1u16, 8, 24] {
            let serial = base_cfg(kernel.clone(), cores).par(ParConfig::lanes(8).threads(false));
            let threaded = base_cfg(kernel.clone(), cores).par(ParConfig::lanes(8));
            assert_eq!(
                digest_of(serial),
                digest_of(threaded),
                "{}/{cores} cores: executors diverged",
                kernel.label()
            );
        }
    }
}

/// The sharded engine must also be reproducible run-to-run on the
/// threaded executor: host-thread scheduling (which permutes actual
/// lane startup and progress order) must not leak into the results.
#[test]
fn threaded_run_is_reproducible_across_reruns() {
    let mk = || base_cfg(KernelSpec::Fastsocket, 8).par(ParConfig::lanes(4));
    assert_eq!(digest_of(mk()), digest_of(mk()));
}

/// A horizon longer than the modeled packet latency violates the
/// conservative lookahead: deliveries get clamped to window boundaries
/// and the result must diverge from the default-horizon digest. The
/// divergence itself stays deterministic (serial == threads at the same
/// wrong horizon) — the protocol is wrong, not racy.
#[test]
fn violated_lookahead_horizon_breaks_the_digest() {
    let cfg = base_cfg(KernelSpec::Fastsocket, 8);
    let bad_horizon = cfg.rtt * 4;
    let good = digest_of(cfg.clone().par(ParConfig::lanes(4).threads(false)));
    let bad_serial = digest_of(
        cfg.clone()
            .par(ParConfig::lanes(4).threads(false).horizon(bad_horizon)),
    );
    let bad_threads = digest_of(cfg.clone().par(ParConfig::lanes(4).horizon(bad_horizon)));
    assert_ne!(
        good, bad_serial,
        "a violated horizon must change the results"
    );
    assert_eq!(
        bad_serial, bad_threads,
        "even a violated horizon must stay executor-deterministic"
    );
}

/// Lanes split the machine for speed without changing what it models:
/// each client flow reaches the lane whose core block holds the queue
/// the whole machine's RSS picks, so every core serves the flows it
/// would serve unsplit, and throughput and tail latency hold across
/// lane counts.
#[test]
fn lane_count_leaves_the_model_alone() {
    let run = |lanes: u16| {
        let cfg = base_cfg(KernelSpec::Fastsocket, 8)
            .trace(true)
            .par(ParConfig::lanes(lanes).threads(false));
        assert_eq!(effective_lanes(&cfg), lanes);
        let r = run_sharded(cfg);
        let p99 = r.latency.expect("tracing was on").setup.p99_us;
        (r.throughput_cps, p99)
    };
    let (cps_one, p99_one) = run(1);
    for lanes in [2u16, 4, 8] {
        let (cps, p99) = run(lanes);
        assert!(
            (cps / cps_one - 1.0).abs() <= 0.02,
            "{lanes} lanes: {cps:.0} cps vs {cps_one:.0} on one lane"
        );
        assert!(
            (p99 / p99_one - 1.0).abs() <= 0.10,
            "{lanes} lanes: setup p99 {p99:.1} us vs {p99_one:.1} us on one lane"
        );
    }
}

/// Sanitizers stay armed inside lanes: a sharded fastsocket run reports
/// a merged `CheckReport` covering all simulated cores.
#[test]
fn sharded_run_merges_armed_check_reports() {
    let cfg = base_cfg(KernelSpec::Fastsocket, 8).par(ParConfig::lanes(4));
    assert_eq!(effective_lanes(&cfg), 4);
    let report = run_sharded(cfg);
    let checks = report.checks.expect("checker armed in lanes");
    assert_eq!(
        checks.lockdep + checks.lockset + checks.hb,
        0,
        "lanes must stay race-free"
    );
    assert_eq!(report.core_utilization.len(), 8);
    assert!(
        report.completed > 0,
        "sharded run must complete connections"
    );
}

/// Shared-table kernels certify `Shared` state, so the engine must
/// refuse to shard them.
#[test]
fn shared_table_kernels_fall_back_to_serial() {
    for kernel in [KernelSpec::BaseLinux, KernelSpec::Linux313] {
        let cfg = base_cfg(kernel, 8).par(ParConfig::lanes(8));
        assert_eq!(effective_lanes(&cfg), 1);
    }
    // IsoStack's dedicated stack core is cross-core by design.
    let mut iso = base_cfg(KernelSpec::Fastsocket, 8).par(ParConfig::lanes(8));
    iso.dedicated_stack_core = true;
    assert_eq!(effective_lanes(&iso), 1);
    // Requested lanes snap to the largest divisor of the core count.
    let cfg = base_cfg(KernelSpec::Fastsocket, 8).par(ParConfig::lanes(3));
    assert_eq!(effective_lanes(&cfg), 2);
}

/// Decodes a compact proptest case into a full `SimConfig` sweeping
/// kernel, core count, lane count, data plane, open loop and seed.
fn decode_cfg(
    kernel_sel: u8,
    cores_sel: u8,
    lanes_sel: u8,
    open_loop: bool,
    data_plane: bool,
    seed: u64,
) -> SimConfig {
    let kernel = match kernel_sel % 3 {
        0 => KernelSpec::BaseLinux,
        1 => KernelSpec::Linux313,
        _ => KernelSpec::Fastsocket,
    };
    let cores = [1u16, 2, 4, 8][usize::from(cores_sel % 4)];
    let lanes = [2u16, 3, 4][usize::from(lanes_sel % 3)];
    let mut cfg = SimConfig::new(kernel, AppSpec::web(), cores)
        .warmup_secs(0.003)
        .measure_secs(0.01)
        .check(true)
        .seed(seed);
    cfg.workload.concurrency_per_core = 40;
    if open_loop {
        cfg = cfg.open_loop(OpenLoopConfig::poisson(30_000.0).population(64));
    }
    if data_plane {
        cfg = cfg.data_plane(DataPlaneConfig {
            response_bytes: 8_192,
            ..DataPlaneConfig::default()
        });
    }
    cfg.par(ParConfig::lanes(lanes))
}

proptest! {
    /// Randomized differential sweep: any (kernel, cores, lanes, data
    /// plane, open loop, seed) combination must be executor-identical.
    #[test]
    fn random_configs_are_executor_identical(
        kernel_sel in 0u8..3,
        cores_sel in 0u8..4,
        lanes_sel in 0u8..3,
        open_loop in any::<bool>(),
        data_plane in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let threaded = decode_cfg(kernel_sel, cores_sel, lanes_sel, open_loop, data_plane, seed);
        let mut serial = threaded.clone();
        serial.par = serial.par.map(|p| p.threads(false));
        prop_assert_eq!(digest_of(serial), digest_of(threaded), "executors diverged");
    }
}
