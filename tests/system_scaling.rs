//! Whole-system integration tests: throughput ordering and scaling
//! across kernels, spanning every crate in the workspace.
//!
//! Core counts and windows are kept small so the suite stays fast in
//! debug builds; the shapes asserted here are the same ones the bench
//! harnesses regenerate at paper scale.

use fastsocket::{AppSpec, KernelSpec, SimConfig, Simulation};

fn run(kernel: KernelSpec, app: AppSpec, cores: u16) -> fastsocket::RunReport {
    let cfg = SimConfig::new(kernel, app, cores)
        .warmup_secs(0.03)
        .measure_secs(0.12)
        .concurrency(u32::from(cores) * 60);
    Simulation::new(cfg).run()
}

#[test]
fn fastsocket_scales_nearly_linearly_on_web() {
    let one = run(KernelSpec::Fastsocket, AppSpec::web(), 1);
    let four = run(KernelSpec::Fastsocket, AppSpec::web(), 4);
    let ratio = four.throughput_cps / one.throughput_cps;
    assert!(
        ratio > 3.5,
        "fastsocket 1->4 cores should be near-linear, got {ratio:.2}x"
    );
}

#[test]
fn fastsocket_beats_both_baselines_on_web() {
    let cores = 8;
    let fs = run(KernelSpec::Fastsocket, AppSpec::web(), cores);
    let base = run(KernelSpec::BaseLinux, AppSpec::web(), cores);
    let l313 = run(KernelSpec::Linux313, AppSpec::web(), cores);
    assert!(
        fs.throughput_cps > base.throughput_cps,
        "fastsocket {} <= base {}",
        fs.throughput_cps,
        base.throughput_cps
    );
    assert!(
        fs.throughput_cps > l313.throughput_cps,
        "fastsocket {} <= 3.13 {}",
        fs.throughput_cps,
        l313.throughput_cps
    );
}

#[test]
fn fastsocket_beats_both_baselines_on_proxy() {
    let cores = 8;
    let fs = run(KernelSpec::Fastsocket, AppSpec::proxy(), cores);
    let base = run(KernelSpec::BaseLinux, AppSpec::proxy(), cores);
    let l313 = run(KernelSpec::Linux313, AppSpec::proxy(), cores);
    assert!(fs.throughput_cps > base.throughput_cps);
    assert!(fs.throughput_cps > l313.throughput_cps);
    // Active connections actually happened.
    assert!(fs.stack.active_established > 0);
}

#[test]
fn reuseport_listener_walk_grows_with_cores() {
    let small = run(KernelSpec::Linux313, AppSpec::web(), 2);
    let large = run(KernelSpec::Linux313, AppSpec::web(), 8);
    assert!(small.avg_listen_walk > 1.9 && small.avg_listen_walk < 2.1);
    assert!(large.avg_listen_walk > 7.9 && large.avg_listen_walk < 8.1);
    assert!(
        large.cycle_share(sim_core::CycleClass::ListenLookup)
            > small.cycle_share(sim_core::CycleClass::ListenLookup),
        "the O(n) walk must cost more per core as copies multiply"
    );
}

#[test]
fn single_core_throughputs_are_close_across_kernels() {
    // Figure 4: "the single CPU core throughputs are very close among
    // all the three kernels".
    let base = run(KernelSpec::BaseLinux, AppSpec::web(), 1).throughput_cps;
    let l313 = run(KernelSpec::Linux313, AppSpec::web(), 1).throughput_cps;
    let fs = run(KernelSpec::Fastsocket, AppSpec::web(), 1).throughput_cps;
    let max = base.max(l313).max(fs);
    let min = base.min(l313).min(fs);
    assert!(
        max / min < 1.2,
        "single-core spread too wide: base={base:.0} 3.13={l313:.0} fs={fs:.0}"
    );
}

#[test]
fn no_connection_failures_under_normal_load() {
    for kernel in [
        KernelSpec::BaseLinux,
        KernelSpec::Linux313,
        KernelSpec::Fastsocket,
    ] {
        let r = run(kernel, AppSpec::proxy(), 4);
        assert_eq!(r.resets, 0, "{}: unexpected resets", r.kernel);
        assert_eq!(r.timeouts, 0, "{}: unexpected timeouts", r.kernel);
        assert!(r.completed > 1_000, "{}: too few completions", r.kernel);
    }
}

/// Client IPs are `10.(1 + slot / 250).(slot % 250).2`: from slot
/// 63,750 on the second octet wraps, so a bigger population is refused
/// rather than misrouted.
#[test]
#[should_panic(expected = "exceed the address plan's 63750")]
fn client_populations_beyond_the_address_plan_are_refused() {
    let cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 1).concurrency(63_751);
    let _ = Simulation::new(cfg);
}
