//! Conservation oracle for the sim-res memory-accounting subsystem.
//!
//! The contract under test: with the ledger armed, every schedule —
//! any kernel, any core/lane split, either executor, any budget from
//! roomy to brutally tight — drains to a **balanced** account (the
//! ledger agrees with a ground-truth walk of the socket tables), and
//! the serial-windowed and threaded lane executors stay bit-identical.
//! Runs execute in strict mode (`check(true)`, no fault schedule), so
//! any imbalance the driver's audit catches panics inside the run
//! itself rather than surfacing as a soft finding.
//!
//! Tight budgets are the interesting half: they force the pressure
//! reactions (SYN drops, embryo pruning, window clamps, buffer
//! reclaim, TIME_WAIT forced recycle, orphan kills), each of which
//! must uncharge exactly what its victim charged.

use fastsocket::{
    run_sharded, AppSpec, KernelSpec, LongLivedMix, MemConfig, OpenLoopConfig, ParConfig,
    RunReport, SimConfig,
};
use proptest::prelude::*;

/// Budget shapes, from "never reacts" down to "always at High".
fn budget(sel: u8) -> MemConfig {
    match sel % 3 {
        // Roomy: the ledger observes, no reaction ever fires.
        0 => MemConfig::ram_mb(64),
        // Pressure zone: clamps and reclaim, tight TIME_WAIT/orphan
        // caps so forced recycles and orphan kills fire too.
        1 => MemConfig::ram_bytes(1_000_000).tw_buckets(8).orphans(4),
        // Brutal: the standing population alone overruns `high`, so
        // SYN drops and embryo pruning gate every admission.
        _ => MemConfig::ram_bytes(200_000)
            .tw_buckets(4)
            .orphans(2)
            .scaled(8),
    }
}

/// Decodes a compact proptest case into a full ledger-armed config.
fn decode_cfg(
    kernel_sel: u8,
    cores_sel: u8,
    lanes_sel: u8,
    budget_sel: u8,
    longlived: bool,
    seed: u64,
) -> SimConfig {
    let kernel = match kernel_sel % 3 {
        0 => KernelSpec::BaseLinux,
        1 => KernelSpec::Linux313,
        _ => KernelSpec::Fastsocket,
    };
    let cores = [1u16, 2, 4, 8][usize::from(cores_sel % 4)];
    let lanes = [2u16, 3, 4][usize::from(lanes_sel % 3)];
    let mut open = OpenLoopConfig::poisson(30_000.0).population(64);
    if longlived {
        // Half the arrivals park mid-window; some are still holding
        // when the run drains, so the audit also covers live sockets.
        open = open.longlived(LongLivedMix::fraction_held(0.5, 0.004));
    }
    let mut cfg = SimConfig::new(kernel, AppSpec::web(), cores)
        .warmup_secs(0.003)
        .measure_secs(0.01)
        .check(true)
        .seed(seed)
        .mem(budget(budget_sel))
        .open_loop(open);
    cfg.workload.concurrency_per_core = 40;
    cfg.par(ParConfig::lanes(lanes))
}

fn run(cfg: SimConfig) -> RunReport {
    run_sharded(cfg)
}

/// Asserts the per-run ledger contract: report present, balanced, and
/// (strict mode aside) no detector findings.
fn assert_ledger_clean(r: &RunReport, what: &str) {
    let mem = r.mem.as_ref().expect("ledger was armed");
    assert!(mem.balanced, "{what}: ledger did not balance at drain");
    let checks = r.checks.as_ref().expect("sanitizers were armed");
    assert!(checks.is_clean(), "{what}: detector findings: {checks:?}");
}

/// All three kernels under the brutal budget: the heaviest reaction
/// traffic (drops, prunes, recycles, kills) must still balance, on
/// both executors, with identical digests.
#[test]
fn all_kernels_balance_under_high_pressure_on_both_executors() {
    for kernel_sel in 0u8..3 {
        for budget_sel in 1u8..3 {
            let mk = |threads: bool| {
                let mut cfg = decode_cfg(kernel_sel, 3, 0, budget_sel, true, 0x5ca1e);
                cfg.par = cfg.par.map(|p| p.threads(threads));
                run(cfg)
            };
            let serial = mk(false);
            let threaded = mk(true);
            let what = format!("kernel {kernel_sel} budget {budget_sel}");
            assert_ledger_clean(&serial, &what);
            assert_ledger_clean(&threaded, &what);
            assert_eq!(
                serial.results_digest(),
                threaded.results_digest(),
                "{what}: executors diverged"
            );
        }
    }
}

/// The tight budgets really do fire reactions (otherwise the pressure
/// half of this oracle is vacuous).
#[test]
fn brutal_budget_fires_pressure_reactions() {
    let r = run(decode_cfg(2, 3, 0, 2, false, 7));
    let mem = r.mem.as_ref().expect("ledger was armed");
    let stats = r.stack.mem.unwrap_or_default();
    let reactions = stats.pressure_syn_drops
        + stats.embryos_pruned
        + stats.window_clamps
        + stats.buffer_reclaims
        + stats.tw_forced_recycles
        + stats.orphans_killed;
    assert!(
        reactions > 0,
        "200 KB x8-scale budget never reacted: {stats:?}"
    );
    assert!(mem.balanced, "reacting run did not balance");
}

/// Lane splitting must conserve the budget: the merged report's
/// budget re-adds to at most the unsplit total (integer division may
/// shave remainders), never more.
#[test]
fn lane_split_budgets_readd_to_the_total() {
    let cfg = decode_cfg(2, 3, 2, 0, false, 11);
    let unsplit = MemConfig::ram_mb(64).high_bytes;
    let r = run(cfg);
    let mem = r.mem.as_ref().expect("ledger was armed");
    assert!(
        mem.budget_bytes <= unsplit && mem.budget_bytes >= unsplit / 2,
        "merged lane budgets drifted: {} vs unsplit {unsplit}",
        mem.budget_bytes
    );
    assert_ledger_clean(&r, "lane split");
}

proptest! {
    /// Randomized sweep: any (kernel, cores, lanes, budget, session
    /// mix, seed) combination must balance its accounts and stay
    /// executor-identical.
    #[test]
    fn random_schedules_conserve_memory_accounts(
        kernel_sel in 0u8..3,
        cores_sel in 0u8..4,
        lanes_sel in 0u8..3,
        budget_sel in 0u8..3,
        longlived in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let threaded = decode_cfg(kernel_sel, cores_sel, lanes_sel, budget_sel, longlived, seed);
        let mut serial = threaded.clone();
        serial.par = serial.par.map(|p| p.threads(false));
        let a = run(serial);
        let b = run(threaded);
        prop_assert_eq!(a.results_digest(), b.results_digest(), "executors diverged");
        let mem = a.mem.as_ref().expect("ledger was armed");
        prop_assert!(mem.balanced, "ledger did not balance at drain");
        prop_assert!(a.checks.as_ref().expect("armed").is_clean(), "detector findings");
    }
}
