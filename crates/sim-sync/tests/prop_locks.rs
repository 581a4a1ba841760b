//! Property tests for the timed lock model: reservations never overlap
//! while live, waits are never negative, statistics are conserved, and
//! the binary-searched hold list grants exactly what a front-to-back
//! scan of it grants.

use std::collections::VecDeque;

use proptest::prelude::*;
use sim_core::{CoreId, Cycles, SimRng};
use sim_sync::{Acquisition, ClassStats, LockClass, LockCosts, LockTable};

/// Reference model of one lock: the retirement, poller census and
/// charging of [`LockTable::acquire`], with the hold list scanned from
/// the front instead of from a binary-searched first live hold.
struct ScanLock {
    costs: LockCosts,
    last_owner: Option<CoreId>,
    pollers: u64,
    census_cnt: u32,
    census_prev: u32,
    holds: VecDeque<(Cycles, Cycles)>,
    stats: ClassStats,
}

/// How often a replay took the paths the search must get right.
#[derive(Debug, Default)]
struct Reach {
    /// Holds retired behind the epoch.
    retired: u64,
    /// Dead holds skipped before the first live one: the prefix the
    /// search jumps over.
    dead_skipped: u64,
    /// Holds skipped after a wait had moved the cursor past `now`.
    skipped_after_wait: u64,
    /// Holds queued behind.
    waits: u64,
}

impl ScanLock {
    fn new(costs: LockCosts) -> Self {
        ScanLock {
            costs,
            last_owner: None,
            pollers: 0,
            census_cnt: 0,
            census_prev: 0,
            holds: VecDeque::new(),
            stats: ClassStats::default(),
        }
    }

    fn acquire(
        &mut self,
        core: CoreId,
        now: Cycles,
        hold: Cycles,
        epoch: Cycles,
        reach: &mut Reach,
    ) -> Acquisition {
        let costs = self.costs;
        while self.holds.front().is_some_and(|&(_, end)| end <= epoch) {
            self.holds.pop_front();
            reach.retired += 1;
        }
        let line_transfer = self.last_owner.is_some_and(|owner| owner != core);
        let acquire_cost = costs.uncontended + if line_transfer { costs.remote_line } else { 0 };
        self.pollers |= 1u64 << (core.0 % 64);
        self.census_cnt += 1;
        if self.census_cnt >= costs.poller_census {
            self.census_prev = self.pollers.count_ones();
            self.pollers = 1u64 << (core.0 % 64);
            self.census_cnt = 0;
        }
        let pollers = u64::from(self.pollers.count_ones().max(self.census_prev));
        let storm = costs.handoff_per_waiter * pollers.saturating_sub(1);
        let need_free = acquire_cost + hold;
        let need_contended = need_free + storm;

        let mut cursor = now;
        let mut waiters = 0u64;
        let mut insert_at = 0;
        for (i, &(start, end)) in self.holds.iter().enumerate() {
            if end <= cursor {
                if cursor == now {
                    reach.dead_skipped += 1;
                } else {
                    reach.skipped_after_wait += 1;
                }
                insert_at = i + 1;
                continue;
            }
            let need = if waiters > 0 {
                need_contended
            } else {
                need_free
            };
            if cursor + need <= start {
                break;
            }
            cursor = cursor.max(end);
            waiters += 1;
            reach.waits += 1;
            insert_at = i + 1;
        }
        let spin = cursor - now;
        let contended = spin > 0;
        let release_at = cursor + if contended { need_contended } else { need_free };
        self.holds.insert(insert_at, (cursor, release_at));
        self.last_owner = Some(core);

        self.stats.acquisitions += 1;
        if contended {
            self.stats.contentions += 1;
            self.stats.wait_cycles += spin;
        }
        if line_transfer {
            self.stats.line_transfers += 1;
        }
        self.stats.hold_cycles += release_at - cursor;
        Acquisition {
            spin,
            acquire_cost,
            acquired_at: cursor,
            contended,
            line_transfer,
        }
    }
}

/// One acquisition of a replayed schedule.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Index into [`REPLAY_CLASSES`].
    lock: usize,
    core: u16,
    /// Share, in 256ths, of the way from the epoch to the latest request
    /// at which this request lags; `None` requests after the latest.
    lag: Option<u64>,
    /// How far past the latest request a non-lagging request lands.
    ahead: Cycles,
    hold: Cycles,
    /// Percentage of the way to the latest request the epoch moves
    /// before this step.
    epoch_pct: u64,
}

impl Step {
    /// Draws a step uniformly: half the requests lag, and about a
    /// quarter of the holds are empty.
    fn draw(rng: &mut SimRng) -> Step {
        Step {
            lock: rng.below(REPLAY_CLASSES.len() as u64) as usize,
            core: rng.below(6) as u16,
            lag: Some(rng.below(512)).filter(|&lag| lag < 256),
            ahead: rng.below(5_000),
            hold: rng.below(3_300).saturating_sub(800),
            epoch_pct: rng.below(26),
        }
    }
}

/// One lock per class, so per-class statistics are per-lock statistics.
const REPLAY_CLASSES: [LockClass; 2] = [LockClass::DcacheLock, LockClass::Slock];

/// The all-zero cost model: holds last exactly their protected work, so
/// a zero-cycle hold reserves an empty interval.
const ZERO_COSTS: LockCosts = LockCosts {
    uncontended: 0,
    remote_line: 0,
    handoff_per_waiter: 0,
    poller_census: 0,
};

/// Replays `schedule` through a [`LockTable`] and the scan model,
/// moving the epoch before every step as the simulation's dispatch loop
/// does, and asserts that every acquisition and the final per-class
/// statistics agree.
fn replay_against_scan(costs: LockCosts, schedule: &[Step]) -> Reach {
    let mut table = LockTable::new(costs);
    let ids: Vec<_> = REPLAY_CLASSES.iter().map(|&c| table.register(c)).collect();
    let mut models: Vec<ScanLock> = REPLAY_CLASSES
        .iter()
        .map(|_| ScanLock::new(costs))
        .collect();
    let mut reach = Reach::default();
    let (mut epoch, mut latest) = (0, 0);
    for (n, step) in schedule.iter().enumerate() {
        epoch += (latest - epoch) * step.epoch_pct / 100;
        table.set_epoch(epoch);
        // A lagging core requests at or after the epoch but before the
        // latest request: its clock trails another core's.
        let now = match step.lag {
            Some(lag) if latest > epoch => epoch + (latest - epoch) * lag / 256,
            _ => latest + step.ahead,
        };
        latest = latest.max(now);
        let core = CoreId(step.core);
        let got = table.acquire(ids[step.lock], core, now, step.hold);
        let want = models[step.lock].acquire(core, now, step.hold, epoch, &mut reach);
        assert_eq!(got, want, "step {n}: {step:?} at {now}, epoch {epoch}");
    }
    for (&class, model) in REPLAY_CLASSES.iter().zip(&models) {
        assert_eq!(table.stats(class), model.stats, "{class:?} statistics");
    }
    reach
}

fn seeded_schedule(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = SimRng::seed(seed);
    (0..len).map(|_| Step::draw(&mut rng)).collect()
}

/// The replays reach every path of the scan: retirement, the dead
/// prefix the search skips, waits, and (with zero costs) empty holds
/// skipped after a wait.
#[test]
fn seeded_replays_match_the_scan_on_every_path() {
    for seed in 1..=16 {
        let schedule = seeded_schedule(seed, 2_000);
        let reach = replay_against_scan(LockCosts::default(), &schedule);
        assert!(
            reach.retired > 0 && reach.dead_skipped > 0 && reach.waits > 0,
            "seed {seed}, default costs: {reach:?}"
        );
        let reach = replay_against_scan(ZERO_COSTS, &schedule);
        assert!(
            reach.retired > 0
                && reach.dead_skipped > 0
                && reach.waits > 0
                && reach.skipped_after_wait > 0,
            "seed {seed}, zero costs: {reach:?}"
        );
    }
}

proptest! {
    /// For any interleaving of acquisitions (arbitrary cores, times and
    /// hold durations), every granted interval starts at or after the
    /// request time, and the per-class statistics add up.
    #[test]
    fn acquisitions_are_sane(
        reqs in collection::vec(
            (0u16..8, 0u64..100_000, 10u64..3_000),
            1..200
        )
    ) {
        let mut t = LockTable::new(LockCosts::default());
        let lock = t.register(LockClass::Slock);
        let mut granted: Vec<(u64, u64)> = Vec::new();
        let mut contended = 0u64;
        let mut wait_total = 0u64;
        for (core, now, hold) in reqs {
            let a = t.acquire(lock, CoreId(core), now, hold);
            prop_assert!(a.acquired_at >= now);
            prop_assert_eq!(a.spin, a.acquired_at - now);
            prop_assert_eq!(a.contended, a.spin > 0);
            granted.push((a.acquired_at, a.acquired_at + a.acquire_cost + hold));
            if a.contended {
                contended += 1;
                wait_total += a.spin;
            }
        }
        let stats = t.stats(LockClass::Slock);
        prop_assert_eq!(stats.acquisitions, granted.len() as u64);
        prop_assert_eq!(stats.contentions, contended);
        prop_assert_eq!(stats.wait_cycles, wait_total);
    }

    /// Mutual exclusion: granted hold intervals never overlap, for any
    /// request pattern (reservations may be longer than requested when
    /// a contended handoff extends service — use the reported release).
    #[test]
    fn mutual_exclusion(
        reqs in collection::vec(
            (0u16..8, 0u64..50_000, 10u64..2_000),
            2..150
        )
    ) {
        let mut t = LockTable::new(LockCosts::default());
        let lock = t.register(LockClass::EpLock);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (core, now, hold) in reqs {
            let a = t.acquire(lock, CoreId(core), now, hold);
            // The minimum guaranteed-exclusive span.
            spans.push((a.acquired_at, a.acquired_at + a.acquire_cost + hold));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].0,
                "granted holds overlap: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    /// Without concurrent holders there is never contention: strictly
    /// spaced single-core acquisitions are all free.
    #[test]
    fn serial_use_never_contends(holds in collection::vec(1u64..1_000, 1..100)) {
        let mut t = LockTable::new(LockCosts::default());
        let lock = t.register(LockClass::BaseLock);
        let mut now = 0u64;
        for hold in holds {
            let a = t.acquire(lock, CoreId(0), now, hold);
            prop_assert!(!a.contended);
            now = a.acquired_at + a.acquire_cost + hold + 1;
        }
        prop_assert_eq!(t.stats(LockClass::BaseLock).contentions, 0);
    }
}
