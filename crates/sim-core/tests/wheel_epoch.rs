//! Wheel epoch-boundary regression tests.
//!
//! An event scheduled exactly one full wheel span (`WHEEL_SLOTS`
//! rotations' worth of cycles) ahead of the current slot computes the
//! *same* ring index under `slot & WHEEL_MASK` as the current slot. If
//! the push path ever classified such an event as near-future it would
//! alias into the current rotation and pop a whole span early. The
//! push bound is strict (`slot < cur_slot + WHEEL_SLOTS`), which routes
//! span-ahead events to the far-future heap — these tests pin that,
//! both with targeted cases and with a multi-rotation differential
//! proptest against the sorted-map reference model.

mod common;

use common::Model;
use proptest::prelude::*;
use sim_core::event::WHEEL_SPAN_CYCLES;
use sim_core::{Cycles, EventQueue};

/// Drains the queue and the model completely, asserting identical pop
/// order.
fn assert_identical_drain(wheel: &mut EventQueue<u64>, model: &mut Model<u64>) {
    loop {
        let a = wheel.pop();
        assert_eq!(a, model.pop(), "wheel diverged from the model");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn span_ahead_event_does_not_alias_into_current_slot() {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(16);
    // Same ring index (slot & MASK), one full rotation apart.
    q.push(0, 0);
    q.push(WHEEL_SPAN_CYCLES, 1);
    q.push(WHEEL_SPAN_CYCLES + 1, 2);
    q.push(5, 3);
    assert_eq!(q.pop(), Some((0, 0)));
    assert_eq!(q.pop(), Some((5, 3)));
    // The span-ahead events must surface *after* the near ones, in
    // time order — not interleaved into slot 0's batch.
    assert_eq!(q.pop(), Some((WHEEL_SPAN_CYCLES, 1)));
    assert_eq!(q.pop(), Some((WHEEL_SPAN_CYCLES + 1, 2)));
    assert_eq!(q.pop(), None);
}

#[test]
fn multiple_whole_rotations_keep_time_order() {
    let mut wheel: EventQueue<u64> = EventQueue::with_capacity(64);
    let mut model = Model::new();
    // Events at k whole spans + the same intra-slot offset, pushed in
    // scrambled order: every one shares the aliased ring index.
    for &k in &[3u64, 0, 7, 1, 5, 2, 6, 4] {
        let t = k * WHEEL_SPAN_CYCLES + 42;
        wheel.push(t, k);
        model.push(t, k);
    }
    assert_identical_drain(&mut wheel, &mut model);
}

#[test]
fn aliased_pushes_after_partial_drain_stay_ordered() {
    // Advance the wheel mid-rotation first, then push events that alias
    // the *new* current slot — the regression is not specific to slot 0.
    let mut wheel: EventQueue<u64> = EventQueue::with_capacity(64);
    let mut model = Model::new();
    for (t, v) in [(100_000u64, 0u64), (150_000, 1)] {
        wheel.push(t, v);
        model.push(t, v);
    }
    assert_eq!(wheel.pop(), Some((100_000, 0)));
    assert_eq!(model.pop(), Some((100_000, 0)));
    // cur_slot now covers 100_000; alias it one and two spans out.
    for (t, v) in [
        (100_000 + WHEEL_SPAN_CYCLES, 2u64),
        (100_000 + 2 * WHEEL_SPAN_CYCLES, 3),
        (100_001 + WHEEL_SPAN_CYCLES, 4),
    ] {
        wheel.push(t, v);
        model.push(t, v);
    }
    assert_identical_drain(&mut wheel, &mut model);
}

/// One step of the generated schedule: push at `now + offset` (offsets
/// engineered to land on whole-span aliases), or pop from the queue and
/// the model.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(Cycles),
    Pop,
}

fn decode(kind: u8, spans: u64, jitter: u64) -> Step {
    match kind % 8 {
        // Exact whole-span aliases of the current slot, 1–8 rotations
        // out — the epoch-boundary hazard itself.
        0 | 1 | 2 => Step::Push((1 + spans % 8) * WHEEL_SPAN_CYCLES),
        // One slot either side of a whole span, so the boundary's
        // neighbours are exercised too.
        3 => Step::Push((1 + spans % 4) * WHEEL_SPAN_CYCLES - 1 - (jitter % 8192)),
        4 => Step::Push((1 + spans % 4) * WHEEL_SPAN_CYCLES + 1 + (jitter % 8192)),
        // Near-future filler so rotations actually advance.
        5 => Step::Push(jitter % 10_000),
        _ => Step::Pop,
    }
}

proptest! {
    /// Multi-rotation differential: under schedules dense in exact
    /// whole-span offsets, the wheel must reproduce the reference
    /// model's pop order bit-for-bit.
    #[test]
    fn wheel_matches_model_across_epoch_boundaries(
        raw in collection::vec((0u8..8, 0u64..64, 0u64..u64::MAX), 1..300)
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::with_capacity(16);
        let mut model = Model::new();
        let mut now: Cycles = 0;
        let mut next_val: u64 = 0;
        for (kind, spans, jitter) in raw {
            match decode(kind, spans, jitter) {
                Step::Push(offset) => {
                    wheel.push(now + offset, next_val);
                    model.push(now + offset, next_val);
                    next_val += 1;
                }
                Step::Pop => {
                    let a = wheel.pop();
                    prop_assert_eq!(a, model.pop(), "wheel diverged from the model");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                }
            }
        }
        // Drain the tail: every remaining event must agree too.
        loop {
            let a = wheel.pop();
            prop_assert_eq!(a, model.pop(), "wheel diverged from the model in final drain");
            if a.is_none() {
                break;
            }
        }
    }
}
