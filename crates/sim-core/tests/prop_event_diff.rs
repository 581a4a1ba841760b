//! Differential proptest: the timing-wheel scheduler must reproduce the
//! binary heap's pop order bit-for-bit — including FIFO tie-breaking at
//! duplicate timestamps — under arbitrary interleaved push/pop/cancel
//! schedules, and both must agree on which cancels withdraw an event.

use proptest::prelude::*;
use sim_core::event::SchedulerKind;
use sim_core::{Cycles, EventQueue, TimerKey};

/// Decodes one raw `(kind, magnitude)` pair into a schedule step.
///
/// * `0..=7` — push at `now + offset`, with the offset scaled so cases
///   cluster on duplicate timestamps and same-slot collisions but also
///   reach past the wheel horizon (~2.1M cycles), exercising the far
///   tier and its slab recycling. Simulations only ever schedule at or
///   after "now", which is why offsets are relative to the last pop.
/// * `8..=11` — pop one event from both queues.
/// * `12..=13` — drain one same-timestamp batch from both queues.
/// * `14..=15` — cancel one earlier push on both queues, picked among
///   every key so far: near or far, pending, popped or already
///   cancelled.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(Cycles),
    Pop,
    PopBatch,
    Cancel(u64),
}

fn decode(kind: u8, magnitude: u64) -> Step {
    match kind % 16 {
        0 | 1 => Step::Push(0),
        2 | 3 => Step::Push(magnitude % 8),
        4 | 5 => Step::Push(magnitude % 10_000),
        6 => Step::Push(magnitude % 3_000_000),
        7 => Step::Push(magnitude % 600_000_000),
        8..=11 => Step::Pop,
        12 | 13 => Step::PopBatch,
        _ => Step::Cancel(magnitude),
    }
}

proptest! {
    #[test]
    fn wheel_and_heap_pop_identically(
        raw in collection::vec((0u8..16, 0u64..u64::MAX), 1..400)
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::with_scheduler(SchedulerKind::Wheel, 0);
        let mut heap: EventQueue<u32> = EventQueue::with_scheduler(SchedulerKind::Heap, 0);
        let mut keys: Vec<(TimerKey, TimerKey)> = Vec::new();
        let mut now: Cycles = 0;
        let mut id: u32 = 0;
        let (mut wb, mut hb) = (Vec::new(), Vec::new());
        for (kind, magnitude) in raw {
            match decode(kind, magnitude) {
                Step::Push(off) => {
                    keys.push((wheel.push(now + off, id), heap.push(now + off, id)));
                    id += 1;
                }
                Step::Pop => {
                    let w = wheel.pop();
                    let h = heap.pop();
                    prop_assert_eq!(w, h);
                    if let Some((t, _)) = w {
                        now = t;
                    }
                }
                Step::PopBatch => {
                    wb.clear();
                    hb.clear();
                    let wt = wheel.pop_batch(&mut wb);
                    let ht = heap.pop_batch(&mut hb);
                    prop_assert_eq!(wt, ht);
                    prop_assert_eq!(&wb, &hb);
                    if let Some(t) = wt {
                        now = t;
                    }
                }
                Step::Cancel(pick) => {
                    if !keys.is_empty() {
                        let (w, h) = keys[(pick % keys.len() as u64) as usize];
                        prop_assert_eq!(wheel.cancel(w), heap.cancel(h));
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.delivered(), heap.delivered());
        }
        // Drain the rest: the full residual order must match too.
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.delivered(), heap.delivered());
    }
}
