//! Differential proptest: the event queue must reproduce the sorted-map
//! reference model's pop order bit-for-bit — including FIFO tie-breaking
//! at duplicate timestamps — under arbitrary interleaved
//! push/pop/cancel schedules, and both must agree on which cancels
//! withdraw an event.

mod common;

use common::{Model, ModelKey};
use proptest::prelude::*;
use sim_core::{Cycles, EventQueue, TimerKey};

/// Decodes one raw `(kind, magnitude)` pair into a schedule step.
///
/// * `0..=7` — push at `now + offset`, with the offset scaled so cases
///   cluster on duplicate timestamps and same-slot collisions but also
///   reach past the wheel horizon (~2.1M cycles), exercising the far
///   tier and its slab recycling. Simulations only ever schedule at or
///   after "now", which is why offsets are relative to the last pop.
/// * `8..=11` — pop one event from the queue and the model.
/// * `12..=13` — drain one same-timestamp batch from both.
/// * `14..=15` — cancel one earlier push on both, picked among
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
    fn queue_pops_like_the_reference_model(
        raw in collection::vec((0u8..16, 0u64..u64::MAX), 1..400)
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut model: Model<u32> = Model::new();
        let mut keys: Vec<(TimerKey, ModelKey)> = Vec::new();
        let mut now: Cycles = 0;
        let mut id: u32 = 0;
        let (mut qb, mut mb) = (Vec::new(), Vec::new());
        for (kind, magnitude) in raw {
            match decode(kind, magnitude) {
                Step::Push(off) => {
                    keys.push((queue.push(now + off, id), model.push(now + off, id)));
                    id += 1;
                }
                Step::Pop => {
                    let q = queue.pop();
                    prop_assert_eq!(q, model.pop());
                    if let Some((t, _)) = q {
                        now = t;
                    }
                }
                Step::PopBatch => {
                    qb.clear();
                    mb.clear();
                    let qt = queue.pop_batch(&mut qb);
                    prop_assert_eq!(qt, model.pop_batch(&mut mb));
                    prop_assert_eq!(&qb, &mb);
                    if let Some(t) = qt {
                        now = t;
                    }
                }
                Step::Cancel(pick) => {
                    if !keys.is_empty() {
                        let (q, m) = keys[(pick % keys.len() as u64) as usize];
                        prop_assert_eq!(queue.cancel(q), model.cancel(m));
                    }
                }
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.delivered(), model.delivered());
        }
        // Drain the rest: the full residual order must match too.
        loop {
            let q = queue.pop();
            prop_assert_eq!(q, model.pop());
            if q.is_none() {
                break;
            }
        }
        prop_assert_eq!(queue.delivered(), model.delivered());
    }
}
