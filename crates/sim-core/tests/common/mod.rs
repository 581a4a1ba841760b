//! A sorted-map reference model of the event queue's contract: events
//! pop in `(time, push order)` order, and a cancel withdraws an event
//! exactly when it is still pending. The map's key order *is* that
//! contract, so the model shares no code with the timing wheel.

// Each test binary drives the subset of the model it needs.
#![allow(dead_code)]

use std::collections::BTreeMap;

use sim_core::Cycles;

/// Names one event pushed into the [`Model`].
pub type ModelKey = (Cycles, u64);

/// Pending events keyed by `(time, push sequence)`.
#[derive(Debug)]
pub struct Model<E> {
    pending: BTreeMap<ModelKey, E>,
    seq: u64,
    delivered: u64,
}

impl<E> Model<E> {
    /// An empty model.
    pub fn new() -> Self {
        Model {
            pending: BTreeMap::new(),
            seq: 0,
            delivered: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Cycles, event: E) -> ModelKey {
        let key = (time, self.seq);
        self.seq += 1;
        self.pending.insert(key, event);
        key
    }

    /// Withdraws the event `key` names; `false` once it was popped or
    /// cancelled.
    pub fn cancel(&mut self, key: ModelKey) -> bool {
        self.pending.remove(&key).is_some()
    }

    /// The earliest pending event.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let ((time, _), event) = self.pending.pop_first()?;
        self.delivered += 1;
        Some((time, event))
    }

    /// Every pending event at the earliest time, in push order.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<Cycles> {
        let (time, first) = self.pop()?;
        out.push(first);
        while let Some(next) = self.pending.first_entry().filter(|e| e.key().0 == time) {
            out.push(next.remove());
            self.delivered += 1;
        }
        Some(time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Events popped so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}
