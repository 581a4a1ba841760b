//! `sim-trace`: ftrace/perf-style observability for the simulated
//! kernel stack.
//!
//! The crate provides three views over one event stream:
//!
//! 1. **Raw events** — a bounded overwrite-oldest ring per simulated
//!    core ([`ring::EventRing`]), exportable as chrome://tracing JSON
//!    ([`chrome::ChromeTrace`]).
//! 2. **Cycle attribution** — enter/exit span edges fold *online* into
//!    flamegraph collapsed stacks ([`fold::SpanFolder`]), so
//!    attribution is exact even after the rings overwrite.
//! 3. **Latency distributions** — connection lifecycle instants feed
//!    log-bucketed histograms ([`hist::LatencyHistogram`]) with
//!    p50/p90/p99/p999 summaries ([`hist::LatencySummary`]). The
//!    tracker keeps the *first* `SynArrival` mark per connection, so
//!    open-loop drivers can pre-mark the scheduled arrival time and
//!    latencies include admission queueing (no coordinated omission;
//!    see [`lifecycle::LifecycleTracker`]).
//!
//! The [`Tracer`] handle is a cheap clone (`Option<Rc<RefCell<..>>>`);
//! the disabled tracer is `None`, so untraced runs pay one branch per
//! would-be event and allocate nothing.
//!
//! `sim-trace` sits *below* `sim-core` in the crate graph and depends
//! only on `serde`, so every layer of the stack — engine, sync, OS,
//! TCP, apps — can emit events through the same handle.

pub mod chrome;
pub mod event;
pub mod fold;
pub mod hist;
pub mod lifecycle;
pub mod ring;

pub use chrome::{ChromeEvent, ChromeTrace};
pub use event::{EventKind, TraceEvent, TraceLabel};
pub use fold::SpanFolder;
pub use hist::{LatencyHistogram, LatencySummary};
pub use lifecycle::LifecycleTracker;
pub use ring::EventRing;

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Default per-core ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// The three latency distributions surfaced by a traced run, summarized
/// in microseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// SYN arrival → ESTABLISHED (connection setup).
    pub setup: LatencySummary,
    /// SYN arrival → first payload byte.
    pub ttfb: LatencySummary,
    /// SYN arrival → teardown.
    pub lifetime: LatencySummary,
}

impl LatencyReport {
    /// Summarizes `[setup, ttfb, lifetime]` histograms (as
    /// [`Tracer::lifecycle_histograms`] hands them out, possibly merged
    /// across lanes) into a report: `None` when no setup completed.
    pub fn from_histograms(hists: &[LatencyHistogram; 3], cycles_per_usec: f64) -> Option<Self> {
        if hists[0].is_empty() {
            return None;
        }
        Some(LatencyReport {
            setup: hists[0].summarize(cycles_per_usec),
            ttfb: hists[1].summarize(cycles_per_usec),
            lifetime: hists[2].summarize(cycles_per_usec),
        })
    }
}

#[derive(Debug)]
struct TraceState {
    rings: Vec<EventRing>,
    ring_capacity: usize,
    folder: SpanFolder,
    lifecycle: LifecycleTracker,
    /// Engine event-dispatch counts by event label.
    dispatch: HashMap<&'static str, u64>,
}

impl TraceState {
    fn ring(&mut self, core: u16) -> &mut EventRing {
        let idx = usize::from(core);
        if idx >= self.rings.len() {
            let cap = self.ring_capacity;
            self.rings.resize_with(idx + 1, || EventRing::new(cap));
        }
        &mut self.rings[idx]
    }

    fn record(&mut self, ev: TraceEvent) {
        match ev.kind {
            EventKind::Enter => self.folder.enter(ev.core, ev.label, ev.ts),
            EventKind::Exit => self.folder.exit(ev.core, ev.label, ev.ts),
            EventKind::Instant => {
                if ev.label.is_lifecycle() {
                    self.lifecycle.mark(ev.conn, ev.label, ev.ts);
                }
            }
        }
        self.ring(ev.core).push(ev);
    }
}

/// The tracing handle threaded through the stack.
///
/// Cloning shares the underlying state (it is an `Rc`). The
/// [`Tracer::disabled`] handle holds `None` and makes every recording
/// method a single-branch no-op, so instrumentation can stay
/// unconditional at the call sites.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceState>>>,
}

impl Tracer {
    /// A no-op tracer: records nothing, allocates nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An active tracer with one `ring_capacity`-event ring per core.
    pub fn enabled(cores: u16, ring_capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceState {
                rings: (0..cores).map(|_| EventRing::new(ring_capacity)).collect(),
                ring_capacity,
                folder: SpanFolder::new(cores),
                lifecycle: LifecycleTracker::new(),
                dispatch: HashMap::new(),
            }))),
        }
    }

    /// Whether this handle records anything. Call sites with non-trivial
    /// argument construction should branch on this first.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event (no-op when disabled).
    pub fn record(&self, ev: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().record(ev);
        }
    }

    /// Opens a span on `core`.
    pub fn enter(&self, ts: u64, core: u16, label: TraceLabel) {
        self.record(TraceEvent::enter(ts, core, label));
    }

    /// Closes the innermost open `label` span on `core`.
    pub fn exit(&self, ts: u64, core: u16, label: TraceLabel) {
        self.record(TraceEvent::exit(ts, core, label));
    }

    /// Records a point event tied to connection `conn`.
    pub fn mark(&self, ts: u64, core: u16, conn: u64, label: TraceLabel) {
        self.record(TraceEvent::instant(ts, core, conn, label));
    }

    /// Counts one engine dispatch of event type `label`.
    pub fn count_dispatch(&self, label: &'static str) {
        if let Some(inner) = &self.inner {
            *inner.borrow_mut().dispatch.entry(label).or_insert(0) += 1;
        }
    }

    /// Clears rings, attribution, dispatch counts, and latency
    /// histograms at a measurement-window boundary. Open spans and
    /// in-flight connections survive, so work crossing the boundary is
    /// still attributed and connections mid-handshake still measure.
    pub fn reset_window(&self) {
        if let Some(inner) = &self.inner {
            let mut state = inner.borrow_mut();
            for ring in &mut state.rings {
                ring.clear();
            }
            state.folder.clear();
            state.lifecycle.clear_histograms();
            state.dispatch.clear();
        }
    }

    /// Closes every still-open span at `ts` — call at end of run,
    /// before reading attribution.
    pub fn finish(&self, ts: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().folder.finish(ts);
        }
    }

    /// All buffered events, core-major (each core's slice is in
    /// timestamp order).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let state = inner.borrow();
                state
                    .rings
                    .iter()
                    .flat_map(|r| r.iter().copied().collect::<Vec<_>>())
                    .collect()
            }
        }
    }

    /// Events lost to ring overwrites, across all cores.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .borrow()
                .rings
                .iter()
                .map(EventRing::overwritten)
                .sum()
        })
    }

    /// Exit edges that never matched an enter (should be 0).
    pub fn unbalanced_exits(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().folder.unbalanced_exits())
    }

    /// Flamegraph collapsed stacks as `(path, self_cycles)` rows, hottest
    /// first.
    pub fn collapsed(&self) -> Vec<(String, u64)> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.borrow().folder.collapsed())
    }

    /// Flamegraph.pl-compatible `.folded` text.
    pub fn folded(&self) -> String {
        self.inner
            .as_ref()
            .map_or_else(String::new, |inner| inner.borrow().folder.to_folded_text())
    }

    /// Self-cycles attributed to stacks whose leaf is `label`.
    pub fn self_cycles(&self, label: TraceLabel) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().folder.self_cycles(label))
    }

    /// Current open-span depth on `core`.
    pub fn depth(&self, core: u16) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().folder.depth(core))
    }

    /// Builds the chrome://tracing document from the buffered events.
    pub fn chrome_trace(&self, cycles_per_usec: f64) -> ChromeTrace {
        let events = self.events();
        let end_ts = events.iter().map(|e| e.ts).max().unwrap_or(0);
        ChromeTrace::from_events(events.iter(), cycles_per_usec, end_ts)
    }

    /// Owned copies of the three lifecycle histograms — `[setup, ttfb,
    /// lifetime]` — or `None` when the tracer is disabled. Plain data,
    /// so a parallel lane can ship its histograms across a thread
    /// boundary for merging ([`LatencyHistogram::merge`]); summarize
    /// them with [`LatencyReport::from_histograms`].
    pub fn lifecycle_histograms(&self) -> Option<[LatencyHistogram; 3]> {
        let inner = self.inner.as_ref()?;
        let state = inner.borrow();
        Some([
            state.lifecycle.setup.clone(),
            state.lifecycle.ttfb.clone(),
            state.lifecycle.lifetime.clone(),
        ])
    }

    /// Non-empty buckets of the setup-latency histogram as
    /// `(upper_bound_cycles, count)` rows, smallest bucket first — the
    /// printable shape behind the setup summary of
    /// [`LatencyReport::from_histograms`].
    pub fn setup_buckets(&self) -> Vec<(u64, u64)> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner.borrow().lifecycle.setup.nonzero_buckets()
        })
    }

    /// Connections currently between SYN and close.
    pub fn inflight_connections(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().lifecycle.inflight())
    }

    /// Connections that reached ESTABLISHED since the last window reset.
    pub fn established_count(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().lifecycle.established_count())
    }

    /// Engine dispatch counts by event label, sorted descending.
    pub fn dispatch_counts(&self) -> Vec<(&'static str, u64)> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            let mut rows: Vec<(&'static str, u64)> = inner
                .borrow()
                .dispatch
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            rows
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TraceLabel::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.enter(10, 0, Softirq);
        t.exit(20, 0, Softirq);
        t.mark(15, 0, 1, SynArrival);
        t.count_dispatch("net_rx");
        t.finish(100);
        assert!(t.events().is_empty());
        assert!(t.collapsed().is_empty());
        assert!(t.folded().is_empty());
        assert!(t.lifecycle_histograms().is_none());
        assert!(t.dispatch_counts().is_empty());
        assert_eq!(t.dropped(), 0);
        // The chrome export of nothing is still a valid document.
        assert!(t.chrome_trace(2_700.0).traceEvents.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let t = Tracer::enabled(2, 16);
        let clone = t.clone();
        clone.enter(5, 1, ProcWake);
        clone.exit(25, 1, ProcWake);
        assert_eq!(t.self_cycles(ProcWake), 20);
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn lifecycle_marks_feed_latency_report() {
        let t = Tracer::enabled(1, 64);
        for conn in 1..=10u64 {
            let t0 = conn * 1_000;
            t.mark(t0, 0, conn, SynArrival);
            t.mark(t0 + 2_700, 0, conn, Established);
            t.mark(t0 + 5_400, 0, conn, FirstByte);
            t.mark(t0 + 27_000, 0, conn, Closed);
        }
        let hists = t.lifecycle_histograms().unwrap();
        let report = LatencyReport::from_histograms(&hists, 2_700.0).unwrap();
        assert_eq!(report.setup.count, 10);
        assert!((report.setup.p99_us - 1.0).abs() < 0.1, "{report:?}");
        assert!((report.ttfb.p50_us - 2.0).abs() < 0.2);
        assert!((report.lifetime.max_us - 10.0).abs() < 0.7);
        assert_eq!(t.inflight_connections(), 0);
        let buckets = t.setup_buckets();
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<u64>(), 10);
    }

    #[test]
    fn window_reset_preserves_open_spans() {
        let t = Tracer::enabled(1, 64);
        t.enter(0, 0, Softirq);
        t.reset_window();
        t.exit(50, 0, Softirq);
        assert_eq!(t.self_cycles(Softirq), 50);
        assert_eq!(t.unbalanced_exits(), 0);
    }

    #[test]
    fn dispatch_counts_sort_descending() {
        let t = Tracer::enabled(1, 4);
        for _ in 0..3 {
            t.count_dispatch("net_rx");
        }
        t.count_dispatch("timer");
        assert_eq!(t.dispatch_counts(), vec![("net_rx", 3), ("timer", 1)]);
    }

    #[test]
    fn ring_overflow_does_not_break_attribution() {
        let t = Tracer::enabled(1, 4); // tiny ring; folding is online
        for i in 0..100u64 {
            t.enter(i * 10, 0, NetRx);
            t.exit(i * 10 + 3, 0, NetRx);
        }
        assert_eq!(t.self_cycles(NetRx), 300);
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.dropped(), 196);
    }
}
