//! The benchmark's own spans around its calls into each layer, kept in
//! memory and written out as a chrome://tracing document at the end.

use serde_json::Value;
use std::time::Instant;

/// Identifier of a recorded span; 0 is "no parent".
pub type SpanId = u64;

#[derive(Debug)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// Records nested spans against one wall clock.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span under `parent` and returns its id.
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us: now,
            end_us: now,
        });
        id
    }

    /// Closes span `id` and returns its length in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.now_us();
        let span = &mut self.spans[(id - 1) as usize];
        span.end_us = now;
        (now - span.start_us) / 1e6
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// length in seconds.
    pub fn time<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// The chrome://tracing document: one complete ("X") event per span,
    /// with its id and parent id in `args`.
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::String(s.name.clone())),
                    ("cat".into(), Value::String("benchmark".into())),
                    ("ph".into(), Value::String("X".into())),
                    ("ts".into(), Value::Float(s.start_us)),
                    ("dur".into(), Value::Float(s.end_us - s.start_us)),
                    ("pid".into(), Value::UInt(1)),
                    ("tid".into(), Value::UInt(1)),
                    (
                        "args".into(),
                        Value::Object(vec![
                            ("id".into(), Value::UInt(s.id)),
                            ("parent".into(), Value::UInt(s.parent)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::String("ms".into())),
        ])
    }
}
