//! In-memory spans and sample summaries.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer, kept in memory with their parent's id, and written out once
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Microseconds since the run's clock started.
    pub start_us: f64,
    pub end_us: f64,
}

/// One thread's span log; clones share the id counter and the clock.
#[derive(Clone, Debug)]
pub struct Tracer {
    clock: Instant,
    ids: Arc<AtomicU64>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(clock: Instant) -> Self {
        Tracer {
            clock,
            ids: Arc::new(AtomicU64::new(1)),
            spans: Vec::new(),
        }
    }

    /// A fresh log on the same clock and id sequence.
    pub fn fork(&self) -> Self {
        Tracer {
            clock: self.clock,
            ids: Arc::clone(&self.ids),
            spans: Vec::new(),
        }
    }

    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span that began at `start`.
    pub fn record(&mut self, id: u64, parent: u64, name: &'static str, start: Instant) {
        let us = |t: Instant| t.duration_since(self.clock).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us: us(start),
            end_us: us(Instant::now()),
        });
    }
}

/// Writes spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id, s.parent, s.name, s.start_us, s.end_us
        );
    }
    out
}

/// Latency samples in microseconds, by name.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, us: f64) {
        self.0.entry(name).or_default().push(us);
    }

    pub fn merge(&mut self, other: Samples) {
        for (k, mut v) in other.0 {
            self.0.entry(k).or_default().append(&mut v);
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}
