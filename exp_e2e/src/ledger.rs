//! The outside-in per-layer ledger of a `--trace` run.
//!
//! The benchmark calls each layer's public functions itself and wraps
//! every call in a [`Ledger::span`]: calls, items (encryptions, unless a
//! span says otherwise), wall time and the calling thread's allocations.
//! Spans never nest, so a span's time is its self time. Spans run inside
//! [`Ledger::segment`]s, whose wall time is the traced wall clock the
//! span times must add up to. The program's own, untraced calls that a
//! replay is checked against are timed with [`Ledger::reference`] outside
//! any segment.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated cost of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    pub calls: u64,
    pub items: u64,
    pub ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    /// Nanoseconds per item (0 when the span saw no items).
    pub fn ns_per_item(&self) -> f64 {
        ratio(self.ns as f64, self.items)
    }

    /// Allocations per item.
    pub fn allocs_per_item(&self) -> f64 {
        ratio(self.allocs as f64, self.items)
    }

    /// Milliseconds per call.
    pub fn ms_per_call(&self) -> f64 {
        ratio(self.ns as f64 / 1e6, self.calls)
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

#[derive(Debug, Default)]
pub struct Ledger {
    spans: BTreeMap<&'static str, Span>,
    references: BTreeMap<&'static str, Span>,
    counters: BTreeMap<&'static str, u64>,
    segment_ns: u64,
    /// Traced wall time of each op, for the traced op tail.
    op_ns: Vec<u64>,
    op_open: Option<u64>,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Span) {
    let (a0, b0) = alloc::snapshot();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let (a1, b1) = alloc::snapshot();
    let span = Span {
        calls: 1,
        items: 0,
        ns,
        allocs: a1 - a0,
        bytes: b1 - b0,
    };
    (out, span)
}

fn add(map: &mut BTreeMap<&'static str, Span>, name: &'static str, items: u64, s: Span) {
    let e = map.entry(name).or_default();
    e.calls += s.calls;
    e.items += items;
    e.ns += s.ns;
    e.allocs += s.allocs;
    e.bytes += s.bytes;
}

impl Ledger {
    /// Times one layer call covering `items` items.
    pub fn span<R>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let (out, s) = measure(f);
        add(&mut self.spans, name, items, s);
        out
    }

    /// Times one untraced program call that a replay is checked against.
    pub fn reference<R>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let (out, s) = measure(f);
        add(&mut self.references, name, items, s);
        out
    }

    /// Runs a traced stretch whose wall time the spans inside must
    /// account for.
    pub fn segment<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = Instant::now();
        let out = f(self);
        let ns = t0.elapsed().as_nanos() as u64;
        self.segment_ns += ns;
        if let Some(op) = &mut self.op_open {
            *op += ns;
        }
        out
    }

    /// Adds to a named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Starts attributing segment time to a new op.
    pub fn open_op(&mut self) {
        self.op_open = Some(0);
    }

    /// Closes the current op, recording its traced wall time.
    pub fn close_op(&mut self) {
        if let Some(ns) = self.op_open.take() {
            self.op_ns.push(ns);
        }
    }

    pub fn get(&self, name: &str) -> Span {
        self.spans.get(name).copied().unwrap_or_default()
    }

    pub fn get_reference(&self, name: &str) -> Span {
        self.references.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> impl Iterator<Item = (&'static str, &Span)> {
        self.spans.iter().map(|(k, v)| (*k, v))
    }

    /// Total traced wall time, in nanoseconds.
    pub fn segment_ns(&self) -> u64 {
        self.segment_ns
    }

    /// Sum of every span's self time, in nanoseconds.
    pub fn span_ns(&self) -> u64 {
        self.spans.values().map(|s| s.ns).sum()
    }

    /// Traced wall time of each op, in milliseconds.
    pub fn op_ms(&self) -> Vec<f64> {
        self.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_reconcile_with_their_segment() {
        let mut l = Ledger::default();
        l.open_op();
        let v = l.segment(|l| {
            let v = l.span("a", 2, || vec![1u8; 64]);
            l.span("a", 3, || std::hint::black_box(v.len()));
            v
        });
        l.close_op();
        let a = l.get("a");
        assert_eq!((a.calls, a.items, a.allocs, a.bytes), (2, 5, 1, 64));
        assert!(l.span_ns() <= l.segment_ns());
        assert_eq!(l.op_ms().len(), 1);
        assert_eq!(v.len(), 64);
        l.reference("r", 1, || ());
        assert_eq!(l.get_reference("r").calls, 1);
        assert_eq!(l.get("r"), Span::default());
    }
}
