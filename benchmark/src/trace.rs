//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A traced run keeps every span in memory — name (`layer.operation`),
//! start, end, the span that caused it, the operation it belongs to,
//! and how many items (packets, requests) it covered — and writes them
//! out when the workload ends. A layer's *self time* is its span minus
//! the part its child spans cover. With tracing off, [`Tracer::begin`]
//! is one predictable branch and never reads the clock, which is the
//! mode every end-to-end metric is measured in.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// "No parent": the span is a root of its operation.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `core.border.egress`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Burst / request id shared by all spans of one operation.
    pub op: u64,
    /// Items the span covered (packets in the burst, requests in the batch).
    pub items: u32,
}

impl Span {
    /// `end - start`, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Per-thread span recorder (see module docs).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::off()
    }
}

impl Tracer {
    /// A recorder that records nothing (the untraced pass).
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer whose timestamps count from `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
        }
    }

    /// A tracer in the same mode (and on the same epoch) as `self`, for
    /// another thread or phase.
    pub fn sibling(&self) -> Tracer {
        if self.enabled {
            Tracer::on(self.epoch)
        } else {
            Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        self.open.push(idx);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
            items: 0,
        });
        // Read the clock last, so the bookkeeping above lands outside
        // the span rather than inside it.
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[idx as usize].start_ns = now;
        SpanId(idx)
    }

    /// Closes `id`, crediting it with `items` items.
    #[inline]
    pub fn end(&mut self, id: SpanId, items: usize) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(id.0 as usize) {
            span.end_ns = now;
            span.items = items as u32;
        }
        // Spans nest, so the innermost open span is the one closing.
        if self.open.last() == Some(&id.0) {
            self.open.pop();
        } else {
            self.open.retain(|&i| i != id.0);
        }
    }

    /// Records a span whose two ends were observed elsewhere (a datagram's
    /// due time and its arrival on another thread): a root span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        op: u64,
        items: usize,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: NO_PARENT,
            op,
            items: items as u32,
        });
    }

    /// Durations of every span called `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1000.0)
            .collect()
    }

    /// Recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Absorbs another tracer's spans (another thread's, or a probe's),
    /// re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Per-name totals over all recorded spans.
    pub fn aggregate(&self) -> BTreeMap<&'static str, SpanTotals> {
        aggregate(&self.spans)
    }

    /// Writes up to `limit` spans as JSON lines (`self_ns` included), with
    /// a leading header line saying how many were recorded in all.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> Result<(), String> {
        let err = |e: std::io::Error| format!("{}: {e}", path.display());
        let selfs = self_times(&self.spans);
        let file = std::fs::File::create(path).map_err(err)?;
        let mut out = std::io::BufWriter::new(file);
        let written = self.spans.len().min(limit);
        writeln!(
            out,
            "{{\"trace\": \"apna-benchmark\", \"spans_recorded\": {}, \"spans_written\": {written}, \
             \"clock\": \"ns since window start\"}}",
            self.spans.len()
        )
        .map_err(err)?;
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).take(limit).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"op\": {}, \"items\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.items
            )
            .map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Items covered.
    pub items: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times (duration minus covered children), nanoseconds.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean nanoseconds per item (0 when no items were covered).
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.items as f64
        }
    }

    /// Mean microseconds per span (0 when none was recorded).
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1000.0
        }
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children of one span run one after another on one
/// thread, so their durations add up to the covered part).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(c) = covered.get_mut(s.parent as usize) {
            *c += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Groups `spans` by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.items += u64::from(s.items);
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            items: 4,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let spans = vec![
            span("trip.burst", 0, 1000, NO_PARENT),
            span("gateway.outbound", 100, 400, 0),
            span("core.border.egress", 450, 900, 0),
            span("core.hostinfo.mac_verify", 500, 700, 2),
        ];
        assert_eq!(self_times(&spans), vec![250, 300, 250, 200]);
        let agg = aggregate(&spans);
        assert_eq!(agg["trip.burst"].self_ns, 250);
        assert_eq!(agg["core.border.egress"].total_ns, 450);
        assert_eq!(agg["core.border.egress"].ns_per_item(), 112.5);
        assert_eq!(agg["gateway.outbound"].us_per_call(), 0.3);
        // The layer self times add back up to the root span.
        let sum: u64 = agg.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut t = Tracer::on(Instant::now());
        let outer = t.begin("a.outer", 7);
        let inner = t.begin("a.inner", 7);
        t.end(inner, 3);
        let second = t.begin("a.second", 7);
        t.end(second, 1);
        t.end(outer, 32);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[0].items, 32);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));

        let mut off = Tracer::off();
        let id = off.begin("x.y", 1);
        off.end(id, 9);
        assert!(off.spans().is_empty());
        assert!(!off.sibling().enabled() && t.sibling().enabled());
    }

    #[test]
    fn absorb_rebases_parents_and_jsonl_is_capped() {
        let mut a = Tracer::on(Instant::now());
        let x = a.begin("a.x", 1);
        a.end(x, 1);
        let mut b = a.sibling();
        let p = b.begin("b.parent", 2);
        let c = b.begin("b.child", 2);
        b.end(c, 1);
        b.end(p, 1);
        a.absorb(b);
        assert_eq!(a.spans()[1].parent, NO_PARENT);
        assert_eq!(a.spans()[2].parent, 1);

        let dir = std::env::temp_dir().join(format!("apna-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        a.write_jsonl(&path, 2).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"spans_recorded\": 3"));
        assert!(text.contains("\"name\": \"b.parent\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
