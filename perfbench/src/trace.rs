//! Spans recorded around every call the benchmark makes into a layer.
//!
//! Each thread (the driver, every trainer lane) owns one [`Recorder`], so
//! recording never takes a lock. A span carries its name, an id (the pump
//! index on the driver thread, the step index on a lane), its parent and
//! its start and end. Spans stay in memory until the run ends; then
//! [`write_jsonl`] writes them out and [`Summary`] derives each layer's self
//! time (a span's duration minus the time its children cover).
//!
//! With tracing off a recorder only runs the timed closure, so the
//! untraced runs that give the end-to-end metrics pay nothing for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `etl.pump`.
    pub name: &'static str,
    /// Pump index on the driver thread, step index on a trainer lane.
    pub id: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// When the call started.
    pub start: Instant,
    /// When the call returned (equal to `start` while still open).
    pub end: Instant,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span that encloses later spans; close it with
    /// [`close`](Self::close). Returns `None` with tracing off.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            id,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end = Instant::now();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: Instant::now(),
        });
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name aggregates of spans, absorbed one thread at a time.
#[derive(Debug, Default)]
pub struct Summary {
    /// Call durations in milliseconds, in call order.
    pub calls_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Summed self time in seconds.
    pub self_s: BTreeMap<&'static str, f64>,
}

impl Summary {
    /// Adds one thread's spans (parents index into the same slice).
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut self_time: Vec<f64> = spans.iter().map(Span::seconds).collect();
        for span in spans {
            if let Some(parent) = span.parent {
                self_time[parent] -= span.seconds();
            }
        }
        for (span, own) in spans.iter().zip(self_time) {
            self.calls_ms
                .entry(span.name)
                .or_default()
                .push(span.seconds() * 1e3);
            *self.self_s.entry(span.name).or_default() += own;
        }
    }

    /// Summed self time of `name`, 0 when it never ran.
    pub fn self_seconds(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Quantile `q` of the call durations of `name` in ms, 0 when it never
    /// ran.
    pub fn call_ms(&self, name: &str, q: f64) -> f64 {
        self.calls_ms
            .get(name)
            .map_or(0.0, |calls| crate::stats::quantile(calls, q))
    }
}

/// Writes spans as JSON lines, times in microseconds since `origin`.
/// `thread` names the recorder (`driver`, `lane0`, ...).
pub fn write_jsonl(
    out: &mut impl Write,
    iteration: usize,
    thread: &str,
    origin: Instant,
    spans: &[Span],
) -> std::io::Result<()> {
    let micros = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"iteration\":{iteration},\"thread\":\"{thread}\",\"index\":{index},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            span.name,
            span.id,
            micros(span.start),
            micros(span.end),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let span = |name, parent, start, end| Span {
            name,
            id: 0,
            parent,
            start: at(start),
            end: at(end),
        };
        let spans = [
            span("root", None, 0, 100),
            span("leaf", Some(0), 10, 30),
            span("leaf", Some(0), 50, 90),
        ];
        let mut summary = Summary::default();
        summary.absorb(&spans);
        assert!((summary.self_seconds("root") - 0.040).abs() < 1e-9);
        assert!((summary.self_seconds("leaf") - 0.060).abs() < 1e-9);
        assert!((summary.call_ms("leaf", 1.0) - 40.0).abs() < 1e-9);
        assert_eq!(summary.self_seconds("absent"), 0.0);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let root = rec.open("root", 0, None);
        assert_eq!(rec.time("leaf", 1, root, || 7), 7);
        rec.close(root);
        assert!(rec.into_spans().is_empty());
    }
}
