//! The benchmark's own spans, recorded around calls into the program.
//!
//! Spans live in memory while the run measures and are written out as
//! NDJSON when it ends: one line per span (name, start, end, parent,
//! request id), then the program's own telemetry spans and counters
//! folded in as aggregate lines. A layer's self time is its span's
//! duration minus what its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use fluxprint_telemetry::Snapshot;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Which run phase recorded it.
    pub phase: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (connection step) the span serves.
    pub request: u64,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    phase: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, phase: &'static str) -> Tracer {
        Tracer {
            epoch,
            phase,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            phase: self.phase,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        index
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Appends another tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self nanoseconds per `(phase, name)`.
    pub fn self_times(&self) -> BTreeMap<(&'static str, &'static str), (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<_, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry((span.phase, span.name)).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(children);
        }
        out
    }

    /// NDJSON: every span, then the folded telemetry of `snapshots`.
    pub fn to_ndjson(&self, snapshots: &[(&str, &Snapshot)]) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{id},\"phase\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.phase, s.name, s.start_ns, s.end_ns, s.request
            );
        }
        for ((phase, name), (count, total, own)) in self.self_times() {
            let _ = writeln!(
                out,
                "{{\"type\":\"self_time\",\"phase\":\"{phase}\",\"name\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        for (phase, snap) in snapshots {
            for (path, stat) in &snap.spans {
                if stat.count > 0 {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"telemetry_span\",\"phase\":\"{phase}\",\"path\":\"{path}\",\"count\":{},\"total_ns\":{}}}",
                        stat.count, stat.total_ns
                    );
                }
            }
            for (name, value) in &snap.counters {
                if *value > 0 {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"telemetry_counter\",\"phase\":\"{phase}\",\"name\":\"{name}\",\"value\":{value}}}"
                    );
                }
            }
        }
        out
    }
}

/// Runs `f` inside a span when tracing, directly otherwise.
pub fn traced<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            t.begin(name, request);
            let out = f();
            t.end();
            out
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), "test");
        t.begin("outer", 1);
        t.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end();
        t.end();
        let times = t.self_times();
        let (_, outer_total, outer_self) = times[&("test", "outer")];
        let (_, inner_total, _) = times[&("test", "inner")];
        assert_eq!(outer_self, outer_total - inner_total);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
