//! Spans around the benchmark's own calls into each layer.
//!
//! A span's name is `<layer>.<call>`; the layer is the crate called. A
//! span's self time is its duration minus the durations of the spans
//! opened inside it, so self times of a pass re-sum to the pass exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Index of the operation within the pass.
    pub op: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans in memory. A disabled tracer runs the closures and
/// records nothing, so one code path serves traced and untraced passes.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span; `body` gets the tracer for nested spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: usize,
        body: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return body(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = body(self);
        // A panic inside `body` leaves spans open; close down to this one.
        self.open
            .truncate(self.open.iter().position(|&o| o == id).unwrap_or(0));
        self.spans[id as usize].end_ns = self.now_ns();
        value
    }

    /// A span with nothing nested inside it.
    pub fn leaf<T>(&mut self, name: &'static str, op: usize, body: impl FnOnce() -> T) -> T {
        self.span(name, op, |_| body())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in nanoseconds per span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let inside = span.end_ns - span.start_ns;
                self_ns[parent as usize] = self_ns[parent as usize].saturating_sub(inside);
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *by_name.entry(span.name).or_insert(0) += ns;
        }
        by_name
    }

    /// Inclusive time in nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The spans as a Chrome/Perfetto trace (`ts`/`dur` in microseconds;
    /// `args` carry the span id, its parent and the operation index).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                layer_of(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                parent,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `sparklite` of `sparklite.finish`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_resum_to_the_root() {
        let mut t = Tracer::new(true);
        t.span("perf.pass", 0, |t| {
            t.span("a.outer", 0, |t| {
                t.leaf("b.inner", 0, || {
                    std::hint::black_box((0..1000).sum::<u64>())
                });
            });
            t.leaf("b.inner", 1, || ());
        });
        let root = t.total_ns("perf.pass");
        let by_name = t.self_ns_by_name();
        assert_eq!(by_name.values().sum::<u64>(), root);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(t.chrome_json().contains("\"name\":\"b.inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.leaf("a.b", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
