//! In-memory spans around the harness's calls into each layer, written out
//! as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Units of work the span covers (SDEs, items, windows, …).
    count: u64,
}

/// One layer's spans under a root, summed up by [`Tracer::layer`].
#[derive(Debug, Default)]
pub struct Layer {
    /// Duration of each span, in recording order.
    pub durations_ms: Vec<f64>,
    /// Units of work the spans cover.
    pub count: u64,
    pub self_s: f64,
}

/// Span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let parent = parent.map(|p| p.0);
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns, count: 0 });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId, count: u64) {
        self.spans[id.0].end_ns = self.now_ns();
        self.spans[id.0].count = count;
    }

    /// Runs `work` inside a span that covers `count` units.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        count: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = work();
        self.close(id, count);
        out
    }

    /// Whether each span is `root` or below it.
    fn below(&self, root: SpanId) -> Vec<bool> {
        // A parent is recorded before its children, so one forward sweep
        // settles every span.
        let mut below = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            below[i] = i == root.0 || s.parent.is_some_and(|p| below[p]);
        }
        below
    }

    /// Number of spans below `root`, itself included.
    pub fn spans_below(&self, root: SpanId) -> usize {
        self.below(root).iter().filter(|&&b| b).count()
    }

    /// The spans called `name` at or below `root`, summed up. A layer's self
    /// time is its spans' durations minus what their child spans cover.
    pub fn layer(&self, name: &str, root: SpanId) -> Layer {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let below = self.below(root);
        let mut layer = Layer::default();
        for (i, s) in self.spans.iter().enumerate().filter(|(i, s)| below[*i] && s.name == name) {
            let ns = s.end_ns - s.start_ns;
            layer.durations_ms.push(ns as f64 / 1e6);
            layer.count += s.count;
            layer.self_s += ns.saturating_sub(child_ns[i]) as f64 / 1e9;
        }
        layer
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_other_roots() {
        let mut t = Tracer::new();
        let root = t.open("pass", None);
        let a = t.open("layer", Some(root));
        let b = t.open("inner", Some(a));
        t.close(b, 3);
        t.close(a, 1);
        t.close(root, 1);
        let other = t.open("elsewhere", None);
        let c = t.open("layer", Some(other));
        t.close(c, 5);
        t.close(other, 1);
        // Pin the clock so the arithmetic is exact.
        for (i, (s, e)) in [(0, 100), (10, 60), (20, 50), (200, 300), (210, 250)].iter().enumerate()
        {
            t.spans[i].start_ns = *s;
            t.spans[i].end_ns = *e;
        }
        assert_eq!(t.layer("layer", root).self_s, 20e-9, "50 ns minus the 30 ns child");
        assert_eq!(t.layer("layer", root).count, 1);
        assert_eq!(t.layer("inner", root).durations_ms, vec![30e-6]);
        assert_eq!(t.layer("layer", other).self_s, 40e-9);
        assert_eq!(t.layer("layer", other).count, 5);
        assert_eq!(t.layer("pass", root).self_s, 50e-9, "the root counts as below itself");
        assert_eq!((t.spans_below(root), t.spans_below(other)), (3, 2));
        let mut out = Vec::new();
        t.write_jsonl("w", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().nth(2).unwrap().contains("\"name\":\"inner\",\"parent\":1,"));
    }
}
