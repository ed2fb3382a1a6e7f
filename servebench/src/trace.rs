//! In-memory spans recorded around every call the benchmark makes into a
//! layer, written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `name` is `<layer>.<what>`; the layer is the prefix.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span worked for, when it worked for one.
    pub req: Option<u64>,
}

/// Busy time of one layer across a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub spans: usize,
    pub total_ns: u64,
    /// Total minus the parts covered by child spans.
    pub self_ns: u64,
}

/// The span log of one run.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace { origin, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<u64>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, req });
        self.spans.len() - 1
    }

    /// Opens a span that ends at [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Ends a span opened with [`Trace::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-layer span count, total and self time. Children of one span
    /// never overlap (the benchmark calls layers from one thread), so a
    /// span's self time is its duration minus its children's.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let e = out.entry(layer).or_default();
            let dur = s.end_ns - s.start_ns;
            e.spans += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let req = s.req.map_or("null".to_owned(), |r| r.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{req}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut tr = Trace::new(t0);
        let root = tr.record("model.decode", at(0), at(10), None, Some(1));
        tr.record("tensor.matvec", at(1), at(4), Some(root), Some(1));
        tr.record("quant.encode", at(5), at(6), Some(root), Some(1));
        let lt = tr.layer_times();
        assert_eq!(lt["model"].total_ns, 10_000_000);
        assert_eq!(lt["model"].self_ns, 6_000_000);
        assert_eq!(lt["tensor"].self_ns, 3_000_000);
        assert_eq!(lt["quant"].spans, 1);
    }
}
