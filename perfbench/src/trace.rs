//! The benchmark's own span recorder: spans are recorded from the
//! benchmark's code around its calls into each layer, kept in memory,
//! reduced to per-layer self times, and written as a Chrome trace at
//! exit. Only the generator thread records, so no lock is needed.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span. `request` groups the spans of one request;
/// `parent` is 0 for a request's root span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Unique id (from 1).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// Layer name, e.g. `frontend.submit`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Total self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Σ (duration − time covered by child spans), ns.
    pub total_ns: u64,
    /// Spans of this name.
    pub count: u64,
}

/// In-memory span store with a monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    next_id: u64,
    next_request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            next_request: 1,
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the origin for an instant taken elsewhere.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// Reserves a span id, so children can name a root recorded later.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        request: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(SpanRec {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        request: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, request, parent, name, start_ns, end_ns);
        id
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer name: each span's duration minus the part of
    /// its interval that its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let entry = out.entry(s.name).or_default();
            entry.total_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
            entry.count += 1;
        }
        out
    }

    /// Writes at most `limit` spans as a Chrome trace-event file
    /// (`chrome://tracing`, Perfetto), each span's id, parent and
    /// request in its `args`.
    pub fn write_chrome(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut text = String::with_capacity(128 * self.spans.len().min(limit) + 256);
        let _ = write!(
            text,
            "{{\"spans_recorded\": {}, \"spans_written\": {}, \"traceEvents\": [",
            self.spans.len(),
            self.spans.len().min(limit)
        );
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let _ = write!(
                text,
                "{}\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \
                 \"request\": {}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.request
            );
        }
        text.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let req = t.request();
        let root = t.reserve();
        t.record(req, root, "child", 10, 30);
        t.record(req, root, "child", 20, 40); // overlaps the first
        t.record_as(root, req, 0, "root", 0, 100);
        let st = t.self_times();
        assert_eq!(
            st["root"],
            SelfTime {
                total_ns: 70,
                count: 1
            }
        );
        assert_eq!(
            st["child"],
            SelfTime {
                total_ns: 40,
                count: 2
            }
        );
    }
}
