//! The benchmark's own spans: one around every call it makes into a layer.
//!
//! Each client thread records into its own [`Recorder`], in memory; the
//! traced run merges them and writes them out as JSON lines when it ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is 0 for a request's outermost span; spans of
/// one request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: finish it with [`Recorder::end`].
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One thread's span buffer. Ids are unique across recorders because each
/// carries its thread number in the high bits.
pub struct Recorder {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u64) -> Recorder {
        Recorder { epoch, next: (thread << 40) + 1, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64, parent: u64) -> Open {
        let id = self.next;
        self.next += 1;
        Open { id, parent, request, name, start_ns: self.now_ns() }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        let secs = span.duration_ns() as f64 * 1e-9;
        self.spans.push(span);
        secs
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Writes spans as JSON lines, oldest first.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps span 2: 10..50 counts once
            span(4, 1, 90, 120), // runs past its parent: only 90..100 counts
            span(5, 2, 12, 18),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 20 - 6);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&5], 6);
    }

    #[test]
    fn recorder_links_children_and_keeps_ids_unique() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 0);
        let mut b = Recorder::new(epoch, 1);
        let outer = a.begin("outer", 7, 0);
        let inner = a.begin("inner", 7, outer.id());
        let inner_secs = a.end(inner);
        let outer_secs = a.end(outer);
        let other = b.begin("outer", 8, 0);
        b.end(other);
        assert!(outer_secs >= inner_secs);
        assert_eq!(a.spans[0].parent, a.spans[1].id);
        assert_ne!(a.spans[1].id, b.spans[0].id);
        let own = self_times_ns(&a.spans);
        assert_eq!(own[&a.spans[1].id], a.spans[1].duration_ns() - a.spans[0].duration_ns());
    }
}
