//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span's parent is the span open when it began, and
//! spans of one client batch share a request id. Spans stay in memory
//! until the run ends, when [`Tracer::write_tsv`] writes them out.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open, `end_ns == u64::MAX`) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request: self.request,
            start_ns,
            end_ns: u64::MAX,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let result = f(self);
        self.end(id);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `id parent request name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total length covered by a set of `[start, end)` intervals.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - union_ns(kids).min(s.duration_ns()))
        .collect()
}

/// Per-name totals over the spans that begin inside `[from, to)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span], from: u64, to: u64) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.start_ns < from || s.start_ns >= to {
            continue;
        }
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    totals
}

/// Wall time of `[from, to)` that no root span covers.
pub fn unattributed_ns(spans: &[Span], from: u64, to: u64) -> u64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns.max(from), s.end_ns.min(to)))
        .filter(|(start, end)| end > start)
        .collect();
    (to - from) - union_ns(&mut roots).min(to - from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(&mut [(20, 30), (0, 100)]), 100);
        assert_eq!(union_ns(&mut [(3, 3), (4, 5)]), 1);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // root [0,100) with children [10,30) and [20,50) (overlapping)
        // and a grandchild [12,18) under the first child.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 30, 6]);
    }

    #[test]
    fn child_outside_its_parent_is_clipped() {
        let spans = vec![span("root", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn totals_and_unattributed_over_a_window() {
        let spans = vec![
            span("x", None, 0, 10),
            span("y", Some(0), 2, 6),
            span("x", None, 20, 25),
            span("z", None, 90, 130),
        ];
        let totals = totals_by_name(&spans, 0, 100);
        assert_eq!(
            totals["x"],
            NameTotals {
                count: 2,
                total_ns: 15,
                self_ns: 11
            }
        );
        assert_eq!(totals["y"].self_ns, 4);
        // Roots cover [0,10) + [20,25) + [90,100) of the window.
        assert_eq!(unattributed_ns(&spans, 0, 100), 75);
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut t = Tracer::new();
        t.set_request(7);
        t.span("outer", |t| {
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
