//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around the calls into the program's public functions — kept in memory,
//! and written out when the run ends. Spans *inside* the program are a
//! later issue (ROADMAP item 5c); until then a layer's self time is its
//! span's duration minus the part of it its child spans cover.

use std::time::Instant;

/// One recorded interval. `parent` indexes into the recorder's span list;
/// spans of one pass share its `pass` id.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
    /// Calling-thread CPU spent inside the span (0 where not sampled).
    pub cpu_ns: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against one monotonic epoch.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new pass; spans opened from here on carry its id.
    pub fn next_pass(&mut self) -> u32 {
        self.pass += 1;
        self.pass
    }

    /// Opens a span under the innermost open one and returns its handle.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
            cpu_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// wall nanoseconds.
    pub fn close(&mut self, id: usize, cpu_ns: u64) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].cpu_ns = cpu_ns;
        self.spans[id].wall_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span, so a child that
/// overruns or overlaps a sibling is not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.wall_ns() - covered
        })
        .collect()
}

/// Share of each top-level span's wall time (`root` spans, e.g. `pass`)
/// that its direct children cover: ROADMAP item 2's "layers sum to the
/// total", as measured from outside.
pub fn coverage_share(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&selfs) {
        if s.name == root && s.parent.is_none() {
            total += s.wall_ns();
            uncovered += own;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 1,
            cpu_ns: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("spawn", 0, 10, Some(0)),
            span("offer", 10, 60, Some(0)),
            span("drain", 70, 95, Some(0)),
            span("inner", 20, 30, Some(2)),
        ];
        // pass: 100 − (10 + 50 + 25); offer: 50 − 10; leaves keep it all.
        assert_eq!(self_times(&spans), vec![15, 10, 40, 25, 10]);
        assert!((coverage_share(&spans, "pass") - 0.85).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overrunning_children_count_once() {
        let spans = vec![
            span("pass", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 260, Some(0)), // overruns the parent by 60
        ];
        // Union inside the parent: [110,170) ∪ [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_tags_passes() {
        let mut r = Recorder::new();
        let pass = r.next_pass();
        let p = r.open("pass");
        let o = r.open("offer");
        r.close(o, 7);
        r.close(p, 0);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert_eq!((s[0].pass, s[1].pass, s[1].cpu_ns), (pass, pass, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new();
        let a = r.open("a");
        let _b = r.open("b");
        r.close(a, 0);
    }
}
