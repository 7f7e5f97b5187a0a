//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end (nanoseconds since the recorder
//! was created) and its parent. Spans stay in memory and are written
//! out once, at the end. Aggregate spans carry a duration measured
//! elsewhere (a stage bucket summed over many calls, or a layer
//! estimated by subtraction); they are laid out from their parent's
//! start so the tree still adds up.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle to a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    aggregate: bool,
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
            aggregate: false,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let out = f();
        let secs = self.close(id);
        (out, secs)
    }

    /// Records an aggregate child of `parent` lasting `secs`.
    pub fn aggregate(&mut self, name: impl Into<String>, parent: SpanId, secs: f64) {
        let start_ns = self.spans[parent.0].start_ns;
        self.spans.push(Span {
            name: name.into(),
            parent: Some(parent.0),
            start_ns,
            end_ns: start_ns + (secs.max(0.0) * 1e9) as u64,
            aggregate: true,
        });
    }

    fn duration(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Share of the `roots`' wall that no layer claims: 1 − Σ(leaf span
    /// time) ÷ Σ(root wall) over the roots' subtrees. Leaves are the
    /// layer measurements; the self time of every inner span (the
    /// roots included) is glue no layer accounts for.
    pub fn unaccounted_share(&self, roots: &[SpanId]) -> f64 {
        let wall: f64 = roots.iter().map(|r| self.duration(r.0)).sum();
        if wall <= 0.0 {
            return 0.0;
        }
        let in_subtree = |mut i: usize| loop {
            if roots.iter().any(|r| r.0 == i) {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let has_child = |i: usize| self.spans.iter().any(|s| s.parent == Some(i));
        let leaves: f64 = (0..self.spans.len())
            .filter(|&i| !roots.iter().any(|r| r.0 == i) && in_subtree(i) && !has_child(i))
            .map(|i| self.duration(i))
            .sum();
        1.0 - leaves / wall
    }

    /// Every span as one `perfbench-spans/1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\": \"perfbench-spans/1\", \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"aggregate\": {}}}",
                crate::util::json_str(&s.name),
                s.start_ns,
                s.end_ns,
                s.aggregate
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unaccounted_is_root_wall_minus_leaves() {
        let mut spans = Spans::new();
        let root = spans.open("root", None);
        let inner = spans.open("inner", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(20));
        spans.close(inner);
        spans.aggregate("part", inner, 0.005);
        let wall = spans.close(root);
        let share = spans.unaccounted_share(&[root]);
        assert!((share - (1.0 - 0.005 / wall)).abs() < 1e-9);
        assert!(spans.to_json().contains("\"aggregate\": true"));
    }
}
