//! The benchmark's own span recorder: one span around every call it makes
//! into a layer of the program (`new`, `solve`, each ladder rung,
//! `spawn_workers_with`, `join`, ...). Spans are kept in memory and written
//! out as one JSON file when the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer call this span covers, e.g. `sm.new` or `fleet.join`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the record list, if any.
    pub parent: Option<usize>,
}

/// In-memory span list with an explicit open-span stack for parentage.
/// Recording is off unless the recorder is enabled (the untraced run).
pub struct Spans {
    origin: Instant,
    enabled: bool,
    records: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            records: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; nested calls become children.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut records = self.records.borrow_mut();
            records.push(SpanRecord {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            records.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.records.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.records.borrow().len()
    }

    /// Every span as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let records = self.records.borrow();
        let mut out = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}\n",
                r.name,
                r.start_ns,
                r.end_ns,
                if i + 1 < records.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let spans = Spans::new(true);
        spans.span("outer", || {
            spans.span("inner", || ());
            spans.span("inner2", || ());
        });
        spans.span("next", || ());
        let r = spans.records.borrow();
        let parents: Vec<_> = r.iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("inner2", Some(0)),
                ("next", None)
            ]
        );
        assert!(r.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(r[0].end_ns >= r[2].end_ns);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.span("x", || 7), 7);
        assert_eq!(spans.len(), 0);
        assert_eq!(spans.to_json(), "[\n]");
    }
}
