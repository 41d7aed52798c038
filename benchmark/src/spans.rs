//! In-memory spans around the calls the replays make into each layer.
//! A span records its name, the span that caused it, the request it
//! served and its start and end; self time is its duration minus the
//! part its child spans cover. Spans are written out as JSON lines once
//! the run has ended.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    request: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// Busy time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    pub self_s: f64,
    pub calls: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.enter(name, request);
        let out = f();
        self.exit(idx);
        out
    }

    /// Self time and call count per span name.
    pub fn busy(&self) -> BTreeMap<&'static str, Busy> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let b = out.entry(s.name).or_default();
            b.self_s += s.end_ns.saturating_sub(s.start_ns).saturating_sub(child) as f64 / 1e9;
            b.calls += 1;
        }
        out
    }

    /// One JSON object per span, in the order spans opened.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                opt(s.parent.map(|p| p as u64)),
                s.name,
                opt(s.request),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let root = spans.enter("root", Some(7));
        spans.time("child", Some(7), || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        spans.exit(root);
        let busy = spans.busy();
        assert_eq!(busy["child"].calls, 1);
        assert!(busy["child"].self_s >= 0.019);
        assert!(busy["root"].self_s < busy["child"].self_s);
        let lines = spans.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
