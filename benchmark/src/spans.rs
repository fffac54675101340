//! In-memory spans around the replay's calls into each layer.
//!
//! Nothing inside the measured program is instrumented: a span is taken
//! by the harness around a call to a crate's public function.  Spans
//! stay in memory and are written out once, after the replay.

use std::io::Write;
use std::time::Instant;

/// One timed interval.  `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Run index within the scenario the span belongs to.
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans, or — when disabled — runs the same closures untimed,
/// so one replay routine serves the traced and the untraced replay.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with run index `run`.
    pub fn set_run(&mut self, run: usize) {
        self.run = run as u32;
    }

    /// Opens a span that later spans nest under, until [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Times `f` as a leaf span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"workload\":\"{}\",\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, workload, s.run
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one parent never overlap here, since
/// the replay is single-threaded).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, None),
            span("run", 10, 90, Some(0)),
            span("step", 20, 50, Some(1)),
            span("step", 50, 60, Some(1)),
        ];
        assert_eq!(self_ns(&spans), vec![20, 40, 30, 10]);
    }

    #[test]
    fn nesting_and_disabled_recorder() {
        let mut rec = Recorder::new(true);
        rec.enter("root");
        rec.set_run(3);
        assert_eq!(rec.span("leaf", || 7), 7);
        rec.exit();
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].run, 3);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        assert_eq!(rec.durations("leaf").len(), 1);

        let mut off = Recorder::new(false);
        off.enter("root");
        assert_eq!(off.span("leaf", || 7), 7);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
