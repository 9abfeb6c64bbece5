//! Benchmark-side spans: one per call the benchmark makes into a layer.
//!
//! Spans are kept in memory and written out once, after every timed
//! section has ended. A disabled log (the untraced run) records nothing,
//! so the end-to-end numbers never pay for tracing.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dtn-sim.engine.run_to_end`.
    pub name: &'static str,
    /// Start, ns since log creation.
    pub start_ns: u64,
    /// End, ns since log creation.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which pass of the workload the span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    dropped: u64,
}

/// Most spans kept in memory. Only leaf spans recorded through
/// [`SpanLog::record`] (one per decision on the serve workloads) are
/// ever dropped, and every drop is counted.
const MAX_SPANS: usize = 200_000;

impl SpanLog {
    /// A log that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            dropped: 0,
        }
    }

    /// Tags subsequently opened spans with pass number `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            run: self.run,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records an already-measured leaf span (used where the benchmark
    /// times a call itself and must not read the clock twice).
    pub fn record(&mut self, name: &'static str, started: Instant, ended: Instant) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(started),
            end_ns: at(ended),
            parent: self.open.last().copied(),
            run: self.run,
        });
    }

    /// Leaf spans dropped because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sum of the durations of pass `run`'s spans called `name`, seconds.
    pub fn total_s(&self, name: &str, run: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Self time of every span: its duration minus the part of it that
    /// its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates write failures from `out`.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> io::Result<()> {
        let own = self.self_times_ns();
        for (id, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(log: &mut SpanLog, name: &'static str, start: u64, end: u64) {
        let parent = log.open.last().copied();
        log.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: log.run,
        });
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new(true);
        log.enter("pass");
        log.enter("setup");
        leaf(&mut log, "build", 10, 40);
        leaf(&mut log, "configure", 50, 70);
        log.exit();
        log.exit();
        // Pin the clock readings so the arithmetic is exact.
        log.spans[0].start_ns = 0;
        log.spans[0].end_ns = 100;
        log.spans[1].start_ns = 5;
        log.spans[1].end_ns = 80;
        let own = log.self_times_ns();
        // pass: 100 − setup(75) = 25; grandchildren are not subtracted twice.
        assert_eq!(own[0], 25);
        // setup: 75 − build(30) − configure(20) = 25.
        assert_eq!(own[1], 25);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 20);
        assert_eq!(log.spans[2].parent, Some(1));
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[0].parent, None);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let v = log.span("x", || 7);
        log.record("y", Instant::now(), Instant::now());
        assert_eq!(v, 7);
        assert!(log.spans.is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_run_and_parent() {
        let mut log = SpanLog::new(true);
        log.set_run(3);
        log.enter("outer");
        log.span("inner", || ());
        log.exit();
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"outer\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"name\":\"inner\"") && lines[1].contains("\"parent\":0"));
        assert!(lines[1].contains("\"run\":3"));
        assert!((log.total_s("outer", 3) - log.spans[0].duration_ns() as f64 / 1e9).abs() < 1e-12);
        assert_eq!(log.total_s("outer", 0), 0.0);
    }
}
