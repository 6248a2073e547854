//! In-memory host-time spans around the benchmark's calls into each
//! layer's public functions.
//!
//! A span has a name, a start, a duration, the span that was open when
//! it began (its parent) and the number of layer calls it covers: a
//! tight loop of 4096 `submit` calls is one span with `calls = 4096`,
//! so per-call costs are `total duration / total calls` without paying
//! two clock reads per call. Totals per name are always kept; the
//! individual spans are kept up to [`MAX_STORED`] and written out as
//! Chrome trace-event JSON when the benchmark ends.
//!
//! A disabled recorder never reads the clock: [`Spans::begin`] returns
//! a dummy token and [`Spans::end`] ignores it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Individual spans kept for the trace file; totals keep counting past
/// this.
pub const MAX_STORED: usize = 400_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `engine.submit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<u32>,
    /// Layer calls the span covers.
    pub calls: u64,
    /// Recorder (thread) the span came from.
    pub thread: u32,
}

/// Per-name aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Summed duration in nanoseconds.
    pub dur_ns: u64,
    /// Summed layer calls.
    pub calls: u64,
    /// Spans recorded.
    pub spans: u64,
}

/// An open span; hand it back to [`Spans::end`].
#[derive(Debug)]
#[must_use]
pub struct Token {
    name: &'static str,
    start: Option<Instant>,
    index: Option<u32>,
}

/// A span recorder (one per thread; merge with [`Spans::absorb`]).
#[derive(Debug, Clone)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    thread: u32,
    stored: Vec<Span>,
    open: Vec<u32>,
    totals: BTreeMap<&'static str, Total>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            thread: 0,
            stored: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// A recorder for another thread sharing this one's origin.
    #[must_use]
    pub fn fork(&self, thread: u32) -> Self {
        Spans {
            enabled: self.enabled,
            origin: self.origin,
            thread,
            stored: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.enabled {
            return Token {
                name,
                start: None,
                index: None,
            };
        }
        let start = Instant::now();
        let index = if self.stored.len() < MAX_STORED {
            let index = self.stored.len() as u32;
            self.stored.push(Span {
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: 0,
                parent: self.open.last().copied(),
                calls: 0,
                thread: self.thread,
            });
            self.open.push(index);
            Some(index)
        } else {
            None
        };
        Token {
            name,
            start: Some(start),
            index,
        }
    }

    /// Closes a span covering `calls` layer calls.
    pub fn end(&mut self, token: Token, calls: u64) {
        let Some(start) = token.start else {
            return;
        };
        let dur_ns = start.elapsed().as_nanos() as u64;
        if let Some(index) = token.index {
            if let Some(pos) = self.open.iter().rposition(|&i| i == index) {
                self.open.truncate(pos);
            }
            let span = &mut self.stored[index as usize];
            span.dur_ns = dur_ns;
            span.calls = calls;
        }
        let total = self.totals.entry(token.name).or_default();
        total.dur_ns += dur_ns;
        total.calls += calls;
        total.spans += 1;
    }

    /// Runs `f` inside a span covering `calls` layer calls.
    pub fn time<R>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
        let token = self.begin(name);
        let out = f();
        self.end(token, calls);
        out
    }

    /// Moves another recorder's spans and totals into this one.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.stored.len() as u32;
        let room = MAX_STORED.saturating_sub(self.stored.len());
        self.stored
            .extend(other.stored.into_iter().take(room).map(|mut s| {
                s.parent = s
                    .parent
                    .map(|p| p + base)
                    .filter(|&p| p - base < room as u32);
                s
            }));
        for (name, t) in other.totals {
            let total = self.totals.entry(name).or_default();
            total.dur_ns += t.dur_ns;
            total.calls += t.calls;
            total.spans += t.spans;
        }
    }

    /// The aggregate for `name` (zero when never recorded).
    #[must_use]
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean nanoseconds per layer call under `name`; `None` when no
    /// call was recorded.
    #[must_use]
    pub fn per_call_ns(&self, name: &str) -> Option<f64> {
        let t = self.total(name);
        (t.calls > 0).then(|| t.dur_ns as f64 / t.calls as f64)
    }

    /// Self time per name over the stored spans: each span's duration
    /// minus the part its direct children cover.
    #[must_use]
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.stored.len()];
        for s in &self.stored {
            if let Some(p) = s.parent {
                child[p as usize] += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.stored.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += s.dur_ns.saturating_sub(c);
        }
        out
    }

    /// Chrome trace-event JSON of the stored spans, plus a `totals`
    /// table (including self time) and the host facts in `otherData`.
    #[must_use]
    pub fn to_chrome_json(&self, facts: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.stored.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"calls\":{},\"parent\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.calls,
                s.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("],\"totals\":{");
        let self_ns = self.self_times_ns();
        for (i, (name, t)) in self.totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"spans\":{},\"calls\":{},\"dur_ns\":{},\"self_ns_stored\":{}}}",
                t.spans,
                t.calls,
                t.dur_ns,
                self_ns.get(name).copied().unwrap_or(0)
            );
        }
        out.push_str("},\"otherData\":{");
        for (i, (k, v)) in facts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":\"{}\"", v.replace(['"', '\\'], "'"));
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        let t = s.begin("a");
        s.end(t, 10);
        assert_eq!(s.total("a"), Total::default());
        assert!(s.per_call_ns("a").is_none());
    }

    #[test]
    fn nested_spans_give_self_time_and_per_call_cost() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer");
        let inner = s.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.end(inner, 4);
        s.end(outer, 1);
        let inner_t = s.total("inner");
        assert_eq!(inner_t.calls, 4);
        assert!(s.per_call_ns("inner").unwrap() >= 2e6 / 4.0);
        let self_ns = s.self_times_ns();
        assert!(self_ns["outer"] < s.total("outer").dur_ns);
        assert_eq!(self_ns["inner"], inner_t.dur_ns);
    }

    #[test]
    fn absorb_merges_totals_and_remaps_parents() {
        let mut a = Spans::new(true);
        let t = a.begin("x");
        a.end(t, 1);
        let mut b = a.fork(1);
        let outer = b.begin("y");
        let inner = b.begin("z");
        b.end(inner, 2);
        b.end(outer, 1);
        a.absorb(b);
        assert_eq!(a.total("z").calls, 2);
        let json = a.to_chrome_json(&[("nproc", "2".into())]);
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"nproc\":\"2\""));
    }
}
