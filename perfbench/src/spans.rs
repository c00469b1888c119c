//! The traced run's span recorder.
//!
//! A span is one timed call into a layer: a name, start and end (ns since
//! the run's epoch), the index of the span that caused it, and the id of
//! the request (session) it served. Calls too frequent to keep one span
//! each — `choose_level`, once per chunk — are folded into one span per
//! session whose `busy_ns` and `count` sum the calls. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `abr-sim.run`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Time actually spent in the call(s): `end - start` for an ordinary
    /// span, the summed call durations for a folded one.
    pub busy_ns: u64,
    /// Calls the span stands for (1 unless folded).
    pub count: u64,
    /// Index of the causing span in the same log, if any.
    pub parent: Option<usize>,
    /// The request (session) this span served.
    pub request: u64,
}

/// Spans of one request, built on a worker thread and merged into a
/// [`SpanLog`] afterwards.
#[derive(Debug, Default)]
pub struct RequestSpans {
    spans: Vec<Span>,
}

impl RequestSpans {
    /// Record a completed call as a span; returns its local index.
    pub fn push(
        &mut self,
        epoch: Instant,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let s = ns_between(epoch, start);
        let e = ns_between(epoch, end);
        self.spans.push(Span {
            name,
            start_ns: s,
            end_ns: e,
            busy_ns: e.saturating_sub(s),
            count: 1,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Record many calls folded into one span.
    #[allow(clippy::too_many_arguments)]
    pub fn push_folded(
        &mut self,
        epoch: Instant,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        first: Instant,
        last: Instant,
        busy_ns: u64,
        count: u64,
    ) {
        if count == 0 {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: ns_between(epoch, first),
            end_ns: ns_between(epoch, last),
            busy_ns,
            count,
            parent,
            request,
        });
    }
}

fn ns_between(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Summed busy time, ns.
    pub busy_ns: u64,
    /// Summed busy time of the direct children, ns.
    pub child_ns: u64,
    /// Calls.
    pub count: u64,
}

impl Totals {
    /// Busy time not covered by child spans, ns.
    pub fn self_ns(&self) -> u64 {
        self.busy_ns.saturating_sub(self.child_ns)
    }
}

/// All spans of a run.
#[derive(Debug)]
pub struct SpanLog {
    /// The instant every span's times are relative to.
    pub epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl SpanLog {
    /// An empty log keeping at most `cap` spans in memory (totals always
    /// cover every span).
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Merge one request's spans, re-basing their parent indices.
    pub fn merge(&mut self, req: RequestSpans) {
        for s in &req.spans {
            let t = self.totals.entry(s.name).or_default();
            t.busy_ns += s.busy_ns;
            t.count += s.count;
            if let Some(p) = s.parent {
                let parent = req.spans[p].name;
                self.totals.entry(parent).or_default().child_ns += s.busy_ns;
            }
        }
        if self.spans.len() + req.spans.len() > self.cap {
            self.dropped += req.spans.len() as u64;
            return;
        }
        let base = self.spans.len();
        self.spans.extend(req.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Record one top-level span directly (set-up calls).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let mut req = RequestSpans::default();
        req.push(self.epoch, name, None, request, start, end);
        self.merge(req);
    }

    /// Totals for `name` (zero if never recorded).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Spans kept in memory.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span is kept.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans not kept because the cap was reached (still in the totals).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every kept span as tab-separated text.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "index\tname\tstart_ns\tend_ns\tbusy_ns\tcount\tparent\trequest"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.busy_ns, s.count, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_parents_rebase() {
        let mut log = SpanLog::new(100);
        let t0 = log.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        for r in 0..2 {
            let mut req = RequestSpans::default();
            let root = req.push(t0, "session", None, r, at(0), at(10));
            req.push(t0, "run", Some(root), r, at(1), at(7));
            req.push_folded(t0, "choose", Some(1), r, at(2), at(6), 3_000_000, 4);
            log.merge(req);
        }
        assert_eq!(log.totals("session").self_ns(), 2 * 4_000_000);
        assert_eq!(log.totals("run").self_ns(), 2 * 3_000_000);
        assert_eq!(log.totals("choose").count, 8);
        assert_eq!(log.len(), 6);
        assert_eq!(log.spans[4].parent, Some(3));
    }

    #[test]
    fn cap_keeps_totals_but_drops_spans() {
        let mut log = SpanLog::new(1);
        let t0 = log.epoch;
        log.record("a", 0, t0, t0 + Duration::from_micros(5));
        log.record("a", 1, t0, t0 + Duration::from_micros(5));
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.totals("a").busy_ns, 10_000);
    }
}
