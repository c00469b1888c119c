//! The metric catalogue, host facts and the result line.
//!
//! [`END_TO_END`] and [`per_layer`] are the single source of every metric
//! name and unit; `BENCHMARK.json` at the repository root lists the same
//! set (a test keeps the two equal).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One catalogue entry: name, unit, and which direction is better.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when higher values are better.
    pub higher_is_better: bool,
}

fn spec(name: &str, unit: &'static str, higher_is_better: bool) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        higher_is_better,
    }
}

/// The six end-to-end metrics every untraced run prints.
pub const END_TO_END: [(&str, &str, bool); 6] = [
    ("sessions_per_s", "sessions/s", true),
    ("decisions_per_s", "decisions/s", true),
    ("decision_latency_p50_us", "us", false),
    ("decision_latency_p99_us", "us", false),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MiB", false),
];

/// The end-to-end catalogue as [`MetricSpec`]s.
pub fn end_to_end() -> Vec<MetricSpec> {
    END_TO_END.iter().map(|&(n, u, h)| spec(n, u, h)).collect()
}

/// Scheme keys of the `choose_level_*` metrics: every scheme any
/// workload runs, by its serving-registry name.
pub const SCHEMES: [&str; 10] = [
    "cava",
    "mpc",
    "robustmpc",
    "panda-max-sum",
    "panda-max-min",
    "bola-e-avg",
    "bola-e-peak",
    "bola-e-seg",
    "bola",
    "rba",
];

/// The per-layer catalogue every traced run prints.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut out = vec![
        spec("vbr-video.synth_ms", "ms", false),
        spec("net-trace.corpus_ms", "ms", false),
        spec("net-trace.trace_us", "us", false),
        spec("abr-pop.session_us", "us", false),
        spec("abr-sim.player_self_us", "us", false),
        spec("abr-sim.evaluate_us", "us", false),
        spec("abr-sim.chunks", "count", true),
        spec("abr-sim.stepper_ns", "ns", false),
    ];
    for s in SCHEMES {
        out.push(spec(&format!("choose_level_ns.{s}"), "ns", false));
        out.push(spec(&format!("choose_level_calls.{s}"), "count", true));
        out.push(spec(&format!("choose_level_pct.{s}"), "%", false));
    }
    out.extend([
        spec("abr-serve.protocol.encode_ns", "ns", false),
        spec("abr-serve.protocol.decode_ns", "ns", false),
        spec("abr-serve.protocol.bytes_per_decision", "B", false),
        spec("abr-serve.store.decide_ns", "ns", false),
        spec("abr-serve.store.decide_self_ns", "ns", false),
        spec("abr-serve.store.decide_ns_contended", "ns", false),
        spec("abr-serve.store.open_us", "us", false),
        spec("abr-serve.store.close_us", "us", false),
        spec("abr-serve.store.bytes_per_held_session", "B", false),
        spec("abr-serve.replay.record_ns", "ns", false),
        spec("abr-serve.replay.events_per_decision", "count", false),
        spec(
            "abr-serve.replay.verify_decisions_per_s",
            "decisions/s",
            true,
        ),
        spec("abr-serve.reactor.residual_us_per_decision", "us", false),
        spec("abr-serve.reactor.protocol_errors", "count", false),
        spec("abr-serve.reactor.connections_reaped", "count", false),
        spec("abr-serve.reactor.degraded_opens", "count", false),
        spec("abr-serve.loadgen.wave_rtt_p50_ms", "ms", false),
        spec("abr-serve.loadgen.wave_rtt_p99_ms", "ms", false),
        spec("abr-serve.loadgen.slow_waves", "count", false),
        spec("bench.engine.parallel_efficiency", "ratio", true),
        spec("bench.engine.cache_builds", "count", false),
        spec("trace.untraced_rate", "ops/s", true),
        spec("trace.traced_rate", "ops/s", true),
        spec("trace.overhead_pct", "%", false),
        spec("trace.unattributed_pct", "%", false),
    ]);
    out
}

/// Everything one run produces: the checks' verdict, the operation
/// counts, the metrics and the run facts.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sessions, plus decisions where a log is
    /// replayed).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Run facts (host, configuration), printed before the result line.
    pub facts: BTreeMap<String, String>,
}

impl Outcome {
    /// Record a failed check that affects `ops` operations (at least one
    /// is always counted).
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops.max(1);
        self.failures.push(why.into());
    }

    /// Check `ok`; on failure count `ops` failed operations.
    pub fn check(&mut self, ok: bool, ops: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, why());
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Set a fact.
    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.insert(name.to_string(), value.to_string());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// catalogue's metrics (every one of `catalogue`, 0 where a run could
    /// not measure it — which only happens alongside a failed check).
    pub fn result_json(&self, catalogue: &[MetricSpec]) -> String {
        let mut m = String::new();
        for (i, s) in catalogue.iter().enumerate() {
            let v = self.metrics.get(&s.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&s.name),
                json_num(v),
                json_str(s.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The facts as one JSON object.
    pub fn facts_json(&self) -> String {
        let body: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{\"facts\": {{{}}}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn json_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set size of this process, bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS:") * 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks. The command
    // name (field 2) may contain spaces, so split after its closing paren.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Size of the last-level cache in bytes, when the host reports it.
pub fn llc_bytes() -> Option<u64> {
    (0..8).rev().find_map(|i| {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let s = std::fs::read_to_string(path).ok()?;
        let s = s.trim();
        let (num, mult) = match s.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match s.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (s, 1),
            },
        };
        num.parse::<u64>().ok().map(|n| n * mult)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut all: Vec<MetricSpec> = end_to_end();
        all.extend(per_layer());
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        for s in &all {
            assert!(s.name.len() <= 64);
            assert!(s.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(s.unit.len() <= 16);
            assert!(s
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        let line = o.result_json(&end_to_end());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        o.fail(2, "x");
        assert!(o.result_json(&end_to_end()).contains("\"correct\": false"));
    }
}
