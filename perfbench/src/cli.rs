//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Progress goes to stderr. Stdout carries one `name = value unit` line
//! per metric, one JSON line of run facts, and — last — the JSON result
//! line `{"correct", "attempted", "failed", "metrics"}`.

use crate::report::{self, MetricSpec, Outcome};
use crate::serve::Mode;
use crate::{grid, nproc, out_dir, pop, serve, Size};

/// Every workload the command runs.
pub const WORKLOADS: [&str; 4] = ["paper_grid", "population", "serve_hold", "serve_churn"];

/// The workloads `BENCHMARK.json` lists, whose end-to-end metrics are
/// held to their bounds. `serve_churn` and `serve_hold` run on demand
/// only: their figures spread wider than a bound can hold on a shared host
/// (see `README.md`).
pub const GATED: [&str; 2] = ["paper_grid", "population"];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Input size: always `Full` from the command line; the benchmark's
    /// own tests run `Tiny`.
    pub size: Size,
}

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => a.workload = value.to_string(),
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                a.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (known: {})",
            a.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Close a timed phase that started at `cpu0` CPU seconds and lasted
/// `wall` seconds: record the process CPU utilisation and the peak RSS
/// (the post-run checks that follow do not count toward it).
pub fn end_timed(out: &mut Outcome, cpu0: f64, wall: f64) {
    out.set("peak_rss_mb", report::peak_rss_mb());
    let used = report::cpu_seconds() - cpu0;
    let util = used / (wall * nproc() as f64).max(f64::MIN_POSITIVE);
    out.fact("cpu_utilisation", format!("{util:.3}"));
    out.fact("timed_wall_s", format!("{wall:.3}"));
}

/// Run one workload and return its outcome.
pub fn execute(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.fact("workload", &args.workload);
    out.fact("seed", args.seed);
    out.fact("seconds", args.seconds);
    out.fact("trace", u8::from(args.trace));
    out.fact("nproc", nproc());
    out.fact("rustc", env!("PERFBENCH_RUSTC"));
    out.fact("git_commit", env!("PERFBENCH_GIT"));
    if let Some(llc) = report::llc_bytes() {
        out.fact("llc_bytes", llc);
    }
    let (seed, secs, size) = (args.seed, args.seconds, args.size);
    let setups = match size {
        Size::Full => SETUPS,
        Size::Tiny => 2,
    };
    if args.trace {
        let log = match args.workload.as_str() {
            "paper_grid" => grid::run_traced(seed, secs, size, &mut out),
            "population" => pop::run_traced(seed, secs, size, &mut out),
            "serve_hold" => serve::run_traced(Mode::Hold, seed, secs, size, &mut out),
            _ => serve::run_traced(Mode::Churn, seed, secs, size, &mut out),
        };
        let path = out_dir().join(format!("spans-{}.tsv", args.workload));
        match log.write_tsv(&path) {
            Ok(()) => out.fact("spans_file", path.display()),
            Err(e) => out.fail(1, format!("writing spans: {e}")),
        }
        out.fact("spans_kept", log.len());
        out.fact("spans_dropped", log.dropped());
    } else {
        match args.workload.as_str() {
            "paper_grid" => grid::run(seed, secs, size, setups, &mut out),
            "population" => pop::run(seed, secs, size, setups, &mut out),
            "serve_hold" => serve::run(Mode::Hold, seed, secs, size, setups, &mut out),
            _ => serve::run(Mode::Churn, seed, secs, size, setups, &mut out),
        }
    }
    out
}

/// The catalogue a run prints.
pub fn catalogue(trace: bool) -> Vec<MetricSpec> {
    if trace {
        report::per_layer()
    } else {
        report::end_to_end()
    }
}

/// The full stdout of a run, result line last.
pub fn render(args: &Args, out: &Outcome) -> String {
    let cat = catalogue(args.trace);
    let mut s = String::new();
    for spec in &cat {
        let v = out.metrics.get(&spec.name).copied().unwrap_or(0.0);
        s.push_str(&format!(
            "{} = {} {}\n",
            spec.name,
            report::json_num(v),
            spec.unit
        ));
    }
    s.push_str(&out.facts_json());
    s.push('\n');
    s.push_str(&out.result_json(&cat));
    s.push('\n');
    s
}

/// Entry point: parse, run, print. Returns the process exit code.
pub fn main_with(args: &[String]) -> i32 {
    let args = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {}s (trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = execute(&args);
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    print!("{}", render(&args, &out));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv(
            "--workload serve_hold --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_hold");
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert_eq!(a.size, Size::Full);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload population --trace 2")).is_err());
        assert!(parse(&argv("--workload population --seconds 0")).is_err());
        assert!(parse(&argv("--workload population --seed")).is_err());
    }
}
