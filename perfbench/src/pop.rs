//! `population`: a seeded `abr-pop` population swept in-process with CAVA
//! through `population::sweep`, on `nproc` engine workers.
//!
//! The default cohort mix — phones and TVs on LTE, FCC, 5G and satellite,
//! live viewers, seeks and abandonment — under the run's seed. A round is
//! one sweep of the whole population.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use abr_bench::engine::{self, PreparedVideo};
use abr_bench::harness::SchemeKind;
use abr_bench::population::{self, CohortSummary};
use abr_pop::{Cohort, PopConfig, Population};
use abr_serve::store::VideoHandle;
use abr_sim::metrics::evaluate;
use abr_sim::Simulator;
use vbr_video::Dataset;

use crate::ladder::{self, choose_span_name, StreamSpec, Timed};
use crate::report::Outcome;
use crate::spans::{RequestSpans, SpanLog};
use crate::stats::{median, percentile, ratio};
use crate::{nproc, secs_since, Size};

/// The population's video, as in the repository's population experiment.
pub const VIDEO: &str = "ED-youtube-h264";

/// Viewers per sweep.
pub fn viewers(size: Size) -> usize {
    match size {
        Size::Full => 15_000,
        Size::Tiny => 24,
    }
}

/// The population configuration under the run seed.
pub fn config(seed: u64, size: Size) -> PopConfig {
    PopConfig {
        seed,
        sessions: viewers(size),
        ..PopConfig::default()
    }
}

/// What one sweep produced: the canonical per-cohort CSV.
pub fn csv(summaries: &[CohortSummary]) -> String {
    population::csv_bytes(summaries)
}

fn decisions(summaries: &[CohortSummary]) -> u64 {
    summaries.iter().map(|c| c.chunks).sum()
}

/// One viewer, reduced as `population::sweep` reduces it.
struct Reduced {
    cohort: Cohort,
    watched_s: f64,
    chunks: usize,
    n_seeks: usize,
    abandoned: bool,
    startup_delay_s: f64,
    rebuffer_s: f64,
    quality: Option<(f64, f64)>,
}

#[derive(Default)]
struct Acc {
    sessions: usize,
    abandoned: usize,
    seeks: usize,
    chunks: u64,
    scored: usize,
    quality_sum: f64,
    low_pct_sum: f64,
    rebuffer_sum: f64,
    startup_sum: f64,
    watched_sum: f64,
}

/// The traced runner: the sweep rebuilt from public calls —
/// `Population::session`, `NetworkRegime::trace`, `SchemeKind::build`,
/// `Simulator::run_controlled` with a timing wrapper, and `evaluate` —
/// reduced per cohort in index order exactly as `population::sweep`
/// reduces. Returns the summaries (whose CSV must equal the sweep's) and
/// one span set per viewer.
pub fn traced_sweep(
    config: PopConfig,
    video: &PreparedVideo,
    threads: usize,
    epoch: Instant,
) -> (Vec<CohortSummary>, Vec<RequestSpans>) {
    let pop = Population::new(config);
    let choose = choose_span_name("cava");
    let per_viewer = engine::run_indexed_on(threads, pop.len(), |i| {
        let request = i as u64;
        let mut spans = RequestSpans::default();
        let t_session = Instant::now();
        let p0 = Instant::now();
        let viewer = pop.session(i);
        let p1 = Instant::now();
        let qoe = viewer.cohort.qoe_config();
        let n0 = Instant::now();
        let trace = viewer.cohort.network.trace(viewer.trace_seed);
        let n1 = Instant::now();
        let b0 = Instant::now();
        let algo = SchemeKind::Cava.build(video, qoe.vmaf_model);
        let b1 = Instant::now();
        let sim = Simulator::new(viewer.cohort.player_config());
        let mut timed = Timed::new(algo, false);
        let r0 = Instant::now();
        let result = sim.run_controlled(&mut timed, &video.manifest, &trace, &viewer.control);
        let r1 = Instant::now();
        let mut eval = None;
        let quality = if result.records.is_empty() {
            None
        } else {
            let e0 = Instant::now();
            let m = evaluate(&result, video, &video.classification, &qoe);
            eval = Some((e0, Instant::now()));
            Some((m.all_quality_mean, m.low_quality_pct))
        };
        let t_end = Instant::now();
        let root = spans.push(epoch, "session", None, request, t_session, t_end);
        spans.push(epoch, "abr-pop.session", Some(root), request, p0, p1);
        spans.push(epoch, "net-trace.trace", Some(root), request, n0, n1);
        spans.push(epoch, "abr-sim.build", Some(root), request, b0, b1);
        let run = spans.push(epoch, "abr-sim.run", Some(root), request, r0, r1);
        timed.fold_into(&mut spans, epoch, Some(run), request, choose);
        if let Some((e0, e1)) = eval {
            spans.push(epoch, "abr-sim.evaluate", Some(root), request, e0, e1);
        }
        let reduced = Reduced {
            cohort: viewer.cohort,
            watched_s: result.wall_time_s,
            chunks: result.records.len(),
            n_seeks: result.n_seeks,
            abandoned: result.abandoned,
            startup_delay_s: result.startup_delay_s,
            rebuffer_s: result.total_stall_s,
            quality,
        };
        (reduced, spans)
    });
    let mut by_cohort: BTreeMap<Cohort, Acc> = BTreeMap::new();
    let mut all_spans = Vec::with_capacity(per_viewer.len());
    for (r, s) in per_viewer {
        all_spans.push(s);
        let acc = by_cohort.entry(r.cohort).or_default();
        acc.sessions += 1;
        acc.abandoned += usize::from(r.abandoned);
        acc.seeks += r.n_seeks;
        acc.chunks += r.chunks as u64;
        if let Some((quality, low_pct)) = r.quality {
            acc.scored += 1;
            acc.quality_sum += quality;
            acc.low_pct_sum += low_pct;
        }
        acc.rebuffer_sum += r.rebuffer_s;
        acc.startup_sum += r.startup_delay_s;
        acc.watched_sum += r.watched_s;
    }
    let summaries = Cohort::all()
        .into_iter()
        .filter_map(|cohort| {
            let acc = by_cohort.get(&cohort)?;
            let n = acc.sessions as f64;
            let scored = acc.scored.max(1) as f64;
            Some(CohortSummary {
                cohort: cohort.label(),
                sessions: acc.sessions,
                abandoned: acc.abandoned,
                seeks: acc.seeks,
                chunks: acc.chunks,
                scored: acc.scored,
                mean_quality: acc.quality_sum / scored,
                low_quality_pct: acc.low_pct_sum / scored,
                mean_rebuffer_s: acc.rebuffer_sum / n,
                mean_startup_s: acc.startup_sum / n,
                mean_watched_s: acc.watched_sum / n,
            })
        })
        .collect();
    (summaries, all_spans)
}

/// The ladder's sample of the population's own viewers, evenly spaced.
fn ladder_specs(config: PopConfig, video: &PreparedVideo) -> Vec<StreamSpec> {
    let pop = Population::new(config);
    let handle = VideoHandle {
        video: Arc::new(video.video.clone()),
        manifest: Arc::new(video.manifest.clone()),
    };
    let stride = pop.len().div_ceil(48);
    (0..pop.len())
        .step_by(stride)
        .map(|i| {
            let viewer = pop.session(i);
            let qoe = viewer.cohort.qoe_config();
            StreamSpec {
                scheme: "cava".to_string(),
                video: handle.clone(),
                vmaf: qoe.vmaf_model,
                qoe,
                player: viewer.cohort.player_config(),
                trace: viewer.cohort.network.trace(viewer.trace_seed),
                control: viewer.control,
            }
        })
        .collect()
}

fn prepare(log: Option<&mut SpanLog>) -> Arc<PreparedVideo> {
    let t0 = Instant::now();
    match log {
        Some(log) => {
            let v = engine::video(VIDEO);
            log.record("vbr-video.synth", 0, t0, Instant::now());
            v
        }
        None => Arc::new(PreparedVideo::new(
            Dataset::by_name(VIDEO).expect("dataset video"),
        )),
    }
}

#[derive(Default)]
struct Rounds {
    times: Vec<f64>,
    csv: Option<String>,
    decisions: u64,
}

/// One sweep — through `population::sweep`, or the traced runner when
/// `traced` is given — checking its CSV against the series' first.
fn sweep_round(
    config: PopConfig,
    video: &PreparedVideo,
    threads: usize,
    r: &mut Rounds,
    out: &mut Outcome,
    traced: Option<&mut SpanLog>,
) {
    let t0 = Instant::now();
    let (summaries, spans) = match traced.as_deref() {
        None => (population::sweep(config, video, threads), Vec::new()),
        Some(log) => traced_sweep(config, video, threads, log.epoch),
    };
    r.times.push(secs_since(t0));
    if let Some(log) = traced {
        for s in spans {
            log.merge(s);
        }
    }
    let doc = csv(&summaries);
    r.decisions = decisions(&summaries);
    let n = config.sessions as u64;
    out.attempted += n;
    match &r.csv {
        None => r.csv = Some(doc),
        Some(first) => out.check(*first == doc, n, || {
            "population: sweep output changed between rounds".to_string()
        }),
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, size: Size, setups: usize, out: &mut Outcome) {
    let threads = nproc();
    let config = config(seed, size);
    let mut setup_times = Vec::new();
    let mut video = None;
    for _ in 0..setups.max(1) {
        let t0 = Instant::now();
        video = Some(prepare(None));
        std::hint::black_box(Population::new(config));
        setup_times.push(secs_since(t0));
    }
    let video = video.expect("at least one set-up");
    out.set("setup_s", median(&setup_times));
    out.fact("engine_threads", threads);
    out.fact("viewers", config.sessions);

    let cpu0 = crate::report::cpu_seconds();
    let t0 = Instant::now();
    let mut rounds = Rounds::default();
    while rounds.times.is_empty() || secs_since(t0) < seconds {
        sweep_round(config, &video, threads, &mut rounds, out, None);
    }
    crate::cli::end_timed(out, cpu0, secs_since(t0));
    let total_s: f64 = rounds.times.iter().sum();
    let n = rounds.times.len() as f64;
    out.set("sessions_per_s", ratio(n * config.sessions as f64, total_s));
    out.set(
        "decisions_per_s",
        ratio(n * rounds.decisions as f64, total_s),
    );
    let per_decision_us: Vec<f64> = rounds
        .times
        .iter()
        .map(|t| t * threads as f64 / rounds.decisions.max(1) as f64 * 1e6)
        .collect();
    out.set(
        "decision_latency_p50_us",
        percentile(&per_decision_us, 50.0).unwrap_or(0.0),
    );
    out.set(
        "decision_latency_p99_us",
        percentile(&per_decision_us, 99.0).unwrap_or(0.0),
    );
    out.fact("rounds", rounds.times.len());
    let per_round: Vec<String> = rounds.times.iter().map(|t| format!("{:.4}", t)).collect();
    out.fact("round_s", per_round.join(" "));
    out.fact("latency_samples", per_decision_us.len());
    out.fact(
        "latency_definition",
        "worker time per decision, one sample per round (sweep)",
    );

    // The same population on one worker, and through the traced runner,
    // must give the same CSV byte for byte.
    let n = config.sessions as u64;
    let one = csv(&population::sweep(config, &video, 1));
    out.attempted += n;
    out.check(Some(&one) == rounds.csv.as_ref(), n, || {
        "population: CSV differs between 1 and nproc workers".to_string()
    });
    let (traced, _) = traced_sweep(config, &video, threads, Instant::now());
    out.attempted += n;
    out.check(Some(&csv(&traced)) == rounds.csv.as_ref(), n, || {
        "population: sweep output differs from the traced runner's".to_string()
    });
}

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, seconds: f64, size: Size, out: &mut Outcome) -> SpanLog {
    let threads = nproc();
    let config = config(seed, size);
    let mut log = SpanLog::new(200_000);
    let builds0 = engine::video_generations() + engine::trace_generations();
    let video = prepare(Some(&mut log));
    out.fact("engine_threads", threads);
    out.fact("viewers", config.sessions);
    let specs = ladder_specs(config, &video);
    ladder::held_bytes(&specs, size, out);

    // Untraced and traced sweeps, alternating.
    let mut plain = Rounds::default();
    let mut traced = Rounds::default();
    let cpu0 = crate::report::cpu_seconds();
    let t0 = Instant::now();
    while plain.times.is_empty() || secs_since(t0) < seconds {
        sweep_round(config, &video, threads, &mut plain, out, None);
        sweep_round(config, &video, threads, &mut traced, out, Some(&mut log));
    }
    crate::cli::end_timed(out, cpu0, secs_since(t0));
    out.check(plain.csv == traced.csv, config.sessions as u64, || {
        "population: traced output differs from untraced".to_string()
    });
    let untraced_rate = ratio(config.sessions as f64, median(&plain.times));
    let traced_rate = ratio(config.sessions as f64, median(&traced.times));
    out.set("trace.untraced_rate", untraced_rate);
    out.set("trace.traced_rate", traced_rate);
    out.set(
        "trace.overhead_pct",
        (1.0 - ratio(traced_rate, untraced_rate)) * 100.0,
    );

    let t1 = Instant::now();
    let one = csv(&population::sweep(config, &video, 1));
    let w1 = secs_since(t1);
    out.attempted += config.sessions as u64;
    out.check(
        Some(&one) == plain.csv.as_ref(),
        config.sessions as u64,
        || "population: CSV differs between 1 and nproc workers".to_string(),
    );
    let wn = median(&plain.times);
    out.set(
        "bench.engine.parallel_efficiency",
        ratio(w1, threads as f64 * wn),
    );

    let session = log.totals("session");
    let run = log.totals("abr-sim.run");
    let choose = log.totals(choose_span_name("cava"));
    let per = |name: &str| {
        let t = log.totals(name);
        ratio(t.busy_ns as f64, t.count as f64) / 1e3
    };
    out.set("choose_level_calls.cava", choose.count as f64);
    out.set(
        "choose_level_pct.cava",
        100.0 * ratio(choose.busy_ns as f64, session.busy_ns as f64),
    );
    out.set(
        "abr-sim.player_self_us",
        ratio(run.self_ns() as f64, run.count as f64) / 1e3,
    );
    out.set("abr-sim.evaluate_us", per("abr-sim.evaluate"));
    out.set("abr-sim.chunks", choose.count as f64);
    out.set("abr-pop.session_us", per("abr-pop.session"));
    out.set("net-trace.trace_us", per("net-trace.trace"));
    let trace = log.totals("net-trace.trace");
    out.set(
        "net-trace.corpus_ms",
        ratio(trace.busy_ns as f64, traced.times.len() as f64) / 1e6,
    );
    let synth = log.totals("vbr-video.synth");
    out.set("vbr-video.synth_ms", synth.busy_ns as f64 / 1e6);
    let covered: u64 = [
        "abr-pop.session",
        "net-trace.trace",
        "abr-sim.build",
        "abr-sim.run",
        "abr-sim.evaluate",
    ]
    .iter()
    .map(|n| log.totals(n).busy_ns)
    .sum();
    out.set(
        "trace.unattributed_pct",
        100.0
            * ratio(
                session.busy_ns.saturating_sub(covered) as f64,
                session.busy_ns as f64,
            ),
    );

    let ledger = ladder::run(&specs, seed, size, out);
    ledger.apply(out);
    out.set(
        "bench.engine.cache_builds",
        (engine::video_generations() + engine::trace_generations() - builds0) as f64,
    );
    log
}
