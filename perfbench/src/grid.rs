//! `paper_grid`: the paper's §6.3 (Fig. 8) and §6.8 (Fig. 11) scheme
//! comparison, in-process, through `engine::run_grid_on`.
//!
//! Four cells — a 2 s and a 5 s chunk video, each on an LTE and an FCC
//! corpus — each run every scheme of `FIG8 ∪ FIG11` over the cell's
//! traces. The corpora come from the run's seed; the videos are the
//! paper's dataset. A round is one cell; the engine's workers pull
//! (scheme, trace) sessions until the cell drains.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use abr_bench::engine::{self, PreparedVideo};
use abr_bench::harness::{SchemeKind, TraceSet};
use abr_serve::store::VideoHandle;
use abr_sim::metrics::{evaluate, QoeConfig, QoeMetrics};
use abr_sim::{PlayerConfig, SessionControl, Simulator};
use net_trace::fcc::{fcc_traces, FccConfig};
use net_trace::lte::{lte_traces, LteConfig};
use net_trace::Trace;
use vbr_video::Dataset;

use crate::ladder::{self, StreamSpec, Timed};
use crate::report::Outcome;
use crate::spans::{RequestSpans, SpanLog};
use crate::stats::{median, percentile, ratio};
use crate::{fnv, nproc, secs_since, Size};

/// The two dataset videos: FFmpeg's 2 s chunks and YouTube's 5 s chunks.
pub const VIDEOS: [&str; 2] = ["ED-ffmpeg-h264", "ED-youtube-h264"];

/// The two corpora of §6.1.
pub const CORPORA: [TraceSet; 2] = [TraceSet::Lte, TraceSet::Fcc];

/// `SchemeKind::FIG8 ∪ SchemeKind::FIG11`, in that order.
pub fn schemes() -> Vec<SchemeKind> {
    let mut v = SchemeKind::FIG8.to_vec();
    for s in SchemeKind::FIG11 {
        if !v.contains(&s) {
            v.push(s);
        }
    }
    v
}

/// The serving-registry name of a grid scheme (the ladder builds schemes
/// through that registry).
pub fn registry_name(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Cava => "cava",
        SchemeKind::Mpc => "mpc",
        SchemeKind::RobustMpc => "robustmpc",
        SchemeKind::PandaMaxSum => "panda-max-sum",
        SchemeKind::PandaMaxMin => "panda-max-min",
        SchemeKind::BolaEAvg => "bola-e-avg",
        SchemeKind::BolaEPeak => "bola-e-peak",
        SchemeKind::BolaESeg => "bola-e-seg",
        SchemeKind::Bola => "bola",
        SchemeKind::Rba => "rba",
        SchemeKind::CavaP1 => "cava-p1",
        SchemeKind::CavaP12 => "cava-p12",
        SchemeKind::Bba1 => "bba1",
        SchemeKind::Pia => "pia",
        SchemeKind::Festive => "festive",
    }
}

/// Traces per corpus.
pub fn traces_per_corpus(size: Size) -> usize {
    match size {
        Size::Full => 16,
        Size::Tiny => 1,
    }
}

/// One cell of the grid.
pub struct Cell {
    /// The prepared video.
    pub video: Arc<PreparedVideo>,
    /// Which corpus the traces come from.
    pub corpus: TraceSet,
    /// The corpus, shared by both videos.
    pub traces: Arc<Vec<Trace>>,
}

impl Cell {
    /// Sessions in one run of the cell.
    pub fn sessions(&self) -> usize {
        schemes().len() * self.traces.len()
    }

    /// Decisions in one run of the cell (VoD: every chunk is decided).
    pub fn decisions(&self) -> usize {
        self.sessions() * self.video.n_chunks()
    }
}

/// The corpus base seed for `set` under the run seed.
pub fn corpus_seed(seed: u64, set: TraceSet) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ set.seed()
}

fn corpus(set: TraceSet, seed: u64, n: usize) -> Vec<Trace> {
    let base = corpus_seed(seed, set);
    match set {
        TraceSet::Fcc => fcc_traces(n, base, &FccConfig::default()),
        _ => lte_traces(n, base, &LteConfig::default()),
    }
}

/// Build the four cells. With `log`, videos come through the engine's
/// cache and every synthesis and corpus generation is recorded as a span.
pub fn setup(seed: u64, size: Size, mut log: Option<&mut SpanLog>) -> Vec<Cell> {
    let n = traces_per_corpus(size);
    let videos: Vec<Arc<PreparedVideo>> = VIDEOS
        .iter()
        .map(|name| {
            let t0 = Instant::now();
            let v = if log.is_some() {
                engine::video(name)
            } else {
                Arc::new(PreparedVideo::new(
                    Dataset::by_name(name).expect("dataset video"),
                ))
            };
            if let Some(log) = log.as_deref_mut() {
                log.record("vbr-video.synth", 0, t0, Instant::now());
            }
            v
        })
        .collect();
    let corpora: Vec<Arc<Vec<Trace>>> = CORPORA
        .iter()
        .map(|&set| {
            let t0 = Instant::now();
            let c = Arc::new(corpus(set, seed, n));
            if let Some(log) = log.as_deref_mut() {
                log.record("net-trace.corpus", c.len() as u64, t0, Instant::now());
            }
            c
        })
        .collect();
    let mut cells = Vec::new();
    for v in &videos {
        for (k, &set) in CORPORA.iter().enumerate() {
            cells.push(Cell {
                video: Arc::clone(v),
                corpus: set,
                traces: Arc::clone(&corpora[k]),
            });
        }
    }
    cells
}

/// The digest the checks compare: every metric of every session, in the
/// grid's ordered (scheme, trace) layout, at full float precision.
pub fn digest(grid: &BTreeMap<SchemeKind, Vec<QoeMetrics>>) -> u64 {
    fnv(format!("{grid:?}").as_bytes())
}

/// The untraced runner: one cell through `engine::run_grid_on`.
pub fn run_cell(threads: usize, cell: &Cell) -> BTreeMap<SchemeKind, Vec<QoeMetrics>> {
    let qoe = cell.corpus.qoe_config();
    engine::run_grid_on(
        threads,
        &schemes(),
        &cell.video,
        &cell.traces,
        &qoe,
        &PlayerConfig::default(),
    )
}

/// The traced runner: the same cell rebuilt from public calls —
/// `SchemeKind::build`, `Simulator::run` with a timing wrapper around the
/// algorithm, and `evaluate` — on the engine's scheduler. Returns the
/// grid (which must equal [`run_cell`]'s) and one span set per session.
pub fn traced_cell(
    threads: usize,
    cell: &Cell,
    epoch: Instant,
    first_request: u64,
) -> (BTreeMap<SchemeKind, Vec<QoeMetrics>>, Vec<RequestSpans>) {
    let schemes = schemes();
    let qoe: QoeConfig = cell.corpus.qoe_config();
    let sim = Simulator::new(PlayerConfig::default());
    let per = cell.traces.len();
    let video = &cell.video;
    let flat = engine::run_indexed_on(threads, schemes.len() * per, |i| {
        let request = first_request + i as u64;
        let mut spans = RequestSpans::default();
        let t_session = Instant::now();
        let scheme = schemes[i / per];
        let trace = &cell.traces[i % per];
        let b0 = Instant::now();
        let algo = scheme.build(video, qoe.vmaf_model);
        let b1 = Instant::now();
        let mut timed = Timed::new(algo, false);
        let r0 = Instant::now();
        let session = sim.run(&mut timed, &video.manifest, trace);
        let r1 = Instant::now();
        let e0 = Instant::now();
        let metrics = evaluate(&session, video, &video.classification, &qoe);
        let e1 = Instant::now();
        let t_end = Instant::now();
        let root = spans.push(epoch, "session", None, request, t_session, t_end);
        spans.push(epoch, "abr-sim.build", Some(root), request, b0, b1);
        let run = spans.push(epoch, "abr-sim.run", Some(root), request, r0, r1);
        timed.fold_into(&mut spans, epoch, Some(run), request, choose_span(scheme));
        spans.push(epoch, "abr-sim.evaluate", Some(root), request, e0, e1);
        (metrics, spans)
    });
    let mut out = BTreeMap::new();
    let mut all_spans = Vec::with_capacity(flat.len());
    let mut metrics = Vec::with_capacity(flat.len());
    for (m, s) in flat {
        metrics.push(m);
        all_spans.push(s);
    }
    for (k, scheme) in schemes.iter().enumerate() {
        out.insert(*scheme, metrics[k * per..(k + 1) * per].to_vec());
    }
    (out, all_spans)
}

/// The ladder's sample of the grid's own sessions: trace 0 of every
/// (cell, scheme).
fn ladder_specs(cells: &[Cell]) -> Vec<StreamSpec> {
    let mut specs = Vec::new();
    for cell in cells {
        let handle = VideoHandle {
            video: Arc::new(cell.video.video.clone()),
            manifest: Arc::new(cell.video.manifest.clone()),
        };
        let qoe = cell.corpus.qoe_config();
        for kind in schemes() {
            specs.push(StreamSpec {
                scheme: registry_name(kind).to_string(),
                video: handle.clone(),
                vmaf: qoe.vmaf_model,
                qoe,
                player: PlayerConfig::default(),
                trace: cell.traces[0].clone(),
                control: SessionControl::default(),
            });
        }
    }
    specs
}

/// Span name of a scheme's folded `choose_level` calls.
pub fn choose_span(kind: SchemeKind) -> &'static str {
    ladder::choose_span_name(registry_name(kind))
}

/// Per-cell timings and output digests of a series of passes.
struct Rounds {
    times: Vec<Vec<f64>>,
    digests: Vec<Option<u64>>,
    per_decision_us: Vec<f64>,
    rounds: usize,
}

impl Rounds {
    fn new(cells: usize) -> Rounds {
        Rounds {
            times: vec![Vec::new(); cells],
            digests: vec![None; cells],
            per_decision_us: Vec::new(),
            rounds: 0,
        }
    }
}

/// Run `cell` once — through the engine, or through the traced runner
/// when `traced` is given — checking its output against the cell's first.
fn round(
    c: usize,
    cell: &Cell,
    threads: usize,
    r: &mut Rounds,
    out: &mut Outcome,
    traced: Option<&mut SpanLog>,
) {
    let t0 = Instant::now();
    let (grid, spans) = match traced.as_deref() {
        None => (run_cell(threads, cell), Vec::new()),
        Some(log) => traced_cell(threads, cell, log.epoch, (r.rounds * 100_000) as u64),
    };
    let dt = secs_since(t0);
    if let Some(log) = traced {
        for s in spans {
            log.merge(s);
        }
    }
    let d = digest(&grid);
    let sessions = cell.sessions() as u64;
    out.attempted += sessions;
    match r.digests[c] {
        None => r.digests[c] = Some(d),
        Some(first) => out.check(d == first, sessions, || {
            format!("paper_grid: cell {c} output changed between rounds")
        }),
    }
    r.times[c].push(dt);
    r.per_decision_us
        .push(dt * threads as f64 / cell.decisions() as f64 * 1e6);
    r.rounds += 1;
}

/// Sessions and decisions per second over one pass, from each cell's
/// median round time.
fn pass_rates(cells: &[Cell], times: &[Vec<f64>]) -> (f64, f64) {
    let pass_s: f64 = times.iter().map(|t| median(t)).sum();
    let sessions: usize = cells.iter().map(Cell::sessions).sum();
    let decisions: usize = cells.iter().map(Cell::decisions).sum();
    (
        ratio(sessions as f64, pass_s),
        ratio(decisions as f64, pass_s),
    )
}

/// Check the untraced digests against the traced runner's, cell by cell;
/// a mismatch fails every session of the cell.
pub fn check_against_traced(
    cells: &[Cell],
    digests: &[Option<u64>],
    threads: usize,
    out: &mut Outcome,
) {
    let epoch = Instant::now();
    for (c, cell) in cells.iter().enumerate() {
        let (grid, _) = traced_cell(threads, cell, epoch, 0);
        let sessions = cell.sessions() as u64;
        out.attempted += sessions;
        out.check(Some(digest(&grid)) == digests[c], sessions, || {
            format!("paper_grid: cell {c}: engine output differs from the traced runner's")
        });
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, size: Size, setups: usize, out: &mut Outcome) {
    let threads = nproc();
    let mut setup_times = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..setups.max(1) {
        let t0 = Instant::now();
        cells = setup(seed, size, None);
        setup_times.push(secs_since(t0));
    }
    out.set("setup_s", median(&setup_times));
    out.fact("engine_threads", threads);
    out.fact("traces_per_corpus", traces_per_corpus(size));
    out.fact("schemes", schemes().len());

    let cpu0 = crate::report::cpu_seconds();
    let t0 = Instant::now();
    let mut rounds = Rounds::new(cells.len());
    while rounds.rounds < cells.len() || secs_since(t0) < seconds {
        let c = rounds.rounds % cells.len();
        round(c, &cells[c], threads, &mut rounds, out, None);
    }
    crate::cli::end_timed(out, cpu0, secs_since(t0));
    let (sessions_per_s, decisions_per_s) = pass_rates(&cells, &rounds.times);
    out.set("sessions_per_s", sessions_per_s);
    out.set("decisions_per_s", decisions_per_s);
    out.set(
        "decision_latency_p50_us",
        percentile(&rounds.per_decision_us, 50.0).unwrap_or(0.0),
    );
    out.set(
        "decision_latency_p99_us",
        percentile(&rounds.per_decision_us, 99.0).unwrap_or(0.0),
    );
    out.fact("rounds", rounds.rounds);
    out.fact("latency_samples", rounds.per_decision_us.len());
    out.fact(
        "latency_definition",
        "worker time per decision, one sample per round (cell)",
    );
    check_against_traced(&cells, &rounds.digests, threads, out);
}

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, seconds: f64, size: Size, out: &mut Outcome) -> SpanLog {
    let threads = nproc();
    let mut log = SpanLog::new(200_000);
    let builds0 = engine::video_generations() + engine::trace_generations();
    let cells = setup(seed, size, Some(&mut log));
    out.fact("engine_threads", threads);
    let specs = ladder_specs(&cells);
    ladder::held_bytes(&specs, size, out);

    // Untraced and traced passes, alternating.
    let mut plain = Rounds::new(cells.len());
    let mut traced = Rounds::new(cells.len());
    let cpu0 = crate::report::cpu_seconds();
    let t0 = Instant::now();
    while plain.rounds < cells.len() || secs_since(t0) < seconds {
        let c = plain.rounds % cells.len();
        round(c, &cells[c], threads, &mut plain, out, None);
        round(c, &cells[c], threads, &mut traced, out, Some(&mut log));
    }
    crate::cli::end_timed(out, cpu0, secs_since(t0));
    for (c, cell) in cells.iter().enumerate() {
        out.check(
            plain.digests[c] == traced.digests[c],
            cell.sessions() as u64,
            || format!("paper_grid: cell {c}: traced output differs from untraced"),
        );
    }
    let (untraced_rate, _) = pass_rates(&cells, &plain.times);
    let (traced_rate, _) = pass_rates(&cells, &traced.times);
    out.set("trace.untraced_rate", untraced_rate);
    out.set("trace.traced_rate", traced_rate);
    out.set(
        "trace.overhead_pct",
        (1.0 - ratio(traced_rate, untraced_rate)) * 100.0,
    );

    // Parallel efficiency on the cheapest cell: 1 worker against nproc.
    let cheap = cells
        .iter()
        .min_by_key(|c| c.decisions())
        .expect("four cells");
    let t1 = Instant::now();
    let one = run_cell(1, cheap);
    let w1 = secs_since(t1);
    let tn = Instant::now();
    let many = run_cell(threads, cheap);
    let wn = secs_since(tn);
    out.check(
        digest(&one) == digest(&many),
        cheap.sessions() as u64,
        || "paper_grid: output differs between 1 and nproc workers".to_string(),
    );
    out.attempted += 2 * cheap.sessions() as u64;
    out.set(
        "bench.engine.parallel_efficiency",
        ratio(w1, threads as f64 * wn),
    );

    // Ledger from the spans.
    let session = log.totals("session");
    let mut choose_ns = 0u64;
    let mut calls = 0u64;
    for kind in schemes() {
        let t = log.totals(choose_span(kind));
        choose_ns += t.busy_ns;
        calls += t.count;
        let name = registry_name(kind);
        out.set(&format!("choose_level_calls.{name}"), t.count as f64);
        out.set(
            &format!("choose_level_pct.{name}"),
            100.0 * ratio(t.busy_ns as f64, session.busy_ns as f64),
        );
    }
    let run = log.totals("abr-sim.run");
    let eval = log.totals("abr-sim.evaluate");
    let build = log.totals("abr-sim.build");
    out.set(
        "abr-sim.player_self_us",
        ratio(
            run.busy_ns.saturating_sub(choose_ns) as f64,
            run.count as f64,
        ) / 1e3,
    );
    out.set(
        "abr-sim.evaluate_us",
        ratio(eval.busy_ns as f64, eval.count as f64) / 1e3,
    );
    out.set("abr-sim.chunks", calls as f64);
    let covered = build.busy_ns + run.busy_ns + eval.busy_ns;
    out.set(
        "trace.unattributed_pct",
        100.0
            * ratio(
                session.busy_ns.saturating_sub(covered) as f64,
                session.busy_ns as f64,
            ),
    );
    let synth = log.totals("vbr-video.synth");
    out.set(
        "vbr-video.synth_ms",
        ratio(synth.busy_ns as f64, synth.count as f64) / 1e6,
    );
    let corp = log.totals("net-trace.corpus");
    out.set(
        "net-trace.corpus_ms",
        ratio(corp.busy_ns as f64, corp.count as f64) / 1e6,
    );
    let n_traces = traces_per_corpus(size) as f64;
    out.set(
        "net-trace.trace_us",
        ratio(corp.busy_ns as f64, corp.count as f64 * n_traces) / 1e3,
    );

    let ledger = ladder::run(&specs, seed, size, out);
    ledger.apply(out);
    out.set(
        "bench.engine.cache_builds",
        (engine::video_generations() + engine::trace_generations() - builds0) as f64,
    );
    log
}
