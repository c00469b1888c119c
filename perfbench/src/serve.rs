//! `serve_hold` and `serve_churn`: an in-process reactor server driven
//! over loopback TCP by `loadgen::run`, `nproc` server threads and `nproc`
//! client connections, every caller waiting for its reply.
//!
//! * `serve_hold` holds a cava/bola/rba fleet open and decides in
//!   pipelined waves of [`PIPELINE`]; parity is sampled; no recorder.
//! * `serve_churn` is `loadgen`'s population mode at pipeline 1 with no
//!   hold — every viewer opens, streams and closes — against a server
//!   recording a CAVR log to a file, replay-verified after the timed
//!   phase.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use abr_bench::engine;
use abr_pop::PopConfig;
use abr_serve::loadgen::{self, LoadgenConfig, LoadgenReport, SessionPlan};
use abr_serve::replay::{self, Event, Recorder};
use abr_serve::server::{
    Backend, DEFAULT_POLL_MS, DEFAULT_READ_DEADLINE_MS, DEFAULT_WRITE_DEADLINE_MS,
};
use abr_serve::store::{dataset_provider, StoreConfig, VideoProvider};
use abr_serve::{BoundServer, Server, ServerConfig, StatsSnapshot};
use abr_sim::metrics::QoeConfig;
use net_trace::lte::{lte_trace, LteConfig};
use net_trace::Trace;
use vbr_video::quality::VmafModel;

use crate::ladder::{self, wave_stats, StreamSpec};
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::{median, percentile, ratio};
use crate::{nproc, out_dir, secs_since, Size};

/// The fleet's video.
pub const VIDEO: &str = "ED-youtube-h264";

/// The fleet's scheme mix, assigned round-robin.
pub const FLEET: [&str; 3] = ["cava", "bola", "rba"];

/// Decisions per flush in `serve_hold`.
pub const PIPELINE: usize = 512;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Held fleet, pipelined waves.
    Hold,
    /// Population churn at pipeline 1, recorded.
    Churn,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Hold => "serve_hold",
            Mode::Churn => "serve_churn",
        }
    }
}

/// Sessions per round: held at once (`Hold`) or viewers (`Churn`).
pub fn sessions(mode: Mode, size: Size) -> usize {
    match (mode, size) {
        (Mode::Hold, Size::Full) => 20_000,
        (Mode::Hold, Size::Tiny) => 60,
        (Mode::Churn, Size::Full) => 1200,
        (Mode::Churn, Size::Tiny) => 12,
    }
}

/// The fleet for round `round` under the run seed. `serve_churn` draws a
/// fresh population every round (so a run averages over many viewer
/// mixes); `serve_hold` holds the same fleet every round.
pub fn loadgen_config(mode: Mode, seed: u64, round: u64, size: Size) -> LoadgenConfig {
    let n = sessions(mode, size);
    let base = LoadgenConfig {
        sessions: n,
        connections: nproc(),
        seed,
        videos: vec![VIDEO.to_string()],
        schemes: FLEET.iter().map(|s| s.to_string()).collect(),
        vmaf_model: VmafModel::Tv,
        parity: true,
        faults: None,
        ..LoadgenConfig::default()
    };
    match mode {
        Mode::Hold => LoadgenConfig {
            hold: true,
            pipeline: PIPELINE,
            parity_every: (n as u64 / 32).max(1),
            population: None,
            ..base
        },
        Mode::Churn => LoadgenConfig {
            hold: false,
            pipeline: 1,
            parity_every: 4,
            population: Some(PopConfig {
                seed: seed ^ round.rotate_right(16),
                sessions: n,
                ..PopConfig::default()
            }),
            ..base
        },
    }
}

/// The server: the reactor on `nproc` threads with the default front-end
/// settings. The store admits the whole fleet at full service (its
/// default capacity of 1024 would admit most of a held fleet degraded)
/// and never idles a held session out.
pub fn server_config(mode: Mode, size: Size) -> ServerConfig {
    ServerConfig {
        backend: Backend::Reactor,
        threads: nproc(),
        queue_depth: 64,
        read_deadline_ms: DEFAULT_READ_DEADLINE_MS,
        write_deadline_ms: DEFAULT_WRITE_DEADLINE_MS,
        poll_ms: DEFAULT_POLL_MS,
        store: StoreConfig {
            capacity: sessions(mode, size).max(StoreConfig::default().capacity),
            idle_ticks: u64::MAX,
            ..StoreConfig::default()
        },
    }
}

/// A bound server with its provider and (for `Churn`) its recorder.
struct Rig {
    bound: BoundServer,
    provider: VideoProvider,
    recorder: Option<(Arc<Recorder>, PathBuf)>,
}

fn log_path(mode: Mode, seed: u64) -> PathBuf {
    out_dir().join(format!(
        "{}-{seed}-{}.cavr",
        mode.name(),
        std::process::id()
    ))
}

/// Set-up: provider warm-up (video synthesis), recorder, bind.
fn setup(
    mode: Mode,
    seed: u64,
    size: Size,
    provider: VideoProvider,
    log: Option<&mut SpanLog>,
) -> std::io::Result<Rig> {
    let t0 = Instant::now();
    if provider(VIDEO).is_none() {
        return Err(std::io::Error::other(
            "provider does not know the fleet video",
        ));
    }
    if let Some(log) = log {
        log.record("vbr-video.synth", 0, t0, Instant::now());
    }
    let recorder = match mode {
        Mode::Hold => None,
        Mode::Churn => {
            let path = log_path(mode, seed);
            let rec = Arc::new(Recorder::to_file(&path)?);
            rec.record(&Event::RunMeta {
                label: format!("perfbench {}", mode.name()),
                seed,
            });
            Some((rec, path))
        }
    };
    let bound = Server::bind_recorded(
        "127.0.0.1:0",
        server_config(mode, size),
        Arc::clone(&provider),
        recorder.as_ref().map(|(r, _)| Arc::clone(r)),
    )?;
    Ok(Rig {
        bound,
        provider,
        recorder,
    })
}

/// A running server.
struct Live {
    addr: std::net::SocketAddr,
    thread: JoinHandle<StatsSnapshot>,
    provider: VideoProvider,
    recorder: Option<(Arc<Recorder>, PathBuf)>,
}

fn start(rig: Rig) -> Live {
    let addr = rig.bound.addr();
    let bound = rig.bound;
    Live {
        addr,
        thread: std::thread::spawn(move || bound.serve()),
        provider: rig.provider,
        recorder: rig.recorder,
    }
}

/// Stop the server and return its final counters.
fn stop(live: Live, out: &mut Outcome) -> (StatsSnapshot, Option<(Arc<Recorder>, PathBuf)>) {
    if let Err(e) = loadgen::shutdown_server(live.addr) {
        out.fail(1, format!("shutdown: {e}"));
    }
    let stats = live.thread.join().unwrap_or_else(|_| {
        out.fail(1, "server thread panicked");
        StatsSnapshot::default()
    });
    (stats, live.recorder)
}

/// One round's numbers.
struct Round {
    sessions: u64,
    wall_s: f64,
    decisions_per_s: f64,
    decisions: u64,
    drive_s: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
}

/// One fleet run, checked.
fn round(
    mode: Mode,
    live: &Live,
    config: &LoadgenConfig,
    latencies: Option<&mut Vec<f64>>,
    out: &mut Outcome,
) -> Option<(Round, LoadgenReport)> {
    let epoch = Instant::now();
    let now = move || secs_since(epoch);
    let report = match loadgen::run(live.addr, config, &live.provider, &now) {
        Ok(r) => r,
        Err(e) => {
            out.fail(
                config.sessions as u64,
                format!("{}: loadgen: {e}", mode.name()),
            );
            return None;
        }
    };
    let n = report.outcomes.len() as u64;
    out.attempted += n;
    check_report(mode, config, &report, out);
    let lat = report.latencies();
    let p50_us = percentile(&lat, 50.0).unwrap_or(0.0) * 1e6;
    let p99_us = percentile(&lat, 99.0).unwrap_or(0.0) * 1e6;
    let samples = lat.len();
    if let Some(keep) = latencies {
        keep.extend(lat);
    }
    let decisions = report.decisions();
    let window = match mode {
        Mode::Hold => report.drive_wall_s,
        Mode::Churn => report.wall_time_s,
    };
    Some((
        Round {
            sessions: n,
            wall_s: report.wall_time_s,
            decisions_per_s: ratio(decisions as f64, window),
            decisions,
            drive_s: window,
            p50_us,
            p99_us,
            samples,
        },
        report,
    ))
}

/// The serving checks of one round: no errored session, no sampled
/// parity mismatch, no degraded service, no protocol error, and (hold)
/// the whole fleet held at once.
pub fn check_report(mode: Mode, config: &LoadgenConfig, report: &LoadgenReport, out: &mut Outcome) {
    let name = mode.name();
    let errors = report.errors();
    out.check(errors.is_empty(), errors.len() as u64, || {
        format!(
            "{name}: {} sessions errored; first: {:?}",
            errors.len(),
            errors.first()
        )
    });
    let mismatches = report.parity_mismatches();
    out.check(mismatches.is_empty(), mismatches.len() as u64, || {
        format!("{name}: parity broken for sessions {mismatches:?}")
    });
    let checked = report
        .outcomes
        .iter()
        .filter(|o| o.parity.is_some())
        .count();
    out.check(checked > 0, 1, || {
        format!("{name}: no session was parity-checked")
    });
    let degraded = report.degraded_sessions();
    out.check(degraded == 0, degraded as u64, || {
        format!("{name}: {degraded} sessions served degraded")
    });
    match report.server_stats {
        Some(s) => {
            out.check(s.protocol_errors == 0, s.protocol_errors, || {
                format!("{name}: {} protocol errors", s.protocol_errors)
            });
            out.check(s.degraded_opens == 0, s.degraded_opens, || {
                format!("{name}: {} degraded opens", s.degraded_opens)
            });
        }
        None => out.fail(1, format!("{name}: server stats unavailable")),
    }
    if mode == Mode::Hold {
        let want = config.sessions as u64;
        let held = report.held_sessions.unwrap_or(0);
        out.check(held == want, want.saturating_sub(held), || {
            format!("{name}: held {held} sessions at once, wanted {want}")
        });
    }
}

/// Verify a recorded log by replay, counting every divergence — and every
/// served decision the replay did not re-execute — as a failed
/// operation. Returns (decisions replayed, events, seconds the
/// verification took).
pub fn verify_log(
    path: &std::path::Path,
    provider: &VideoProvider,
    served: u64,
    out: &mut Outcome,
) -> (u64, usize, f64) {
    let log = match replay::read_log(path) {
        Ok(l) => l,
        Err(e) => {
            out.fail(served, format!("serve_churn: recorded log unreadable: {e}"));
            return (0, 0, 0.0);
        }
    };
    let events = log.len();
    let t0 = Instant::now();
    let player = replay::verify(log, Arc::clone(provider));
    let dt = secs_since(t0);
    let s = player.summary();
    out.attempted += s.decisions;
    out.check(s.divergences == 0, s.divergences as u64, || {
        format!(
            "serve_churn: replay diverged {} times; first: {:?}",
            s.divergences,
            player.first_divergence().map(|d| d.to_string())
        )
    });
    out.check(s.decisions == served, served.abs_diff(s.decisions), || {
        format!(
            "serve_churn: replay re-executed {} of {served} decisions",
            s.decisions
        )
    });
    (s.decisions, events, dt)
}

fn finish_recording(
    recorder: Option<(Arc<Recorder>, PathBuf)>,
    provider: &VideoProvider,
    stats: &StatsSnapshot,
    out: &mut Outcome,
) -> Option<(u64, usize, f64)> {
    let (rec, path) = recorder?;
    if let Err(e) = rec.finish() {
        out.fail(1, format!("serve_churn: recorder: {e}"));
    }
    let verified = verify_log(&path, provider, stats.decisions, out);
    let _ = std::fs::remove_file(&path);
    Some(verified)
}

/// The untraced run: end-to-end metrics.
pub fn run(mode: Mode, seed: u64, seconds: f64, size: Size, setups: usize, out: &mut Outcome) {
    let config = loadgen_config(mode, seed, 0, size);
    let mut setup_times = Vec::new();
    let mut rig = None;
    for _ in 0..setups.max(1) {
        drop(rig.take());
        let t0 = Instant::now();
        match setup(mode, seed, size, dataset_provider(), None) {
            Ok(r) => rig = Some(r),
            Err(e) => return out.fail(1, format!("{}: set-up: {e}", mode.name())),
        }
        setup_times.push(secs_since(t0));
    }
    out.set("setup_s", median(&setup_times));
    note_config(mode, &config, out);
    let live = start(rig.expect("at least one set-up"));

    let cpu0 = crate::report::cpu_seconds();
    let t_start = Instant::now();
    let mut rounds = Vec::new();
    // Every round's latencies, thinned to at most ~100k per round so a
    // held fleet's millions of decisions stay small.
    let mut pooled = Vec::new();
    while rounds.is_empty() || secs_since(t_start) < seconds {
        let config = loadgen_config(mode, seed, rounds.len() as u64, size);
        let mut lat = Vec::new();
        match round(mode, &live, &config, Some(&mut lat), out) {
            Some((r, _)) => rounds.push(r),
            None => break,
        }
        pooled.extend(lat.iter().step_by((lat.len() / 100_000).max(1)));
    }
    crate::cli::end_timed(out, cpu0, secs_since(t_start));
    let provider = Arc::clone(&live.provider);
    let (stats, recorder) = stop(live, out);
    finish_recording(recorder, &provider, &stats, out);

    let total = |f: fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    out.set(
        "sessions_per_s",
        ratio(total(|r| r.sessions as f64), total(|r| r.wall_s)),
    );
    out.set(
        "decisions_per_s",
        ratio(total(|r| r.decisions as f64), total(|r| r.drive_s)),
    );
    out.set(
        "decision_latency_p50_us",
        percentile(&pooled, 50.0).unwrap_or(0.0) * 1e6,
    );
    out.set(
        "decision_latency_p99_us",
        percentile(&pooled, 99.0).unwrap_or(0.0) * 1e6,
    );
    out.fact("latency_samples", pooled.len());
    let list = |f: fn(&Round) -> f64| {
        let v: Vec<String> = rounds.iter().map(|r| format!("{:.1}", f(r))).collect();
        v.join(" ")
    };
    out.fact("rounds", rounds.len());
    out.fact("round_decisions_per_s", list(|r| r.decisions_per_s));
    out.fact("round_p50_us", list(|r| r.p50_us));
    out.fact("round_p99_us", list(|r| r.p99_us));
    out.fact("latency_samples_per_round", list(|r| r.samples as f64));
    out.fact(
        "latency_definition",
        match mode {
            Mode::Hold => "round trip of the wave each decision rode in, pooled over rounds",
            Mode::Churn => "round trip of each decision, pooled over rounds",
        },
    );
}

fn note_config(mode: Mode, config: &LoadgenConfig, out: &mut Outcome) {
    out.fact("server_threads", nproc());
    out.fact("connections", config.connections);
    out.fact("pipeline", config.pipeline);
    out.fact("sessions_per_round", config.sessions);
    out.fact("parity_every", config.parity_every);
    out.fact("recorder", mode == Mode::Churn);
}

/// The trace a loadgen session streams over (the classic LTE generator,
/// or the viewer's cohort regime in population mode).
fn plan_trace(plan: &SessionPlan) -> Trace {
    match &plan.cohort {
        Some(c) => c.network.trace(plan.trace_seed),
        None => lte_trace(plan.trace_seed, &LteConfig::default()),
    }
}

/// The ladder's sample of the fleet's own sessions, evenly spaced.
fn ladder_specs(
    config: &LoadgenConfig,
    plans: &[SessionPlan],
    provider: &VideoProvider,
) -> Vec<StreamSpec> {
    let stride = plans.len().div_ceil(48).max(1);
    plans
        .iter()
        .step_by(stride)
        .filter_map(|plan| {
            let qoe = plan.cohort.map_or(QoeConfig::fcc(), |c| c.qoe_config());
            Some(StreamSpec {
                scheme: plan.scheme.clone(),
                video: provider(&plan.video)?,
                vmaf: qoe.vmaf_model,
                qoe,
                player: plan.cohort.map_or(config.player, |c| c.player_config()),
                trace: plan_trace(plan),
                control: plan.control.clone(),
            })
        })
        .collect()
}

/// The traced run: per-layer metrics.
pub fn run_traced(mode: Mode, seed: u64, seconds: f64, size: Size, out: &mut Outcome) -> SpanLog {
    let mut log = SpanLog::new(200_000);
    let builds0 = engine::video_generations() + engine::trace_generations();
    let config = loadgen_config(mode, seed, 0, size);
    note_config(mode, &config, out);
    let rig = match setup(mode, seed, size, engine::serve_provider(), Some(&mut log)) {
        Ok(r) => r,
        Err(e) => {
            out.fail(1, format!("{}: set-up: {e}", mode.name()));
            return log;
        }
    };
    let plans = loadgen::plan(&config).unwrap_or_default();
    let specs = ladder_specs(&config, &plans, &rig.provider);
    ladder::held_bytes(&specs, size, out);
    let live = start(rig);

    // Untraced and traced rounds, alternating. The serving layers are
    // traced in-process by the ladder below, so a traced round differs
    // only by the span around it.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut latencies = Vec::new();
    let mut reports = Vec::new();
    let cpu0 = crate::report::cpu_seconds();
    let t_start = Instant::now();
    'rounds: while traced.is_empty() || secs_since(t_start) < seconds {
        let config = loadgen_config(mode, seed, traced.len() as u64, size);
        let Some((r, _)) = round(mode, &live, &config, None, out) else {
            break;
        };
        plain.push(r);
        let t0 = Instant::now();
        let Some((r, report)) = round(mode, &live, &config, Some(&mut latencies), out) else {
            break 'rounds;
        };
        log.record("loadgen.round", traced.len() as u64, t0, Instant::now());
        reports.push(report);
        traced.push(r);
    }
    crate::cli::end_timed(out, cpu0, secs_since(t_start));
    let provider = Arc::clone(&live.provider);
    let (stats, recorder) = stop(live, out);
    if let Some((decisions, events, dt)) = finish_recording(recorder, &provider, &stats, out) {
        out.set(
            "abr-serve.replay.events_per_decision",
            ratio(events as f64, decisions as f64),
        );
        out.set(
            "abr-serve.replay.verify_decisions_per_s",
            ratio(decisions as f64, dt),
        );
    }
    let rate = |rs: &[Round]| median(&rs.iter().map(|r| r.decisions_per_s).collect::<Vec<_>>());
    let (untraced_rate, traced_rate) = (rate(&plain), rate(&traced));
    out.set("trace.untraced_rate", untraced_rate);
    out.set("trace.traced_rate", traced_rate);
    out.set(
        "trace.overhead_pct",
        (1.0 - ratio(traced_rate, untraced_rate)) * 100.0,
    );

    // The reactor's own counters and the client's view of the waves.
    out.set(
        "abr-serve.reactor.protocol_errors",
        stats.protocol_errors as f64,
    );
    out.set(
        "abr-serve.reactor.connections_reaped",
        stats.connections_reaped as f64,
    );
    out.set(
        "abr-serve.reactor.degraded_opens",
        stats.degraded_opens as f64,
    );
    let waves = wave_stats(&latencies);
    out.set("abr-serve.loadgen.wave_rtt_p50_ms", waves.p50_s * 1e3);
    out.set("abr-serve.loadgen.wave_rtt_p99_ms", waves.p99_s * 1e3);
    out.set("abr-serve.loadgen.slow_waves", waves.slow as f64);
    out.fact("waves", waves.waves);

    // Decisions per scheme actually served in the traced rounds.
    let mut calls = [0u64; FLEET.len()];
    for report in &reports {
        for o in &report.outcomes {
            if let Some(k) = FLEET.iter().position(|s| *s == o.plan.scheme) {
                calls[k] += o.latencies_s.len() as u64;
            }
        }
    }
    for (k, s) in FLEET.iter().enumerate() {
        out.set(&format!("choose_level_calls.{s}"), calls[k] as f64);
    }

    // The fleet's traces, generated once more and timed.
    let t0 = Instant::now();
    let traces: Vec<Trace> = plans.iter().map(plan_trace).collect();
    let corpus_ns = crate::ns_since(t0) as f64;
    out.set("net-trace.corpus_ms", corpus_ns / 1e6);
    out.set(
        "net-trace.trace_us",
        ratio(corpus_ns, traces.len() as f64) / 1e3,
    );
    out.set(
        "vbr-video.synth_ms",
        log.totals("vbr-video.synth").busy_ns as f64 / 1e6,
    );

    let ledger = ladder::run(&specs, seed, size, out);
    ledger.apply(out);

    // What the in-process ladder does not explain of a decision's wall
    // time is charged to the reactor and the kernel.
    let decisions: u64 = traced.iter().map(|r| r.decisions).sum();
    let drive_s: f64 = traced.iter().map(|r| r.drive_s).sum();
    let (wall_us, in_process_us) = match mode {
        Mode::Hold => (
            ratio(drive_s * config.connections as f64, decisions as f64) * 1e6,
            (ledger.get("abr-sim.stepper_ns")
                + ledger.in_process_ns(false, ledger.store_choose_ns()))
                / 1e3,
        ),
        Mode::Churn => {
            let epd = out
                .metrics
                .get("abr-serve.replay.events_per_decision")
                .copied()
                .unwrap_or(0.0);
            (
                ratio(latencies.iter().sum(), latencies.len() as f64) * 1e6,
                (ledger.in_process_ns(false, ledger.store_choose_ns())
                    + ledger.get("abr-serve.replay.record_ns") * epd)
                    / 1e3,
            )
        }
    };
    let residual = wall_us - in_process_us;
    out.set("abr-serve.reactor.residual_us_per_decision", residual);
    out.set(
        "trace.unattributed_pct",
        100.0 * ratio(residual.max(0.0), wall_us),
    );
    let total_decisions: u64 = calls.iter().sum();
    for (k, s) in FLEET.iter().enumerate() {
        let share = calls[k] as f64 * ledger.get(&format!("choose_level_ns.{s}")) / 1e3;
        out.set(
            &format!("choose_level_pct.{s}"),
            100.0 * ratio(share, total_decisions as f64 * wall_us),
        );
    }
    out.set(
        "bench.engine.cache_builds",
        (engine::video_generations() + engine::trace_generations() - builds0) as f64,
    );
    log
}
