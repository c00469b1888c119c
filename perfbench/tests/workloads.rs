//! The benchmark's own tests: every workload at tiny size emits every
//! metric with its unit and passes its checks on two seeds, and the checks
//! count tampered or perturbed outputs as failures.

use std::sync::Arc;
use std::time::Instant;

use abr_serve::replay::{self, encode_event, Event, MemoryLog, Recorder, REPLAY_MAGIC};
use abr_serve::store::dataset_provider;
use abr_serve::{SessionStore, StoreConfig};
use abr_sim::{PlayerConfig, SessionControl, SessionStepper, Simulator};
use net_trace::lte::{lte_trace, LteConfig};
use perfbench::cli::{self, Args, GATED, WORKLOADS};
use perfbench::report::Outcome;
use perfbench::{grid, serve, Size};

fn tiny(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
    }
}

fn assert_complete(args: &Args, out: &Outcome) {
    assert!(
        out.correct(),
        "{} (trace {}) failed its checks: {:?}",
        args.workload,
        args.trace,
        out.failures
    );
    let text = cli::render(args, out);
    let last = text.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for spec in cli::catalogue(args.trace) {
        let v = out.metrics.get(&spec.name);
        assert!(
            v.is_some_and(|v| v.is_finite()),
            "{}: {} not measured",
            args.workload,
            spec.name
        );
        let entry = format!("\"{}\": {{\"value\": ", spec.name);
        let unit = format!("\"unit\": \"{}\"}}", spec.unit);
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{} missing", spec.name));
        assert!(
            last[at..].contains(&unit),
            "{}: unit {} missing",
            spec.name,
            spec.unit
        );
    }
}

fn every_workload_passes(seed: u64) {
    for w in WORKLOADS {
        for trace in [false, true] {
            let args = tiny(w, seed, trace);
            let out = cli::execute(&args);
            assert_complete(&args, &out);
        }
    }
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    every_workload_passes(1);
}

#[test]
fn a_second_seed_passes_every_check() {
    every_workload_passes(2);
}

#[test]
fn end_to_end_times_are_positive() {
    for w in WORKLOADS {
        let args = tiny(w, 3, false);
        let out = cli::execute(&args);
        for name in [
            "sessions_per_s",
            "decisions_per_s",
            "setup_s",
            "peak_rss_mb",
        ] {
            assert!(out.metrics[name] > 0.0, "{w}: {name} is not positive");
        }
    }
}

#[test]
fn a_perturbed_expected_grid_output_is_counted_as_failed() {
    let cells = grid::setup(5, Size::Tiny, None);
    let digests: Vec<Option<u64>> = cells
        .iter()
        .map(|c| Some(grid::digest(&grid::run_cell(1, c))))
        .collect();
    let mut clean = Outcome::default();
    grid::check_against_traced(&cells, &digests, 1, &mut clean);
    assert!(clean.correct(), "{:?}", clean.failures);

    let mut perturbed = digests.clone();
    perturbed[1] = perturbed[1].map(|d| d ^ 1);
    let mut out = Outcome::default();
    grid::check_against_traced(&cells, &perturbed, 1, &mut out);
    assert!(!out.correct());
    assert_eq!(out.failed, cells[1].sessions() as u64);
}

/// A small recorded run: one CAVA session's decisions through a recorded
/// store, as its log bytes.
fn recorded_session() -> Vec<u8> {
    let provider = dataset_provider();
    let mem = MemoryLog::new();
    let recorder = Arc::new(Recorder::new(Box::new(mem.clone())).unwrap());
    let store = SessionStore::recorded(
        StoreConfig::default(),
        Arc::clone(&provider),
        Some(Arc::clone(&recorder)),
    );
    let handle = provider(serve::VIDEO).unwrap();
    store.open(1, 7, serve::VIDEO, "cava", 0).unwrap();
    let trace = lte_trace(11, &LteConfig::default());
    let sim = Simulator::new(PlayerConfig::default());
    let control = SessionControl::default();
    let mut stepper = SessionStepper::new(&sim, &handle.manifest, &trace, &control);
    while let Some(req) = stepper.next_request() {
        let level = store.decide(7, &req).unwrap().level;
        stepper.apply_level(level);
    }
    store.close(7).unwrap();
    recorder.finish().unwrap();
    mem.contents()
}

fn write_log(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn a_tampered_replay_log_is_counted_as_failed() {
    let bytes = recorded_session();
    let log = replay::decode_log(&bytes).unwrap();
    let served = log
        .events
        .iter()
        .filter(|r| matches!(r.event, Event::Decision { .. }))
        .count() as u64;
    let provider = dataset_provider();

    let clean = write_log("clean.cavr", &bytes);
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    serve::verify_log(&clean, &provider, served, &mut out);
    assert!(out.correct(), "{:?}", out.failures);

    // Flip the level of the tenth decision and re-encode the log.
    let mut tampered = REPLAY_MAGIC.to_vec();
    tampered.push(log.version);
    let mut seen = 0;
    for rec in &log.events {
        let mut event = rec.event.clone();
        if let Event::Decision { response, .. } = &mut event {
            seen += 1;
            if seen == 10 {
                response.level = if response.level == 0 { 1 } else { 0 };
            }
        }
        tampered.extend(encode_event(rec.tick, &event).unwrap());
    }
    let path = write_log("tampered.cavr", &tampered);
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    let t0 = Instant::now();
    serve::verify_log(&path, &provider, served, &mut out);
    assert!(t0.elapsed().as_secs() < 60);
    assert!(!out.correct(), "a tampered log passed verification");
    assert!(out.failed >= 1);
}

#[test]
fn a_failed_parity_check_is_counted_against_the_round() {
    use abr_serve::loadgen::{LoadgenReport, SessionOutcome, SessionPlan};
    use abr_serve::{ClientStats, StatsSnapshot};
    let config = serve::loadgen_config(serve::Mode::Churn, 1, 0, Size::Tiny);
    let outcome = |id: u64, parity: bool| SessionOutcome {
        plan: SessionPlan {
            session_id: id,
            video: serve::VIDEO.to_string(),
            scheme: "cava".to_string(),
            trace_seed: id,
            cohort: None,
            control: SessionControl::default(),
        },
        degraded: false,
        result: None,
        latencies_s: vec![1e-5],
        latency_faulted: vec![false],
        parity: Some(parity),
        closed_decisions: Some(1),
        error: None,
    };
    let report = LoadgenReport {
        outcomes: vec![outcome(1, true), outcome(2, false), outcome(3, true)],
        wall_time_s: 1.0,
        drive_wall_s: 1.0,
        held_sessions: None,
        server_stats: Some(StatsSnapshot::default()),
        client_stats: ClientStats::default(),
    };
    let mut out = Outcome {
        attempted: 3,
        ..Outcome::default()
    };
    serve::check_report(serve::Mode::Churn, &config, &report, &mut out);
    assert_eq!(out.failed, 1);
    assert!(!out.correct());
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut all = perfbench::report::end_to_end();
    all.extend(perfbench::report::per_layer());
    for spec in &all {
        let better = if spec.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            spec.name, spec.unit
        );
        assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(doc.matches("\"name\":").count(), all.len() + GATED.len());
    for w in GATED {
        assert!(
            doc.contains(&format!("\"name\": \"{w}\"")),
            "workload {w} missing"
        );
    }
}
