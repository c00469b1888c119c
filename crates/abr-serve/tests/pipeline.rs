//! Pipeline equivalence: the width of the load generator's window must be
//! a pure optimization. Same fleet, same seeds — pipelined decisions,
//! serial decisions, one connection or eight, held or arriving — every
//! session record comes back byte-identical, because sessions are
//! independent and the server's per-session state machine never sees the
//! difference.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_serve::loadgen::{self, LoadgenConfig, LoadgenReport};
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::ServerConfig;
use std::sync::atomic::{AtomicU64, Ordering};

fn tick_clock() -> impl Fn() -> f64 + Sync {
    let ticks = AtomicU64::new(0);
    move || ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6
}

fn server_config() -> ServerConfig {
    ServerConfig {
        threads: 8,
        read_deadline_ms: 5_000,
        write_deadline_ms: 5_000,
        poll_ms: 10,
        store: StoreConfig {
            capacity: 4096,
            idle_ticks: u64::MAX,
            orphan_grace_ticks: 1_000_000,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn run_fleet(connections: usize, pipeline: usize, hold: bool) -> LoadgenReport {
    let config = LoadgenConfig {
        sessions: 24,
        connections,
        seed: 4242,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold,
        parity: true,
        pipeline,
        ..LoadgenConfig::default()
    };
    let now = tick_clock();
    let (report, _) =
        loadgen::run_loopback(server_config(), &config, &dataset_provider(), &now, None).unwrap();
    assert_eq!(report.errors(), vec![], "fleet hit errors");
    assert_eq!(report.parity_mismatches(), vec![], "parity broken");
    report
}

fn assert_same_sessions(a: &LoadgenReport, b: &LoadgenReport, label: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.plan, ob.plan, "{label}: plans diverged");
        assert_eq!(
            oa.result, ob.result,
            "{label}: session {} record diverged",
            oa.plan.session_id
        );
        assert_eq!(
            oa.closed_decisions, ob.closed_decisions,
            "{label}: session {} decision count diverged",
            oa.plan.session_id
        );
    }
}

#[test]
fn pipeline_drive_matches_serial_byte_for_byte() {
    for hold in [true, false] {
        let serial = run_fleet(3, 1, hold);
        let pipelined = run_fleet(3, 16, hold);
        let label = format!("pipeline 16 vs serial, hold {hold}");
        assert_same_sessions(&serial, &pipelined, &label);
        // The server served the same decisions either way.
        assert_eq!(serial.decisions(), pipelined.decisions(), "{label}");
        for o in &pipelined.outcomes {
            assert_eq!(o.closed_decisions, Some(o.latencies_s.len() as u64));
            assert_eq!(o.latencies_s.len(), o.latency_faulted.len());
            assert!(o.latency_faulted.iter().all(|&f| !f), "clean run faulted");
        }
        // The hold sample saw the whole fleet held at once; arrival mode
        // has no hold point to sample.
        let held = if hold { Some(24) } else { None };
        assert_eq!(pipelined.held_sessions, held, "{label}");
        assert!(pipelined.drive_wall_s > 0.0);
    }
}

#[test]
fn connection_striping_does_not_change_results() {
    let one = run_fleet(1, 8, true);
    let eight = run_fleet(8, 8, true);
    assert_same_sessions(&one, &eight, "1 vs 8 connections");
}

#[test]
fn arrival_mode_keeps_at_most_one_window_open_per_connection() {
    // Arrival mode opens a session when a slot takes it and closes it
    // when it ends, so a connection never has more than `pipeline`
    // sessions open: 2 connections × 4 slots, not the whole fleet of 24.
    let report = run_fleet(2, 4, false);
    let peak = report.server_stats.unwrap().peak_sessions;
    assert!(peak <= 8, "arrival fleet peaked at {peak} open sessions");
}
