//! Population-driven load generation: a seeded `abr-pop` fleet — diurnal
//! arrival order, per-cohort network regimes and player configs, viewer
//! seeks and abandonment — drives real sockets, keeps decision parity on
//! truncated and seek-torn sessions, and is byte-identical run to run even
//! under deterministic fault injection.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_pop::{LifecycleConfig, PopConfig};
use abr_serve::loadgen::{self, FaultConfig, LoadgenConfig};
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::ServerConfig;
use std::sync::atomic::{AtomicU64, Ordering};

fn tick_clock() -> impl Fn() -> f64 + Sync {
    let ticks = AtomicU64::new(0);
    move || ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6
}

fn pop_server_config() -> ServerConfig {
    ServerConfig {
        threads: 4,
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

/// A small population with plenty of behaviour in it: abandonment biased
/// high and seeks near-certain, so the assertions below can demand both.
fn pop_config(sessions: usize) -> PopConfig {
    PopConfig {
        seed: 90,
        sessions,
        lifecycle: LifecycleConfig {
            complete_fraction: 0.4,
            seek_prob: 0.7,
            ..LifecycleConfig::default()
        },
        ..PopConfig::default()
    }
}

fn pop_loadgen_config(sessions: usize, faults: Option<FaultConfig>) -> LoadgenConfig {
    LoadgenConfig {
        population: Some(pop_config(sessions)),
        connections: 3,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        // Arrival semantics: open → drive → close per session, in diurnal
        // order, so abandons really close sockets early.
        hold: false,
        parity: true,
        faults,
        ..LoadgenConfig::default()
    }
}

#[test]
fn population_fleet_keeps_parity_with_seeks_and_abandons() {
    let config = pop_loadgen_config(24, None);
    let now = tick_clock();
    let (report, stats) = loadgen::run_loopback(
        pop_server_config(),
        &config,
        &dataset_provider(),
        &now,
        None,
    )
    .unwrap();

    assert_eq!(report.outcomes.len(), 24);
    assert_eq!(report.errors(), vec![], "sessions hit errors");
    assert_eq!(report.parity_mismatches(), vec![], "parity broken");
    assert!(report.outcomes.iter().all(|o| o.parity == Some(true)));

    // The population behaviour actually expressed itself over the wire.
    let abandoned = report
        .outcomes
        .iter()
        .filter(|o| o.result.as_ref().is_some_and(|r| r.abandoned))
        .count();
    let seeks: usize = report
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().map(|r| r.n_seeks))
        .sum();
    assert!(abandoned > 0, "no viewer abandoned");
    assert!(seeks > 0, "no viewer seeked");

    // Every session — abandoned or not — opened and closed cleanly.
    assert_eq!(stats.open_sessions, 0);
    assert_eq!(stats.sessions_opened, 24);
    assert_eq!(stats.sessions_closed, 24);
}

#[test]
fn population_fleet_is_deterministic_under_faults() {
    let mut reports = Vec::new();
    for _ in 0..2 {
        let config = pop_loadgen_config(
            18,
            Some(FaultConfig {
                seed: 5,
                period: 6,
                stall_ms: 1,
                ..FaultConfig::default()
            }),
        );
        let now = tick_clock();
        let (report, _) = loadgen::run_loopback(
            pop_server_config(),
            &config,
            &dataset_provider(),
            &now,
            None,
        )
        .unwrap();
        assert_eq!(report.errors(), vec![]);
        assert_eq!(report.parity_mismatches(), vec![]);
        reports.push(report);
    }
    let (a, b) = (&reports[0], &reports[1]);
    assert!(
        a.client_stats.faults_injected() > 0,
        "no faults fired: {:?}",
        a.client_stats
    );
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.plan, ob.plan);
        assert_eq!(
            oa.result, ob.result,
            "population session {} diverged across identical runs",
            oa.plan.session_id
        );
    }
}
