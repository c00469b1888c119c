// Integration tests sit outside cfg(test), so opt out of the library-only
// workspace lints here explicitly.
#![allow(clippy::unwrap_used)]

//! Golden CAVR log of the serving layer.
//!
//! A recorded reactor server carries the fleet that `scripts/check.sh`
//! records with `cava serve --threads 4 --record` plus `cava loadgen
//! --sessions 12 --connections 1 --schemes cava,bola,rba --hold true
//! --parity true --stop-server true`: one client connection keeps the
//! event order deterministic, a stats fetch and a shutdown dial close the
//! run. The recorder is primed with the same `RunMeta` as `cava serve`, so
//! the digest below is also the FNV-1a of that command's log file.
//!
//! The digest was captured before the thread-per-connection core was
//! removed, and both it and the reactor wrote exactly these bytes. Any
//! change to a frame, a store transition, a decision or the log encoding
//! fails here; the replay check then says whether the decisions moved.
//!
//! Two more fleets pin what the classic one cannot reach, both on one
//! client connection with the recorder shared by server and load
//! generator:
//!
//! - a clean `abr-pop` population in arrival mode, whose log also carries
//!   the client's `Seek` and `SessionAbandon` annotations, pinned byte for
//!   byte;
//! - a faulted hold fleet, pinned on its fault-stream projection (see
//!   [`fault_projection`]), because reconnect and retry timing makes its
//!   raw bytes vary run to run.
//!
//! Both digests were captured on the load generator that still kept a
//! serial drive next to its pipelined wave drive, before the two became
//! one slot drive; pipeline 1 of the slot drive must write the same bytes.

use abr_pop::{LifecycleConfig, PopConfig};
use abr_serve::loadgen::{self, FaultConfig, LoadgenConfig};
use abr_serve::replay::{self, decode_log, encode_event, Event, MemoryLog, Recorder};
use abr_serve::store::dataset_provider;
use abr_serve::ServerConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a of the recorded log bytes.
const GOLDEN_LOG_FNV: u64 = 0x9311_bebe_1410_18f3;

/// Length of the recorded log in bytes.
const GOLDEN_LOG_LEN: usize = 208_287;

/// FNV-1a of the population fleet's recorded log bytes.
const GOLDEN_POP_LOG_FNV: u64 = 0x066b_77d7_09e9_e358;

/// Length of the population fleet's recorded log in bytes.
const GOLDEN_POP_LOG_LEN: usize = 207_247;

/// FNV-1a of the faulted fleet's fault-stream projection.
const GOLDEN_FAULT_PROJECTION_FNV: u64 = 0x8177_1535_fabf_bad8;

/// Length of the faulted fleet's fault-stream projection in bytes.
const GOLDEN_FAULT_PROJECTION_LEN: usize = 139_512;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The classic fleet `scripts/check.sh` records.
fn classic_fleet() -> LoadgenConfig {
    LoadgenConfig {
        sessions: 12,
        connections: 1,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: true,
        parity: true,
        ..LoadgenConfig::default()
    }
}

/// A 12-viewer population in arrival mode (open, drive, close per
/// session), with abandonment and seeks common enough to show in the log.
fn population_fleet() -> LoadgenConfig {
    LoadgenConfig {
        population: Some(PopConfig {
            seed: 90,
            sessions: 12,
            lifecycle: LifecycleConfig {
                complete_fraction: 0.4,
                seek_prob: 0.7,
                ..LifecycleConfig::default()
            },
            ..PopConfig::default()
        }),
        hold: false,
        ..classic_fleet()
    }
}

/// The classic fleet under the chaos suite's fault plan.
fn faulted_fleet() -> LoadgenConfig {
    LoadgenConfig {
        faults: Some(FaultConfig {
            seed: 99,
            period: 5,
            stall_ms: 2,
            ..FaultConfig::default()
        }),
        ..classic_fleet()
    }
}

/// Record `fleet` and hand back the raw log bytes. Server and load
/// generator share one recorder, so client-side fault, seek and abandon
/// events interleave with the server's own.
fn record_fleet(fleet: &LoadgenConfig) -> Vec<u8> {
    let sink = MemoryLog::new();
    let recorder = Arc::new(Recorder::new(Box::new(sink.clone())).unwrap());
    recorder.record(&Event::RunMeta {
        label: "cava serve".to_string(),
        seed: 0,
    });
    let config = ServerConfig {
        threads: 4,
        read_deadline_ms: abr_serve::server::DEFAULT_READ_DEADLINE_MS,
        write_deadline_ms: abr_serve::server::DEFAULT_WRITE_DEADLINE_MS,
        poll_ms: abr_serve::server::DEFAULT_POLL_MS,
        ..ServerConfig::default()
    };
    let ticks = AtomicU64::new(0);
    let now = move || ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6;
    let (report, _) = loadgen::run_loopback(
        config,
        fleet,
        &dataset_provider(),
        &now,
        Some(recorder.clone()),
    )
    .unwrap();

    assert_eq!(report.errors(), vec![], "fleet sessions hit errors");
    assert!(
        report.parity_mismatches().is_empty(),
        "decision parity broke"
    );
    recorder.finish().unwrap();
    assert_eq!(recorder.io_error(), None);
    sink.contents()
}

#[test]
fn served_fleet_log_matches_golden_digest_and_replays() {
    let bytes = record_fleet(&classic_fleet());
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (GOLDEN_LOG_LEN, GOLDEN_LOG_FNV),
        "recorded CAVR log drifted from the golden fixture"
    );

    let log = decode_log(&bytes).unwrap();
    assert!(!log.truncated && log.ended(), "log must close with RunEnd");
    let player = replay::verify(log, dataset_provider());
    assert!(
        player.divergences().is_empty(),
        "replay diverged: {:?}",
        player.first_divergence()
    );
}

/// The part of a faulted log that run-to-run reconnect and retry timing
/// cannot move: the client's `FaultInjected` draws, the first-time
/// (non-retransmit) `Decision`s, and the `Seek`/`SessionAbandon`
/// annotations, in recorded order, each re-encoded with tick 0.
fn fault_projection(bytes: &[u8]) -> Vec<u8> {
    let log = decode_log(bytes).unwrap();
    let mut projection = Vec::new();
    for recorded in &log.events {
        let keep = match &recorded.event {
            Event::Decision { retransmit, .. } => !retransmit,
            Event::FaultInjected { .. } | Event::Seek { .. } | Event::SessionAbandon { .. } => true,
            _ => false,
        };
        if keep {
            projection.extend(encode_event(0, &recorded.event).unwrap());
        }
    }
    projection
}

#[test]
fn population_arrival_log_matches_golden_digest_and_replays() {
    let bytes = record_fleet(&population_fleet());
    let log = decode_log(&bytes).unwrap();
    let count = |kind: &str| log.events.iter().filter(|r| r.event.kind() == kind).count();
    // The golden pins where the client's annotations land, so make sure
    // the fleet produced some.
    assert!(count("Seek") > 0, "no viewer seeked");
    assert!(count("SessionAbandon") > 0, "no viewer abandoned");
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (GOLDEN_POP_LOG_LEN, GOLDEN_POP_LOG_FNV),
        "recorded population CAVR log drifted from the golden fixture"
    );

    assert!(!log.truncated && log.ended(), "log must close with RunEnd");
    let player = replay::verify(log, dataset_provider());
    assert!(
        player.divergences().is_empty(),
        "replay diverged: {:?}",
        player.first_divergence()
    );
}

#[test]
fn faulted_hold_fleet_projection_matches_golden_digest() {
    let bytes = record_fleet(&faulted_fleet());
    let log = decode_log(&bytes).unwrap();
    assert!(
        log.events.iter().any(|r| r.event.kind() == "FaultInjected"),
        "no fault fired"
    );
    let projection = fault_projection(&bytes);
    assert_eq!(
        (projection.len(), fnv1a(&projection)),
        (GOLDEN_FAULT_PROJECTION_LEN, GOLDEN_FAULT_PROJECTION_FNV),
        "faulted fleet's fault stream or decisions drifted from the golden fixture"
    );
}
