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

use abr_serve::loadgen::{self, LoadgenConfig};
use abr_serve::replay::{self, decode_log, Event, MemoryLog, Recorder};
use abr_serve::store::dataset_provider;
use abr_serve::{Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// FNV-1a of the recorded log bytes.
const GOLDEN_LOG_FNV: u64 = 0x9311_bebe_1410_18f3;

/// Length of the recorded log in bytes.
const GOLDEN_LOG_LEN: usize = 208_287;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Record the fleet and hand back the raw log bytes.
fn record_fleet() -> Vec<u8> {
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
    let bound = Server::bind_recorded(
        "127.0.0.1:0",
        config,
        dataset_provider(),
        Some(recorder.clone()),
    )
    .unwrap();
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    let fleet = LoadgenConfig {
        sessions: 12,
        connections: 1,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: true,
        parity: true,
        ..LoadgenConfig::default()
    };
    let ticks = AtomicU64::new(0);
    let now = move || ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6;
    let report = loadgen::run(addr, &fleet, &dataset_provider(), &now).unwrap();
    loadgen::shutdown_server(addr).unwrap();
    server.join().unwrap();

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
    let bytes = record_fleet();
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
