//! # perfbench — the repository's benchmark
//!
//! One command runs one named workload for a fixed number of seconds and
//! prints its metrics; see `README.md` for the workloads, the metrics and
//! how the per-layer ledger is derived.
//!
//! * [`cli`] — argument parsing and the result line.
//! * [`report`] — the metric set, host facts and the JSON result.
//! * [`spans`] — the in-memory span recorder of the traced run.
//! * [`grid`], [`pop`], [`serve`] — the four workloads, each with an
//!   untraced runner (what the end-to-end metrics time) and a traced one.
//! * [`ladder`] — per-decision layer costs measured on a workload's own
//!   decision stream, in-process.

pub mod cli;
pub mod grid;
pub mod ladder;
pub mod pop;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Nanoseconds elapsed since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// FNV-1a over bytes: the output digests the checks compare.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Worker count every workload uses: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How big a run is. `Full` is what the benchmark measures; `Tiny` keeps
/// every code path and check but shrinks every input, for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// Minimal inputs with every check still on.
    Tiny,
}

/// Where a run may write (recorder logs, span dumps): `perfbench/out`,
/// from the repository root (where the command runs) or from the package
/// directory (where its tests run); created on demand.
pub fn out_dir() -> std::path::PathBuf {
    let root = std::path::Path::new("perfbench");
    let dir = if root.is_dir() {
        root.join("out")
    } else {
        "out".into()
    };
    // Best effort: a failure surfaces when the file itself is created.
    let _ = std::fs::create_dir_all(&dir);
    dir
}
