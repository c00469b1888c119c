// Integration tests sit outside cfg(test), so opt out of the library-only
// workspace lints here explicitly.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

//! Golden decisions of the horizon-enumerating baselines.
//!
//! MPC, RobustMPC and PANDA/CQ (max-sum and max-min) search every level
//! plan over their horizon. Each session below runs one of them through
//! `Simulator::run` on a fixed LTE or FCC trace over one of the paper's
//! videos, and hashes the decided levels together with the `{:?}` rendering
//! of the session's `QoeMetrics`. The expected digests were captured from
//! the brute-force enumeration (every complete plan re-simulated from the
//! decision's starting buffer), so any drift in a decision or in a score's
//! floating-point value fails here.

use cava_suite::net::fcc::{fcc_trace, FccConfig};
use cava_suite::net::lte::{lte_trace, LteConfig};
use cava_suite::prelude::*;
use cava_suite::sim::metrics::QoeMetrics;
use cava_suite::video::quality::VmafModel;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn session_digest(session: &SessionResult, metrics: &QoeMetrics) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for level in session.levels() {
        hash = fnv1a(&(level as u64).to_le_bytes(), hash);
    }
    fnv1a(format!("{metrics:?}").as_bytes(), hash)
}

fn scheme(name: &str, video: &Video) -> Box<dyn AbrAlgorithm> {
    match name {
        "mpc" => Box::new(Mpc::mpc()),
        "robustmpc" => Box::new(Mpc::robust()),
        "panda-max-sum" => Box::new(PandaCq::max_sum(video, VmafModel::Phone)),
        "panda-max-min" => Box::new(PandaCq::max_min(video, VmafModel::Phone)),
        other => panic!("unknown scheme {other}"),
    }
}

const SCHEMES: [&str; 4] = ["mpc", "robustmpc", "panda-max-sum", "panda-max-min"];

/// `(video, trace, digest per scheme in SCHEMES order)`.
const GOLDEN: [(&str, &str, [u64; 4]); 4] = [
    (
        "ED-ffmpeg-h264",
        "lte",
        [
            0x05fc6640f2d32af0,
            0xc5f84cd3d5f4dc33,
            0xd0f7fe62c3ab95d1,
            0x1b05a640397e8c8f,
        ],
    ),
    (
        "ED-ffmpeg-h264",
        "fcc",
        [
            0xfe038ee37239ad42,
            0x3e8b2df384fb9ddc,
            0x219d8cfbb061b2e9,
            0x0a369acd8620d1de,
        ],
    ),
    (
        "ED-youtube-h264",
        "lte",
        [
            0x7b80a2a9852ffa6d,
            0xc600527e3d51e47d,
            0xc0e8a1c9308a3494,
            0x004df59dfc685a76,
        ],
    ),
    (
        "ED-youtube-h264",
        "fcc",
        [
            0x38330ad530554d71,
            0x0f4f5d070587e42e,
            0xfc263f489086893a,
            0x9421d96bb68f6f30,
        ],
    ),
];

#[test]
fn horizon_schemes_match_golden_digests() {
    let sim = Simulator::paper_default();
    let lte = lte_trace(11, &LteConfig::default());
    let fcc = fcc_trace(16, &FccConfig::default());
    let mut mismatches = Vec::new();
    for (video_name, trace_name, expected) in GOLDEN {
        let video = Dataset::by_name(video_name).expect("dataset video");
        let manifest = Manifest::from_video(&video);
        let classification = Classification::from_video(&video);
        let (trace, qoe) = match trace_name {
            "lte" => (&lte, QoeConfig::lte()),
            _ => (&fcc, QoeConfig::fcc()),
        };
        for (scheme_name, expected) in SCHEMES.into_iter().zip(expected) {
            let mut algo = scheme(scheme_name, &video);
            let session = sim.run(algo.as_mut(), &manifest, trace);
            let metrics = evaluate(&session, &video, &classification, &qoe);
            let digest = session_digest(&session, &metrics);
            if digest != expected {
                mismatches.push(format!(
                    "{video_name} {trace_name} {scheme_name}: {digest:#018x}, expected {expected:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "decisions drifted from the golden digests:\n{}",
        mismatches.join("\n")
    );
}
