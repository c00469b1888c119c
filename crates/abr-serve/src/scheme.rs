//! The scheme registry: one authoritative table from scheme names to
//! boxed [`AbrAlgorithm`] instances, plus the dataset video loader.
//!
//! [`SchemeKind`] is that table. The bench harness runs it by kind, the
//! CLI, the session store and the load generator by wire name
//! ([`build_scheme`]), so a session opened over the wire is configured by
//! exactly the constructor a local `cava run` or a bench grid cell uses —
//! which is half of the decision-parity guarantee.

use abr_baselines::{Bba1, Bola, BolaBitrateView, Festive, Mpc, PandaCq, Pia, Rba};
use abr_sim::AbrAlgorithm;
use cava_core::{Cava, CavaConfig};
use vbr_video::quality::VmafModel;
use vbr_video::{Dataset, Video};

/// Every scheme the evaluation and the serving layer run. `build`
/// instantiates a fresh algorithm (one per session — algorithms are
/// stateful within a session). `Ord` follows declaration order and keys
/// the bench's ordered grid maps, so iteration over results is
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchemeKind {
    /// Full CAVA (all three design principles, §5).
    Cava,
    /// CAVA ablation: principle 1 only (§6.4).
    CavaP1,
    /// CAVA ablation: principles 1+2 (§6.4).
    CavaP12,
    /// MPC (Yin et al.), nominal predictions.
    Mpc,
    /// RobustMPC: MPC with conservative prediction discounting.
    RobustMpc,
    /// PANDA/CQ, max-sum objective (quality side information, §6.1).
    PandaMaxSum,
    /// PANDA/CQ, max-min objective.
    PandaMaxMin,
    /// Rate-based adaptation baseline.
    Rba,
    /// Buffer-based adaptation (BBA-1).
    Bba1,
    /// PIA: PID-control adaptation for CBR (§5.1 lineage).
    Pia,
    /// FESTIVE.
    Festive,
    /// Plain BOLA.
    Bola,
    /// BOLA-E seeing peak bitrates (§6.8).
    BolaEPeak,
    /// BOLA-E seeing average bitrates (§6.8).
    BolaEAvg,
    /// BOLA-E seeing per-segment sizes (§6.8).
    BolaESeg,
}

impl SchemeKind {
    /// Every scheme, in declaration order.
    pub const ALL: [SchemeKind; 15] = [
        SchemeKind::Cava,
        SchemeKind::CavaP1,
        SchemeKind::CavaP12,
        SchemeKind::Mpc,
        SchemeKind::RobustMpc,
        SchemeKind::PandaMaxSum,
        SchemeKind::PandaMaxMin,
        SchemeKind::Rba,
        SchemeKind::Bba1,
        SchemeKind::Pia,
        SchemeKind::Festive,
        SchemeKind::Bola,
        SchemeKind::BolaEPeak,
        SchemeKind::BolaEAvg,
        SchemeKind::BolaESeg,
    ];

    /// The paper's §6.3 comparison set (Fig. 8).
    pub const FIG8: [SchemeKind; 5] = [
        SchemeKind::Cava,
        SchemeKind::Mpc,
        SchemeKind::RobustMpc,
        SchemeKind::PandaMaxSum,
        SchemeKind::PandaMaxMin,
    ];

    /// The §6.4 ablation set (Fig. 10).
    pub const ABLATION: [SchemeKind; 3] =
        [SchemeKind::CavaP1, SchemeKind::CavaP12, SchemeKind::Cava];

    /// The §6.8 dash.js set (Fig. 11).
    pub const FIG11: [SchemeKind; 4] = [
        SchemeKind::Cava,
        SchemeKind::BolaEAvg,
        SchemeKind::BolaEPeak,
        SchemeKind::BolaESeg,
    ];

    /// Display name matching the paper's.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Cava => "CAVA",
            SchemeKind::CavaP1 => "CAVA-p1",
            SchemeKind::CavaP12 => "CAVA-p12",
            SchemeKind::Mpc => "MPC",
            SchemeKind::RobustMpc => "RobustMPC",
            SchemeKind::PandaMaxSum => "PANDA/CQ max-sum",
            SchemeKind::PandaMaxMin => "PANDA/CQ max-min",
            SchemeKind::Rba => "RBA",
            SchemeKind::Bba1 => "BBA-1",
            SchemeKind::Pia => "PIA",
            SchemeKind::Festive => "FESTIVE",
            SchemeKind::Bola => "BOLA",
            SchemeKind::BolaEPeak => "BOLA-E (peak)",
            SchemeKind::BolaEAvg => "BOLA-E (avg)",
            SchemeKind::BolaESeg => "BOLA-E (seg)",
        }
    }

    /// The name `OpenSession` frames, CAVR logs and `cava run` use.
    pub const fn wire_name(self) -> &'static str {
        match self {
            SchemeKind::Cava => "cava",
            SchemeKind::CavaP1 => "cava-p1",
            SchemeKind::CavaP12 => "cava-p12",
            SchemeKind::Mpc => "mpc",
            SchemeKind::RobustMpc => "robustmpc",
            SchemeKind::PandaMaxSum => "panda-max-sum",
            SchemeKind::PandaMaxMin => "panda-max-min",
            SchemeKind::Rba => "rba",
            SchemeKind::Bba1 => "bba1",
            SchemeKind::Pia => "pia",
            SchemeKind::Festive => "festive",
            SchemeKind::Bola => "bola",
            SchemeKind::BolaEPeak => "bola-e-peak",
            SchemeKind::BolaEAvg => "bola-e-avg",
            SchemeKind::BolaESeg => "bola-e-seg",
        }
    }

    /// The scheme whose [`SchemeKind::wire_name`] is `name`.
    pub fn from_wire_name(name: &str) -> Option<SchemeKind> {
        SchemeKind::ALL.into_iter().find(|k| k.wire_name() == name)
    }

    /// Instantiate the scheme. PANDA/CQ receives the video's quality table
    /// under `model` (its granted side information, §6.1); every other
    /// scheme sees only the manifest. The box is `Send` so the session
    /// store can park it behind a per-session lock and worker threads can
    /// drive it.
    pub fn build(self, video: &Video, model: VmafModel) -> Box<dyn AbrAlgorithm + Send> {
        match self {
            SchemeKind::Cava => Box::new(Cava::paper_default()),
            SchemeKind::CavaP1 => Box::new(Cava::p1()),
            SchemeKind::CavaP12 => Box::new(Cava::p12()),
            SchemeKind::Mpc => Box::new(Mpc::mpc()),
            SchemeKind::RobustMpc => Box::new(Mpc::robust()),
            SchemeKind::PandaMaxSum => Box::new(PandaCq::max_sum(video, model)),
            SchemeKind::PandaMaxMin => Box::new(PandaCq::max_min(video, model)),
            SchemeKind::Rba => Box::new(Rba::paper_default()),
            SchemeKind::Bba1 => Box::new(Bba1::paper_default()),
            SchemeKind::Pia => Box::new(Pia::paper_default()),
            SchemeKind::Festive => Box::new(Festive::paper_default()),
            SchemeKind::Bola => Box::new(Bola::bola()),
            SchemeKind::BolaEPeak => Box::new(Bola::bola_e(BolaBitrateView::Peak)),
            SchemeKind::BolaEAvg => Box::new(Bola::bola_e(BolaBitrateView::Average)),
            SchemeKind::BolaESeg => Box::new(Bola::bola_e(BolaBitrateView::Segment)),
        }
    }

    /// Build with a custom CAVA configuration (parameter sweeps).
    pub fn build_cava(config: CavaConfig) -> Box<dyn AbrAlgorithm + Send> {
        Box::new(Cava::new(config))
    }
}

/// Scheme names accepted by [`build_scheme`] (and by `cava run`): every
/// [`SchemeKind::wire_name`], in [`SchemeKind::ALL`] order.
pub const SCHEME_NAMES: [&str; 15] = {
    let mut names = [""; 15];
    let mut i = 0;
    while i < names.len() {
        names[i] = SchemeKind::ALL[i].wire_name();
        i += 1;
    }
    names
};

/// Whether `name` is a scheme this registry can build.
pub fn is_known_scheme(name: &str) -> bool {
    SchemeKind::from_wire_name(name).is_some()
}

/// Build a fresh scheme instance by wire name.
pub fn build_scheme(
    name: &str,
    video: &Video,
    model: VmafModel,
) -> Result<Box<dyn AbrAlgorithm + Send>, String> {
    let kind = SchemeKind::from_wire_name(name).ok_or_else(|| {
        format!(
            "unknown scheme {name:?} (known: {})",
            SCHEME_NAMES.join(", ")
        )
    })?;
    Ok(kind.build(video, model))
}

/// Whether `name` resolves through [`load_video`] — checked against the
/// spec list without paying for synthesis.
pub fn is_known_video(name: &str) -> bool {
    name == "ED-ffmpeg-h264-cap4x"
        || name == "ED-ffmpeg-h264-cbr"
        || Dataset::specs().iter().any(|s| s.name == name)
}

/// Wire code for a [`VmafModel`] (0 = TV, 1 = phone).
pub fn vmaf_model_code(model: VmafModel) -> u8 {
    match model {
        VmafModel::Tv => 0,
        VmafModel::Phone => 1,
    }
}

/// Inverse of [`vmaf_model_code`]; `None` for codes outside the protocol.
pub fn vmaf_model_from_code(code: u8) -> Option<VmafModel> {
    match code {
        0 => Some(VmafModel::Tv),
        1 => Some(VmafModel::Phone),
        _ => None,
    }
}

/// Resolve a dataset video by name, including the two encoder variants that
/// live outside [`Dataset::specs`].
pub fn load_video(name: &str) -> Result<Video, String> {
    if name == "ED-ffmpeg-h264-cap4x" {
        return Ok(Dataset::ed_ffmpeg_h264_cap4());
    }
    if name == "ED-ffmpeg-h264-cbr" {
        return Ok(Dataset::ed_ffmpeg_h264_cbr());
    }
    Dataset::by_name(name).ok_or_else(|| {
        let known: Vec<String> = Dataset::specs().iter().map(|s| s.name.clone()).collect();
        format!(
            "unknown video {name:?}; run `cava list-videos` (known: {})",
            known.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_video::Manifest;

    #[test]
    fn every_registered_scheme_builds() {
        let video = Dataset::ed_youtube_h264();
        for name in SCHEME_NAMES {
            let algo = build_scheme(name, &video, VmafModel::Tv).unwrap();
            assert!(!algo.name().is_empty(), "{name} has an empty display name");
            assert!(is_known_scheme(name));
        }
    }

    #[test]
    fn wire_names_round_trip_in_declaration_order() {
        for (kind, name) in SchemeKind::ALL.into_iter().zip(SCHEME_NAMES) {
            assert_eq!(kind.wire_name(), name);
            assert_eq!(SchemeKind::from_wire_name(name), Some(kind));
        }
        assert!(SchemeKind::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unknown_scheme_is_an_error() {
        let video = Dataset::ed_youtube_h264();
        let err = match build_scheme("nope", &video, VmafModel::Tv) {
            Err(e) => e,
            Ok(_) => panic!("scheme \"nope\" should not build"),
        };
        assert!(err.contains("unknown scheme"));
        assert!(!is_known_scheme("nope"));
    }

    #[test]
    fn encoder_variants_load() {
        for name in ["ED-ffmpeg-h264-cap4x", "ED-ffmpeg-h264-cbr"] {
            let video = load_video(name).unwrap();
            assert!(Manifest::from_video(&video).n_chunks() > 0);
        }
        assert!(load_video("no-such-video").is_err());
    }
}
