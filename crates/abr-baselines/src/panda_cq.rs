//! PANDA/CQ — consistent-quality streaming [Li et al., MMSys '14].
//!
//! The only baseline that consumes *per-chunk quality information*: it picks
//! level assignments for a window of `N` future chunks to optimize delivered
//! quality directly, subject to the buffer staying above a safety margin.
//! The paper evaluates two objectives (§6.1):
//!
//! * **max-sum** — maximize the total quality of the next `N` chunks, and
//! * **max-min** — maximize the minimum quality of the next `N` chunks
//!   (the "consistent quality" objective proper).
//!
//! Deployability caveat (paper §6.1): per-chunk quality tables are *not*
//! carried by DASH or HLS manifests, so this scheme cannot be built from a
//! [`vbr_video::Manifest`] alone. It is constructed from the evaluation-side
//! [`vbr_video::Video`] quality table — exactly the extra information the
//! paper grants it — and still loses to CAVA, which is the paper's point.

use abr_sim::{AbrAlgorithm, DecisionContext};
use vbr_video::quality::VmafModel;
use vbr_video::Video;

use crate::util::{for_each_plan, MAX_HORIZON};

/// Which window objective to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PandaCqObjective {
    /// Maximize the sum of the window's quality.
    MaxSum,
    /// Maximize the minimum quality in the window.
    MaxMin,
}

/// PANDA/CQ configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PandaCqConfig {
    /// Window length in chunks (paper: 5, like the other horizon schemes).
    pub horizon: usize,
    /// Buffer level (seconds) the plan must not drop below — the scheme's
    /// stall guard.
    pub safety_buffer_s: f64,
}

impl Default for PandaCqConfig {
    fn default() -> PandaCqConfig {
        PandaCqConfig {
            horizon: 5,
            safety_buffer_s: 4.0,
        }
    }
}

/// The PANDA/CQ scheme.
#[derive(Debug, Clone)]
pub struct PandaCq {
    /// `quality[chunk * n_tracks + level]` — granted side information (see
    /// module docs), chunk-major so one chunk's levels sit side by side.
    quality: Vec<f64>,
    objective: PandaCqObjective,
    config: PandaCqConfig,
    name: &'static str,
    /// Per-decision lookup rows, reserved here so decisions never allocate.
    rows: Vec<f64>,
}

impl PandaCq {
    /// Build from a video's quality table under the given VMAF model.
    ///
    /// # Panics
    /// Panics on a horizon that is zero or above [`MAX_HORIZON`].
    pub fn from_video(
        video: &Video,
        model: VmafModel,
        objective: PandaCqObjective,
        config: PandaCqConfig,
    ) -> PandaCq {
        assert!((1..=MAX_HORIZON).contains(&config.horizon));
        let quality = (0..video.n_chunks())
            .flat_map(|i| (0..video.n_tracks()).map(move |l| video.quality(l, i).vmaf(model)))
            .collect();
        PandaCq {
            quality,
            objective,
            config,
            name: match objective {
                PandaCqObjective::MaxSum => "PANDA/CQ max-sum",
                PandaCqObjective::MaxMin => "PANDA/CQ max-min",
            },
            rows: Vec::with_capacity(config.horizon * video.n_tracks()),
        }
    }

    /// Paper-default max-sum variant.
    pub fn max_sum(video: &Video, model: VmafModel) -> PandaCq {
        PandaCq::from_video(
            video,
            model,
            PandaCqObjective::MaxSum,
            PandaCqConfig::default(),
        )
    }

    /// Paper-default max-min variant.
    pub fn max_min(video: &Video, model: VmafModel) -> PandaCq {
        PandaCq::from_video(
            video,
            model,
            PandaCqObjective::MaxMin,
            PandaCqConfig::default(),
        )
    }
}

impl AbrAlgorithm for PandaCq {
    fn name(&self) -> &str {
        self.name
    }

    // abr-lint: hot-path
    fn choose_level(&mut self, ctx: &DecisionContext) -> usize {
        let m = ctx.manifest;
        assert_eq!(
            self.quality.len(),
            m.n_tracks() * m.n_chunks(),
            "PANDA/CQ quality table does not match this manifest"
        );
        let bw = ctx.bandwidth_or_conservative();
        let delta = m.chunk_duration();
        let start = ctx.chunk_index;
        // Live streaming: plan only over published chunks.
        let visible = ctx.visible_chunks.min(m.n_chunks()).max(start + 1);
        let horizon = self.config.horizon.min(visible - start);
        let safety = self.config.safety_buffer_s;

        // Row k: each level's download time for chunk start + k.
        let n = m.n_tracks();
        self.rows.clear();
        self.rows.extend(
            (0..horizon).flat_map(|k| (0..n).map(move |l| m.chunk_bits(l, start + k) / bw)),
        );
        let (download, quality) = (&self.rows, &self.quality[start * n..]);

        // Among plans that keep the buffer above the safety margin, optimize
        // the quality objective; if no plan is safe, fall back to the plan
        // minimizing the buffer violation (which enumeration order makes the
        // all-lowest plan in practice).
        let mut best_seq0 = 0usize;
        let mut best_key = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut fallback_seq0 = 0usize;
        let mut fallback_violation = f64::INFINITY;
        let mut any_safe = false;
        for_each_plan(
            n,
            horizon,
            // A prefix's state: (buffer, lowest buffer before the refill,
            // quality sum, quality minimum).
            (ctx.buffer_s, f64::INFINITY, 0.0, f64::INFINITY),
            |&(buf, low, sum, min), k, level| {
                let after = buf - download[k * n + level];
                let q = quality[k * n + level];
                (after.max(0.0) + delta, low.min(after), sum + q, min.min(q))
            },
            |first, &(_, min_buf, q_sum, q_min)| {
                if min_buf >= safety {
                    any_safe = true;
                    let key = match self.objective {
                        PandaCqObjective::MaxSum => (q_sum, q_min),
                        PandaCqObjective::MaxMin => (q_min, q_sum),
                    };
                    if key > best_key {
                        best_key = key;
                        best_seq0 = first;
                    }
                } else {
                    let violation = safety - min_buf;
                    if violation < fallback_violation {
                        fallback_violation = violation;
                        fallback_seq0 = first;
                    }
                }
            },
        );
        if any_safe {
            best_seq0
        } else {
            fallback_seq0
        }
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, random_context, Coverage};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vbr_video::{Dataset, Manifest};

    fn ctx_with<'a>(
        manifest: &'a Manifest,
        buffer_s: f64,
        bw: f64,
        i: usize,
    ) -> DecisionContext<'a> {
        DecisionContext {
            manifest,
            chunk_index: i,
            buffer_s,
            estimated_bandwidth_bps: Some(bw),
            last_level: Some(2),
            past_throughputs_bps: &[],
            wall_time_s: 0.0,
            startup_complete: true,
            visible_chunks: manifest.n_chunks(),
        }
    }

    #[test]
    fn rich_bandwidth_gets_top_track() {
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let mut cq = PandaCq::max_sum(&video, VmafModel::Phone);
        assert_eq!(
            cq.choose_level(&ctx_with(&m, 60.0, 1.0e9, 0)),
            m.top_level()
        );
    }

    #[test]
    fn starved_bandwidth_gets_bottom_track() {
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let mut cq = PandaCq::max_min(&video, VmafModel::Phone);
        assert_eq!(cq.choose_level(&ctx_with(&m, 2.0, 50.0e3, 0)), 0);
    }

    #[test]
    fn max_min_lifts_worst_chunk_harder_than_max_sum() {
        // On a window containing a Q4 chunk, max-min should never give the
        // Q4 chunk a *lower* level than max-sum does, for the same budget.
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let classification = vbr_video::Classification::from_video(&video);
        // Find a window starting at a Q4 chunk.
        let q4_start = (0..m.n_chunks() - 5)
            .find(|&i| classification.is_q4(i))
            .expect("some Q4 chunk");
        let bw = 2.5e6;
        let mut sum = PandaCq::max_sum(&video, VmafModel::Phone);
        let mut min = PandaCq::max_min(&video, VmafModel::Phone);
        let l_sum = sum.choose_level(&ctx_with(&m, 30.0, bw, q4_start));
        let l_min = min.choose_level(&ctx_with(&m, 30.0, bw, q4_start));
        assert!(
            l_min >= l_sum,
            "max-min gave Q4 chunk level {l_min} < max-sum's {l_sum}"
        );
    }

    #[test]
    fn respects_safety_margin_when_feasible() {
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let mut cq = PandaCq::max_sum(&video, VmafModel::Phone);
        let bw = 1.5e6;
        let level = cq.choose_level(&ctx_with(&m, 25.0, bw, 3));
        // The chosen first step must itself keep the buffer above safety
        // given at least the lowest-track continuation exists.
        let after = 25.0 - m.chunk_bits(level, 3) / bw;
        assert!(after >= 0.0, "level {level} immediately underflows");
    }

    #[test]
    fn table_mismatch_panics() {
        let video = Dataset::ed_youtube_h264();
        let other = Manifest::from_video(&Dataset::ed_ffmpeg_h264());
        let mut cq = PandaCq::max_sum(&video, VmafModel::Phone);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cq.choose_level(&ctx_with(&other, 30.0, 3.0e6, 0))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn names() {
        let video = Dataset::ed_youtube_h264();
        assert_eq!(
            PandaCq::max_sum(&video, VmafModel::Phone).name(),
            "PANDA/CQ max-sum"
        );
        assert_eq!(
            PandaCq::max_min(&video, VmafModel::Phone).name(),
            "PANDA/CQ max-min"
        );
    }

    #[test]
    fn end_of_video_window_shrinks() {
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let mut cq = PandaCq::max_min(&video, VmafModel::Phone);
        let level = cq.choose_level(&ctx_with(&m, 30.0, 3.0e6, m.n_chunks() - 1));
        assert!(level < m.n_tracks());
    }

    #[test]
    fn matches_brute_force_reference() {
        let mut rng = StdRng::seed_from_u64(0x5043_4321);
        let mut coverage = Coverage::default();
        let mut fallbacks = 0usize;
        for video in [Dataset::ed_ffmpeg_h264(), Dataset::ed_youtube_h264()] {
            let m = Manifest::from_video(&video);
            for mut cq in [
                PandaCq::max_sum(&video, VmafModel::Phone),
                PandaCq::max_min(&video, VmafModel::Phone),
            ] {
                for _ in 0..1_000 {
                    let ctx = random_context(&mut rng, &m, &[], &mut coverage);
                    let (expected, any_safe) =
                        reference::panda_level(&cq.quality, cq.objective, &cq.config, &ctx);
                    fallbacks += usize::from(!any_safe);
                    assert_eq!(
                        cq.choose_level(&ctx),
                        expected,
                        "{} at chunk {} (buffer {}, bw {:?}, visible {})",
                        cq.name(),
                        ctx.chunk_index,
                        ctx.buffer_s,
                        ctx.estimated_bandwidth_bps,
                        ctx.visible_chunks
                    );
                }
            }
        }
        coverage.assert_all_seen();
        assert!(
            fallbacks > 0,
            "no context exercised the no-safe-plan fallback"
        );
    }

    #[test]
    #[should_panic(expected = "(1..=MAX_HORIZON).contains(&config.horizon)")]
    fn horizon_above_cap_panics_at_construction() {
        let video = Dataset::ed_youtube_h264();
        let _ = PandaCq::from_video(
            &video,
            VmafModel::Phone,
            PandaCqObjective::MaxSum,
            PandaCqConfig {
                horizon: MAX_HORIZON + 1,
                ..PandaCqConfig::default()
            },
        );
    }
}
