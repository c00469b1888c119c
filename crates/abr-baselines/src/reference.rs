//! Brute-force reference for the horizon schemes: every complete plan is
//! re-simulated from the decision's starting buffer, the way MPC and
//! PANDA/CQ scored plans before prefix-sharing enumeration. The
//! equivalence tests in [`crate::mpc`] and [`crate::panda_cq`] hold
//! `choose_level` to these decisions on seeded random contexts.

use abr_sim::DecisionContext;
use rand::rngs::StdRng;
use rand::Rng;
use vbr_video::Manifest;

use crate::mpc::MpcConfig;
use crate::panda_cq::{PandaCqConfig, PandaCqObjective};

/// Call `f` with every level sequence of length `horizon`, in lexicographic
/// order (a mixed-radix counter).
fn brute_force_sequences(n_levels: usize, horizon: usize, mut f: impl FnMut(&[usize])) {
    let mut seq = vec![0usize; horizon];
    loop {
        f(&seq);
        let mut pos = horizon;
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            seq[pos] += 1;
            if seq[pos] < n_levels {
                break;
            }
            seq[pos] = 0;
        }
    }
}

/// The planning horizon a decision at `ctx` uses.
fn horizon(configured: usize, ctx: &DecisionContext) -> usize {
    let start = ctx.chunk_index;
    let visible = ctx
        .visible_chunks
        .min(ctx.manifest.n_chunks())
        .max(start + 1);
    configured.min(visible - start)
}

/// The level (Robust)MPC picks at `ctx` when it predicts bandwidth `bw`.
pub(crate) fn mpc_level(config: &MpcConfig, ctx: &DecisionContext, bw: f64) -> usize {
    let m = ctx.manifest;
    let delta = m.chunk_duration();
    let start = ctx.chunk_index;
    let mu = config
        .rebuffer_penalty
        .unwrap_or_else(|| m.declared_bitrate(m.top_level()) / 1.0e6);
    let lambda = config.smoothness_weight;
    let prev_quality = ctx.last_level.map(|l| m.declared_bitrate(l) / 1.0e6);

    let mut best_seq0 = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    brute_force_sequences(m.n_tracks(), horizon(config.horizon, ctx), |seq| {
        let mut buf = ctx.buffer_s;
        let mut rebuffer = 0.0;
        let mut quality_sum = 0.0;
        let mut smooth = 0.0;
        let mut prev_q = prev_quality;
        for (k, &level) in seq.iter().enumerate() {
            let idx = start + k;
            let q = m.declared_bitrate(level) / 1.0e6;
            quality_sum += q;
            if let Some(pq) = prev_q {
                smooth += (q - pq).abs();
            }
            prev_q = Some(q);
            let dl = m.chunk_bits(level, idx) / bw;
            if dl > buf {
                rebuffer += dl - buf;
                buf = 0.0;
            } else {
                buf -= dl;
            }
            buf += delta;
        }
        let score = quality_sum - lambda * smooth - mu * rebuffer;
        if score > best_score {
            best_score = score;
            best_seq0 = seq[0];
        }
    });
    best_seq0
}

/// The level PANDA/CQ picks at `ctx` from the chunk-major
/// `quality[chunk * n_tracks + level]` table, and whether any plan kept the buffer above the safety margin
/// (`false` means the level came from the minimum-violation fallback).
pub(crate) fn panda_level(
    quality: &[f64],
    objective: PandaCqObjective,
    config: &PandaCqConfig,
    ctx: &DecisionContext,
) -> (usize, bool) {
    let m = ctx.manifest;
    let bw = ctx.bandwidth_or_conservative();
    let delta = m.chunk_duration();
    let start = ctx.chunk_index;
    let safety = config.safety_buffer_s;

    let mut best_seq0 = 0usize;
    let mut best_key = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut fallback_seq0 = 0usize;
    let mut fallback_violation = f64::INFINITY;
    let mut any_safe = false;
    brute_force_sequences(m.n_tracks(), horizon(config.horizon, ctx), |seq| {
        let mut buf = ctx.buffer_s;
        let mut min_buf = f64::INFINITY;
        let mut q_sum = 0.0;
        let mut q_min = f64::INFINITY;
        for (k, &level) in seq.iter().enumerate() {
            let idx = start + k;
            buf -= m.chunk_bits(level, idx) / bw;
            min_buf = min_buf.min(buf);
            buf = buf.max(0.0) + delta;
            let q = quality[idx * m.n_tracks() + level];
            q_sum += q;
            q_min = q_min.min(q);
        }
        if min_buf >= safety {
            any_safe = true;
            let key = match objective {
                PandaCqObjective::MaxSum => (q_sum, q_min),
                PandaCqObjective::MaxMin => (q_min, q_sum),
            };
            if key > best_key {
                best_key = key;
                best_seq0 = seq[0];
            }
        } else {
            let violation = safety - min_buf;
            if violation < fallback_violation {
                fallback_violation = violation;
                fallback_seq0 = seq[0];
            }
        }
    });
    (if any_safe { best_seq0 } else { fallback_seq0 }, any_safe)
}

/// Which corner cases one random context exercises.
#[derive(Debug, Default)]
pub(crate) struct Coverage {
    pub no_last_level: usize,
    pub truncated_at_end: usize,
    pub live_limited: usize,
    pub starved: usize,
}

impl Coverage {
    pub(crate) fn assert_all_seen(&self) {
        assert!(
            self.no_last_level > 0
                && self.truncated_at_end > 0
                && self.live_limited > 0
                && self.starved > 0,
            "random contexts missed a corner case: {self:?}"
        );
    }
}

/// A seeded random decision context over `manifest` that borrows `past`
/// as its throughput history. Buffers span 0–30 s and predictions
/// 0.2–8.2 Mbps; a quarter of the contexts have no previous level, a
/// quarter sit in the last five chunks (the horizon truncates at the video
/// end), a quarter see a live `visible_chunks` limit, and a tenth are
/// starved (empty buffer, 50 kbps) so no plan is safe.
pub(crate) fn random_context<'a>(
    rng: &mut StdRng,
    manifest: &'a Manifest,
    past: &'a [f64],
    coverage: &mut Coverage,
) -> DecisionContext<'a> {
    let n = manifest.n_chunks();
    let chunk_index = if rng.gen_bool(0.25) {
        rng.gen_range(n - 5..n)
    } else {
        rng.gen_range(0..n)
    };
    let starved = rng.gen_bool(0.1);
    let (buffer_s, bw) = if starved {
        (0.0, 50.0e3)
    } else {
        (rng.gen_range(0.0..30.0), rng.gen_range(0.2e6..8.2e6))
    };
    let last_level = if rng.gen_bool(0.25) {
        None
    } else {
        Some(rng.gen_range(0..manifest.n_tracks()))
    };
    let visible_chunks = if rng.gen_bool(0.25) {
        (chunk_index + rng.gen_range(1..7)).min(n)
    } else {
        n
    };
    coverage.no_last_level += usize::from(last_level.is_none());
    coverage.truncated_at_end += usize::from(chunk_index + 5 > n);
    coverage.live_limited += usize::from(visible_chunks < n);
    coverage.starved += usize::from(starved);
    DecisionContext {
        manifest,
        chunk_index,
        buffer_s,
        estimated_bandwidth_bps: Some(bw),
        last_level,
        past_throughputs_bps: past,
        wall_time_s: 0.0,
        startup_complete: true,
        visible_chunks,
    }
}
