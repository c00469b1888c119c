#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
//! # abr-baselines — every comparison scheme from the paper
//!
//! From-scratch implementations of the state-of-the-art ABR algorithms the
//! paper evaluates CAVA against (§4, §6.1, §6.8):
//!
//! * [`rba`] — **RBA** [Zhang et al., INFOCOM '17]: rate-based; picks the
//!   highest track that keeps at least four chunks buffered after the
//!   download. Myopic (§4).
//! * [`bba`] — **BBA-1** [Huang et al., SIGCOMM '14]: buffer-based; maps the
//!   buffer level onto a chunk-size range between the lowest and highest
//!   tracks' average chunk sizes. Myopic (§4).
//! * [`mpc`] — **MPC** and **RobustMPC** [Yin et al., SIGCOMM '15]: model
//!   predictive control over a 5-chunk horizon maximizing a QoE objective;
//!   the robust variant discounts the bandwidth prediction by the maximum
//!   recent prediction error.
//! * [`panda_cq`] — **PANDA/CQ** [Li et al., MMSys '14]: consistent-quality
//!   optimization over a future window using *per-chunk quality tables* —
//!   information today's ABR protocols do not carry (§6.1 discusses this
//!   deployability caveat; the scheme receives the table at construction).
//!   Two variants: max-sum and max-min.
//! * [`festive`] — **FESTIVE** [Jiang et al., CoNEXT '12, the paper's ref.
//!   20]: classic rate-based adaptation with gradual, level-proportional
//!   switching; declared bitrates only (the CBR mindset).
//! * [`pia`] — **PIA** [Qin et al., INFOCOM '17, the paper's ref. 33]: the
//!   authors' own PID scheme for CBR videos that CAVA generalizes; included
//!   to isolate the value of VBR-awareness in the control framework.
//! * [`oracle`] — an **offline optimal** DP planner (full trace + quality
//!   knowledge): the upper bound that anchors how much headroom remains
//!   above any online scheme.
//! * [`bola`] — **BOLA** [Spiteri et al., INFOCOM '16] and **BOLA-E**
//!   [Spiteri et al., MMSys '18]: Lyapunov utility maximization, in the
//!   three bitrate views of §6.8 — declared peak, declared average, and
//!   actual per-segment sizes.
//!
//! All schemes use actual chunk sizes where their papers recommend it for
//! VBR (§6.1: "following the recommendation of each scheme … we use the
//! actual size of a video chunk in making rate adaptation decisions").

pub mod bba;
pub mod bola;
pub mod festive;
pub mod mpc;
pub mod oracle;
pub mod panda_cq;
pub mod pia;
pub mod rba;
#[cfg(test)]
mod reference;
pub mod util;

pub use bba::{Bba1, Bba1Config};
pub use bola::{Bola, BolaBitrateView, BolaConfig};
pub use festive::{Festive, FestiveConfig};
pub use mpc::{Mpc, MpcConfig};
pub use oracle::{OfflineOptConfig, OfflineOptimal};
pub use panda_cq::{PandaCq, PandaCqConfig, PandaCqObjective};
pub use pia::{Pia, PiaConfig};
pub use rba::{Rba, RbaConfig};
