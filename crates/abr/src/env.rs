//! The ABR environment in Pensieve's state/action/reward formulation.
//!
//! The observation is the 25-dimensional state the paper quotes for
//! Pensieve ("25 states", Appendix C): last selected bitrate, buffer
//! occupancy, the past-8 throughput and download-time histories, the six
//! next-chunk sizes, and the fraction of chunks remaining. The action is a
//! ladder index; the reward is the per-chunk linear QoE.

use crate::qoe::QoeMetric;
use crate::sim::{ChunkDownload, StreamingSession};
use crate::trace::NetworkTrace;
use crate::video::VideoModel;
use metis_rl::{Env, Step};
use std::sync::Arc;

/// History window length for throughput / download time.
pub const HISTORY_LEN: usize = 8;

/// Observation dimensionality (1 + 1 + 8 + 8 + 6 + 1).
pub const OBS_DIM: usize = 2 + 2 * HISTORY_LEN + 6 + 1;

/// Normalization constants (documented so trees render in natural units).
const BITRATE_NORM_KBPS: f64 = 4300.0;
const BUFFER_NORM_S: f64 = 10.0;
const THROUGHPUT_NORM_MBPS: f64 = 8.0;
const DL_TIME_NORM_S: f64 = 10.0;
const SIZE_NORM_BYTES: f64 = 1e6;

/// Human-readable feature names aligned with the observation layout
/// (the notation of the paper's Figure 7: `r_t`, `B`, `θ_t`, `T_t`).
pub fn feature_names() -> Vec<String> {
    let mut names = vec![
        "r_t (last bitrate, Mbps)".to_string(),
        "B (buffer, x10s)".to_string(),
    ];
    for i in (1..=HISTORY_LEN).rev() {
        names.push(format!("theta_t-{i} (thr, x8Mbps)"));
    }
    for i in (1..=HISTORY_LEN).rev() {
        names.push(format!("T_t-{i} (dl time, x10s)"));
    }
    for label in crate::video::bitrate_labels() {
        names.push(format!("size_{label} (MB)"));
    }
    names.push("chunks_left (frac)".to_string());
    names
}

/// A decoded observation (used by the heuristic baselines, which consume
/// the same information the DNN sees).
#[derive(Debug, Clone, PartialEq)]
pub struct AbrObservation {
    /// Last selected bitrate in kbps.
    pub last_bitrate_kbps: f64,
    /// Buffer occupancy in seconds.
    pub buffer_s: f64,
    /// Past chunk throughputs in Mbps, oldest first.
    pub throughput_mbps: Vec<f64>,
    /// Past chunk download times in seconds, oldest first.
    pub download_time_s: Vec<f64>,
    /// Next chunk size per quality, bytes.
    pub next_sizes_bytes: Vec<f64>,
    /// Fraction of chunks remaining in (0, 1].
    pub remaining_frac: f64,
}

impl AbrObservation {
    /// Decode the flat observation vector.
    pub fn decode(obs: &[f64]) -> Self {
        assert_eq!(obs.len(), OBS_DIM, "AbrObservation::decode: wrong length");
        let h = HISTORY_LEN;
        AbrObservation {
            last_bitrate_kbps: obs[0] * BITRATE_NORM_KBPS,
            buffer_s: obs[1] * BUFFER_NORM_S,
            throughput_mbps: obs[2..2 + h]
                .iter()
                .map(|x| x * THROUGHPUT_NORM_MBPS)
                .collect(),
            download_time_s: obs[2 + h..2 + 2 * h]
                .iter()
                .map(|x| x * DL_TIME_NORM_S)
                .collect(),
            next_sizes_bytes: obs[2 + 2 * h..2 + 2 * h + 6]
                .iter()
                .map(|x| x * SIZE_NORM_BYTES)
                .collect(),
            remaining_frac: obs[2 + 2 * h + 6],
        }
    }

    /// Index of the ladder rung matching `last_bitrate_kbps`.
    pub fn last_quality(&self, bitrates: &[f64]) -> usize {
        bitrates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (*a - self.last_bitrate_kbps)
                    .abs()
                    .partial_cmp(&(*b - self.last_bitrate_kbps).abs())
                    .unwrap()
            })
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Harmonic mean of the last `k` non-zero throughput samples (Mbps) —
    /// the predictor used by RB, FESTIVE and robustMPC.
    pub fn harmonic_throughput_mbps(&self, k: usize) -> f64 {
        let recent: Vec<f64> = self
            .throughput_mbps
            .iter()
            .rev()
            .filter(|&&t| t > 0.0)
            .take(k)
            .cloned()
            .collect();
        if recent.is_empty() {
            return 0.0;
        }
        recent.len() as f64 / recent.iter().map(|t| 1.0 / t).sum::<f64>()
    }
}

/// The ABR environment.
///
/// Cloning one is cheap and allocation-free: the video and trace are
/// shared through the session's two `Arc`s, and the histories are
/// fixed-size arrays. The Eq.-1 lookahead clones the environment once per
/// action at every collected state.
#[derive(Debug, Clone)]
pub struct AbrEnv {
    trace_offset_s: f64,
    metric: QoeMetric,
    session: StreamingSession,
    last_quality: usize,
    thr_hist_mbps: [f64; HISTORY_LEN],
    dl_hist_s: [f64; HISTORY_LEN],
}

impl AbrEnv {
    pub fn new(video: Arc<VideoModel>, trace: Arc<NetworkTrace>, trace_offset_s: f64) -> Self {
        AbrEnv {
            trace_offset_s,
            metric: QoeMetric::default(),
            session: StreamingSession::new(video, trace, trace_offset_s),
            last_quality: 0,
            thr_hist_mbps: [0.0; HISTORY_LEN],
            dl_hist_s: [0.0; HISTORY_LEN],
        }
    }

    pub fn metric(&self) -> QoeMetric {
        self.metric
    }

    pub fn video(&self) -> &VideoModel {
        self.session.video()
    }

    /// [`Env::step`] plus the raw [`ChunkDownload`] mechanics behind the
    /// transition — download time, stall, and the sleep the client takes
    /// when its buffer is full. Closed-loop co-simulation (`metis_sim`)
    /// needs these to schedule the session's *next* request at
    /// `now + download_time_s + sleep_s`, the Pensieve trace-replay rule
    /// where the served bitrate decides when the client asks again.
    /// `step` delegates here, so the two are bit-identical transitions.
    pub fn step_detailed(&mut self, action: usize) -> (Step, ChunkDownload) {
        let d = self.session.download_next(action);
        let video = self.session.video();
        let reward = self.metric.chunk_qoe(
            video.bitrate_kbps(action),
            video.bitrate_kbps(self.last_quality),
            d.rebuffer_s,
        );
        self.last_quality = action;
        self.thr_hist_mbps.copy_within(1.., 0);
        self.thr_hist_mbps[HISTORY_LEN - 1] =
            d.size_bytes * 8.0 / d.download_time_s.max(1e-9) / 1e6;
        self.dl_hist_s.copy_within(1.., 0);
        self.dl_hist_s[HISTORY_LEN - 1] = d.download_time_s;
        let step = Step {
            obs: self.observe(),
            reward,
            done: self.session.finished(),
        };
        (step, d)
    }

    fn observe(&self) -> Vec<f64> {
        let video = self.session.video();
        let mut obs = Vec::with_capacity(OBS_DIM);
        obs.push(video.bitrate_kbps(self.last_quality) / BITRATE_NORM_KBPS);
        obs.push(self.session.buffer_s() / BUFFER_NORM_S);
        for &t in &self.thr_hist_mbps {
            obs.push(t / THROUGHPUT_NORM_MBPS);
        }
        for &d in &self.dl_hist_s {
            obs.push(d / DL_TIME_NORM_S);
        }
        let chunk = self.session.next_chunk().min(video.n_chunks() - 1);
        for &s in video.chunk_sizes(chunk) {
            obs.push(s / SIZE_NORM_BYTES);
        }
        obs.push(self.session.chunks_remaining() as f64 / video.n_chunks() as f64);
        obs
    }
}

impl Env for AbrEnv {
    fn reset(&mut self) -> Vec<f64> {
        self.session.restart(self.trace_offset_s);
        self.last_quality = 0;
        self.thr_hist_mbps = [0.0; HISTORY_LEN];
        self.dl_hist_s = [0.0; HISTORY_LEN];
        self.observe()
    }

    fn step(&mut self, action: usize) -> Step {
        self.step_detailed(action).0
    }

    fn n_actions(&self) -> usize {
        self.video().n_qualities()
    }

    fn obs_dim(&self) -> usize {
        OBS_DIM
    }
}

/// Build one environment per trace (the standard evaluation pool).
pub fn env_pool(video: &Arc<VideoModel>, traces: &[Arc<NetworkTrace>]) -> Vec<AbrEnv> {
    traces
        .iter()
        .map(|t| AbrEnv::new(video.clone(), t.clone(), 0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NetworkTrace;
    use metis_rl::{rollout, ActionMode, ConstantPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env(kbps: f64) -> AbrEnv {
        AbrEnv::new(
            Arc::new(VideoModel::standard(48, 7)),
            Arc::new(NetworkTrace::fixed(kbps, 1000.0)),
            0.0,
        )
    }

    #[test]
    fn obs_dim_is_25_as_in_the_paper() {
        assert_eq!(OBS_DIM, 25);
        let mut e = env(3000.0);
        assert_eq!(e.reset().len(), 25);
        assert_eq!(e.obs_dim(), 25);
        assert_eq!(feature_names().len(), 25);
    }

    #[test]
    fn episode_runs_to_video_end() {
        let mut e = env(3000.0);
        let mut rng = StdRng::seed_from_u64(0);
        let traj = rollout(
            &mut e,
            &ConstantPolicy {
                action: 2,
                n_actions: 6,
            },
            ActionMode::Greedy,
            1000,
            &mut rng,
        );
        assert_eq!(traj.len(), 48);
        assert!(traj.terminated);
    }

    #[test]
    fn reward_matches_qoe_formula() {
        let mut e = env(6000.0);
        e.reset();
        let s1 = e.step(2); // 1200kbps from initial 300kbps baseline
                            // First chunk: full download is a stall.
        let obs = AbrObservation::decode(&s1.obs);
        assert!(obs.buffer_s > 0.0);
        let m = QoeMetric::default();
        // Reward must equal the formula with measured rebuffer.
        assert!(s1.reward <= m.chunk_qoe(1200.0, 300.0, 0.0));
    }

    #[test]
    fn observation_decodes_consistently() {
        let mut e = env(2000.0);
        e.reset();
        let s = e.step(3);
        let obs = AbrObservation::decode(&s.obs);
        assert_eq!(obs.last_bitrate_kbps, 1850.0);
        assert_eq!(obs.last_quality(&crate::video::BITRATES_KBPS), 3);
        // Throughput on a fixed 2000kbps link is ~2 Mbps.
        let thr = *obs.throughput_mbps.last().unwrap();
        assert!((thr - 2.0).abs() < 0.1, "throughput {thr}");
        assert_eq!(obs.next_sizes_bytes.len(), 6);
        assert!(obs.remaining_frac < 1.0);
    }

    #[test]
    fn harmonic_mean_ignores_zeros() {
        let mut obs = AbrObservation::decode(&[0.0; OBS_DIM]);
        assert_eq!(obs.harmonic_throughput_mbps(5), 0.0);
        obs.throughput_mbps = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 4.0];
        let hm = obs.harmonic_throughput_mbps(5);
        assert!((hm - 8.0 / 3.0).abs() < 1e-9, "harmonic {hm}");
    }

    #[test]
    fn env_clone_counterfactuals_are_exact() {
        let mut e = env(1500.0);
        e.reset();
        e.step(1);
        let q = metis_rl::q_by_cloning(&e, |_| 0.0, 1.0);
        assert_eq!(q.len(), 6);
        // Picking the same bitrate again avoids the smoothness penalty,
        // so (absent stalls) q[1] is the 750kbps QoE with no switch term.
        let m = QoeMetric::default();
        assert!(q[1] <= m.chunk_qoe(750.0, 750.0, 0.0) + 1e-9);
        // Q must be reproducible (deterministic simulator).
        assert_eq!(q, metis_rl::q_by_cloning(&e, |_| 0.0, 1.0));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut e = env(2500.0);
        let first = e.reset();
        e.step(4);
        e.step(5);
        let again = e.reset();
        assert_eq!(first, again);
    }

    #[test]
    fn pool_builds_one_env_per_trace() {
        let video = Arc::new(VideoModel::standard(10, 1));
        let traces: Vec<Arc<NetworkTrace>> = crate::trace::hsdpa_corpus(4, 9)
            .into_iter()
            .map(Arc::new)
            .collect();
        assert_eq!(env_pool(&video, &traces).len(), 4);
    }
}
