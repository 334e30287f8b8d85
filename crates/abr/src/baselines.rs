//! The five heuristic ABR baselines of the paper's evaluation (§5):
//! BB \[34\], RB \[50\], FESTIVE \[37\], BOLA \[71\], and robustMPC \[82\].
//!
//! Every baseline implements [`metis_rl::Policy`] over the same observation
//! the DNN sees (decoded via [`AbrObservation`]), so baselines, teacher
//! DNNs and student trees are all evaluated by the same rollout machinery.

use crate::env::AbrObservation;
use crate::qoe::QoeMetric;
use crate::video::{BITRATES_KBPS, CHUNK_DURATION_S};
use metis_rl::Policy;

fn onehot(n: usize, idx: usize) -> Vec<f64> {
    let mut p = vec![0.0; n];
    p[idx] = 1.0;
    p
}

/// Highest rung whose bitrate is at most `kbps` (rung 0 if none).
fn highest_below(kbps: f64) -> usize {
    let mut best = 0;
    for (i, &b) in BITRATES_KBPS.iter().enumerate() {
        if b <= kbps {
            best = i;
        }
    }
    best
}

/// **BB** — buffer-based rate adaptation (Huang et al., SIGCOMM 2014):
/// a reservoir of low-rate protection, then a linear cushion mapping
/// buffer occupancy to the ladder.
#[derive(Debug, Clone)]
pub struct BufferBased {
    pub reservoir_s: f64,
    pub cushion_s: f64,
}

impl Default for BufferBased {
    fn default() -> Self {
        BufferBased {
            reservoir_s: 5.0,
            cushion_s: 10.0,
        }
    }
}

impl Policy for BufferBased {
    fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
        let o = AbrObservation::decode(obs);
        let n = BITRATES_KBPS.len();
        let action = if o.buffer_s < self.reservoir_s {
            0
        } else if o.buffer_s >= self.reservoir_s + self.cushion_s {
            n - 1
        } else {
            let frac = (o.buffer_s - self.reservoir_s) / self.cushion_s;
            ((frac * (n - 1) as f64).floor() as usize).min(n - 1)
        };
        onehot(n, action)
    }
}

/// **RB** — rate-based: harmonic-mean throughput of the last 5 chunks,
/// pick the highest rung below it.
#[derive(Debug, Clone, Default)]
pub struct RateBased;

impl Policy for RateBased {
    fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
        let o = AbrObservation::decode(obs);
        let predicted_kbps = o.harmonic_throughput_mbps(5) * 1000.0;
        onehot(BITRATES_KBPS.len(), highest_below(predicted_kbps))
    }
}

/// **FESTIVE** (Jiang et al., CoNEXT 2012) — rate-based target with an
/// efficiency margin and gradual switch-up for stability.
#[derive(Debug, Clone)]
pub struct Festive {
    /// Fraction of predicted bandwidth considered safe to use.
    pub efficiency: f64,
}

impl Default for Festive {
    fn default() -> Self {
        Festive { efficiency: 0.85 }
    }
}

impl Policy for Festive {
    fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
        let o = AbrObservation::decode(obs);
        let target_kbps = o.harmonic_throughput_mbps(5) * 1000.0 * self.efficiency;
        let reference = highest_below(target_kbps);
        let last = o.last_quality(&BITRATES_KBPS);
        // Stability: step up at most one rung at a time; drop immediately.
        let action = if reference > last {
            last + 1
        } else {
            reference
        };
        onehot(BITRATES_KBPS.len(), action)
    }
}

/// **BOLA** (Spiteri et al., INFOCOM 2016) — Lyapunov-based buffer control:
/// maximize `(V·(u_q + γp) − Q) / S_q` where `u_q = ln(S_q/S_min)`,
/// `Q` is the buffer in chunks and `S_q` the chunk size.
#[derive(Debug, Clone)]
pub struct Bola {
    /// Target maximum buffer, in chunks.
    pub buffer_target_chunks: f64,
    /// Rebuffer-vs-quality tradeoff γp (in utility units).
    pub gamma_p: f64,
}

impl Default for Bola {
    fn default() -> Self {
        Bola {
            buffer_target_chunks: 15.0,
            gamma_p: 5.0,
        }
    }
}

impl Policy for Bola {
    fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
        let o = AbrObservation::decode(obs);
        let n = BITRATES_KBPS.len();
        let s_min = BITRATES_KBPS[0];
        let utilities: Vec<f64> = BITRATES_KBPS.iter().map(|&b| (b / s_min).ln()).collect();
        // Control parameter V chosen so the top rung is preferred exactly
        // when the buffer reaches the target (standard BOLA tuning).
        let v = (self.buffer_target_chunks - 1.0) / (utilities[n - 1] + self.gamma_p);
        let q_chunks = o.buffer_s / CHUNK_DURATION_S;
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for i in 0..n {
            // Sizes proportional to bitrate; the constant cancels in argmax
            // scale but not in the score, so use relative size.
            let rel_size = BITRATES_KBPS[i] / s_min;
            let score = (v * (utilities[i] + self.gamma_p) - q_chunks) / rel_size;
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        onehot(n, best)
    }
}

/// **robustMPC** (Yin et al., SIGCOMM 2015) — model-predictive control over
/// a 5-chunk horizon with a robust (discounted) throughput estimate.
#[derive(Debug, Clone)]
pub struct RobustMpc {
    pub horizon: usize,
    pub metric: QoeMetric,
}

impl Default for RobustMpc {
    fn default() -> Self {
        RobustMpc {
            horizon: 5,
            metric: QoeMetric::default(),
        }
    }
}

impl RobustMpc {
    /// Robust throughput: harmonic mean discounted by the recent maximum
    /// prediction error (computed inside the observation window, keeping
    /// the policy stateless).
    fn robust_throughput_mbps(o: &AbrObservation) -> f64 {
        let hm = o.harmonic_throughput_mbps(5);
        if hm <= 0.0 {
            return 0.0;
        }
        // Rolling one-step prediction errors within the window.
        let thr = &o.throughput_mbps;
        let mut max_err: f64 = 0.0;
        for t in 5..thr.len() {
            let past: Vec<f64> = thr[t - 5..t].iter().cloned().filter(|&x| x > 0.0).collect();
            if past.is_empty() || thr[t] <= 0.0 {
                continue;
            }
            let pred = past.len() as f64 / past.iter().map(|x| 1.0 / x).sum::<f64>();
            max_err = max_err.max((pred - thr[t]).abs() / thr[t]);
        }
        hm / (1.0 + max_err)
    }

    fn best_first_action(&self, o: &AbrObservation) -> usize {
        let n = BITRATES_KBPS.len();
        let thr_mbps = Self::robust_throughput_mbps(o);
        if thr_mbps <= 0.0 {
            return 0; // no estimate yet: be conservative
        }
        let rate_bytes_per_s = thr_mbps * 1e6 / 8.0;
        let last = o.last_quality(&BITRATES_KBPS);

        // Exhaustive search over the horizon (6^5 = 7776 sequences).
        let mut best_action = 0;
        let mut best_score = f64::NEG_INFINITY;
        let mut seq = vec![0usize; self.horizon];
        loop {
            // Simulate the buffer forward under the candidate sequence.
            let mut buffer = o.buffer_s;
            let mut prev = last;
            let mut score = 0.0;
            for (step, &q) in seq.iter().enumerate() {
                // First step uses the true next-chunk sizes; later steps
                // fall back to nominal sizes (future sizes unknown).
                let size = if step == 0 {
                    o.next_sizes_bytes[q]
                } else {
                    BITRATES_KBPS[q] * 1000.0 / 8.0 * CHUNK_DURATION_S
                };
                let dt = size / rate_bytes_per_s;
                let rebuf = (dt - buffer).max(0.0);
                buffer = (buffer - dt).max(0.0) + CHUNK_DURATION_S;
                score += self
                    .metric
                    .chunk_qoe(BITRATES_KBPS[q], BITRATES_KBPS[prev], rebuf);
                prev = q;
            }
            if score > best_score {
                best_score = score;
                best_action = seq[0];
            }
            // Advance the mixed-radix counter.
            let mut i = 0;
            loop {
                seq[i] += 1;
                if seq[i] < n {
                    break;
                }
                seq[i] = 0;
                i += 1;
                if i == self.horizon {
                    return best_action;
                }
            }
        }
    }
}

impl Policy for RobustMpc {
    fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
        let o = AbrObservation::decode(obs);
        onehot(BITRATES_KBPS.len(), self.best_first_action(&o))
    }
}

/// A fixed-bitrate "algorithm" (always the lowest rung) — the resource
/// baseline of Figure 17(b).
#[derive(Debug, Clone, Default)]
pub struct FixedLowest;

impl Policy for FixedLowest {
    fn action_probs(&self, _obs: &[f64]) -> Vec<f64> {
        onehot(BITRATES_KBPS.len(), 0)
    }
}

/// All named baselines, for sweep-style experiments.
pub fn baseline_names() -> Vec<&'static str> {
    vec!["BB", "RB", "FESTIVE", "BOLA", "rMPC"]
}

/// Instantiate a baseline by name.
pub fn baseline_by_name(name: &str) -> Box<dyn Policy + Sync> {
    match name {
        "BB" => Box::new(BufferBased::default()),
        "RB" => Box::new(RateBased),
        "FESTIVE" => Box::new(Festive::default()),
        "BOLA" => Box::new(Bola::default()),
        "rMPC" => Box::new(RobustMpc::default()),
        "Fixed" => Box::new(FixedLowest),
        other => panic!("unknown baseline {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{AbrEnv, OBS_DIM};
    use crate::trace::NetworkTrace;
    use crate::video::VideoModel;
    use metis_rl::{rollout, ActionMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Build a raw observation with the given buffer and throughput.
    fn obs_with(buffer_s: f64, thr_mbps: f64, last_quality: usize) -> Vec<f64> {
        let mut obs = vec![0.0; OBS_DIM];
        obs[0] = BITRATES_KBPS[last_quality] / 4300.0;
        obs[1] = buffer_s / 10.0;
        obs[2..10].fill(thr_mbps / 8.0);
        obs[10..18].fill(0.4); // 4s downloads
        for (k, &b) in BITRATES_KBPS.iter().enumerate() {
            obs[18 + k] = b * 1000.0 / 8.0 * 4.0 / 1e6;
        }
        obs[24] = 0.5;
        obs
    }

    #[test]
    fn bb_low_buffer_lowest_bitrate() {
        let bb = BufferBased::default();
        assert_eq!(bb.act_greedy(&obs_with(2.0, 5.0, 3)), 0);
        assert_eq!(bb.act_greedy(&obs_with(30.0, 5.0, 3)), 5);
        // Monotone in buffer.
        let mut prev = 0;
        for b in [5.0, 7.0, 9.0, 11.0, 13.0, 15.0] {
            let a = bb.act_greedy(&obs_with(b, 5.0, 3));
            assert!(a >= prev, "BB must be monotone in buffer");
            prev = a;
        }
    }

    #[test]
    fn rb_follows_throughput() {
        let rb = RateBased;
        assert_eq!(rb.act_greedy(&obs_with(10.0, 0.5, 0)), 0); // 500kbps -> 300
        assert_eq!(rb.act_greedy(&obs_with(10.0, 2.0, 0)), 3); // 2000kbps -> 1850
        assert_eq!(rb.act_greedy(&obs_with(10.0, 5.0, 0)), 5); // 5000 -> 4300
    }

    #[test]
    fn festive_steps_up_gradually() {
        let f = Festive::default();
        // Huge bandwidth but last quality 0: may only step to 1.
        assert_eq!(f.act_greedy(&obs_with(20.0, 6.0, 0)), 1);
        // Low bandwidth: drops immediately regardless of last quality.
        assert!(f.act_greedy(&obs_with(20.0, 0.4, 5)) <= 1);
    }

    #[test]
    fn bola_monotone_in_buffer() {
        let bola = Bola::default();
        let low = bola.act_greedy(&obs_with(1.0, 2.0, 2));
        let high = bola.act_greedy(&obs_with(55.0, 2.0, 2));
        assert!(low <= high);
        assert_eq!(low, 0, "near-empty buffer must choose the lowest rung");
        assert_eq!(high, 5, "a full buffer must allow the top rung");
    }

    #[test]
    fn rmpc_matches_bandwidth_on_steady_link() {
        let mpc = RobustMpc::default();
        // 3 Mbps steady at the steady-state buffer (~6 s): the sustainable
        // rung is 2850 kbps. (At a very full buffer, finite-horizon MPC
        // legitimately rides a higher rung until stalls enter the horizon.)
        let a = mpc.act_greedy(&obs_with(6.0, 3.0, 4));
        assert_eq!(a, 4, "rMPC should hold 2850kbps on a 3Mbps link");
        // 0.5 Mbps: must drop to the lowest rungs.
        let a_slow = mpc.act_greedy(&obs_with(4.0, 0.5, 4));
        assert!(
            a_slow <= 1,
            "rMPC must drop on a 0.5Mbps link, got {a_slow}"
        );
    }

    #[test]
    fn rmpc_no_estimate_is_conservative() {
        let mpc = RobustMpc::default();
        let obs = vec![0.0; OBS_DIM];
        assert_eq!(mpc.act_greedy(&obs), 0);
    }

    #[test]
    fn all_baselines_complete_an_episode() {
        let video = Arc::new(VideoModel::standard(20, 3));
        let trace = Arc::new(NetworkTrace::fixed(2000.0, 400.0));
        let mut rng = StdRng::seed_from_u64(0);
        for name in baseline_names() {
            let policy = baseline_by_name(name);
            let mut env = AbrEnv::new(video.clone(), trace.clone(), 0.0);
            let traj = rollout(&mut env, policy.as_ref(), ActionMode::Greedy, 100, &mut rng);
            assert_eq!(traj.len(), 20, "{name} must finish the video");
            assert!(traj.terminated);
            assert!(
                traj.total_reward().is_finite(),
                "{name} produced a non-finite QoE"
            );
        }
    }

    #[test]
    fn baselines_beat_fixed_lowest_on_good_link() {
        let video = Arc::new(VideoModel::standard(30, 5));
        let trace = Arc::new(NetworkTrace::fixed(4000.0, 600.0));
        let mut rng = StdRng::seed_from_u64(0);
        let mut score = |p: &dyn Policy| {
            let mut env = AbrEnv::new(video.clone(), trace.clone(), 0.0);
            rollout(&mut env, p, ActionMode::Greedy, 100, &mut rng).total_reward()
        };
        let fixed = score(&FixedLowest);
        for name in baseline_names() {
            let s = score(baseline_by_name(name).as_ref());
            assert!(
                s > fixed,
                "{name} ({s:.2}) should beat always-lowest ({fixed:.2}) on a 4Mbps link"
            );
        }
    }
}
