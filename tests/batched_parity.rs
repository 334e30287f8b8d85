//! Proptest parity suite for the batched inference engine: the batched
//! matrix-matrix paths must be **bit-identical** to their per-obs
//! matrix-vector oracles — for random networks, random inputs, and the
//! full seeded collection loop.

use metis::nn::{Activation, Matrix, Mlp, Network};
use metis::rl::env::test_envs::BanditEnv;
use metis::rl::{
    collect_seeded, viper, CollectConfig, Controller, NetworkValue, Policy, SoftmaxPolicy,
    ValueEstimate,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_mlp(seed: u64, dims: &[usize], act: Activation) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(dims, act, Activation::Linear, &mut rng)
}

fn random_rows(seed: u64, n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect()
}

proptest! {
    /// `predict_batch` row `i` == `predict` of row `i`, exactly, for
    /// random shapes, activations, and batch sizes.
    #[test]
    fn forward_batch_rows_match_per_obs(seed in 0u64..500, rows in 1usize..40) {
        let acts = [Activation::Tanh, Activation::Relu, Activation::Sigmoid, Activation::LeakyRelu];
        let hidden = 1 + (seed as usize % 17);
        let in_dim = 1 + (seed as usize % 9);
        let out_dim = 1 + (seed as usize % 7);
        let net = random_mlp(seed, &[in_dim, hidden, out_dim], acts[seed as usize % acts.len()]);
        let obs = random_rows(seed ^ 0xBEEF, rows, in_dim);
        let batched = net.predict_batch(&obs);
        for (r, row) in obs.iter().enumerate() {
            let single = net.predict(row);
            prop_assert_eq!(batched.row(r), single.as_slice(), "row {} diverges", r);
        }
    }

    /// Batched backward == per-obs backward, exactly: running one batch
    /// through forward/backward accumulates the same weight, bias, and
    /// input gradients as feeding the rows one at a time.
    #[test]
    fn batched_gradients_match_per_obs_accumulation(seed in 0u64..200, rows in 2usize..12) {
        let net = random_mlp(seed, &[3, 5, 2], Activation::Tanh);
        let obs = random_rows(seed ^ 0xFACE, rows, 3);
        let x = Matrix::from_rows_vec(&obs);

        // Batched: one forward + backward with dL/dy = y.
        let mut batched = net.clone();
        let y = batched.forward(&x);
        batched.zero_grad();
        let gin_batched = batched.backward(&y.clone());

        // Per-obs: same thing row by row, gradients accumulating.
        let mut per_obs = net.clone();
        per_obs.zero_grad();
        let mut gin_rows = Vec::new();
        for row in &obs {
            let xr = Matrix::row_vector(row);
            let yr = per_obs.forward(&xr);
            gin_rows.push(per_obs.backward(&yr.clone()));
        }

        for (pg_b, pg_o) in batched.params().iter_mut().zip(per_obs.params().iter_mut()) {
            for (a, b) in pg_b.grad.iter().zip(pg_o.grad.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "param grad diverges: {} vs {}", a, b);
            }
        }
        for (r, gr) in gin_rows.iter().enumerate() {
            prop_assert_eq!(gin_batched.row(r), gr.row(0), "input grad row {} diverges", r);
        }
    }

    /// `collect_seeded` (batched labelling) == the per-obs oracle, bit for
    /// bit, across controller modes, thread counts, and random teachers.
    #[test]
    fn collect_seeded_matches_oracle(seed in 0u64..60, threads in 1usize..4) {
        let contexts = 3 + (seed as usize % 3);
        let pool: Vec<BanditEnv> = (0..3).map(|s| BanditEnv::new(contexts, 10, seed ^ s)).collect();
        let teacher = SoftmaxPolicy::new(random_mlp(seed, &[contexts, 8, contexts], Activation::Tanh));
        let student = SoftmaxPolicy::new(random_mlp(seed ^ 1, &[contexts, 6, contexts], Activation::Tanh));
        let critic = NetworkValue::new(random_mlp(seed ^ 2, &[contexts, 6, 1], Activation::Tanh));
        let cfg = CollectConfig {
            episodes: 4,
            max_steps: 10,
            gamma: 0.95,
            weighted: true,
        };
        for controller in [
            Controller::Teacher,
            Controller::Student(&student),
            Controller::StudentWithTakeover(&student, 0.5),
        ] {
            let batched = collect_seeded(&pool, &teacher, &critic, &controller, &cfg, seed, threads);
            let oracle =
                viper::oracle::collect_seeded(&pool, &teacher, &critic, &controller, &cfg, seed, 1);
            prop_assert_eq!(batched.len(), oracle.len());
            for (b, o) in batched.iter().zip(oracle.iter()) {
                prop_assert_eq!(&b.obs, &o.obs);
                prop_assert_eq!(b.teacher_action, o.teacher_action);
                prop_assert_eq!(b.weight.to_bits(), o.weight.to_bits(),
                    "weight diverges: {} vs {}", b.weight, o.weight);
            }
        }
    }
}

/// The batched value estimate must agree with per-obs queries exactly —
/// including through `forward_batch_threads` sharding.
#[test]
fn network_value_and_sharded_forward_parity() {
    let critic = random_mlp(99, &[6, 12, 1], Activation::Tanh);
    let nv = NetworkValue::new(critic.clone());
    let obs = random_rows(7, 150, 6);
    let m = Matrix::from_rows_vec(&obs);
    let batched = nv.value_batch(&m);
    let sharded = critic.forward_batch_threads(&m, 3);
    for (r, row) in obs.iter().enumerate() {
        assert_eq!(batched[r].to_bits(), nv.value(row).to_bits());
        assert_eq!(sharded[(r, 0)].to_bits(), nv.value(row).to_bits());
    }
}

/// Policy batch queries match their per-obs counterparts exactly, and the
/// fused probs+greedy query matches the two separate ones.
#[test]
fn policy_batch_queries_match_per_obs() {
    let policy = SoftmaxPolicy::new(random_mlp(5, &[4, 10, 5], Activation::Tanh));
    let obs = random_rows(11, 33, 4);
    let m = Matrix::from_rows_vec(&obs);
    let probs = policy.action_probs_batch(&m);
    let actions = policy.act_greedy_batch(&m);
    let (probs2, actions2) = policy.probs_and_greedy_batch(&m);
    assert_eq!(probs, probs2);
    assert_eq!(actions, actions2);
    for (r, row) in obs.iter().enumerate() {
        assert_eq!(probs[r], policy.action_probs(row));
        assert_eq!(actions[r], policy.act_greedy(row));
    }
}
