//! Proptest suite pinning the persistent worker pool to the retained
//! spawn-per-call reference: pool-backed execution must be
//! **bit-identical** to `metis::nn::par::reference::parallel_map_indexed`
//! for every thread count, under nesting (a pipeline's stages inside a
//! `WorkloadRunner` workload), and regardless of workload submission
//! order — for plain maps, the seeded collection loop, and the §4 mask
//! search.
//!
//! Thread counts sweep 1/2/3/8/16.

use metis::core::{Workload, WorkloadRunner};
use metis::hypergraph::{optimize_mask, MaskConfig, MaskResult, MaskedMlp, OutputKind};
use metis::nn::{Activation, Mlp};
use metis::rl::env::test_envs::BanditEnv;
use metis::rl::{
    collect_seeded, CollectConfig, Controller, NetworkValue, SampledState, SoftmaxPolicy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread counts every property sweeps.
const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 8, 16];

fn assert_states_bit_identical(a: &[SampledState], b: &[SampledState], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: length diverges");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.obs, y.obs, "{label}: obs diverges");
        assert_eq!(
            x.teacher_action, y.teacher_action,
            "{label}: action diverges"
        );
        assert_eq!(
            x.weight.to_bits(),
            y.weight.to_bits(),
            "{label}: weight diverges"
        );
    }
}

/// A small real collection setup: network teacher (batched labels) and
/// network critic (batched Eq.-1 values) over a bandit pool.
struct CollectSetup {
    pool: Vec<BanditEnv>,
    teacher: SoftmaxPolicy<Mlp>,
    critic: NetworkValue<Mlp>,
    cfg: CollectConfig,
}

impl CollectSetup {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        CollectSetup {
            pool: (0..3).map(|s| BanditEnv::new(4, 10, s)).collect(),
            teacher: SoftmaxPolicy::new(Mlp::new(
                &[4, 6, 4],
                Activation::Tanh,
                Activation::Linear,
                &mut rng,
            )),
            critic: NetworkValue::new(Mlp::new(
                &[4, 5, 1],
                Activation::Tanh,
                Activation::Linear,
                &mut rng,
            )),
            cfg: CollectConfig {
                episodes: 4,
                max_steps: 8,
                gamma: 0.97,
                weighted: true,
            },
        }
    }

    fn collect(&self, seed: u64, threads: usize) -> Vec<SampledState> {
        collect_seeded(
            &self.pool,
            &self.teacher,
            &self.critic,
            &Controller::Teacher,
            &self.cfg,
            seed,
            threads,
        )
    }
}

/// A small mask-search setup over an MLP feature mask: 151 observations,
/// so the batched gradient runs two full 64-row blocks and a ragged tail.
fn mask_search(seed: u64, threads: usize) -> MaskResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Mlp::new(&[5, 8, 3], Activation::Tanh, Activation::Linear, &mut rng);
    let obs: Vec<Vec<f64>> = (0..151)
        .map(|r| (0..5).map(|c| ((r * 5 + c) as f64 * 0.17).sin()).collect())
        .collect();
    let system = MaskedMlp::new(&net, obs, OutputKind::Discrete);
    let cfg = MaskConfig {
        steps: 4,
        threads,
        ..Default::default()
    };
    optimize_mask(&system, &cfg)
}

fn assert_masks_bit_identical(a: &MaskResult, b: &MaskResult, label: &str) {
    assert_eq!(a.mask.len(), b.mask.len(), "{label}: mask length");
    for (x, y) in a.mask.iter().zip(b.mask.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: mask diverges");
    }
    for (x, y) in a.loss_history.iter().zip(b.loss_history.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: loss diverges");
    }
}

proptest! {
    /// The pool-backed map is bit-identical to the spawn-based reference
    /// for random sizes — including n == 0 and n < workers — and every
    /// thread count.
    #[test]
    fn prop_pool_map_matches_spawn_reference(n in 0usize..70, salt in 0u64..10_000) {
        let f = |i: usize| metis::nn::par::mix_seed(salt ^ (i as u64) << 7);
        for threads in THREAD_COUNTS {
            let pooled = metis::nn::par::parallel_map_indexed(n, threads, f);
            let spawned = metis::nn::par::reference::parallel_map_indexed(n, threads, f);
            prop_assert_eq!(&pooled, &spawned, "n={} threads={}", n, threads);
        }
    }

    /// Seeded collection through the pool: identical output for every
    /// thread count, and identical when the whole collection runs nested
    /// inside a WorkloadRunner workload (pipeline-inside-runner nesting).
    #[test]
    fn prop_collect_seeded_pool_and_nesting_invariant(setup_seed in 0u64..40, seed in 0u64..1000) {
        let setup = CollectSetup::new(setup_seed);
        let solo = setup.collect(seed, 1);
        for threads in THREAD_COUNTS {
            let threaded = setup.collect(seed, threads);
            assert_states_bit_identical(&solo, &threaded, "threads sweep");
        }
        let nested = WorkloadRunner::new(2).run(
            (0..3)
                .map(|k| {
                    let setup = &setup;
                    Workload::new(format!("collect-{k}"), move || setup.collect(seed, 3))
                })
                .collect(),
        );
        for result in &nested {
            assert_states_bit_identical(&solo, &result.value, "nested in runner");
        }
    }

    /// The §4 mask search through the pool: identical ranked masks and
    /// losses for every thread count, alone or sharded across workloads.
    #[test]
    fn prop_mask_search_pool_and_nesting_invariant(seed in 0u64..60) {
        let solo = mask_search(seed, 1);
        for threads in THREAD_COUNTS {
            let threaded = mask_search(seed, threads);
            assert_masks_bit_identical(&solo, &threaded, "threads sweep");
        }
        let nested = WorkloadRunner::new(2).run(
            (0..2)
                .map(|k| Workload::new(format!("mask-{k}"), move || mask_search(seed, 2)))
                .collect(),
        );
        for result in &nested {
            assert_masks_bit_identical(&solo, &result.value, "nested in runner");
        }
    }

    /// Workload submission order never changes any workload's result —
    /// only the order of the (name-keyed) result vector, which follows
    /// submission order exactly.
    #[test]
    fn prop_submission_order_invariant(setup_seed in 0u64..20, rot in 0usize..3) {
        let setup = CollectSetup::new(setup_seed);
        let seeds = [11u64, 22, 33];
        let submit = |order: Vec<usize>| {
            WorkloadRunner::new(2).run(
                order
                    .iter()
                    .map(|&k| {
                        let setup = &setup;
                        let seed = seeds[k];
                        Workload::new(format!("w{k}"), move || setup.collect(seed, 2))
                    })
                    .collect(),
            )
        };
        let forward = submit(vec![0, 1, 2]);
        let rotated = submit((0..3).map(|i| (i + rot) % 3).collect());
        for result in &rotated {
            let twin = forward
                .iter()
                .find(|r| r.name == result.name)
                .expect("same workload present in both submissions");
            assert_states_bit_identical(&twin.value, &result.value, "submission order");
        }
    }
}
