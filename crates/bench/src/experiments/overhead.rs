//! Figure 31 (Appendix G): offline computation overhead of the conversion
//! (tree extraction vs leaf count) and of the mask search.

use crate::setup;
use metis_abr::PensieveArch;
use metis_core::{ConversionConfig, ConversionPipeline};
use metis_hypergraph::MaskConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::Write;
use std::time::Instant;

/// Figure 31 + the "80 seconds on average" mask-search measurement.
pub fn fig31(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "=== Figure 31: offline computation overhead ===")?;
    let s = setup::pensieve(42, PensieveArch::Original, 200);
    let mut rng = StdRng::seed_from_u64(1);
    writeln!(out, "decision-tree extraction (Pensieve teacher):")?;
    writeln!(out, "{:>8} {:>12}", "leaves", "seconds")?;
    for leaves in [10, 100, 1000, 5000] {
        let cfg = ConversionConfig {
            max_leaf_nodes: leaves,
            episodes_per_round: 12,
            max_steps: 512,
            dagger_rounds: 0,
            ..Default::default()
        };
        let t0 = Instant::now();
        let _ = ConversionPipeline::new(&s.train_pool, &s.agent.policy, |_| 0.0)
            .conversion(cfg)
            .seed(rng.next_u64())
            .run();
        writeln!(out, "{:>8} {:>12.2}", leaves, t0.elapsed().as_secs_f64())?;
    }
    writeln!(
        out,
        "(paper: < 40 s at every setting, < 1 minute at 5000 leaves)"
    )?;

    let r = setup::routing(42, 15, 2, 30);
    let cfg = MaskConfig {
        steps: 300,
        ..Default::default()
    };
    let mut times = Vec::new();
    for (sample, routing) in r.samples.iter().zip(r.routings.iter()) {
        let system = metis_core::MaskedRouting::new(&r.model, &r.topo, &sample.demands, routing);
        let t0 = Instant::now();
        let _ = metis_hypergraph::optimize_mask(&system, &cfg);
        times.push(t0.elapsed().as_secs_f64());
    }
    writeln!(
        out,
        "hypergraph mask search (RouteNet*, {} steps): mean {:.1} s over {} samples",
        cfg.steps,
        metis_core::mean(&times),
        times.len()
    )?;
    writeln!(
        out,
        "(paper: 80 s on average; negligible vs hours-to-days of DNN training)"
    )?;
    Ok(())
}
