//! `mask_routenet`: the §4 critical-connection search (`optimize_mask`,
//! default `MaskConfig`) on RouteNet* over NSFNet, cycling over K demand
//! samples. The only workload that runs `metis_hypergraph` and
//! `metis_routing`: the global-interpretation half of the paper.

use crate::hostspeed;
use crate::ledger;
use crate::report::Outcome;
use crate::stats::median;
use crate::Args;
use metis_bench::setup::routing;
use metis_core::MaskedRouting;
use metis_hypergraph::{optimize_mask, MaskConfig, MaskResult, MaskedSystem, OutputKind};
use metis_nn::tape::{Tape, Var};
use std::cell::Cell;
use std::time::Instant;

const DEMANDS: usize = 20;
const SAMPLES: usize = 4;
const TRAIN_EPOCHS: usize = 30;
const SETUPS: usize = 9;
/// Fewest untraced searches, however short the time budget.
const MIN_RUNS: usize = 10;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, s) = hostspeed::median_setup(SETUPS, || {
        routing(args.seed, DEMANDS, SAMPLES, TRAIN_EPOCHS)
    });
    out.set("setup_s", setup_s);
    let cfg = MaskConfig::default();
    let systems: Vec<MaskedRouting> = s
        .samples
        .iter()
        .zip(&s.routings)
        .map(|(sample, r)| MaskedRouting::new(&s.model, &s.topo, &sample.demands, r))
        .collect();
    let mut first: Vec<Option<MaskResult>> = vec![None; systems.len()];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // A seed fixes the search: every repeat on a sample must reproduce
    // the first mask and loss trajectory bit for bit.
    let mut check = |k: usize, result: &MaskResult| {
        let reference = first[k].get_or_insert_with(|| result.clone());
        attempted += 1;
        failed += u64::from(!same(reference, result));
    };

    let t = Instant::now();
    let mut k = 0;
    if !args.trace {
        let mut walls = Vec::new();
        while walls.len() < MIN_RUNS || t.elapsed().as_secs_f64() < args.seconds {
            let (secs, result) = hostspeed::timed(|| optimize_mask(&systems[k], &cfg));
            walls.push(secs * 1e3);
            check(k, &result);
            k = (k + 1) % systems.len();
        }
        let p50 = median(&walls);
        out.set("throughput_per_s", cfg.steps as f64 / (p50 * 1e-3));
        out.set("p50_ms", p50);
    } else {
        let (mut off, mut on, mut forward, mut grad) = (vec![], vec![], vec![], vec![]);
        while off.len() < 2 * SAMPLES || t.elapsed().as_secs_f64() < args.seconds {
            let timed = Timed::new(&systems[k]);
            // Alternate which side of the pair runs first.
            for traced in [off.len() % 2 == 1, off.len() % 2 == 0] {
                let t = Instant::now();
                let result = if traced {
                    optimize_mask(&timed, &cfg)
                } else {
                    optimize_mask(&systems[k], &cfg)
                };
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if traced { &mut on } else { &mut off }.push(ms);
                check(k, &result);
            }
            forward.push(timed.forward_s.get() * 1e3);
            grad.push(timed.grad_s.get() * 1e3 / timed.grads.get().max(1) as f64);
            k = (k + 1) % systems.len();
        }
        let losses: Vec<f64> = first
            .iter()
            .flatten()
            .map(|r| *r.loss_history.last().expect("at least one step"))
            .collect();
        let (forward, grad) = (median(&forward), median(&grad));
        out.set(
            "mask_loss",
            losses.iter().sum::<f64>() / losses.len() as f64,
        );
        out.set("routing.forward_ms", forward);
        out.set("hypergraph.grad_ms", grad);
        out.set("hypergraph.steps", cfg.steps as f64);
        out.set(
            "ledger_closure_pct",
            ledger::closure_pct(&[forward, grad * cfg.steps as f64], median(&off)),
        );
        out.set(
            "tracing_overhead_pct",
            ledger::overhead_pct(median(&off), median(&on)),
        );
    }
    out.attempted = attempted;
    out.failed = failed;
    out.checks_passed = true;
    out
}

fn same(a: &MaskResult, b: &MaskResult) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    bits(&a.mask) == bits(&b.mask) && bits(&a.loss_history) == bits(&b.loss_history)
}

/// A masked system that times the calls the search makes into it:
/// RouteNet's reference forward pass and the hypergraph gradient.
struct Timed<'a, S> {
    inner: &'a S,
    forward_s: Cell<f64>,
    grad_s: Cell<f64>,
    grads: Cell<u64>,
}

impl<'a, S: MaskedSystem> Timed<'a, S> {
    fn new(inner: &'a S) -> Self {
        Timed {
            inner,
            forward_s: Cell::new(0.0),
            grad_s: Cell::new(0.0),
            grads: Cell::new(0),
        }
    }
}

impl<S: MaskedSystem> MaskedSystem for Timed<'_, S> {
    fn n_connections(&self) -> usize {
        self.inner.n_connections()
    }

    fn reference_output(&self) -> Vec<f64> {
        let t = Instant::now();
        let out = self.inner.reference_output();
        self.forward_s
            .set(self.forward_s.get() + t.elapsed().as_secs_f64());
        out
    }

    fn masked_output<'t>(&self, tape: &'t Tape, mask: &[Var<'t>]) -> Vec<Var<'t>> {
        self.inner.masked_output(tape, mask)
    }

    fn output_kind(&self) -> OutputKind {
        self.inner.output_kind()
    }

    fn d_value_grad(&self, mask: &[f64], reference: &[f64], threads: usize) -> (f64, Vec<f64>) {
        let t = Instant::now();
        let out = self.inner.d_value_grad(mask, reference, threads);
        self.grad_s
            .set(self.grad_s.get() + t.elapsed().as_secs_f64());
        self.grads.set(self.grads.get() + 1);
        out
    }
}
