//! Scalar reverse-mode automatic differentiation on a tape.
//!
//! This is the engine behind the hypergraph mask search (§4.2 of the paper)
//! and the RouteNet message-passing model: ad-hoc differentiable programs
//! whose structure does not fit the layered MLP API. Usage:
//!
//! ```
//! use metis_nn::tape::Tape;
//! let tape = Tape::new();
//! let x = tape.var(2.0);
//! let y = tape.var(3.0);
//! let z = (x * y + x.exp()).tanh();
//! let grads = z.grad();
//! let dz_dx = grads.wrt(x);
//! # assert!(dz_dx.is_finite());
//! ```
//!
//! Nodes are appended to an append-only arena; `grad()` walks the arena in
//! reverse. Each node has at most two parents, which covers every operator
//! we need and keeps the node representation a flat POD. Both operands of
//! a binary operator must live on the same tape (checked on every node).
//!
//! The recording path (`Tape::var`, the operators and the elementwise
//! methods on [`Var`], [`sum`], [`Grads::wrt`]) is `#[inline]`: every
//! caller is in another crate (`metis_routing`, `metis_hypergraph`,
//! `metis_core`) and no build profile turns on LTO, so without the hint
//! each recorded node is an out-of-line call into this crate. RouteNet's
//! message passing records ~43k nodes per §4 search step, and losing the
//! hint costs that search about 1.7×. Reusing a cleared, pre-sized arena
//! measured no gain: the cost was the call, not the allocation.

use std::cell::RefCell;
use std::ops::{Add, Div, Mul, Neg, Sub};

const NO_PARENT: usize = usize::MAX;

#[derive(Clone, Copy)]
struct Node {
    parents: [usize; 2],
    partials: [f64; 2],
}

/// Arena of computation nodes. Create [`Var`]s with [`Tape::var`].
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Create a leaf variable.
    #[inline]
    pub fn var(&self, val: f64) -> Var<'_> {
        let idx = self.push(NO_PARENT, 0.0, NO_PARENT, 0.0);
        Var {
            tape: self,
            idx,
            val,
        }
    }

    /// Create many leaf variables at once.
    #[inline]
    pub fn vars(&self, vals: &[f64]) -> Vec<Var<'_>> {
        vals.iter().map(|&v| self.var(v)).collect()
    }

    #[inline]
    fn push(&self, p0: usize, d0: f64, p1: usize, d1: f64) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            parents: [p0, p1],
            partials: [d0, d1],
        });
        nodes.len() - 1
    }

    #[inline]
    fn unary(&self, a: &Var<'_>, val: f64, da: f64) -> Var<'_> {
        let idx = self.push(a.idx, da, NO_PARENT, 0.0);
        Var {
            tape: self,
            idx,
            val,
        }
    }

    #[inline]
    fn binary(&self, a: &Var<'_>, b: &Var<'_>, val: f64, da: f64, db: f64) -> Var<'_> {
        // `a` is on `self` by construction; an index from another tape
        // would name a node of the wrong arena.
        assert!(
            std::ptr::eq(self, b.tape),
            "tape: binary operands recorded on two different tapes"
        );
        let idx = self.push(a.idx, da, b.idx, db);
        Var {
            tape: self,
            idx,
            val,
        }
    }
}

/// A value tracked on a [`Tape`]. Copyable; arithmetic operators record
/// nodes onto the owning tape.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    idx: usize,
    val: f64,
}

impl<'t> Var<'t> {
    /// Current value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.val
    }

    /// Run the backward pass from this variable and collect all adjoints.
    pub fn grad(&self) -> Grads {
        let nodes = self.tape.nodes.borrow();
        let mut adjoints = vec![0.0; nodes.len()];
        adjoints[self.idx] = 1.0;
        for i in (0..=self.idx).rev() {
            let a = adjoints[i];
            if a == 0.0 {
                continue;
            }
            let node = nodes[i];
            for k in 0..2 {
                let p = node.parents[k];
                if p != NO_PARENT {
                    adjoints[p] += a * node.partials[k];
                }
            }
        }
        Grads { adjoints }
    }

    #[inline]
    pub fn exp(self) -> Var<'t> {
        let v = self.val.exp();
        self.tape.unary(&self, v, v)
    }

    /// Natural log; input is floored at 1e-300 to avoid -inf.
    #[inline]
    pub fn ln(self) -> Var<'t> {
        let x = self.val.max(1e-300);
        self.tape.unary(&self, x.ln(), 1.0 / x)
    }

    #[inline]
    pub fn sigmoid(self) -> Var<'t> {
        let s = 1.0 / (1.0 + (-self.val).exp());
        self.tape.unary(&self, s, s * (1.0 - s))
    }

    #[inline]
    pub fn tanh(self) -> Var<'t> {
        let t = self.val.tanh();
        self.tape.unary(&self, t, 1.0 - t * t)
    }

    #[inline]
    pub fn relu(self) -> Var<'t> {
        if self.val > 0.0 {
            self.tape.unary(&self, self.val, 1.0)
        } else {
            self.tape.unary(&self, 0.0, 0.0)
        }
    }

    #[inline]
    pub fn leaky_relu(self) -> Var<'t> {
        if self.val > 0.0 {
            self.tape.unary(&self, self.val, 1.0)
        } else {
            self.tape.unary(&self, 0.01 * self.val, 0.01)
        }
    }

    /// Apply one of the layer activations (mirrors
    /// [`crate::layer::Activation::apply`]; [`BVar::activation`] is the
    /// batched twin — both record the same node per row).
    #[inline]
    pub fn activation(self, act: crate::layer::Activation) -> Var<'t> {
        use crate::layer::Activation;
        match act {
            Activation::Relu => self.relu(),
            Activation::LeakyRelu => self.leaky_relu(),
            Activation::Tanh => self.tanh(),
            Activation::Sigmoid => self.sigmoid(),
            Activation::Linear => self.tape.unary(&self, self.val, 1.0),
        }
    }

    #[inline]
    pub fn sqrt(self) -> Var<'t> {
        let s = self.val.max(0.0).sqrt();
        self.tape.unary(&self, s, 0.5 / s.max(1e-12))
    }

    #[inline]
    pub fn powi(self, n: i32) -> Var<'t> {
        let v = self.val.powi(n);
        self.tape.unary(&self, v, n as f64 * self.val.powi(n - 1))
    }

    #[inline]
    pub fn square(self) -> Var<'t> {
        self.powi(2)
    }

    #[inline]
    pub fn abs(self) -> Var<'t> {
        self.tape.unary(&self, self.val.abs(), self.val.signum())
    }

    /// Reciprocal `1/x`.
    #[inline]
    pub fn recip(self) -> Var<'t> {
        let v = 1.0 / self.val;
        self.tape.unary(&self, v, -v * v)
    }

    /// Binary entropy `-(w ln w + (1-w) ln(1-w))` with clamping, the
    /// determinism term of the Metis mask objective (Eq. 8).
    #[inline]
    pub fn binary_entropy(self) -> Var<'t> {
        // Clamp via a pass-through node so gradients vanish smoothly at the
        // boundary instead of exploding.
        let w = self;
        let one_minus = -w + 1.0;
        -(w * w.ln() + one_minus * one_minus.ln())
    }
}

/// Adjoints produced by [`Var::grad`].
pub struct Grads {
    adjoints: Vec<f64>,
}

impl Grads {
    /// Gradient of the root with respect to `v`.
    #[inline]
    pub fn wrt(&self, v: Var<'_>) -> f64 {
        self.adjoints[v.idx]
    }
}

/// Sum a slice of vars (returns a fresh zero var for an empty slice).
#[inline]
pub fn sum<'t>(tape: &'t Tape, vars: &[Var<'t>]) -> Var<'t> {
    match vars.split_first() {
        None => tape.var(0.0),
        Some((&first, rest)) => rest.iter().fold(first, |acc, &v| acc + v),
    }
}

// ---- operator impls ----

impl<'t> Add for Var<'t> {
    type Output = Var<'t>;
    #[inline]
    fn add(self, rhs: Var<'t>) -> Var<'t> {
        self.tape.binary(&self, &rhs, self.val + rhs.val, 1.0, 1.0)
    }
}

impl<'t> Sub for Var<'t> {
    type Output = Var<'t>;
    #[inline]
    fn sub(self, rhs: Var<'t>) -> Var<'t> {
        self.tape.binary(&self, &rhs, self.val - rhs.val, 1.0, -1.0)
    }
}

impl<'t> Mul for Var<'t> {
    type Output = Var<'t>;
    #[inline]
    fn mul(self, rhs: Var<'t>) -> Var<'t> {
        self.tape
            .binary(&self, &rhs, self.val * rhs.val, rhs.val, self.val)
    }
}

impl<'t> Div for Var<'t> {
    type Output = Var<'t>;
    #[inline]
    fn div(self, rhs: Var<'t>) -> Var<'t> {
        let inv = 1.0 / rhs.val;
        self.tape
            .binary(&self, &rhs, self.val * inv, inv, -self.val * inv * inv)
    }
}

impl<'t> Neg for Var<'t> {
    type Output = Var<'t>;
    #[inline]
    fn neg(self) -> Var<'t> {
        self.tape.unary(&self, -self.val, -1.0)
    }
}

impl<'t> Add<f64> for Var<'t> {
    type Output = Var<'t>;
    #[inline]
    fn add(self, rhs: f64) -> Var<'t> {
        self.tape.unary(&self, self.val + rhs, 1.0)
    }
}

impl<'t> Sub<f64> for Var<'t> {
    type Output = Var<'t>;
    #[inline]
    fn sub(self, rhs: f64) -> Var<'t> {
        self.tape.unary(&self, self.val - rhs, 1.0)
    }
}

impl<'t> Mul<f64> for Var<'t> {
    type Output = Var<'t>;
    #[inline]
    fn mul(self, rhs: f64) -> Var<'t> {
        self.tape.unary(&self, self.val * rhs, rhs)
    }
}

impl<'t> Div<f64> for Var<'t> {
    type Output = Var<'t>;
    #[inline]
    fn div(self, rhs: f64) -> Var<'t> {
        self.tape.unary(&self, self.val / rhs, 1.0 / rhs)
    }
}

impl<'t> Add<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[inline]
    fn add(self, rhs: Var<'t>) -> Var<'t> {
        rhs + self
    }
}

impl<'t> Sub<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[inline]
    fn sub(self, rhs: Var<'t>) -> Var<'t> {
        -rhs + self
    }
}

impl<'t> Mul<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[inline]
    fn mul(self, rhs: Var<'t>) -> Var<'t> {
        rhs * self
    }
}

impl<'t> Div<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[allow(clippy::suspicious_arithmetic_impl)] // a / b == recip(b) * a
    #[inline]
    fn div(self, rhs: Var<'t>) -> Var<'t> {
        rhs.recip() * self
    }
}

// ---- batched tape ----

struct BatchNode {
    parents: [usize; 2],
    /// Per-row partial derivatives towards each parent (empty when the
    /// parent slot is unused).
    partials: [Vec<f64>; 2],
    vals: Vec<f64>,
}

/// A reverse-mode tape where every node carries **one value per batch
/// row** and elementwise semantics across rows: recording one program
/// evaluates it for N independent rows at once, and a single backward
/// sweep yields per-row gradients ([`BatchGrads::wrt`]).
///
/// Each row's value and partials are produced by exactly the scalar
/// formulas of [`Var`], so row `r` of a batched program is bit-identical
/// to running the same program on a scalar [`Tape`] with row `r`'s
/// inputs — the oracle relationship the §4 mask-search parity tests pin.
pub struct BatchTape {
    batch: usize,
    nodes: RefCell<Vec<BatchNode>>,
}

impl BatchTape {
    /// A tape whose vars all carry `batch` rows.
    pub fn new(batch: usize) -> Self {
        assert!(batch > 0, "BatchTape: batch must be positive");
        BatchTape {
            batch,
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Rows carried by every var on this tape.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Leaf variable with one value per row.
    pub fn var(&self, vals: &[f64]) -> BVar<'_> {
        assert_eq!(vals.len(), self.batch, "BatchTape::var: row count mismatch");
        self.push_leaf(vals.to_vec())
    }

    /// Leaf variable with the same value in every row (e.g. a mask weight
    /// shared by the whole batch); its per-row gradients are summed by the
    /// consumer via [`BatchGrads::sum_wrt`].
    pub fn broadcast(&self, val: f64) -> BVar<'_> {
        self.push_leaf(vec![val; self.batch])
    }

    /// Broadcast many scalars at once (mask vectors).
    pub fn broadcasts(&self, vals: &[f64]) -> Vec<BVar<'_>> {
        vals.iter().map(|&v| self.broadcast(v)).collect()
    }

    fn push_leaf(&self, vals: Vec<f64>) -> BVar<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(BatchNode {
            parents: [NO_PARENT, NO_PARENT],
            partials: [Vec::new(), Vec::new()],
            vals,
        });
        BVar {
            tape: self,
            idx: nodes.len() - 1,
        }
    }

    fn unary(&self, a: BVar<'_>, f: impl Fn(f64) -> (f64, f64)) -> BVar<'_> {
        let mut nodes = self.nodes.borrow_mut();
        let (vals, da): (Vec<f64>, Vec<f64>) = nodes[a.idx].vals.iter().map(|&x| f(x)).unzip();
        nodes.push(BatchNode {
            parents: [a.idx, NO_PARENT],
            partials: [da, Vec::new()],
            vals,
        });
        BVar {
            tape: self,
            idx: nodes.len() - 1,
        }
    }

    fn binary(
        &self,
        a: BVar<'_>,
        b: BVar<'_>,
        f: impl Fn(f64, f64) -> (f64, f64, f64),
    ) -> BVar<'_> {
        let mut nodes = self.nodes.borrow_mut();
        let n = self.batch;
        let mut vals = Vec::with_capacity(n);
        let mut da = Vec::with_capacity(n);
        let mut db = Vec::with_capacity(n);
        for r in 0..n {
            let (v, ga, gb) = f(nodes[a.idx].vals[r], nodes[b.idx].vals[r]);
            vals.push(v);
            da.push(ga);
            db.push(gb);
        }
        nodes.push(BatchNode {
            parents: [a.idx, b.idx],
            partials: [da, db],
            vals,
        });
        BVar {
            tape: self,
            idx: nodes.len() - 1,
        }
    }
}

/// A batched value tracked on a [`BatchTape`]. Copyable; the row values
/// live on the tape.
#[derive(Clone, Copy)]
pub struct BVar<'t> {
    tape: &'t BatchTape,
    idx: usize,
}

impl<'t> BVar<'t> {
    /// Value of row `r`.
    pub fn value(&self, r: usize) -> f64 {
        self.tape.nodes.borrow()[self.idx].vals[r]
    }

    /// All row values.
    pub fn values(&self) -> Vec<f64> {
        self.tape.nodes.borrow()[self.idx].vals.clone()
    }

    /// Backward pass from this variable: every row's adjoints in one
    /// sweep over the arena.
    pub fn grad(&self) -> BatchGrads {
        let nodes = self.tape.nodes.borrow();
        let n = self.tape.batch;
        let mut adjoints = vec![vec![0.0; n]; self.idx + 1];
        adjoints[self.idx].iter_mut().for_each(|a| *a = 1.0);
        for i in (0..=self.idx).rev() {
            for k in 0..2 {
                let p = nodes[i].parents[k];
                if p == NO_PARENT {
                    continue;
                }
                let (head, tail) = adjoints.split_at_mut(i);
                let (up, part) = (&tail[0], &nodes[i].partials[k]);
                for (pa, (&a, &d)) in head[p].iter_mut().zip(up.iter().zip(part.iter())) {
                    *pa += a * d;
                }
            }
        }
        BatchGrads { adjoints }
    }

    pub fn exp(self) -> BVar<'t> {
        self.tape.unary(self, |x| {
            let v = x.exp();
            (v, v)
        })
    }

    /// Natural log; input floored at 1e-300 (mirrors [`Var::ln`]).
    pub fn ln(self) -> BVar<'t> {
        self.tape.unary(self, |x| {
            let x = x.max(1e-300);
            (x.ln(), 1.0 / x)
        })
    }

    pub fn sigmoid(self) -> BVar<'t> {
        self.tape.unary(self, |x| {
            let s = 1.0 / (1.0 + (-x).exp());
            (s, s * (1.0 - s))
        })
    }

    pub fn tanh(self) -> BVar<'t> {
        self.tape.unary(self, |x| {
            let t = x.tanh();
            (t, 1.0 - t * t)
        })
    }

    pub fn relu(self) -> BVar<'t> {
        self.tape
            .unary(self, |x| if x > 0.0 { (x, 1.0) } else { (0.0, 0.0) })
    }

    pub fn square(self) -> BVar<'t> {
        self.tape.unary(self, |x| (x * x, 2.0 * x))
    }

    /// Apply one of the layer activations (the batched mirror of
    /// [`crate::layer::Activation::apply`] and its derivative).
    pub fn activation(self, act: crate::layer::Activation) -> BVar<'t> {
        use crate::layer::Activation;
        match act {
            Activation::Relu => self.relu(),
            Activation::LeakyRelu => {
                self.tape
                    .unary(self, |x| if x > 0.0 { (x, 1.0) } else { (0.01 * x, 0.01) })
            }
            Activation::Tanh => self.tanh(),
            Activation::Sigmoid => self.sigmoid(),
            Activation::Linear => self.tape.unary(self, |x| (x, 1.0)),
        }
    }
}

/// Per-row adjoints produced by [`BVar::grad`].
pub struct BatchGrads {
    adjoints: Vec<Vec<f64>>,
}

impl BatchGrads {
    /// Gradient of the root with respect to `v`, one entry per row.
    pub fn wrt(&self, v: BVar<'_>) -> &[f64] {
        &self.adjoints[v.idx]
    }

    /// Row-order sum of the per-row gradients (the total gradient for a
    /// broadcast leaf): `((g_0 + g_1) + g_2) + …` — the same order a
    /// per-obs loop accumulates in, preserving bit-parity.
    pub fn sum_wrt(&self, v: BVar<'_>) -> f64 {
        self.adjoints[v.idx].iter().fold(0.0, |acc, &g| acc + g)
    }
}

/// Sum a slice of batched vars (fresh zero var for an empty slice).
pub fn sum_batch<'t>(tape: &'t BatchTape, vars: &[BVar<'t>]) -> BVar<'t> {
    match vars.split_first() {
        None => tape.broadcast(0.0),
        Some((&first, rest)) => rest.iter().fold(first, |acc, &v| acc + v),
    }
}

impl<'t> Add for BVar<'t> {
    type Output = BVar<'t>;
    fn add(self, rhs: BVar<'t>) -> BVar<'t> {
        self.tape.binary(self, rhs, |a, b| (a + b, 1.0, 1.0))
    }
}

impl<'t> Sub for BVar<'t> {
    type Output = BVar<'t>;
    fn sub(self, rhs: BVar<'t>) -> BVar<'t> {
        self.tape.binary(self, rhs, |a, b| (a - b, 1.0, -1.0))
    }
}

impl<'t> Mul for BVar<'t> {
    type Output = BVar<'t>;
    fn mul(self, rhs: BVar<'t>) -> BVar<'t> {
        self.tape.binary(self, rhs, |a, b| (a * b, b, a))
    }
}

impl<'t> Div for BVar<'t> {
    type Output = BVar<'t>;
    fn div(self, rhs: BVar<'t>) -> BVar<'t> {
        self.tape.binary(self, rhs, |a, b| {
            let inv = 1.0 / b;
            (a * inv, inv, -a * inv * inv)
        })
    }
}

impl<'t> Neg for BVar<'t> {
    type Output = BVar<'t>;
    fn neg(self) -> BVar<'t> {
        self.tape.unary(self, |x| (-x, -1.0))
    }
}

impl<'t> Add<f64> for BVar<'t> {
    type Output = BVar<'t>;
    fn add(self, rhs: f64) -> BVar<'t> {
        self.tape.unary(self, |x| (x + rhs, 1.0))
    }
}

impl<'t> Mul<f64> for BVar<'t> {
    type Output = BVar<'t>;
    fn mul(self, rhs: f64) -> BVar<'t> {
        self.tape.unary(self, |x| (x * rhs, rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fd(f: impl Fn(f64) -> f64, x: f64) -> f64 {
        let eps = 1e-6;
        (f(x + eps) - f(x - eps)) / (2.0 * eps)
    }

    #[test]
    fn add_mul_grads() {
        let t = Tape::new();
        let x = t.var(2.0);
        let y = t.var(5.0);
        let z = x * y + x;
        assert_eq!(z.value(), 12.0);
        let g = z.grad();
        assert_eq!(g.wrt(x), 6.0); // y + 1
        assert_eq!(g.wrt(y), 2.0); // x
    }

    #[test]
    fn div_grads() {
        let t = Tape::new();
        let x = t.var(3.0);
        let y = t.var(4.0);
        let z = x / y;
        let g = z.grad();
        assert!((g.wrt(x) - 0.25).abs() < 1e-12);
        assert!((g.wrt(y) + 3.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn chain_rule_through_composite() {
        // f(x) = tanh(sigmoid(x) * x^2)
        let f = |x: f64| ((1.0 / (1.0 + (-x).exp())) * x * x).tanh();
        let t = Tape::new();
        let x = t.var(0.7);
        let z = (x.sigmoid() * x.square()).tanh();
        assert!((z.value() - f(0.7)).abs() < 1e-12);
        let g = z.grad();
        assert!((g.wrt(x) - fd(f, 0.7)).abs() < 1e-6);
    }

    #[test]
    fn fan_out_accumulates() {
        // z = x*x + x => dz/dx = 2x + 1
        let t = Tape::new();
        let x = t.var(3.0);
        let z = x * x + x;
        assert!((z.grad().wrt(x) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_mixed_ops() {
        let t = Tape::new();
        let x = t.var(2.0);
        let z = 3.0 * x + 1.0 - x / 2.0;
        assert!((z.value() - 6.0).abs() < 1e-12);
        assert!((z.grad().wrt(x) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn f64_minus_and_div_var() {
        let t = Tape::new();
        let x = t.var(4.0);
        let z = 1.0 - x;
        assert_eq!(z.value(), -3.0);
        assert_eq!(z.grad().wrt(x), -1.0);
        let w = 8.0 / x;
        assert_eq!(w.value(), 2.0);
        assert!((w.grad().wrt(x) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn relu_and_max_const() {
        let t = Tape::new();
        let x = t.var(-2.0);
        assert_eq!(x.relu().value(), 0.0);
        assert_eq!(x.relu().grad().wrt(x), 0.0);
        let y = t.var(3.0);
        assert_eq!(y.relu().value(), 3.0);
        assert_eq!(y.relu().grad().wrt(y), 1.0);
    }

    #[test]
    fn binary_entropy_grad_matches_fd() {
        let h = |w: f64| -(w * w.ln() + (1.0 - w) * (1.0 - w).ln());
        for &w0 in &[0.2, 0.5, 0.9] {
            let t = Tape::new();
            let w = t.var(w0);
            let e = w.binary_entropy();
            assert!((e.value() - h(w0)).abs() < 1e-9);
            assert!((e.grad().wrt(w) - fd(h, w0)).abs() < 1e-5);
        }
    }

    #[test]
    fn sum_helper() {
        let t = Tape::new();
        let vs = t.vars(&[1.0, 2.0, 3.0]);
        let s = sum(&t, &vs);
        assert_eq!(s.value(), 6.0);
        let g = s.grad();
        for v in &vs {
            assert_eq!(g.wrt(*v), 1.0);
        }
        let empty = sum(&t, &[]);
        assert_eq!(empty.value(), 0.0);
    }

    /// An operand from another tape would store a parent index into the
    /// wrong arena and give silently wrong gradients.
    #[test]
    #[should_panic(expected = "two different tapes")]
    fn operands_on_two_tapes_are_rejected() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let x = t1.var(2.0);
        let y = t2.var(3.0);
        let _ = x * y;
    }

    #[test]
    fn unused_vars_have_zero_grad() {
        let t = Tape::new();
        let x = t.var(1.0);
        let y = t.var(2.0);
        let z = x * 2.0;
        assert_eq!(z.grad().wrt(y), 0.0);
    }

    /// Every row of a batched program must be bit-identical to the same
    /// program replayed on a scalar tape with that row's inputs — values
    /// and gradients both.
    #[test]
    fn batch_tape_rows_match_scalar_tape() {
        let xs = [0.3, -1.2, 0.0, 2.5];
        let ws = [0.7, 0.2];
        let bt = BatchTape::new(xs.len());
        let x = bt.var(&xs);
        let w = bt.broadcasts(&ws);
        let z = (x * w[0] + w[1].sigmoid() * x.square()).tanh() + (x * w[1]).exp().ln();
        let g = z.grad();
        let mut w0_sum = 0.0;
        for (r, &x0) in xs.iter().enumerate() {
            let t = Tape::new();
            let sx = t.var(x0);
            let sw0 = t.var(ws[0]);
            let sw1 = t.var(ws[1]);
            let sz = (sx * sw0 + sw1.sigmoid() * sx.square()).tanh() + (sx * sw1).exp().ln();
            assert_eq!(z.value(r), sz.value(), "row {r} value diverges");
            let sg = sz.grad();
            assert_eq!(g.wrt(x)[r], sg.wrt(sx), "row {r} d/dx diverges");
            assert_eq!(g.wrt(w[0])[r], sg.wrt(sw0), "row {r} d/dw0 diverges");
            w0_sum += sg.wrt(sw0);
        }
        assert_eq!(g.sum_wrt(w[0]), w0_sum, "broadcast gradient sum order");
    }

    /// The tape's `tanh` is libm's and `Activation::apply`'s is
    /// `crate::tanh`; on glibc 2.36 with FMA the two agree bit for bit.
    #[test]
    fn batch_tape_activations_match_scalar_apply() {
        use crate::layer::Activation;
        let xs = [-2.0, -0.5, 0.0, 0.5, 2.0];
        for act in [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Linear,
        ] {
            let bt = BatchTape::new(xs.len());
            let x = bt.var(&xs);
            let y = x.activation(act);
            for (r, &x0) in xs.iter().enumerate() {
                assert_eq!(y.value(r), act.apply(x0), "{act:?} value row {r}");
                assert_eq!(
                    y.grad().wrt(x)[r],
                    act.derivative(x0, act.apply(x0)),
                    "{act:?} grad row {r}"
                );
            }
        }
    }

    #[test]
    fn sum_batch_helper() {
        let bt = BatchTape::new(2);
        let vs = vec![
            bt.var(&[1.0, 4.0]),
            bt.var(&[2.0, 5.0]),
            bt.var(&[3.0, 6.0]),
        ];
        let s = sum_batch(&bt, &vs);
        assert_eq!(s.values(), vec![6.0, 15.0]);
        let g = s.grad();
        for v in &vs {
            assert_eq!(g.wrt(*v), &[1.0, 1.0]);
        }
        assert_eq!(sum_batch(&bt, &[]).values(), vec![0.0, 0.0]);
    }

    proptest! {
        /// Gradient of a random rational/exponential composite matches
        /// central finite differences.
        #[test]
        fn prop_grad_matches_fd(x0 in -2.0_f64..2.0) {
            let f = |x: f64| (x * x + 1.0).ln() + (x * 0.5).exp() / (x * x + 2.0);
            let t = Tape::new();
            let x = t.var(x0);
            let z = (x * x + 1.0).ln() + (x * 0.5).exp() / (x * x + 2.0);
            prop_assert!((z.value() - f(x0)).abs() < 1e-9);
            let g = z.grad().wrt(x);
            prop_assert!((g - fd(f, x0)).abs() < 1e-4, "grad {} vs fd {}", g, fd(f, x0));
        }

        #[test]
        fn prop_sigmoid_bounds(x0 in -20.0_f64..20.0) {
            let t = Tape::new();
            let x = t.var(x0);
            let s = x.sigmoid();
            prop_assert!(s.value() > 0.0 && s.value() < 1.0);
            let g = s.grad().wrt(x);
            prop_assert!((0.0..=0.25 + 1e-12).contains(&g));
        }
    }
}
