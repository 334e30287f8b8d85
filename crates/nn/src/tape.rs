//! Scalar reverse-mode automatic differentiation on a tape.
//!
//! This is the one engine behind the hypergraph mask search (§4.2 of the
//! paper), on RouteNet's message passing and on an MLP policy's feature
//! mask alike: ad-hoc differentiable programs whose structure does not fit
//! the layered MLP API. Usage:
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
//! reverse. An operator node has at most two parents, kept with their
//! partials in a flat 24-byte record. One kind has more: [`Tape::affine`]
//! records a whole affine row `f(b + Σₖ wₖxₖ)`, for a layer
//! [`Activation`] `f`, as one node, whose bias, weight and input indices
//! live in a side array and whose backward reads their values from a
//! per-node value array. A fused row is bit-identical to the 2n + 1 nodes
//! of its scalar chain `((b + w₀x₀) + w₁x₁ + …).activation(f)`: its
//! forward is the chain's arithmetic, its value and partial come from the
//! one helper [`Var::activation`] also calls, and since the chain's nodes
//! sit next to each other on the tape with one consumer each, its backward
//! can make the chain's adjoint updates in the chain's order (see the
//! method). Every operand of a node must live on the node's tape, and
//! [`Grads::wrt`] answers only for vars of its own tape; both are checked.
//!
//! A batch of independent rows, such as the observations under an MLP's
//! feature mask, records each row on a tape of its own; the tapes of one
//! thread reuse one arena (see [`Tape`]).
//!
//! The recording path (`Tape::var`, `Tape::affine`, the operators and the
//! elementwise methods on [`Var`], [`sum`], [`Grads::wrt`]) is
//! `#[inline]`: every caller is in another crate (`metis_routing`,
//! `metis_hypergraph`, `metis_core`) and no build profile turns on LTO, so
//! without the hint each recorded node is an out-of-line call into this
//! crate. A §4 search step on `mask_routenet`'s first sample records 7,039
//! nodes (43,231 before RouteNet's affine rows were fused), and losing the
//! hint costs that search about 1.3× (it cost 1.7× before the fusion). A
//! dropped tape hands its cleared arena to the next tape on its thread
//! (see [`Tape`]).

use crate::layer::Activation;
use std::cell::{Cell, RefCell};
use std::ops::{Add, Div, Mul, Neg, Sub};

const NO_PARENT: u32 = u32::MAX;
/// `parents[0]` of a fused affine row ([`Tape::affine`]); its
/// `parents[1]` is then the row's offset in [`Arena::terms`] and its
/// `partials[0]` the activation's derivative at the row's sum.
const AFFINE_ROW: u32 = u32::MAX - 1;

#[derive(Clone, Copy)]
struct Node {
    parents: [u32; 2],
    partials: [f64; 2],
}

/// What a tape records. Indices are `u32`, which keeps a node at 24 bytes.
#[derive(Default)]
struct Arena {
    nodes: Vec<Node>,
    /// Every node's value, indexed like `nodes`: a fused row's backward
    /// reads its weights' and inputs' values here.
    vals: Vec<f64>,
    /// Operand indices of the fused rows. Per [`Tape::affine`] call:
    /// the input count, then the input indices. Per row: the offset of
    /// its call's input count, the bias index, then the weight indices.
    terms: Vec<u32>,
}

impl Arena {
    #[inline]
    fn push(&mut self, parents: [u32; 2], partials: [f64; 2], val: f64) -> usize {
        let idx = self.nodes.len();
        assert!(
            idx < AFFINE_ROW as usize,
            "tape: too many nodes for u32 indices"
        );
        self.nodes.push(Node { parents, partials });
        self.vals.push(val);
        idx
    }

    /// The next offset in `terms`.
    #[inline]
    fn terms_end(&self) -> u32 {
        u32::try_from(self.terms.len()).expect("tape: too many fused-row terms for u32 offsets")
    }
}

/// A var's index as stored on the tape: it is below the node count, which
/// [`Arena::push`] keeps below [`AFFINE_ROW`].
#[inline]
fn at(v: &Var<'_>) -> u32 {
    v.idx as u32
}

/// `act` at `x` and its derivative there, the value and partial of the
/// node that [`Var::activation`] and each row of [`Tape::affine`] record.
#[inline]
fn activate(act: Activation, x: f64) -> (f64, f64) {
    match act {
        Activation::Relu if x > 0.0 => (x, 1.0),
        Activation::Relu => (0.0, 0.0),
        Activation::LeakyRelu if x > 0.0 => (x, 1.0),
        Activation::LeakyRelu => (0.01 * x, 0.01),
        Activation::Tanh => {
            let t = x.tanh();
            (t, 1.0 - t * t)
        }
        Activation::Sigmoid => {
            let s = 1.0 / (1.0 + (-x).exp());
            (s, s * (1.0 - s))
        }
        Activation::Linear => (x, 1.0),
    }
}

thread_local! {
    /// The cleared arena of the last tape dropped on this thread, which
    /// the next [`Tape::new`] on it takes over.
    static SPARE: Cell<Option<Arena>> = const { Cell::new(None) };
}

/// Arena of computation nodes. Create [`Var`]s with [`Tape::var`].
///
/// A dropped tape hands its cleared arena to the next tape created on the
/// same thread, so a loop that records one tape per step (the §4 search,
/// RouteNet training) reuses one allocation. Freed every step instead, a
/// `mask_routenet` step's ~0.4 MB arena sits at the top of glibc's heap,
/// which trims it and faults it back in on the next step: ~86 minor faults
/// a step, and half the search's step rate in a process whose allocator has
/// not raised its trim threshold for some larger free. A thread keeps at
/// most one spare, the last dropped tape's, until it exits.
pub struct Tape {
    arena: RefCell<Arena>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        let arena = self.arena.get_mut();
        arena.nodes.clear();
        arena.vals.clear();
        arena.terms.clear();
        let arena = std::mem::take(arena);
        // Fails only while the thread's locals are being torn down.
        let _ = SPARE.try_with(|spare| spare.set(Some(arena)));
    }
}

impl Tape {
    pub fn new() -> Self {
        let arena = SPARE.try_with(Cell::take).ok().flatten();
        Tape {
            arena: RefCell::new(arena.unwrap_or_default()),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.arena.borrow().nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Create a leaf variable.
    #[inline]
    pub fn var(&self, val: f64) -> Var<'_> {
        let idx = self.push([NO_PARENT; 2], [0.0; 2], val);
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

    /// One layer `act(b + W·x)`, one node per row appended to `out`:
    /// row `r` is `act(bias[r] + Σₖ weights[r·n + k]·x[k])` with
    /// `n = x.len()`, and its value and every adjoint it passes back are
    /// bit-identical to the scalar chain
    /// `(((bias[r] + w₀·x₀) + w₁·x₁) + …).activation(act)`, which records
    /// 2n + 1 nodes. Inputs may repeat (a shared zero var) and may be any
    /// var on this tape, bias and weights included.
    ///
    /// The forward sums left to right from the bias with separate multiply
    /// and add (no `mul_add`), as the chain does, and takes the row's value
    /// and partial `f′` from the helper [`Var::activation`] calls. In the
    /// chain's backward every internal node's adjoint is `g = 0.0 + a·f′`,
    /// where `a` is the row's adjoint, because each has one consumer, and
    /// the chain's nodes are adjacent on the tape, so no other node's
    /// update falls between them. The fused backward makes the chain's
    /// updates in the chain's order: for k = n−1 down to 1, weight k then
    /// input k; then the bias; then weight 0 and input 0. It skips the row
    /// wherever the chain skips every node: `a` or `g` is zero
    /// (`0.0 + -0.0` is `+0.0`), as under a saturated `tanh` or a ReLU row
    /// that is not above zero.
    ///
    /// # Panics
    /// If `x` is empty, if `weights.len() != bias.len() * x.len()`, or if
    /// any operand was recorded on another tape.
    #[inline]
    pub fn affine<'t>(
        &'t self,
        act: Activation,
        bias: &[Var<'t>],
        weights: &[Var<'t>],
        x: &[Var<'t>],
        out: &mut Vec<Var<'t>>,
    ) {
        let n = x.len();
        assert!(n > 0, "tape: affine needs at least one input");
        assert_eq!(
            weights.len(),
            bias.len() * n,
            "tape: affine needs one weight per (row, input)"
        );
        let foreign = |vs: &[Var<'t>]| vs.iter().any(|v| !std::ptr::eq(self, v.tape));
        assert!(
            !(foreign(bias) || foreign(weights) || foreign(x)),
            "tape: affine operands recorded on another tape"
        );
        let mut arena = self.arena.borrow_mut();
        let arena = &mut *arena;
        let inputs = arena.terms_end();
        arena.terms.push(n as u32);
        arena.terms.extend(x.iter().map(at));
        for (b, w) in bias.iter().zip(weights.chunks_exact(n)) {
            let row = arena.terms_end();
            arena.terms.extend([inputs, at(b)]);
            arena.terms.extend(w.iter().map(at));
            let mut acc = b.val;
            for (wk, xk) in w.iter().zip(x) {
                acc += wk.val * xk.val;
            }
            let (val, partial) = activate(act, acc);
            let idx = arena.push([AFFINE_ROW, row], [partial, 0.0], val);
            out.push(Var {
                tape: self,
                idx,
                val,
            });
        }
    }

    #[inline]
    fn push(&self, parents: [u32; 2], partials: [f64; 2], val: f64) -> usize {
        self.arena.borrow_mut().push(parents, partials, val)
    }

    #[inline]
    fn unary(&self, a: &Var<'_>, val: f64, da: f64) -> Var<'_> {
        let idx = self.push([at(a), NO_PARENT], [da, 0.0], val);
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
        let idx = self.push([at(a), at(b)], [da, db], val);
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
    pub fn grad(&self) -> Grads<'t> {
        let arena = self.tape.arena.borrow();
        let (nodes, vals, terms) = (&arena.nodes, &arena.vals, &arena.terms);
        let mut adjoints = vec![0.0; nodes.len()];
        adjoints[self.idx] = 1.0;
        for i in (0..=self.idx).rev() {
            let a = adjoints[i];
            if a == 0.0 {
                continue;
            }
            let node = nodes[i];
            if node.parents[0] == AFFINE_ROW {
                // The scalar chain's updates, in its order (see
                // `Tape::affine`).
                let g = 0.0 + a * node.partials[0];
                if g == 0.0 {
                    continue;
                }
                let row = &terms[node.parents[1] as usize..];
                let (inputs, bias) = (row[0] as usize, row[1] as usize);
                let n = terms[inputs] as usize;
                let (xs, ws) = (&terms[inputs + 1..][..n], &row[2..][..n]);
                for k in (1..n).rev() {
                    let (w, x) = (ws[k] as usize, xs[k] as usize);
                    adjoints[w] += g * vals[x];
                    adjoints[x] += g * vals[w];
                }
                adjoints[bias] += g; // the chain's `g · 1.0`
                let (w, x) = (ws[0] as usize, xs[0] as usize);
                adjoints[w] += g * vals[x];
                adjoints[x] += g * vals[w];
                continue;
            }
            for k in 0..2 {
                let p = node.parents[k];
                if p != NO_PARENT {
                    adjoints[p as usize] += a * node.partials[k];
                }
            }
        }
        Grads {
            tape: self.tape,
            adjoints,
        }
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
        self.activation(Activation::Sigmoid)
    }

    #[inline]
    pub fn tanh(self) -> Var<'t> {
        self.activation(Activation::Tanh)
    }

    #[inline]
    pub fn relu(self) -> Var<'t> {
        self.activation(Activation::Relu)
    }

    #[inline]
    pub fn leaky_relu(self) -> Var<'t> {
        self.activation(Activation::LeakyRelu)
    }

    /// Apply one of the layer activations: [`Activation::apply`]'s value
    /// (its `tanh` is libm's here) with [`Activation::derivative`] as the
    /// partial. A fused row of [`Tape::affine`] stores the same pair.
    #[inline]
    pub fn activation(self, act: Activation) -> Var<'t> {
        let (val, partial) = activate(act, self.val);
        self.tape.unary(&self, val, partial)
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
pub struct Grads<'t> {
    tape: &'t Tape,
    adjoints: Vec<f64>,
}

impl Grads<'_> {
    /// Gradient of the root with respect to `v`.
    ///
    /// # Panics
    /// If `v` was recorded on another tape: its index would name an
    /// unrelated node's adjoint.
    #[inline]
    pub fn wrt(&self, v: Var<'_>) -> f64 {
        assert!(
            std::ptr::eq(self.tape, v.tape),
            "tape: gradient asked for a var of another tape"
        );
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

    /// A var of another tape would read an unrelated node's adjoint.
    #[test]
    #[should_panic(expected = "var of another tape")]
    fn grads_reject_a_var_of_another_tape() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let x = t1.var(2.0);
        let y = t2.var(3.0);
        (x * 2.0).grad().wrt(y);
    }

    /// One fused row whose `operand`-th argument (bias, weights, inputs)
    /// holds a var of another tape.
    fn affine_row_with_a_foreign(operand: usize) {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let mut args = [t1.vars(&[0.1]), t1.vars(&[0.2, 0.3]), t1.vars(&[0.4, 0.5])];
        args[operand][0] = t2.var(1.0);
        t1.affine(
            Activation::Tanh,
            &args[0],
            &args[1],
            &args[2],
            &mut Vec::new(),
        );
    }

    #[test]
    #[should_panic(expected = "affine operands recorded on another tape")]
    fn affine_row_rejects_a_bias_of_another_tape() {
        affine_row_with_a_foreign(0);
    }

    #[test]
    #[should_panic(expected = "affine operands recorded on another tape")]
    fn affine_row_rejects_a_weight_of_another_tape() {
        affine_row_with_a_foreign(1);
    }

    #[test]
    #[should_panic(expected = "affine operands recorded on another tape")]
    fn affine_row_rejects_an_input_of_another_tape() {
        affine_row_with_a_foreign(2);
    }

    const ACTIVATIONS: [Activation; 5] = [
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Linear,
    ];

    /// Upstream adjoints a fused row must pass back exactly as its scalar
    /// chain does: zeros of both signs, subnormals, NaN and infinities.
    const SPECIAL_ADJOINTS: [f64; 8] = [
        0.0,
        -0.0,
        5e-324,
        -1e-310,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
    ];

    /// A random fused-row layer over a small pool of vars: bias, weight
    /// and input indices into the pool, so vars repeat within and across
    /// the three roles, and the input list always repeats one var (as
    /// RouteNet's shared zero var does).
    struct AffineCase {
        act: Activation,
        pool: Vec<f64>,
        bias: Vec<usize>,
        weights: Vec<usize>,
        inputs: Vec<usize>,
        /// The adjoint each row's output receives.
        upstream: Vec<f64>,
        /// Each pool var's direct coefficient in the root, so adjoints are
        /// already nonzero when the rows' updates land.
        direct: Vec<f64>,
    }

    impl AffineCase {
        fn new(seed: u64) -> Self {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let act = ACTIVATIONS[rng.gen_range(0..ACTIVATIONS.len())];
            let (rows, n) = (rng.gen_range(1..4), rng.gen_range(2..9));
            let pool_len = rng.gen_range(2..8);
            // Moderate values, values that saturate `tanh` and the sigmoid,
            // and specials.
            let value = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..10) {
                0 => 40.0 * rng.gen_range(-1.0..1.0),
                1 => [0.0, -0.0, 1e-310, f64::NAN, f64::INFINITY][rng.gen_range(0..5)],
                _ => rng.gen_range(-2.0..2.0),
            };
            let pool = (0..pool_len).map(|_| value(&mut rng)).collect();
            let mut pick = |count: usize| -> Vec<usize> {
                (0..count).map(|_| rng.gen_range(0..pool_len)).collect()
            };
            let (bias, weights, mut inputs) = (pick(rows), pick(rows * n), pick(n));
            inputs[n - 1] = inputs[0];
            let upstream = (0..rows)
                .map(|_| match rng.gen_range(0..3) {
                    0 => rng.gen_range(-3.0..3.0),
                    _ => SPECIAL_ADJOINTS[rng.gen_range(0..SPECIAL_ADJOINTS.len())],
                })
                .collect();
            let direct = (0..pool_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            AffineCase {
                act,
                pool,
                bias,
                weights,
                inputs,
                upstream,
                direct,
            }
        }

        /// Output bits, the pool vars' gradient bits and the node count,
        /// with the rows recorded fused or as their scalar chains.
        fn run(&self, fused: bool) -> (Vec<u64>, Vec<u64>, usize) {
            let tape = Tape::new();
            let vars = tape.vars(&self.pool);
            let pick = |ix: &[usize]| ix.iter().map(|&i| vars[i]).collect::<Vec<_>>();
            let (b, w, x) = (pick(&self.bias), pick(&self.weights), pick(&self.inputs));
            let mut out = Vec::new();
            if fused {
                tape.affine(self.act, &b, &w, &x, &mut out);
            } else {
                for (&bias, w) in b.iter().zip(w.chunks_exact(x.len())) {
                    let mut acc = bias;
                    for (&wk, &xk) in w.iter().zip(&x) {
                        acc = acc + wk * xk;
                    }
                    out.push(acc.activation(self.act));
                }
            }
            let rows = out.iter().zip(&self.upstream).map(|(&o, &u)| o * u);
            let direct = vars.iter().zip(&self.direct).map(|(&v, &c)| v * c);
            let terms: Vec<Var<'_>> = rows.chain(direct).collect();
            let grads = sum(&tape, &terms).grad();
            (
                out.iter().map(|o| bits(o.value())).collect(),
                vars.iter().map(|&v| bits(grads.wrt(v))).collect(),
                tape.len(),
            )
        }
    }

    /// `x`'s bits, with every NaN as one: Rust leaves a NaN result's sign
    /// and payload unspecified, so they depend on register allocation.
    fn bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// Rows where the chain skips every node, so no `0 · inf` or `0 · NaN`
    /// may reach an adjoint: a zero upstream adjoint over a NaN row under
    /// every activation, and a zero partial under a finite one: ReLU of a
    /// NaN row (`NaN > 0` is false), and `tanh` and the sigmoid of a row
    /// that an infinite input saturates (the value is 1, so `g = 0`).
    #[test]
    fn affine_row_skips_where_the_chain_skips() {
        use Activation::{Relu, Sigmoid, Tanh};
        let cases: [(f64, f64, &[Activation]); 3] = [
            (f64::NAN, 0.0, &ACTIVATIONS),
            (f64::NAN, 1.0, &[Relu]),
            (f64::INFINITY, 1.0, &[Tanh, Sigmoid]),
        ];
        for (bad, upstream, acts) in cases {
            for &act in acts {
                let case = AffineCase {
                    act,
                    pool: vec![1.0, bad, 0.5],
                    bias: vec![0],
                    weights: vec![2, 0, 1],
                    inputs: vec![1, 2, 1],
                    upstream: vec![upstream],
                    direct: vec![0.5, -0.25, 1.0],
                };
                let (fused, chain) = (case.run(true), case.run(false));
                assert_eq!(fused.1, chain.1, "{act:?} gradients with {bad} inputs");
                assert!(fused.1.iter().all(|&g| !f64::from_bits(g).is_nan()));
            }
        }
    }

    /// Each special upstream adjoint under every activation, through three
    /// rows that share the zero var among their inputs: a moderate row, one
    /// that saturates `tanh` and the sigmoid (value 1, so the partial is
    /// 0) and one below zero, where ReLU's partial is 0.
    #[test]
    fn affine_row_passes_special_adjoints_as_the_chain_does() {
        for act in ACTIVATIONS {
            for upstream in SPECIAL_ADJOINTS {
                let case = AffineCase {
                    act,
                    pool: vec![0.75, -1.5, 0.25, 0.0, 30.0],
                    bias: vec![2, 4, 1],
                    weights: vec![0, 1, 2, 0, 1, 0, 4, 2, 1, 1, 1, 1],
                    inputs: vec![3, 1, 0, 3],
                    upstream: vec![upstream; 3],
                    direct: vec![0.5, -0.25, 1.0, 0.125, -2.0],
                };
                let (fused, chain) = (case.run(true), case.run(false));
                assert_eq!(fused.0, chain.0, "{act:?} row values under {upstream:?}");
                assert_eq!(fused.1, chain.1, "{act:?} gradients under {upstream:?}");
            }
        }
    }

    #[test]
    fn unused_vars_have_zero_grad() {
        let t = Tape::new();
        let x = t.var(1.0);
        let y = t.var(2.0);
        let z = x * 2.0;
        assert_eq!(z.grad().wrt(y), 0.0);
    }

    /// `Var::activation` and a one-input fused row `act(0 + 1·x)` give
    /// `Activation::apply`'s value and `derivative`'s gradient. The tape's
    /// `tanh` is libm's and `Activation::apply`'s is `crate::tanh`; on
    /// glibc 2.36 with FMA the two agree bit for bit.
    #[test]
    fn tape_activations_match_activation_apply() {
        for act in ACTIVATIONS {
            for x0 in [-2.0, -0.5, 0.0, 0.5, 2.0] {
                let (value, derivative) = (act.apply(x0), act.derivative(x0, act.apply(x0)));
                let t = Tape::new();
                let x = t.var(x0);
                let y = x.activation(act);
                assert_eq!(y.value(), value, "{act:?} value at {x0}");
                assert_eq!(y.grad().wrt(x), derivative, "{act:?} gradient at {x0}");
                let mut row = Vec::new();
                t.affine(act, &[t.var(0.0)], &[t.var(1.0)], &[x], &mut row);
                assert_eq!(row[0].value(), value, "{act:?} fused value at {x0}");
                assert_eq!(
                    row[0].grad().wrt(x),
                    derivative,
                    "{act:?} fused gradient at {x0}"
                );
            }
        }
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

        /// A fused affine row is its scalar chain, bit for bit, under
        /// every activation: every row's value and every pool var's
        /// gradient, so every bias, weight and input gradient, however the
        /// vars repeat.
        #[test]
        fn prop_affine_row_matches_scalar_chain(seed in 0u64..u64::MAX) {
            let case = AffineCase::new(seed);
            let (fused, chain) = (case.run(true), case.run(false));
            prop_assert_eq!(&fused.0, &chain.0, "row values");
            prop_assert_eq!(&fused.1, &chain.1, "gradients");
            let rows = case.bias.len();
            prop_assert_eq!(fused.2 + rows * 2 * case.inputs.len(), chain.2);
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
