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
//! [`Activation`] `f`, as one node. Its bias and weights are not nodes but
//! a range of a parameter block, a model's parameters that
//! [`Tape::params`] copies onto the tape once; the row records its input
//! list, its bias's index and its first weight's index, and its forward
//! and backward read the weights' values from the block. A fused row is
//! bit-identical to the 2n + 1 nodes of its scalar chain
//! `((b + w₀x₀) + w₁x₁ + …).activation(f)` over leaf vars holding the
//! block's values: its forward is the chain's arithmetic, its value and
//! partial come from the one helper [`Var::activation`] also calls, and
//! since the chain's nodes sit next to each other on the tape with one
//! consumer each, its backward can make the chain's adjoint updates in
//! the chain's order (see the method). [`Var::grad`] makes only the
//! updates to vars; [`Var::grad_with_params`], which training calls, also
//! makes the chain's updates to the parameters, into an array of their
//! own. Every operand of a node must live on the node's tape, and
//! [`Grads`] answers only for vars and blocks of its own tape; both are
//! checked.
//!
//! A batch of independent rows, such as the observations under an MLP's
//! feature mask, records each row on a tape of its own; the tapes of one
//! thread reuse one arena (see [`Tape`]).
//!
//! The recording path (`Tape::var`, `Tape::params`, `Tape::affine`, the
//! operators and the elementwise methods on [`Var`], [`sum`],
//! [`Grads::wrt`]) is `#[inline]`: every caller is in another crate
//! (`metis_routing`, `metis_hypergraph`, `metis_core`) and no build
//! profile turns on LTO, so without the hint each recorded node is an
//! out-of-line call into this crate. A §4 search step on
//! `mask_routenet`'s first sample records 6,358 nodes (7,039 while
//! RouteNet's parameters were leaf vars and its readout a scalar chain,
//! 43,231 before its affine rows were fused), and losing the hint costs
//! that search 1.25–1.38× (1.7× before the fusion). A dropped tape hands
//! its cleared arena to the next tape on its thread (see [`Tape`]).

use crate::layer::Activation;
use std::cell::{Cell, RefCell};
use std::ops::{Add, Div, Mul, Neg, Range, Sub};

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
    /// reads its inputs' values here.
    vals: Vec<f64>,
    /// The values of every parameter block ([`Tape::params`]), one block
    /// after another.
    params: Vec<f64>,
    /// Operand indices of the fused rows. Per [`Tape::affine`] call:
    /// the input count, then the input indices. Per row: the offset of
    /// its call's input count, then its bias's and its first weight's
    /// index in `params`.
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
/// `mask_routenet` step's arena (~0.3 MB of capacity; ~0.4 MB when this
/// was measured, before parameter blocks) sits at the top of glibc's heap,
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
        arena.params.clear();
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

    /// Copy a model's parameters onto the tape as one block, whose ranges
    /// [`Tape::affine`] takes as a layer's bias and weights. A block
    /// records no node: only [`Var::grad_with_params`] computes its
    /// gradients.
    ///
    /// # Panics
    /// If the tape's blocks would hold more values than `u32` indexes.
    #[inline]
    pub fn params(&self, values: &[f64]) -> Params<'_> {
        let mut arena = self.arena.borrow_mut();
        let start = arena.params.len();
        assert!(
            u32::try_from(start + values.len()).is_ok(),
            "tape: too many parameters for u32 indices"
        );
        arena.params.extend_from_slice(values);
        Params {
            tape: self,
            start,
            len: values.len(),
        }
    }

    /// One layer `act(b + W·x)`, one node per row appended to `out`:
    /// row `r` is `act(bias[r] + Σₖ weights[r·n + k]·x[k])` with
    /// `n = x.len()`, where `bias` and `weights` are ranges of parameter
    /// blocks ([`Tape::params`]). Its value and every adjoint it passes
    /// back are bit-identical to the scalar chain
    /// `(((bias[r] + w₀·x₀) + w₁·x₁) + …).activation(act)` over leaf vars
    /// holding the block's values, which records 2n + 1 nodes. Inputs may
    /// repeat (a shared zero var). A row records three `u32`s beside its
    /// node: its call's input list, its bias's index and its first
    /// weight's index.
    ///
    /// The forward sums left to right from the bias with separate multiply
    /// and add (no `mul_add`), as the chain does, and takes the row's value
    /// and partial `f′` from the helper [`Var::activation`] calls. In the
    /// chain's backward every internal node's adjoint is `g = 0.0 + a·f′`,
    /// where `a` is the row's adjoint, because each has one consumer, and
    /// the chain's nodes are adjacent on the tape, so no other node's
    /// update falls between them. The fused backward makes the chain's
    /// updates in the chain's order: for k = n−1 down to 1, weight k then
    /// input k; then the bias; then weight 0 and input 0. [`Var::grad`]
    /// makes only the input updates; [`Var::grad_with_params`] also makes
    /// the bias and weight updates, into its parameter adjoints. It skips
    /// the row wherever the chain skips every node: `a` or `g` is zero
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
        bias: Params<'t>,
        weights: Params<'t>,
        x: &[Var<'t>],
        out: &mut Vec<Var<'t>>,
    ) {
        let n = x.len();
        assert!(n > 0, "tape: affine needs at least one input");
        assert_eq!(
            weights.len,
            bias.len * n,
            "tape: affine needs one weight per (row, input)"
        );
        let ours = |t: &Tape| std::ptr::eq(self, t);
        assert!(
            ours(bias.tape) && ours(weights.tape) && x.iter().all(|v| ours(v.tape)),
            "tape: affine operands recorded on another tape"
        );
        let mut arena = self.arena.borrow_mut();
        let arena = &mut *arena;
        let inputs = arena.terms_end();
        arena.terms.push(n as u32);
        arena.terms.extend(x.iter().map(at));
        for r in 0..bias.len {
            let (b, w) = (bias.start + r, weights.start + r * n);
            let row = arena.terms_end();
            // Both below the blocks' length, which `Tape::params` keeps
            // within `u32`.
            arena.terms.extend([inputs, b as u32, w as u32]);
            let mut acc = arena.params[b];
            for (wk, xk) in arena.params[w..][..n].iter().zip(x) {
                acc += wk * xk.val;
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

/// A parameter block on a [`Tape`] ([`Tape::params`]), or a range of one:
/// constants of the forward, whose gradients only
/// [`Var::grad_with_params`] computes. Copyable.
#[derive(Clone, Copy)]
pub struct Params<'t> {
    tape: &'t Tape,
    /// The block's first index in [`Arena::params`].
    start: usize,
    len: usize,
}

impl<'t> Params<'t> {
    /// Number of parameters in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The parameters at `range` of this block, as a block of their own.
    ///
    /// # Panics
    /// If `range` is reversed or ends past the block's end.
    #[inline]
    pub fn range(&self, range: Range<usize>) -> Params<'t> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "tape: parameter range {range:?} out of a block of {}",
            self.len
        );
        Params {
            tape: self.tape,
            start: self.start + range.start,
            len: range.len(),
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

    /// Run the backward pass from this variable and collect every var's
    /// adjoint. Parameter blocks get none (see [`Var::grad_with_params`]).
    pub fn grad(&self) -> Grads<'t> {
        self.backward::<false>()
    }

    /// [`Var::grad`], plus every parameter's adjoint for
    /// [`Grads::wrt_params`]: the fused rows' bias and weight updates,
    /// in the order their scalar chains make them (see [`Tape::affine`]).
    /// The vars' adjoints are the same bits as `grad`'s.
    pub fn grad_with_params(&self) -> Grads<'t> {
        self.backward::<true>()
    }

    /// The backward pass; with `PARAMS`, fused rows also update the
    /// parameter adjoints.
    fn backward<const PARAMS: bool>(&self) -> Grads<'t> {
        let arena = self.tape.arena.borrow();
        let (nodes, vals, params, terms) = (&arena.nodes, &arena.vals, &arena.params, &arena.terms);
        let mut adjoints = vec![0.0; nodes.len()];
        let mut param_adjoints = vec![0.0; if PARAMS { params.len() } else { 0 }];
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
                let row = &terms[node.parents[1] as usize..][..3];
                let (inputs, bias, w) = (row[0] as usize, row[1] as usize, row[2] as usize);
                let n = terms[inputs] as usize;
                let (xs, ws) = (&terms[inputs + 1..][..n], &params[w..][..n]);
                for k in (1..n).rev() {
                    let x = xs[k] as usize;
                    if PARAMS {
                        param_adjoints[w + k] += g * vals[x];
                    }
                    adjoints[x] += g * ws[k];
                }
                if PARAMS {
                    param_adjoints[bias] += g; // the chain's `g · 1.0`
                }
                let x = xs[0] as usize;
                if PARAMS {
                    param_adjoints[w] += g * vals[x];
                }
                adjoints[x] += g * ws[0];
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
            param_adjoints: PARAMS.then_some(param_adjoints),
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

/// Adjoints produced by [`Var::grad`] or [`Var::grad_with_params`].
pub struct Grads<'t> {
    tape: &'t Tape,
    adjoints: Vec<f64>,
    /// Every parameter's adjoint, indexed like [`Arena::params`]; `None`
    /// after [`Var::grad`], which computes none.
    param_adjoints: Option<Vec<f64>>,
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

    /// Gradient of the root with respect to each parameter of `block`.
    ///
    /// # Panics
    /// If these adjoints come from [`Var::grad`], which computes no
    /// parameter gradient, or if `block` was recorded on another tape.
    pub fn wrt_params(&self, block: Params<'_>) -> &[f64] {
        let adjoints = self
            .param_adjoints
            .as_deref()
            .expect("tape: parameter gradients need `Var::grad_with_params`");
        assert!(
            std::ptr::eq(self.tape, block.tape),
            "tape: gradient asked for a parameter block of another tape"
        );
        &adjoints[block.start..][..block.len]
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
    /// was recorded on another tape: a parameter block for the first two,
    /// a var for the inputs.
    fn affine_row_with_a_foreign(operand: usize) {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let (ours, theirs) = (t1.params(&[0.1, 0.2, 0.3]), t2.params(&[0.1, 0.2, 0.3]));
        let block = |k: usize| if k == operand { theirs } else { ours };
        let mut x = t1.vars(&[0.4, 0.5]);
        if operand == 2 {
            x[0] = t2.var(1.0);
        }
        t1.affine(
            Activation::Tanh,
            block(0).range(0..1),
            block(1).range(1..3),
            &x,
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

    /// A block of another tape would read an unrelated block's adjoints.
    #[test]
    #[should_panic(expected = "parameter block of another tape")]
    fn grads_reject_a_block_of_another_tape() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let mut row = Vec::new();
        let block = t1.params(&[0.1, 0.2]);
        t1.affine(
            Activation::Tanh,
            block.range(0..1),
            block.range(1..2),
            &[t1.var(0.3)],
            &mut row,
        );
        row[0].grad_with_params().wrt_params(t2.params(&[0.1, 0.2]));
    }

    /// `Var::grad` makes no parameter update, so it has no parameter
    /// gradient to give.
    #[test]
    #[should_panic(expected = "parameter gradients need `Var::grad_with_params`")]
    fn var_grad_has_no_parameter_gradients() {
        let t = Tape::new();
        let block = t.params(&[0.1, 0.2]);
        (t.var(1.0) * 2.0).grad().wrt_params(block);
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

    /// A fused-row layer: its bias and weights are ranges of a parameter
    /// block, which may overlap, and its inputs index a small pool of vars,
    /// so inputs repeat, and the input list always repeats one var (as
    /// RouteNet's shared zero var does).
    struct AffineCase {
        act: Activation,
        block: Vec<f64>,
        /// Where the `rows` biases and the `rows × inputs.len()` weights
        /// start in `block`.
        bias: usize,
        weights: usize,
        rows: usize,
        pool: Vec<f64>,
        inputs: Vec<usize>,
        /// The adjoint each row's output receives.
        upstream: Vec<f64>,
        /// Each pool var's direct coefficient in the root, so adjoints are
        /// already nonzero when the rows' updates land.
        direct: Vec<f64>,
    }

    /// How [`AffineCase::run`] records the layer.
    #[derive(Clone, Copy, PartialEq)]
    enum Record {
        Fused,
        /// Each row as its scalar chain, over leaf vars holding the
        /// block's values.
        Chain,
        /// [`Record::Chain`] without the activation node: RouteNet's
        /// readout.
        Readout,
    }

    /// What one recording of an [`AffineCase`] gives, as bits.
    struct Recorded {
        values: Vec<u64>,
        /// The pool vars' gradients from `Var::grad` and from
        /// `Var::grad_with_params`.
        inputs: Vec<u64>,
        inputs_with_params: Vec<u64>,
        /// The block's gradients from `Var::grad_with_params`.
        params: Vec<u64>,
        nodes: usize,
    }

    impl AffineCase {
        fn new(seed: u64) -> Self {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let act = ACTIVATIONS[rng.gen_range(0..ACTIVATIONS.len())];
            let (rows, n) = (rng.gen_range(1..4), rng.gen_range(2..9));
            let block_len = rows * n + rng.gen_range(0..rows + 2);
            let pool_len = rng.gen_range(2..8);
            // Moderate values, values that saturate `tanh` and the sigmoid,
            // and specials.
            let value = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..10) {
                0 => 40.0 * rng.gen_range(-1.0..1.0),
                1 => [0.0, -0.0, 1e-310, f64::NAN, f64::INFINITY][rng.gen_range(0..5)],
                _ => rng.gen_range(-2.0..2.0),
            };
            let block = (0..block_len).map(|_| value(&mut rng)).collect();
            let pool = (0..pool_len).map(|_| value(&mut rng)).collect();
            let bias = rng.gen_range(0..=block_len - rows);
            let weights = rng.gen_range(0..=block_len - rows * n);
            let mut inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..pool_len)).collect();
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
                block,
                bias,
                weights,
                rows,
                pool,
                inputs,
                upstream,
                direct,
            }
        }

        fn run(&self, how: Record) -> Recorded {
            let tape = Tape::new();
            let vars = tape.vars(&self.pool);
            let x: Vec<Var<'_>> = self.inputs.iter().map(|&i| vars[i]).collect();
            let n = x.len();
            let mut out = Vec::new();
            // The block, as a parameter block or as leaf vars.
            let (mut block, mut leaves) = (None, Vec::new());
            if how == Record::Fused {
                let params = tape.params(&self.block);
                let bias = params.range(self.bias..self.bias + self.rows);
                let weights = params.range(self.weights..self.weights + self.rows * n);
                tape.affine(self.act, bias, weights, &x, &mut out);
                block = Some(params);
            } else {
                leaves = tape.vars(&self.block);
                for r in 0..self.rows {
                    let mut acc = leaves[self.bias + r];
                    for (&wk, &xk) in leaves[self.weights + r * n..][..n].iter().zip(&x) {
                        acc = acc + wk * xk;
                    }
                    out.push(match how {
                        Record::Readout => acc,
                        _ => acc.activation(self.act),
                    });
                }
            }
            let rows = out.iter().zip(&self.upstream).map(|(&o, &u)| o * u);
            let direct = vars.iter().zip(&self.direct).map(|(&v, &c)| v * c);
            let terms: Vec<Var<'_>> = rows.chain(direct).collect();
            let root = sum(&tape, &terms);
            let (grads, with_params) = (root.grad(), root.grad_with_params());
            let on_pool = |g: &Grads<'_>| vars.iter().map(|&v| bits(g.wrt(v))).collect();
            let params = match block {
                Some(block) => with_params
                    .wrt_params(block)
                    .iter()
                    .map(|&g| bits(g))
                    .collect(),
                None => leaves.iter().map(|&v| bits(with_params.wrt(v))).collect(),
            };
            Recorded {
                values: out.iter().map(|o| bits(o.value())).collect(),
                inputs: on_pool(&grads),
                inputs_with_params: on_pool(&with_params),
                params,
                nodes: tape.len(),
            }
        }

        /// Record the layer fused and as `oracle`, and assert the same
        /// row values, input gradients and parameter gradients.
        fn assert_fused_matches(&self, oracle: Record, label: &str) -> Recorded {
            let (fused, chain) = (self.run(Record::Fused), self.run(oracle));
            assert_eq!(fused.values, chain.values, "row values {label}");
            assert_eq!(fused.inputs, chain.inputs, "input gradients {label}");
            assert_eq!(fused.params, chain.params, "parameter gradients {label}");
            fused
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
                    block: vec![1.0, 0.5, 1.0, bad],
                    bias: 0,
                    weights: 1,
                    rows: 1,
                    pool: vec![1.0, bad, 0.5],
                    inputs: vec![1, 2, 1],
                    upstream: vec![upstream],
                    direct: vec![0.5, -0.25, 1.0],
                };
                let fused = case.assert_fused_matches(Record::Chain, &format!("{act:?}, {bad}"));
                let grads = fused.inputs.iter().chain(&fused.params);
                assert!(grads.map(|&g| f64::from_bits(g)).all(|g| !g.is_nan()));
            }
        }
    }

    /// A fixed three-row layer that shares the zero var among its inputs
    /// (a moderate row, one that saturates `tanh` and the sigmoid, value
    /// 1 and partial 0, and one below zero, where ReLU's partial is 0),
    /// under each special upstream adjoint.
    fn special_adjoint_case(act: Activation, upstream: f64) -> AffineCase {
        AffineCase {
            act,
            block: vec![
                0.25, 30.0, -1.5, // biases
                0.75, -1.5, 0.25, 0.75, // weights, row 0
                -1.5, 0.75, 30.0, 0.25, // row 1
                -1.5, -1.5, -1.5, -1.5, // row 2
            ],
            bias: 0,
            weights: 3,
            rows: 3,
            pool: vec![0.75, -1.5, 0.25, 0.0, 30.0],
            inputs: vec![3, 1, 0, 3],
            upstream: vec![upstream; 3],
            direct: vec![0.5, -0.25, 1.0, 0.125, -2.0],
        }
    }

    #[test]
    fn affine_row_passes_special_adjoints_as_the_chain_does() {
        for act in ACTIVATIONS {
            for upstream in SPECIAL_ADJOINTS {
                special_adjoint_case(act, upstream)
                    .assert_fused_matches(Record::Chain, &format!("{act:?}, {upstream:?}"));
            }
        }
    }

    /// RouteNet's readout `((b + w₀h₀) + w₁h₁) + …` has no activation
    /// node; a one-row `Linear` fused row stands for it, bit for bit.
    #[test]
    fn linear_row_is_the_readout_chain() {
        for upstream in SPECIAL_ADJOINTS {
            let mut case = special_adjoint_case(Activation::Linear, upstream);
            case.rows = 1;
            for weights in [3, 7, 11] {
                case.weights = weights;
                case.assert_fused_matches(Record::Readout, &format!("{upstream:?}, {weights}"));
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
                let block = t.params(&[0.0, 1.0]);
                t.affine(act, block.range(0..1), block.range(1..2), &[x], &mut row);
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
        /// every activation: every row's value, every input var's
        /// gradient and every bias and weight gradient, however the
        /// inputs repeat and the bias and weights overlap.
        #[test]
        fn prop_affine_row_matches_scalar_chain(seed in 0u64..u64::MAX) {
            let case = AffineCase::new(seed);
            let (fused, chain) = (case.run(Record::Fused), case.run(Record::Chain));
            prop_assert_eq!(&fused.values, &chain.values, "row values");
            prop_assert_eq!(&fused.inputs, &chain.inputs, "input gradients");
            prop_assert_eq!(&fused.params, &chain.params, "parameter gradients");
            let chain_nodes = case.block.len() + case.rows * 2 * case.inputs.len();
            prop_assert_eq!(fused.nodes + chain_nodes, chain.nodes);
        }

        /// The parameter-gradient backward gives every var the bits the
        /// plain one does.
        #[test]
        fn prop_both_backwards_give_the_same_input_gradients(seed in 0u64..u64::MAX) {
            let fused = AffineCase::new(seed).run(Record::Fused);
            prop_assert_eq!(fused.inputs, fused.inputs_with_params);
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
