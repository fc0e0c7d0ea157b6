//! Minimal dense neural-network primitives: linear layers, MLPs, and the
//! binary cross-entropy loss, with enough backward support for SGD training.
//!
//! [`dot`] is the trainer's one inner-product kernel: linear layers, the
//! DLRM interaction and the attention/transformer scores all call it.

use rand::rngs::StdRng;
use rand::Rng;
#[cfg(test)]
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A fully-connected layer `y = relu(W x + b)` (the final layer of an MLP can
/// disable the ReLU).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, row-major `[out, in]`.
    weights: Vec<f32>,
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
    relu: bool,
}

impl Linear {
    /// Creates a layer with Xavier-style initialization from a seeded RNG.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, rng: &mut StdRng) -> Self {
        let scale = (2.0 / (in_dim + out_dim) as f32).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let bias = vec![0.0; out_dim];
        Self {
            weights,
            bias,
            in_dim,
            out_dim,
            relu,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass for one input vector.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        debug_assert_eq!(input.len(), self.in_dim);
        let mut out = vec![0.0f32; self.out_dim];
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let acc = self.bias[o] + dot(row, input);
            *out_v = if self.relu { acc.max(0.0) } else { acc };
        }
        out
    }

    /// Backward pass for one example: given the upstream gradient and the
    /// cached input/output, updates weights with SGD and returns the gradient
    /// with respect to the input.
    pub fn backward(
        &mut self,
        input: &[f32],
        output: &[f32],
        grad_output: &[f32],
        learning_rate: f32,
    ) -> Vec<f32> {
        let mut grad_input = vec![0.0f32; self.in_dim];
        for o in 0..self.out_dim {
            // ReLU gate.
            let g = if self.relu && output[o] <= 0.0 {
                0.0
            } else {
                grad_output[o]
            };
            if g == 0.0 {
                continue;
            }
            let row = &mut self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            for (i, (w, &x)) in row.iter_mut().zip(input).enumerate() {
                grad_input[i] += *w * g;
                *w -= learning_rate * g * x;
            }
            self.bias[o] -= learning_rate * g;
        }
        grad_input
    }

    /// Multiply-accumulate count of one forward pass.
    pub fn flops(&self) -> u64 {
        2 * self.in_dim as u64 * self.out_dim as u64
    }

    /// Number of parameters in the layer.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

/// A multi-layer perceptron: a stack of [`Linear`] layers with ReLU between
/// layers and a linear final layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, e.g. `[64, 32, 1]` builds
    /// two layers `in→64→32→1`... more precisely `dims[0]` is the input size
    /// and each subsequent entry a layer output size.
    pub fn new(dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "an mlp needs an input and an output size");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], i + 2 < dims.len(), rng))
            .collect();
        Self { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("at least one layer").out_dim()
    }

    /// Forward pass, returning every layer's input plus the final output
    /// (needed for the backward pass).
    pub fn forward_cached(&self, input: &[f32]) -> Vec<Vec<f32>> {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input.to_vec());
        for layer in &self.layers {
            let next = layer.forward(activations.last().expect("non-empty"));
            activations.push(next);
        }
        activations
    }

    /// Forward pass returning only the output.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        self.forward_cached(input).pop().expect("non-empty")
    }

    /// Backward pass for one example; updates parameters with SGD and
    /// returns the gradient with respect to the MLP input.
    pub fn backward(
        &mut self,
        activations: &[Vec<f32>],
        grad_output: &[f32],
        learning_rate: f32,
    ) -> Vec<f32> {
        let mut grad = grad_output.to_vec();
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            grad = layer.backward(
                &activations[idx],
                &activations[idx + 1],
                &grad,
                learning_rate,
            );
        }
        grad
    }

    /// Multiply-accumulate count of one forward pass.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(Linear::flops).sum()
    }

    /// Number of parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Linear::parameter_count).sum()
    }
}

/// Inner product of two equal-length vectors.
///
/// Eight independent accumulators over `chunks_exact(8)` break the serial
/// chain of adds that `iter().zip().map().sum()` imposes, so LLVM vectorizes
/// the loop at the default target without `unsafe` or intrinsics. The lanes
/// are combined in a fixed order and `x * y == y * x` in IEEE arithmetic, so
/// `dot(a, b) == dot(b, a)` bit for bit; symmetric score matrices rely on
/// that to compute each entry once.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let a_chunks = a.chunks_exact(8);
    let b_chunks = b.chunks_exact(8);
    let mut tail = 0.0f32;
    for (x, y) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        tail += x * y;
    }
    let mut lanes = [0.0f32; 8];
    for (x, y) in a_chunks.zip(b_chunks) {
        for ((lane, x), y) in lanes.iter_mut().zip(x).zip(y) {
            *lane += x * y;
        }
    }
    ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]))
        + tail
}

/// Numerically-stable sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy loss for one prediction (post-sigmoid probability).
pub fn bce_loss(probability: f32, label: f32) -> f32 {
    let p = probability.clamp(1e-7, 1.0 - 1e-7);
    -(label * p.ln() + (1.0 - label) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn dot_matches_the_serial_sum_and_is_symmetric() {
        let mut data_rng = StdRng::seed_from_u64(5);
        for width in [0, 1, 3, 8, 13, 64, 96] {
            let a: Vec<f32> = (0..width).map(|_| data_rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..width).map(|_| data_rng.gen_range(-1.0..1.0)).collect();
            let serial: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let fast = dot(&a, &b);
            assert!(
                (fast - serial).abs() <= 1e-5 * serial.abs().max(1.0),
                "width {width}: {fast} vs {serial}"
            );
            assert_eq!(fast.to_bits(), dot(&b, &a).to_bits(), "width {width}");
        }
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn linear_forward_shapes_and_relu() {
        let layer = Linear::new(3, 2, true, &mut rng());
        let out = layer.forward(&[1.0, -2.0, 0.5]);
        assert_eq!(out.len(), 2);
        assert!(
            out.iter().all(|&v| v >= 0.0),
            "relu output must be non-negative"
        );
        assert_eq!(layer.flops(), 12);
        assert_eq!(layer.parameter_count(), 8);
    }

    #[test]
    fn mlp_forward_and_dimensions() {
        let mlp = Mlp::new(&[4, 8, 1], &mut rng());
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 1);
        let out = mlp.forward(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(out.len(), 1);
        assert!(mlp.flops() > 0);
        assert!(mlp.parameter_count() > 0);
    }

    #[test]
    fn sgd_reduces_loss_on_a_learnable_problem() {
        // Learn y = 1 if x0 > x1 else 0.
        let mut mlp = Mlp::new(&[2, 8, 1], &mut rng());
        let mut data_rng = StdRng::seed_from_u64(9);
        let mut initial_loss = 0.0;
        let mut final_loss = 0.0;
        for epoch in 0..300 {
            let mut epoch_loss = 0.0;
            for _ in 0..32 {
                let x = [
                    data_rng.gen_range(0.0..1.0f32),
                    data_rng.gen_range(0.0..1.0f32),
                ];
                let label = if x[0] > x[1] { 1.0 } else { 0.0 };
                let activations = mlp.forward_cached(&x);
                let logit = activations.last().unwrap()[0];
                let p = sigmoid(logit);
                epoch_loss += bce_loss(p, label);
                // dL/dlogit = p - label for sigmoid + BCE.
                mlp.backward(&activations, &[p - label], 0.1);
            }
            if epoch == 0 {
                initial_loss = epoch_loss;
            }
            final_loss = epoch_loss;
        }
        assert!(
            final_loss < initial_loss * 0.6,
            "training should reduce loss: {initial_loss} -> {final_loss}"
        );
    }

    #[test]
    fn sigmoid_and_bce_are_stable_at_extremes() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!(bce_loss(1.0, 1.0) < 1e-5);
        assert!(bce_loss(0.0, 1.0) > 10.0);
        assert!(bce_loss(0.0, 0.0) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "an mlp needs an input and an output size")]
    fn mlp_requires_two_dims() {
        Mlp::new(&[4], &mut rng());
    }
}
