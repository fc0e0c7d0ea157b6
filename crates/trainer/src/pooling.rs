//! Pooling modules that aggregate a sequence of embedding vectors into one
//! vector per row.
//!
//! Element-wise pooling (sum/mean/max) is cheap; sequence models pool with
//! attention or small transformers, which is exactly the compute RecD's O7
//! deduplicates by running the module once per IKJT slot instead of once per
//! batch row.

use crate::nn::dot;
use serde::{Deserialize, Serialize};

/// The pooling function applied to a feature's embedding sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PoolingKind {
    /// Element-wise sum.
    #[default]
    Sum,
    /// Element-wise mean.
    Mean,
    /// Element-wise max.
    Max,
    /// Single-query dot-product attention over the sequence.
    Attention,
    /// One self-attention layer plus a feed-forward layer, mean-pooled — the
    /// "expensive transformer pooling" of RM1.
    Transformer,
}

/// FLOP accounting for one pooling invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PoolingCost {
    /// Multiply-accumulate operations performed.
    pub flops: u64,
    /// Rows (sequences) pooled.
    pub rows: usize,
}

impl PoolingKind {
    /// Analytical FLOPs for pooling one sequence of `len` embeddings of
    /// dimension `dim`. Used by the trainer cost model.
    ///
    /// This is the cost model's figure for the paper's parameterised
    /// modules, not the work [`pool_sequence`] executes. For the transformer
    /// it charges `5·len·dim² + 2·len²·dim`, which includes QKV and FFN
    /// projections; the executable kernel is parameter-free and does about
    /// `len²·dim/2` for the (symmetric) scores plus `len²·dim` for the
    /// weighted sum.
    pub fn flops_per_row(&self, len: usize, dim: usize) -> u64 {
        let len = len as u64;
        let dim = dim as u64;
        match self {
            PoolingKind::Sum | PoolingKind::Mean | PoolingKind::Max => len * dim,
            // score = e_i . q  (len*dim), softmax (~3*len), weighted sum (len*dim)
            PoolingKind::Attention => 2 * len * dim + 3 * len,
            // QKV projections (3*len*dim^2), scores (len^2*dim), weighted sum
            // (len^2*dim), FFN (2*len*dim^2).
            PoolingKind::Transformer => 5 * len * dim * dim + 2 * len * len * dim,
        }
    }

    /// Whether this pooling kind is one of the expensive sequence modules
    /// whose compute O7 deduplicates.
    pub fn is_sequence_module(&self) -> bool {
        matches!(self, PoolingKind::Attention | PoolingKind::Transformer)
    }
}

fn softmax_in_place(scores: &mut [f32]) {
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    if sum > 0.0 {
        for s in scores.iter_mut() {
            *s /= sum;
        }
    }
}

/// `out += weight * row`.
fn axpy(out: &mut [f32], weight: f32, row: &[f32]) {
    for (o, x) in out.iter_mut().zip(row) {
        *o += weight * x;
    }
}

/// Pools one sequence of embedding vectors into a single vector, returning
/// the pooled vector and the FLOPs the cost model charges for it.
///
/// `sequence` is the row-major `[len * dim]` matrix of the sequence's
/// embeddings, as [`crate::EmbeddingTable::lookup_sequence`] gathers it. An
/// empty sequence pools to the zero vector.
pub fn pool_sequence(kind: PoolingKind, sequence: &[f32], dim: usize) -> (Vec<f32>, PoolingCost) {
    let len = sequence.len().checked_div(dim).unwrap_or(0);
    debug_assert_eq!(len * dim, sequence.len(), "sequence is not [len * dim]");
    let cost = PoolingCost {
        flops: kind.flops_per_row(len, dim),
        rows: 1,
    };
    if len == 0 {
        return (vec![0.0; dim], cost);
    }
    let rows = || sequence.chunks_exact(dim);
    let n = len as f32;
    let mut out = vec![0.0f32; dim];
    match kind {
        PoolingKind::Sum | PoolingKind::Mean => {
            for e in rows() {
                axpy(&mut out, 1.0, e);
            }
            if kind == PoolingKind::Mean {
                out.iter_mut().for_each(|o| *o /= n);
            }
        }
        PoolingKind::Max => {
            out.fill(f32::NEG_INFINITY);
            for e in rows() {
                for (o, v) in out.iter_mut().zip(e) {
                    *o = o.max(*v);
                }
            }
        }
        PoolingKind::Attention => {
            // Query = mean of the sequence; attention weights from dot products.
            let mut query = vec![0.0f32; dim];
            for e in rows() {
                axpy(&mut query, 1.0, e);
            }
            query.iter_mut().for_each(|q| *q /= n);
            let scale = 1.0 / (dim as f32).sqrt();
            let mut scores: Vec<f32> = rows().map(|e| dot(e, &query) * scale).collect();
            softmax_in_place(&mut scores);
            for (e, &w) in rows().zip(&scores) {
                axpy(&mut out, w, e);
            }
        }
        PoolingKind::Transformer => {
            // One round of scaled dot-product self-attention (weights tied to
            // the identity projection to stay parameter-free), followed by a
            // squared-ReLU feed-forward, then mean pooling.
            //
            // The score matrix is symmetric: each entry is computed once, on
            // the upper triangle, and mirrored (`dot` is exactly symmetric).
            let scale = 1.0 / (dim as f32).sqrt();
            let mut scores = vec![0.0f32; len * len];
            for (i, q) in rows().enumerate() {
                for (j, k) in rows().enumerate().skip(i) {
                    let s = dot(q, k) * scale;
                    scores[i * len + j] = s;
                    scores[j * len + i] = s;
                }
            }
            let mut attended = vec![0.0f32; dim];
            for (q, weights) in rows().zip(scores.chunks_exact_mut(len)) {
                softmax_in_place(weights);
                attended.fill(0.0);
                for (v, &w) in rows().zip(weights.iter()) {
                    axpy(&mut attended, w, v);
                }
                // Feed-forward: squared ReLU with a residual connection,
                // accumulated straight into the mean pool.
                for ((o, &a), &x) in out.iter_mut().zip(&attended).zip(q) {
                    let h = a.max(0.0);
                    *o += x + h * h;
                }
            }
            out.iter_mut().for_each(|o| *o /= n);
        }
    }
    (out, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ALL_KINDS: [PoolingKind; 5] = [
        PoolingKind::Sum,
        PoolingKind::Mean,
        PoolingKind::Max,
        PoolingKind::Attention,
        PoolingKind::Transformer,
    ];

    /// The nested-`Vec` kernels the flat [`pool_sequence`] replaced, kept
    /// verbatim as the reference it is checked against.
    fn reference_pool(kind: PoolingKind, sequence: &[Vec<f32>], dim: usize) -> Vec<f32> {
        if sequence.is_empty() {
            return vec![0.0; dim];
        }
        match kind {
            PoolingKind::Sum => {
                let mut out = vec![0.0f32; dim];
                for e in sequence {
                    for (o, v) in out.iter_mut().zip(e) {
                        *o += v;
                    }
                }
                out
            }
            PoolingKind::Mean => {
                let mut out = vec![0.0f32; dim];
                for e in sequence {
                    for (o, v) in out.iter_mut().zip(e) {
                        *o += v;
                    }
                }
                let n = sequence.len() as f32;
                for o in &mut out {
                    *o /= n;
                }
                out
            }
            PoolingKind::Max => {
                let mut out = vec![f32::NEG_INFINITY; dim];
                for e in sequence {
                    for (o, v) in out.iter_mut().zip(e) {
                        *o = o.max(*v);
                    }
                }
                out
            }
            PoolingKind::Attention => {
                // Query = mean of the sequence; attention weights from dot products.
                let mut query = vec![0.0f32; dim];
                for e in sequence {
                    for (q, v) in query.iter_mut().zip(e) {
                        *q += v;
                    }
                }
                let n = sequence.len() as f32;
                for q in &mut query {
                    *q /= n;
                }
                let scale = 1.0 / (dim as f32).sqrt();
                let mut scores: Vec<f32> = sequence
                    .iter()
                    .map(|e| e.iter().zip(&query).map(|(a, b)| a * b).sum::<f32>() * scale)
                    .collect();
                softmax_in_place(&mut scores);
                let mut out = vec![0.0f32; dim];
                for (e, &w) in sequence.iter().zip(&scores) {
                    for (o, v) in out.iter_mut().zip(e) {
                        *o += w * v;
                    }
                }
                out
            }
            PoolingKind::Transformer => {
                // One round of scaled dot-product self-attention (weights tied to
                // the identity projection to stay parameter-free), followed by a
                // squared-ReLU feed-forward, then mean pooling.
                let scale = 1.0 / (dim as f32).sqrt();
                let mut attended: Vec<Vec<f32>> = Vec::with_capacity(sequence.len());
                for q in sequence {
                    let mut scores: Vec<f32> = sequence
                        .iter()
                        .map(|k| q.iter().zip(k).map(|(a, b)| a * b).sum::<f32>() * scale)
                        .collect();
                    softmax_in_place(&mut scores);
                    let mut out = vec![0.0f32; dim];
                    for (v, &w) in sequence.iter().zip(&scores) {
                        for (o, x) in out.iter_mut().zip(v) {
                            *o += w * x;
                        }
                    }
                    // Feed-forward: squared ReLU with a residual connection.
                    for (o, x) in out.iter_mut().zip(q) {
                        let h = (*o).max(0.0);
                        *o = x + h * h;
                    }
                    attended.push(out);
                }
                let mut out = vec![0.0f32; dim];
                for e in &attended {
                    for (o, v) in out.iter_mut().zip(e) {
                        *o += v;
                    }
                }
                let n = attended.len() as f32;
                for o in &mut out {
                    *o /= n;
                }
                out
            }
        }
    }

    fn sequence() -> Vec<f32> {
        vec![1.0, 2.0, 3.0, 4.0, 5.0, 0.0]
    }

    #[test]
    fn flat_kernels_match_the_nested_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [0, 1, 2, 7, 96] {
            for dim in [1, 3, 8, 13, 64] {
                let nested: Vec<Vec<f32>> = (0..len)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
                    .collect();
                let flat = nested.concat();
                for kind in ALL_KINDS {
                    let (got, cost) = pool_sequence(kind, &flat, dim);
                    let want = reference_pool(kind, &nested, dim);
                    assert_eq!(got.len(), dim);
                    assert_eq!(cost.flops, kind.flops_per_row(len, dim));
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            (g - w).abs() <= 1e-5 * w.abs().max(1.0),
                            "{kind:?} len {len} dim {dim}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn elementwise_pooling_values() {
        let (sum, _) = pool_sequence(PoolingKind::Sum, &sequence(), 2);
        assert_eq!(sum, vec![9.0, 6.0]);
        let (mean, _) = pool_sequence(PoolingKind::Mean, &sequence(), 2);
        assert_eq!(mean, vec![3.0, 2.0]);
        let (max, _) = pool_sequence(PoolingKind::Max, &sequence(), 2);
        assert_eq!(max, vec![5.0, 4.0]);
    }

    #[test]
    fn attention_output_is_a_convex_combination() {
        let (out, cost) = pool_sequence(PoolingKind::Attention, &sequence(), 2);
        // Each output coordinate must lie within the min/max of inputs.
        for (d, &o) in out.iter().enumerate() {
            let column = sequence().into_iter().skip(d).step_by(2);
            let min = column.clone().fold(f32::INFINITY, f32::min);
            let max = column.fold(f32::NEG_INFINITY, f32::max);
            assert!(o >= min - 1e-5 && o <= max + 1e-5);
        }
        assert!(cost.flops > 0);
    }

    #[test]
    fn transformer_pooling_is_deterministic_and_costly() {
        let (a, cost_a) = pool_sequence(PoolingKind::Transformer, &sequence(), 2);
        let (b, _) = pool_sequence(PoolingKind::Transformer, &sequence(), 2);
        assert_eq!(a, b);
        let sum_cost = PoolingKind::Sum.flops_per_row(3, 2);
        assert!(
            cost_a.flops > sum_cost,
            "transformer must be far more expensive"
        );
        assert!(PoolingKind::Transformer.is_sequence_module());
        assert!(!PoolingKind::Sum.is_sequence_module());
    }

    #[test]
    fn flops_scale_with_length_and_dim() {
        let short = PoolingKind::Transformer.flops_per_row(10, 64);
        let long = PoolingKind::Transformer.flops_per_row(100, 64);
        assert!(long > short * 9);
        let narrow = PoolingKind::Attention.flops_per_row(10, 16);
        let wide = PoolingKind::Attention.flops_per_row(10, 128);
        assert!(wide > narrow);
    }

    #[test]
    fn empty_sequence_pools_to_zero() {
        for kind in ALL_KINDS {
            let (out, _) = pool_sequence(kind, &[], 3);
            assert_eq!(out, vec![0.0; 3]);
        }
    }
}
