//! Embedding tables: the model-parallel half of a DLRM.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A hash-bucketed embedding table.
///
/// Ids are mapped to rows by modulo (the reader's hash-bucketize transform
/// already spreads them), and each row is an `dim`-dimensional vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingTable {
    weights: Vec<f32>,
    rows: usize,
    dim: usize,
    /// Number of single-row lookups performed since creation (the paper's
    /// "EMB lookups" — the quantity O5 reduces).
    lookups: u64,
}

impl EmbeddingTable {
    /// Creates a table of `rows` x `dim` with small random initial values.
    pub fn new(rows: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rows.max(1);
        let dim = dim.max(1);
        let weights = (0..rows * dim)
            .map(|_| rng.gen_range(-0.01..0.01))
            .collect();
        Self {
            weights,
            rows,
            dim,
            lookups: 0,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows (hash buckets).
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Bytes of parameter memory held by the table.
    pub fn parameter_bytes(&self) -> usize {
        self.weights.len() * 4
    }

    /// Number of single-row lookups performed so far.
    pub fn lookup_count(&self) -> u64 {
        self.lookups
    }

    /// Resets the lookup counter.
    pub fn reset_lookup_count(&mut self) {
        self.lookups = 0;
    }

    fn row_index(&self, id: u64) -> usize {
        (id % self.rows as u64) as usize
    }

    /// Looks up one id's embedding row.
    pub fn lookup(&mut self, id: u64) -> &[f32] {
        self.lookups += 1;
        let r = self.row_index(id);
        &self.weights[r * self.dim..(r + 1) * self.dim]
    }

    /// Sum-pools the embeddings of an id list into `out` (which must have
    /// length `dim`). Returns the number of lookups performed.
    pub fn lookup_pooled_into(&mut self, ids: &[u64], out: &mut [f32]) -> usize {
        debug_assert_eq!(out.len(), self.dim);
        out.fill(0.0);
        for &id in ids {
            let r = self.row_index(id);
            let row = &self.weights[r * self.dim..(r + 1) * self.dim];
            for (o, w) in out.iter_mut().zip(row) {
                *o += w;
            }
        }
        self.lookups += ids.len() as u64;
        ids.len()
    }

    /// Sum-pools the embeddings of an id list, returning a fresh vector.
    pub fn lookup_pooled(&mut self, ids: &[u64]) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        self.lookup_pooled_into(ids, &mut out);
        out
    }

    /// Looks up every id of a list as separate (unpooled) embedding vectors —
    /// the input of sequence pooling modules — gathered into one row-major
    /// `[ids.len() * dim]` matrix.
    pub fn lookup_sequence(&mut self, ids: &[u64]) -> Vec<f32> {
        self.lookups += ids.len() as u64;
        let mut out = Vec::with_capacity(ids.len() * self.dim);
        for &id in ids {
            let r = self.row_index(id);
            out.extend_from_slice(&self.weights[r * self.dim..(r + 1) * self.dim]);
        }
        out
    }

    /// SGD update for a sum-pooled lookup: every id in the list receives the
    /// same gradient (the gradient of the pooled output).
    pub fn apply_pooled_gradient(&mut self, ids: &[u64], grad: &[f32], learning_rate: f32) {
        debug_assert_eq!(grad.len(), self.dim);
        for &id in ids {
            let r = self.row_index(id);
            let row = &mut self.weights[r * self.dim..(r + 1) * self.dim];
            for (w, g) in row.iter_mut().zip(grad) {
                *w -= learning_rate * g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_pooling_are_consistent() {
        let mut table = EmbeddingTable::new(100, 8, 3);
        assert_eq!(table.dim(), 8);
        assert_eq!(table.row_count(), 100);
        assert_eq!(table.parameter_bytes(), 100 * 8 * 4);

        let a = table.lookup(5).to_vec();
        let b = table.lookup(105).to_vec();
        assert_eq!(a, b, "ids map to rows modulo the table size");

        let pooled = table.lookup_pooled(&[5, 5]);
        let expected: Vec<f32> = a.iter().map(|v| v * 2.0).collect();
        for (p, e) in pooled.iter().zip(&expected) {
            assert!((p - e).abs() < 1e-6);
        }
        let seq = table.lookup_sequence(&[5, 7]);
        assert_eq!(seq.len(), 2 * 8);
        assert_eq!(&seq[..8], &a[..]);
        assert_eq!(&seq[8..], table.lookup(7));
    }

    #[test]
    fn lookup_counter_tracks_work() {
        let mut table = EmbeddingTable::new(10, 4, 0);
        table.lookup(1);
        table.lookup_pooled(&[1, 2, 3]);
        table.lookup_sequence(&[4, 5]);
        assert_eq!(table.lookup_count(), 6);
        table.reset_lookup_count();
        assert_eq!(table.lookup_count(), 0);
    }

    #[test]
    fn pooled_gradient_moves_the_rows() {
        let mut table = EmbeddingTable::new(10, 4, 0);
        let before = table.lookup(3).to_vec();
        table.apply_pooled_gradient(&[3], &[1.0, 1.0, 1.0, 1.0], 0.5);
        let after = table.lookup(3).to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_list_pools_to_zero() {
        let mut table = EmbeddingTable::new(10, 4, 0);
        assert_eq!(table.lookup_pooled(&[]), vec![0.0; 4]);
    }

    #[test]
    fn degenerate_sizes_are_clamped() {
        let table = EmbeddingTable::new(0, 0, 0);
        assert_eq!(table.row_count(), 1);
        assert_eq!(table.dim(), 1);
    }
}
