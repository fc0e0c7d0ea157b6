//! The executable DLRM: bottom MLP over dense features, embedding tables and
//! pooling over sparse features, pairwise-dot feature interaction, and a top
//! MLP producing a click probability (paper §2.2, Figure 2).

use crate::embedding::EmbeddingTable;
use crate::nn::{bce_loss, dot, sigmoid, Mlp};
use crate::pooling::{pool_sequence, PoolingKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recd_core::{ConvertedBatch, JaggedTensor};
use recd_data::{FeatureId, Schema};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Whether the model executes the baseline (KJT) or deduplicated (IKJT)
/// path for grouped features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Expand every IKJT back to a KJT first, then process one row at a time
    /// (what a pre-RecD trainer does).
    Baseline,
    /// O5–O7: look up, pool, and run sequence modules once per deduplicated
    /// slot, then expand the pooled outputs through the shared inverse
    /// lookup.
    #[default]
    Deduplicated,
}

/// Work counters collected during one forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ForwardStats {
    /// Single-row embedding lookups performed.
    pub emb_lookups: u64,
    /// FLOPs the cost model charges for the pooling modules
    /// ([`PoolingKind::flops_per_row`]): the analytical figure of the
    /// paper's parameterised modules, not the work the parameter-free
    /// executable kernels perform.
    pub pooling_flops: u64,
    /// Rows (or slots) run through pooling modules.
    pub pooled_rows: usize,
    /// FLOPs spent in the bottom/top MLPs and the interaction.
    pub mlp_flops: u64,
    /// f32 values materialized for embedding activations (the dynamic GPU
    /// memory O5 reduces).
    pub activation_values: usize,
}

/// Model architecture configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DlrmConfig {
    /// Number of dense input features.
    pub dense_features: usize,
    /// Embedding dimension shared by all tables.
    pub embedding_dim: usize,
    /// Rows per embedding table (hash buckets).
    pub hash_buckets: usize,
    /// Hidden sizes of the bottom MLP (its output is `embedding_dim`).
    pub bottom_mlp: Vec<usize>,
    /// Hidden sizes of the top MLP (its output is 1 logit).
    pub top_mlp: Vec<usize>,
    /// Pooling used for sequence (user-history) features.
    pub sequence_pooling: PoolingKind,
    /// Per-feature pooling assignment.
    pub feature_pooling: Vec<(FeatureId, PoolingKind)>,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// RNG seed for parameter initialization.
    pub seed: u64,
}

impl DlrmConfig {
    /// Builds a model configuration from a dataset schema: features named
    /// `user_seq*` (long histories) get `sequence_pooling`, everything else
    /// gets sum pooling.
    pub fn from_schema(
        schema: &Schema,
        embedding_dim: usize,
        sequence_pooling: PoolingKind,
    ) -> Self {
        let feature_pooling = schema
            .sparse_features()
            .iter()
            .map(|spec| {
                let kind = if spec.avg_len >= 16.0 {
                    sequence_pooling
                } else {
                    PoolingKind::Sum
                };
                (spec.id, kind)
            })
            .collect();
        Self {
            dense_features: schema.dense_count(),
            embedding_dim,
            hash_buckets: 1 << 12,
            bottom_mlp: vec![64, embedding_dim],
            top_mlp: vec![64, 32, 1],
            sequence_pooling,
            feature_pooling,
            learning_rate: 0.05,
            seed: 17,
        }
    }

    /// Replaces the embedding dimension (used by the Table 2 "EMB D256"
    /// configuration).
    #[must_use]
    pub fn with_embedding_dim(mut self, dim: usize) -> Self {
        self.embedding_dim = dim;
        if let Some(last) = self.bottom_mlp.last_mut() {
            *last = dim;
        }
        self
    }

    /// Forces sum pooling everywhere (needed for end-to-end SGD training,
    /// since the sequence modules are forward-only).
    #[must_use]
    pub fn with_sum_pooling(mut self) -> Self {
        self.sequence_pooling = PoolingKind::Sum;
        for (_, kind) in &mut self.feature_pooling {
            *kind = PoolingKind::Sum;
        }
        self
    }

    /// Number of sparse features the model consumes.
    pub fn sparse_feature_count(&self) -> usize {
        self.feature_pooling.len()
    }
}

/// The executable DLRM.
#[derive(Debug, Clone)]
pub struct Dlrm {
    config: DlrmConfig,
    bottom: Mlp,
    top: Mlp,
    tables: HashMap<FeatureId, EmbeddingTable>,
    pooling: HashMap<FeatureId, PoolingKind>,
}

impl Dlrm {
    /// Builds the model from its configuration.
    pub fn new(config: DlrmConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut bottom_dims = vec![config.dense_features.max(1)];
        bottom_dims.extend(&config.bottom_mlp);
        let bottom = Mlp::new(&bottom_dims, &mut rng);

        let n_features = config.feature_pooling.len();
        // Interaction output: bottom vector (d) + pairwise dots among
        // (bottom + n_features) vectors.
        let n_vectors = n_features + 1;
        let interaction_dim = config.embedding_dim + n_vectors * (n_vectors - 1) / 2;
        let mut top_dims = vec![interaction_dim];
        top_dims.extend(&config.top_mlp);
        let top = Mlp::new(&top_dims, &mut rng);

        let tables = config
            .feature_pooling
            .iter()
            .map(|&(feature, _)| {
                (
                    feature,
                    EmbeddingTable::new(
                        config.hash_buckets,
                        config.embedding_dim,
                        config.seed ^ (feature.raw() as u64 + 1),
                    ),
                )
            })
            .collect();
        let pooling = config.feature_pooling.iter().copied().collect();
        Self {
            config,
            bottom,
            top,
            tables,
            pooling,
        }
    }

    /// Borrows the model configuration.
    pub fn config(&self) -> &DlrmConfig {
        &self.config
    }

    /// Total embedding parameter bytes (for the memory report).
    pub fn embedding_parameter_bytes(&self) -> usize {
        self.tables
            .values()
            .map(EmbeddingTable::parameter_bytes)
            .sum()
    }

    /// Total dense (MLP) parameter count.
    pub fn mlp_parameter_count(&self) -> usize {
        self.bottom.parameter_count() + self.top.parameter_count()
    }

    /// Pools one feature for every row of the batch, honoring the execution
    /// mode. Returns the per-row pooled vectors as one flat matrix.
    fn pool_feature(
        &mut self,
        feature: FeatureId,
        batch: &ConvertedBatch,
        mode: ExecutionMode,
        stats: &mut ForwardStats,
    ) -> PooledRows {
        let dim = self.config.embedding_dim;
        let kind = *self.pooling.get(&feature).unwrap_or(&PoolingKind::Sum);
        let table = self
            .tables
            .get_mut(&feature)
            .expect("feature must have a table");

        // Locate the feature: either in the KJT or in one of the IKJTs.
        if let Some(tensor) = batch.kjt.feature(feature) {
            return pool_rows(table, kind, tensor, dim, stats);
        }
        for ikjt in &batch.ikjts {
            let Some(slot_tensor) = ikjt.feature(feature) else {
                continue;
            };
            return match mode {
                ExecutionMode::Baseline => {
                    // Expand first, then process every row.
                    let expanded =
                        recd_core::jagged_index_select(slot_tensor, ikjt.inverse_lookup())
                            .expect("ikjt lookup is valid");
                    pool_rows(table, kind, &expanded, dim, stats)
                }
                ExecutionMode::Deduplicated => {
                    // Process each slot once, then broadcast (O5 + O7). The
                    // expansion is an offset-based slice copy through the
                    // inverse lookup — no per-row Vec is cloned.
                    let per_slot = pool_rows(table, kind, slot_tensor, dim, stats);
                    PooledRows {
                        data: ikjt
                            .expand_per_slot_concat(&per_slot.data, dim)
                            .expect("slot count matches pooled outputs"),
                        dim,
                    }
                }
            };
        }
        // Feature absent from the batch: pool to zeros.
        PooledRows {
            data: vec![0.0; batch.batch_size * dim],
            dim,
        }
    }

    /// Forward pass over a converted batch, returning per-row click
    /// probabilities and work counters.
    pub fn forward(
        &mut self,
        batch: &ConvertedBatch,
        mode: ExecutionMode,
    ) -> (Vec<f32>, ForwardStats) {
        let (probs, _, stats) = self.forward_full(batch, mode);
        (probs, stats)
    }

    /// Forward pass that also returns the interaction-input vectors needed by
    /// the backward pass.
    fn forward_full(
        &mut self,
        batch: &ConvertedBatch,
        mode: ExecutionMode,
    ) -> (Vec<f32>, ForwardCache, ForwardStats) {
        let mut stats = ForwardStats::default();
        let dim = self.config.embedding_dim;
        let batch_size = batch.batch_size;

        // Bottom MLP over dense features, straight off the columnar dense
        // matrix — no per-row copy.
        let zero = [0.0f32];
        let mut bottom_acts = Vec::with_capacity(batch_size);
        for row in 0..batch_size {
            let dense: &[f32] = if batch.dense.cols() == 0 {
                &zero
            } else {
                batch.dense.row(row)
            };
            bottom_acts.push(self.bottom.forward_cached(dense));
        }
        stats.mlp_flops += self.bottom.flops() * batch_size as u64;

        // Pool every sparse feature.
        let features: Vec<FeatureId> = self
            .config
            .feature_pooling
            .iter()
            .map(|&(f, _)| f)
            .collect();
        let mut pooled_per_feature: Vec<PooledRows> = Vec::with_capacity(features.len());
        for &feature in &features {
            pooled_per_feature.push(self.pool_feature(feature, batch, mode, &mut stats));
        }

        // Interaction + top MLP per row. The interaction borrows the bottom
        // activation and the flat pooled matrices in place; the backward
        // pass re-borrows the same rows from the cache instead of cloning
        // them per row.
        let mut probs = Vec::with_capacity(batch_size);
        let mut top_acts = Vec::with_capacity(batch_size);
        for (row, bottom_act) in bottom_acts.iter().enumerate() {
            let bottom_out: &[f32] = bottom_act.last().expect("bottom output");
            let mut vectors: Vec<&[f32]> = Vec::with_capacity(features.len() + 1);
            vectors.push(bottom_out);
            for pooled in &pooled_per_feature {
                vectors.push(pooled.row(row));
            }
            let interaction = pairwise_dot_interaction(&vectors, dim);
            stats.mlp_flops += (vectors.len() * vectors.len() / 2) as u64 * dim as u64;
            let acts = self.top.forward_cached(&interaction);
            let logit = acts.last().expect("top output")[0];
            probs.push(sigmoid(logit));
            top_acts.push(acts);
        }
        stats.mlp_flops += self.top.flops() * batch_size as u64;

        (
            probs,
            ForwardCache {
                bottom_acts,
                top_acts,
                pooled: pooled_per_feature,
                features,
            },
            stats,
        )
    }

    /// One SGD training step over a batch: forward, BCE loss, backward
    /// through the top MLP, the interaction, the bottom MLP, and the
    /// embedding tables of sum/mean-pooled features. Returns the mean loss.
    ///
    /// Sequence pooling modules (attention/transformer) are forward-only in
    /// this reproduction; configure the model with
    /// [`DlrmConfig::with_sum_pooling`] for end-to-end training experiments.
    pub fn train_step(&mut self, batch: &ConvertedBatch, mode: ExecutionMode) -> f32 {
        let lr = self.config.learning_rate;
        let dim = self.config.embedding_dim;
        let (probs, cache, _) = self.forward_full(batch, mode);
        let batch_size = batch.batch_size.max(1);

        let mut total_loss = 0.0;
        for (row, &p) in probs.iter().enumerate() {
            let label = batch.labels[row];
            total_loss += bce_loss(p, label);
            // dL/dlogit for sigmoid + BCE, averaged over the batch.
            let grad_logit = (p - label) / batch_size as f32;

            // Top MLP backward.
            let grad_interaction = self.top.backward(&cache.top_acts[row], &[grad_logit], lr);

            // Interaction backward, over the same borrowed rows the forward
            // pass used.
            let bottom_out: &[f32] = cache.bottom_acts[row].last().expect("bottom output");
            let mut vectors: Vec<&[f32]> = Vec::with_capacity(cache.pooled.len() + 1);
            vectors.push(bottom_out);
            for pooled in &cache.pooled {
                vectors.push(pooled.row(row));
            }
            let grads = pairwise_dot_interaction_backward(&vectors, dim, &grad_interaction);

            // Bottom MLP backward.
            self.bottom.backward(&cache.bottom_acts[row], &grads[0], lr);

            // Embedding backward for sum/mean pooled features.
            for (fi, &feature) in cache.features.iter().enumerate() {
                let kind = *self.pooling.get(&feature).unwrap_or(&PoolingKind::Sum);
                if !matches!(kind, PoolingKind::Sum | PoolingKind::Mean) {
                    continue;
                }
                let ids = row_ids(batch, feature, row);
                if ids.is_empty() {
                    continue;
                }
                let table = self.tables.get_mut(&feature).expect("table exists");
                let grad = &grads[fi + 1];
                if kind == PoolingKind::Mean {
                    // Only mean pooling scales the gradient; sum pooling
                    // applies the borrowed row as is.
                    let n = ids.len() as f32;
                    let scaled: Vec<f32> = grad.iter().map(|g| g / n).collect();
                    table.apply_pooled_gradient(ids, &scaled, lr);
                } else {
                    table.apply_pooled_gradient(ids, grad, lr);
                }
            }
        }
        total_loss / batch_size as f32
    }
}

/// Per-row cache needed by the backward pass. Pooled activations stay in
/// their flat per-feature [`PooledRows`] matrices; the backward pass borrows
/// rows out of them rather than materializing per-row vectors.
struct ForwardCache {
    bottom_acts: Vec<Vec<Vec<f32>>>,
    top_acts: Vec<Vec<Vec<f32>>>,
    pooled: Vec<PooledRows>,
    features: Vec<FeatureId>,
}

/// Borrows the logical ids of `feature` at `row`, whichever container holds
/// the feature.
fn row_ids(batch: &ConvertedBatch, feature: FeatureId, row: usize) -> &[u64] {
    if let Some(tensor) = batch.kjt.feature(feature) {
        return tensor.row(row);
    }
    for ikjt in &batch.ikjts {
        if ikjt.feature(feature).is_some() {
            return ikjt.row(feature, row).unwrap_or_default();
        }
    }
    &[]
}

/// Pooled vectors for a run of rows (or slots), stored as one flat
/// `[rows * dim]` matrix instead of a `Vec` per row.
struct PooledRows {
    data: Vec<f32>,
    dim: usize,
}

impl PooledRows {
    /// Borrows the pooled vector of row `i`.
    fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Pools every row of a jagged tensor through one embedding table.
fn pool_rows(
    table: &mut EmbeddingTable,
    kind: PoolingKind,
    tensor: &JaggedTensor<u64>,
    dim: usize,
    stats: &mut ForwardStats,
) -> PooledRows {
    let mut out = Vec::with_capacity(tensor.row_count() * dim);
    for row in tensor.iter() {
        stats.emb_lookups += row.len() as u64;
        stats.activation_values += row.len() * dim;
        match kind {
            PoolingKind::Sum => {
                // Fast path: fused lookup + sum, straight into the matrix.
                stats.pooling_flops += kind.flops_per_row(row.len(), dim);
                let start = out.len();
                out.resize(start + dim, 0.0);
                table.lookup_pooled_into(row, &mut out[start..]);
            }
            _ => {
                let sequence = table.lookup_sequence(row);
                let (pooled, cost) = pool_sequence(kind, &sequence, dim);
                stats.pooling_flops += cost.flops;
                out.extend_from_slice(&pooled);
            }
        }
        stats.pooled_rows += 1;
    }
    PooledRows { data: out, dim }
}

/// DLRM pairwise-dot interaction: concatenates the first vector with the dot
/// products of every vector pair.
fn pairwise_dot_interaction(vectors: &[&[f32]], dim: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(dim + vectors.len() * (vectors.len() - 1) / 2);
    out.extend_from_slice(vectors[0]);
    for i in 0..vectors.len() {
        for j in (i + 1)..vectors.len() {
            out.push(dot(vectors[i], vectors[j]));
        }
    }
    out
}

/// Backward of [`pairwise_dot_interaction`]: returns the gradient with
/// respect to each input vector.
fn pairwise_dot_interaction_backward(
    vectors: &[&[f32]],
    dim: usize,
    grad_output: &[f32],
) -> Vec<Vec<f32>> {
    let mut grads: Vec<Vec<f32>> = vectors.iter().map(|v| vec![0.0; v.len()]).collect();
    // Pass-through part for the first vector.
    for d in 0..dim.min(grad_output.len()) {
        grads[0][d] += grad_output[d];
    }
    let mut k = dim;
    for i in 0..vectors.len() {
        for j in (i + 1)..vectors.len() {
            if k >= grad_output.len() {
                break;
            }
            let g = grad_output[k];
            k += 1;
            for d in 0..dim {
                grads[i][d] += g * vectors[j][d];
                grads[j][d] += g * vectors[i][d];
            }
        }
    }
    grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_core::{DataLoaderConfig, FeatureConverter};
    use recd_data::SampleBatch;
    use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
    use recd_etl::cluster_by_session;

    fn converted_batch(dedup: bool) -> (Schema, ConvertedBatch) {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let p = gen.generate_partition();
        let clustered = cluster_by_session(&p.samples);
        let batch = SampleBatch::new(clustered[..128.min(clustered.len())].to_vec());
        let config = DataLoaderConfig::from_schema(&p.schema);
        let converter = FeatureConverter::new(config);
        let converted = if dedup {
            converter.convert(&batch).unwrap()
        } else {
            converter.convert_baseline(&batch).unwrap()
        };
        (p.schema, converted)
    }

    #[test]
    fn dedup_and_baseline_paths_produce_identical_predictions() {
        let (schema, batch) = converted_batch(true);
        for kind in [PoolingKind::Attention, PoolingKind::Transformer] {
            let config = DlrmConfig::from_schema(&schema, 16, kind);
            assert!(config.feature_pooling.iter().any(|&(_, k)| k == kind));
            let mut model_a = Dlrm::new(config.clone());
            let mut model_b = Dlrm::new(config);
            let (probs_dedup, stats_dedup) = model_a.forward(&batch, ExecutionMode::Deduplicated);
            let (probs_base, stats_base) = model_b.forward(&batch, ExecutionMode::Baseline);
            assert_eq!(probs_dedup.len(), batch.batch_size);
            for (a, b) in probs_dedup.iter().zip(&probs_base) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "{kind:?}: IKJT and KJT paths must agree: {a} vs {b}"
                );
            }
            // The deduplicated path does strictly less embedding and pooling work.
            assert!(stats_dedup.emb_lookups < stats_base.emb_lookups);
            assert!(stats_dedup.pooling_flops < stats_base.pooling_flops);
            assert!(stats_dedup.activation_values < stats_base.activation_values);
            assert!(stats_dedup.pooled_rows < stats_base.pooled_rows);
        }
    }

    #[test]
    fn forward_over_baseline_batch_matches_dedup_batch_logically() {
        // The same rows converted with and without dedup must produce the
        // same predictions (IKJTs encode the same logical data).
        let (schema, dedup_batch) = converted_batch(true);
        let (_, baseline_batch) = converted_batch(false);
        let config = DlrmConfig::from_schema(&schema, 16, PoolingKind::Sum);
        let mut model_a = Dlrm::new(config.clone());
        let mut model_b = Dlrm::new(config);
        let (a, _) = model_a.forward(&dedup_batch, ExecutionMode::Deduplicated);
        let (b, _) = model_b.forward(&baseline_batch, ExecutionMode::Baseline);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn training_reduces_loss_on_both_paths_identically() {
        let (schema, batch) = converted_batch(true);
        let config = DlrmConfig::from_schema(&schema, 8, PoolingKind::Sum).with_sum_pooling();
        let mut dedup_model = Dlrm::new(config.clone());
        let mut baseline_model = Dlrm::new(config);
        let mut dedup_losses = Vec::new();
        let mut baseline_losses = Vec::new();
        for _ in 0..10 {
            dedup_losses.push(dedup_model.train_step(&batch, ExecutionMode::Deduplicated));
            baseline_losses.push(baseline_model.train_step(&batch, ExecutionMode::Baseline));
        }
        for (a, b) in dedup_losses.iter().zip(&baseline_losses) {
            assert!(
                (a - b).abs() < 1e-4,
                "training trajectories must match: {a} vs {b}"
            );
        }
        assert!(
            dedup_losses.last().unwrap() < dedup_losses.first().unwrap(),
            "loss should decrease: {dedup_losses:?}"
        );
    }

    #[test]
    fn config_helpers() {
        let (schema, _) = converted_batch(true);
        let config = DlrmConfig::from_schema(&schema, 32, PoolingKind::Transformer);
        assert_eq!(config.sparse_feature_count(), schema.sparse_count());
        assert!(config
            .feature_pooling
            .iter()
            .any(|&(_, k)| k == PoolingKind::Transformer));
        let wide = config.clone().with_embedding_dim(64);
        assert_eq!(wide.embedding_dim, 64);
        assert_eq!(*wide.bottom_mlp.last().unwrap(), 64);
        let summed = config.with_sum_pooling();
        assert!(summed
            .feature_pooling
            .iter()
            .all(|&(_, k)| k == PoolingKind::Sum));

        let model = Dlrm::new(DlrmConfig::from_schema(&schema, 8, PoolingKind::Sum));
        assert!(model.embedding_parameter_bytes() > 0);
        assert!(model.mlp_parameter_count() > 0);
    }

    #[test]
    fn interaction_backward_matches_numerical_gradient() {
        let a = vec![0.3f32, -0.2, 0.5];
        let b = vec![1.0f32, 0.1, -0.4];
        let c = vec![-0.7f32, 0.2, 0.9];
        let vectors: Vec<&[f32]> = vec![&a, &b, &c];
        let out = pairwise_dot_interaction(&vectors, 3);
        let grad_out: Vec<f32> = (0..out.len()).map(|i| 0.1 * (i as f32 + 1.0)).collect();
        let grads = pairwise_dot_interaction_backward(&vectors, 3, &grad_out);

        // Numerical check for vector b, coordinate 1.
        let eps = 1e-3f32;
        let mut b_plus = b.clone();
        b_plus[1] += eps;
        let mut b_minus = b.clone();
        b_minus[1] -= eps;
        let f = |bv: &Vec<f32>| {
            let vs: Vec<&[f32]> = vec![&a, bv, &c];
            pairwise_dot_interaction(&vs, 3)
                .iter()
                .zip(&grad_out)
                .map(|(o, g)| o * g)
                .sum::<f32>()
        };
        let numerical = (f(&b_plus) - f(&b_minus)) / (2.0 * eps);
        assert!((grads[1][1] - numerical).abs() < 1e-2);
    }
}
