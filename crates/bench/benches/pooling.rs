//! Benchmarks of the trainer forward pass: baseline (per-row) vs
//! deduplicated (per-slot) execution of embedding lookup + pooling (O5/O7).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recd_bench::BenchFixture;
use recd_trainer::{pool_sequence, Dlrm, DlrmConfig, ExecutionMode, PoolingKind};

fn bench_pool_sequence(c: &mut Criterion) {
    // One row-major 96x64 sequence, as `EmbeddingTable::lookup_sequence`
    // gathers it.
    let sequence: Vec<f32> = (0..96 * 64).map(|i| (i as f32).sin()).collect();
    let mut group = c.benchmark_group("pool_one_sequence_96x64");
    group.sample_size(30);
    for kind in [
        PoolingKind::Sum,
        PoolingKind::Mean,
        PoolingKind::Max,
        PoolingKind::Attention,
        PoolingKind::Transformer,
    ] {
        group.bench_function(format!("{kind:?}").to_lowercase(), |b| {
            b.iter(|| pool_sequence(kind, black_box(&sequence), 64))
        });
    }
    group.finish();
}

fn bench_dlrm_forward(c: &mut Criterion) {
    let fixture = BenchFixture::new(60);
    let batch = fixture.dedup_batch(256);
    let config = DlrmConfig::from_schema(&fixture.schema, 32, PoolingKind::Attention);
    let mut group = c.benchmark_group("dlrm_forward_256");
    group.sample_size(10);
    group.bench_function("baseline_kjt_path", |b| {
        let mut model = Dlrm::new(config.clone());
        b.iter(|| model.forward(black_box(&batch), ExecutionMode::Baseline))
    });
    group.bench_function("dedup_ikjt_path", |b| {
        let mut model = Dlrm::new(config.clone());
        b.iter(|| model.forward(black_box(&batch), ExecutionMode::Deduplicated))
    });
    group.finish();
}

criterion_group!(benches, bench_pool_sequence, bench_dlrm_forward);
criterion_main!(benches);
