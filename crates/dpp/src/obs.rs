//! Observability-plane integration: projects the streaming service's live
//! [`DppSnapshot`] (plus the combined per-phase reader accounting) into
//! `recd_dpp_*` / `recd_reader_*` metric families.
//!
//! The mapping is a pure function over an already-taken snapshot, so a
//! scrape costs one `snapshot()` — the same atomics reads the live monitor
//! already performs — and never touches the hot pipeline stages.

use crate::metrics::{DppSnapshot, TrainerLaneSnapshot};
use crate::pool::PoolStats;
use crate::service::SnapshotSource;
use recd_obs::{Collector, MetricsBuf};
use std::sync::atomic::Ordering;

/// Projects one pool's counters under a `pool=<name>` label.
fn collect_pool(stats: &PoolStats, pool: &str, out: &mut MetricsBuf) {
    out.counter(
        "recd_dpp_pool_acquires_total",
        "Batch-pool acquires by outcome: hit reused a shell, miss allocated.",
        &[("pool", pool), ("outcome", "hit")],
        stats.hits as f64,
    );
    out.counter(
        "recd_dpp_pool_acquires_total",
        "Batch-pool acquires by outcome: hit reused a shell, miss allocated.",
        &[("pool", pool), ("outcome", "miss")],
        stats.misses as f64,
    );
    out.counter(
        "recd_dpp_pool_recycled_total",
        "Shells returned to the pool shelf.",
        &[("pool", pool)],
        stats.recycled as f64,
    );
    out.counter(
        "recd_dpp_pool_discarded_total",
        "Shells dropped because the pool shelf was full.",
        &[("pool", pool)],
        stats.discarded as f64,
    );
    out.counter(
        "recd_dpp_pool_trimmed_total",
        "Idle shells dropped when dynamic scaling shrank the pool.",
        &[("pool", pool)],
        stats.trimmed as f64,
    );
    out.counter(
        "recd_dpp_pool_steals_total",
        "Hits served by stealing a shell from a sibling worker's shelf.",
        &[("pool", pool)],
        stats.steals as f64,
    );
    out.gauge(
        "recd_dpp_pool_capacity",
        "Pool shelf capacity (shrinks on dynamic scale-down).",
        &[("pool", pool)],
        stats.capacity as f64,
    );
}

/// Projects one trainer lane's state under a `trainer=<id>` label.
fn collect_lane(lane: &TrainerLaneSnapshot, out: &mut MetricsBuf) {
    let id = lane.trainer.to_string();
    let labels = [("trainer", id.as_str())];
    out.gauge(
        "recd_dpp_trainer_queue_depth",
        "Batches delivered to a trainer lane but not yet pulled.",
        &labels,
        lane.queue_depth as f64,
    );
    out.counter(
        "recd_dpp_trainer_delivered_batches_total",
        "Batches the sink pushed onto a trainer lane.",
        &labels,
        lane.delivered_batches as f64,
    );
    out.counter(
        "recd_dpp_trainer_delivered_samples_total",
        "Samples the sink pushed onto a trainer lane.",
        &labels,
        lane.delivered_samples as f64,
    );
    out.counter(
        "recd_dpp_trainer_consumed_batches_total",
        "Batches the trainer pulled from its lane.",
        &labels,
        lane.consumed_batches as f64,
    );
}

/// Projects a [`DppSnapshot`] into `recd_dpp_*` families: throughput and
/// progress counters, queue-depth and worker gauges, scale events, pool
/// counters, and per-trainer lane state.
pub fn collect_snapshot(snap: &DppSnapshot, out: &mut MetricsBuf) {
    out.counter(
        "recd_dpp_files_submitted_total",
        "Files accepted into the fill queue.",
        &[],
        snap.files_submitted as f64,
    );
    out.counter(
        "recd_dpp_partitions_ingested_total",
        "Landed partitions ingested through the continuous-ETL feed path.",
        &[],
        snap.partitions_ingested as f64,
    );
    out.counter(
        "recd_dpp_duplicate_ingests_total",
        "Already-ingested partitions offered again and skipped (replay dedup).",
        &[],
        snap.duplicate_ingests as f64,
    );
    out.counter(
        "recd_dpp_files_filled_total",
        "Files fully decoded by fill workers.",
        &[],
        snap.files_filled as f64,
    );
    out.counter(
        "recd_dpp_rows_routed_total",
        "Rows routed to shard accumulators.",
        &[],
        snap.rows_routed as f64,
    );
    out.counter(
        "recd_dpp_batches_out_total",
        "Deduplicated batches emitted by compute workers.",
        &[],
        snap.batches_out as f64,
    );
    out.counter(
        "recd_dpp_samples_out_total",
        "Samples contained in emitted batches.",
        &[],
        snap.samples_out as f64,
    );
    out.counter(
        "recd_dpp_egress_bytes_total",
        "Preprocessed tensor bytes sent toward trainers.",
        &[],
        snap.egress_bytes as f64,
    );
    out.counter(
        "recd_dpp_errors_total",
        "Stage errors (failed fills or conversions).",
        &[],
        snap.errors as f64,
    );
    out.gauge(
        "recd_dpp_uptime_seconds",
        "Seconds since the service started.",
        &[],
        snap.elapsed_seconds,
    );
    out.gauge(
        "recd_dpp_dedupe_factor",
        "Average in-batch dedup factor of emitted batches.",
        &[],
        snap.dedupe_factor,
    );
    out.gauge(
        "recd_dpp_samples_per_second",
        "Emitted samples per wall-clock second since service start.",
        &[],
        snap.samples_per_second,
    );
    for (queue, depth) in [
        ("input", snap.input_queue_depth),
        ("filled", snap.filled_queue_depth),
        ("work", snap.work_queue_depth),
        ("output", snap.output_queue_depth),
    ] {
        out.gauge(
            "recd_dpp_queue_depth",
            "Current depth of each bounded pipeline queue.",
            &[("queue", queue)],
            depth as f64,
        );
    }
    for (pool, live) in [
        ("fill", snap.fill_workers_live),
        ("compute", snap.compute_workers_live),
    ] {
        out.gauge(
            "recd_dpp_workers_live",
            "Workers currently live in each elastic pool.",
            &[("pool", pool)],
            live as f64,
        );
    }
    for (direction, count) in [("up", snap.scale_ups), ("down", snap.scale_downs)] {
        out.counter(
            "recd_dpp_scale_events_total",
            "Pool resizes performed by the scaling controller, by direction.",
            &[("direction", direction)],
            count as f64,
        );
    }
    collect_pool(&snap.batch_pool, "batch", out);
    collect_pool(&snap.converted_pool, "converted", out);
    collect_pool(&snap.blob_pool, "blob", out);
    for lane in &snap.trainers {
        collect_lane(lane, out);
    }
}

impl Collector for SnapshotSource {
    fn collect(&self, out: &mut MetricsBuf) {
        collect_snapshot(&self.snapshot(), out);
        let counters = &self.counters;
        out.counter(
            "recd_dpp_checkpoints_total",
            "Checkpoints taken of the DPP feed state.",
            &[],
            counters.checkpoints.load(Ordering::Relaxed) as f64,
        );
        out.counter(
            "recd_dpp_checkpoint_seconds_total",
            "Wall time spent taking DPP checkpoints.",
            &[],
            counters.checkpoint_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        );
        out.histogram(
            "recd_dpp_convert_latency_seconds",
            "Per-batch IKJT conversion latency across compute workers.",
            &[],
            self.convert_latency(),
        );
        out.histogram(
            "recd_dpp_process_latency_seconds",
            "Per-batch preprocessing latency across compute workers.",
            &[],
            self.process_latency(),
        );
        self.reader_metrics().collect_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_obs::{render_families, sample_value};

    fn snapshot_fixture() -> DppSnapshot {
        DppSnapshot {
            elapsed_seconds: 2.0,
            files_submitted: 8,
            partitions_ingested: 3,
            duplicate_ingests: 1,
            files_filled: 7,
            rows_routed: 1_000,
            batches_out: 40,
            samples_out: 2_000,
            egress_bytes: 65_536,
            samples_per_second: 1_000.0,
            dedupe_factor: 1.8,
            input_queue_depth: 1,
            filled_queue_depth: 2,
            work_queue_depth: 3,
            output_queue_depth: 4,
            fill_workers_live: 2,
            compute_workers_live: 5,
            scale_ups: 2,
            scale_downs: 1,
            trainers: vec![TrainerLaneSnapshot {
                trainer: 0,
                queue_depth: 6,
                delivered_batches: 20,
                delivered_samples: 1_000,
                consumed_batches: 14,
            }],
            batch_pool: PoolStats {
                hits: 90,
                misses: 10,
                recycled: 85,
                discarded: 5,
                trimmed: 0,
                steals: 2,
                capacity: 16,
            },
            converted_pool: PoolStats::default(),
            blob_pool: PoolStats::default(),
            errors: 0,
        }
    }

    #[test]
    fn snapshot_maps_to_labeled_families() {
        let mut buf = MetricsBuf::new();
        collect_snapshot(&snapshot_fixture(), &mut buf);
        let families = buf.into_families();
        assert_eq!(
            sample_value(&families, "recd_dpp_samples_out_total", &[]),
            Some(2_000.0)
        );
        assert_eq!(
            sample_value(&families, "recd_dpp_queue_depth", &[("queue", "work")]),
            Some(3.0)
        );
        assert_eq!(
            sample_value(&families, "recd_dpp_workers_live", &[("pool", "compute")]),
            Some(5.0)
        );
        assert_eq!(
            sample_value(
                &families,
                "recd_dpp_pool_acquires_total",
                &[("pool", "batch"), ("outcome", "hit")]
            ),
            Some(90.0)
        );
        assert_eq!(
            sample_value(
                &families,
                "recd_dpp_trainer_delivered_samples_total",
                &[("trainer", "0")]
            ),
            Some(1_000.0)
        );
        // The exposition renders with sorted labels and HELP/TYPE lines.
        let text = render_families(&families);
        assert!(text.contains("# TYPE recd_dpp_queue_depth gauge"));
        assert!(text.contains("recd_dpp_queue_depth{queue=\"input\"} 1\n"));
        assert!(text.contains("recd_dpp_scale_events_total{direction=\"up\"} 2\n"));
    }
}
