//! One run of the continuous pipeline, composed from the layers' public
//! functions only, so every layer is timed from outside:
//!
//! ```text
//! datagen ─▶ scribe ─▶ streaming etl ─▶ storage landing ─▶ dpp ─▶ 2 trainer lanes
//!                      (pumped by the driver thread)              (Dlrm::train_step)
//! ```
//!
//! The driver is the one thread that generates load. It pumps the
//! [`EtlService`] on a [`ManualClock`] as fast as backpressure admits; the
//! ETL sink only collects the landed partitions, and the driver then hands
//! each one to [`DppHandle::ingest_partition`], so ETL time and DPP time
//! stay apart. Under the exactly-once contract it also resolves a
//! partition barrier and takes a [`PipelineCheckpoint`] after every pump.
//! Each trainer lane is a closed loop: pull a batch, step it, pull the next.

use crate::stats;
use crate::trace::{Recorder, Span};
use crate::workload::Shape;
use recd_core::{ConvertedBatch, DataLoaderConfig};
use recd_data::{LogRecord, Sample, SessionId};
use recd_datagen::DatasetGenerator;
use recd_dpp::{
    BatchPool, DppConfig, DppHandle, DppReport, DppService, TrainerAssignPolicy, TrainerHandle,
};
use recd_etl::{EtlService, EtlServiceReport, EtlStreamConfig, ManualClock, TableLayout};
use recd_pipeline::PipelineCheckpoint;
use recd_reader::ReaderConfig;
use recd_scribe::{LogTail, ScribeCluster, ScribeConfig, ShardKeyPolicy, TailConfig};
use recd_storage::{BlobStats, StoredPartition, TableStore, TectonicSim};
use recd_trainer::{Dlrm, DlrmConfig, ExecutionMode};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Trainer lanes, DPP shards and compute workers (sized for two cores).
pub const TRAINERS: usize = 2;
/// Log time the driver advances the tail clock by per pump.
const PUMP_STEP_MS: u64 = 60_000;
/// The streaming ETL's out-of-order window.
const TAIL_WINDOW_MS: u64 = 30_000;

/// How one run is instrumented.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Record spans.
    pub traced: bool,
    /// Keep a copy of each lane's first `capture` batches and their losses.
    pub capture: usize,
    /// Deliberately skip the first batch of lane 0 (a lost sample).
    pub lose_sample: bool,
}

/// What one trainer lane did.
#[derive(Debug)]
pub struct LaneOutput {
    /// Batches stepped.
    pub batches: u64,
    /// Samples stepped.
    pub samples: u64,
    /// FNV-1a digest of the loss trajectory (the bits of every loss, in
    /// order).
    pub digest: u64,
    /// Losses that were NaN or infinite.
    pub nonfinite: u64,
    /// When the last step returned.
    pub end: Instant,
    /// The lane's spans.
    pub spans: Vec<Span>,
    /// The first captured batches with the loss the lane's step returned.
    pub captured: Vec<(ConvertedBatch, f32)>,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunOutput {
    /// When set-up started (the span origin).
    pub origin: Instant,
    /// Datagen, scribe transport, model and service construction.
    pub setup_s: f64,
    /// First pump to the last trainer step returning.
    pub wall_s: f64,
    /// Process CPU seconds from the first pump to the end of the run.
    pub cpu_s: f64,
    /// Peak resident set from the first pump to the end of the run, MiB.
    pub peak_rss_mb: f64,
    /// Samples the run kept from the generated logs.
    pub generated_samples: u64,
    /// Driver pumps of the ETL service.
    pub pumps: u64,
    /// Partitions the driver ingested into the DPP.
    pub ingests: u64,
    /// Partition barriers that failed to resolve.
    pub barrier_failures: u64,
    /// Scribe's compression ratio.
    pub scribe_compression: f64,
    /// The ETL service's final report.
    pub etl: EtlServiceReport,
    /// The DPP's final report.
    pub dpp: DppReport,
    /// Why `DppHandle::finish` failed, when it did.
    pub dpp_error: Option<String>,
    /// Blob-store counters.
    pub blob: BlobStats,
    /// The last pipeline checkpoint taken (exactly-once workloads).
    pub checkpoint: Option<PipelineCheckpoint>,
    /// Per-lane results, in lane order.
    pub lanes: Vec<LaneOutput>,
    /// The driver thread's spans.
    pub driver_spans: Vec<Span>,
    /// The model every lane started from.
    pub model: DlrmConfig,
}

impl RunOutput {
    /// Samples stepped through `Dlrm::train_step`.
    pub fn trained_samples(&self) -> u64 {
        self.lanes.iter().map(|lane| lane.samples).sum()
    }

    /// Operations the run attempted: pumps, ingests and trainer steps.
    pub fn attempted(&self) -> u64 {
        self.pumps + self.ingests + self.lanes.iter().map(|lane| lane.batches).sum::<u64>()
    }

    /// Every violated correctness check of this run on its own.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let trained = self.trained_samples();
        let emitted = self.dpp.samples as u64;
        let joined = self.etl.etl.counters.joined_samples;
        if !(trained == emitted && emitted == joined && joined == self.generated_samples) {
            out.push(format!(
                "samples: generated {} joined {joined} emitted {emitted} trained {trained}",
                self.generated_samples
            ));
        }
        for lane in &self.dpp.trainers {
            if lane.dropped_batches > 0 {
                out.push(format!(
                    "lane {} dropped {} batches",
                    lane.trainer, lane.dropped_batches
                ));
            }
        }
        if let Some(err) = &self.dpp_error {
            out.push(format!("dpp finish failed: {err}"));
        }
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.nonfinite > 0 {
                out.push(format!("lane {i}: {} non-finite losses", lane.nonfinite));
            }
        }
        if self.barrier_failures > 0 {
            out.push(format!("{} barriers failed", self.barrier_failures));
        }
        out
    }
}

/// Runs the pipeline once over the shape's generated logs.
pub fn run(shape: &Shape, opts: RunOptions) -> RunOutput {
    let mut rec = Recorder::new(opts.traced);
    let origin = Instant::now();

    // Set-up: everything before the first pump.
    let setup = rec.open("setup", 0, None);
    let generator = DatasetGenerator::new(shape.data.clone());
    let (records, schema, generated_samples) = rec.time("datagen.generate", 0, setup, || {
        let (records, partition) = generator.generate_logs();
        let (sessions, samples) = whole_sessions(&partition.samples, shape.samples);
        let records: Vec<LogRecord> = records
            .into_iter()
            .filter(|record| sessions.contains(&record.session_id()))
            .collect();
        (records, partition.schema, samples)
    });
    let (drained, scribe_compression) = rec.time("scribe.transport", 0, setup, || {
        let mut scribe = ScribeCluster::new(ScribeConfig::with_policy(ShardKeyPolicy::SessionId));
        scribe.ingest_all(&records);
        scribe.flush();
        let ratio = scribe.report().compression_ratio;
        let drained = scribe
            .drain()
            .expect("scribe blocks written by this run decode");
        (drained, ratio)
    });
    drop(records);
    let store = Arc::new(TableStore::new(TectonicSim::new(8), 64, 2));
    let mut etl = EtlService::new(
        LogTail::new(drained, &TailConfig::default().with_seed(shape.data.seed)),
        EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(TAIL_WINDOW_MS),
        Arc::clone(&store),
        schema.clone(),
        "bench",
    );
    let dpp_config = DppConfig::new(ReaderConfig::new(
        shape.batch_size,
        DataLoaderConfig::from_schema(&schema),
    ))
    .with_fill_workers(1)
    .with_compute_workers(TRAINERS)
    .with_shards(TRAINERS)
    .with_trainers(TRAINERS)
    .with_assign_policy(TrainerAssignPolicy::ShardPinned);
    let mut handle = DppService::start(dpp_config, Arc::clone(&store), schema.clone());
    let model = shape.model(&schema);
    let initial = Dlrm::new(model.clone());
    let start = Arc::new(Barrier::new(TRAINERS + 1));
    let lanes: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| {
            let model = initial.clone();
            let pool = handle.converted_pool();
            let start = Arc::clone(&start);
            let lose = opts.lose_sample && trainer.id() == 0;
            std::thread::spawn(move || lane(trainer, model, &pool, &start, opts, lose))
        })
        .collect();
    drop(initial);
    rec.close(setup);
    let setup_s = origin.elapsed().as_secs_f64();

    // The measured run: the lanes and the driver start together.
    start.wait();
    let first_pump = Instant::now();
    let cpu_start = stats::cpu_seconds();
    stats::reset_peak_rss();
    let drive = rec.open("pipeline.drive", 0, None);
    let mut clock = ManualClock::new();
    let mut landed: Vec<StoredPartition> = Vec::new();
    let (mut pumps, mut ingests, mut barrier_failures) = (0u64, 0u64, 0u64);
    let mut checkpoint: Option<PipelineCheckpoint> = None;
    while !etl.tail_drained() {
        let now = clock.advance(PUMP_STEP_MS);
        rec.time("etl.pump", pumps, drive, || {
            etl.pump(now, &mut |stored, _| landed.push(stored.clone()))
        });
        ingests += ingest(&mut rec, &mut handle, &mut landed, pumps, drive);
        if shape.exactly_once {
            if !rec.time("dpp.barrier", pumps, drive, || handle.flush_partition()) {
                barrier_failures += 1;
            }
            // Replacing a half drops the previous one inside its span, so
            // retaining checkpoints is charged to the tier that owns them.
            let retained: &mut PipelineCheckpoint = checkpoint.get_or_insert_default();
            rec.time("etl.checkpoint", pumps, drive, || {
                retained.etl = etl.checkpoint()
            });
            rec.time("dpp.checkpoint", pumps, drive, || {
                retained.dpp = handle.checkpoint()
            });
        }
        pumps += 1;
    }
    let etl_out = rec.time("etl.finish", pumps, drive, || {
        etl.finish(&mut |stored, _| landed.push(stored.clone()))
    });
    ingests += ingest(&mut rec, &mut handle, &mut landed, pumps, drive);
    if shape.exactly_once && !rec.time("dpp.barrier", pumps, drive, || handle.flush_partition()) {
        barrier_failures += 1;
    }
    let (dpp, dpp_error) = match rec.time("dpp.finish", pumps, drive, || handle.finish()) {
        Ok(output) => (output.report, None),
        Err(err) => (err.output.report.clone(), Some(err.to_string())),
    };
    rec.close(drive);
    let lanes: Vec<LaneOutput> = lanes
        .into_iter()
        .map(|lane| lane.join().expect("trainer lane thread"))
        .collect();
    let cpu_s = stats::cpu_seconds() - cpu_start;
    let peak_rss_mb = stats::peak_rss_mb();
    let last_step = lanes
        .iter()
        .map(|lane| lane.end)
        .max()
        .unwrap_or(first_pump);

    RunOutput {
        origin,
        setup_s,
        wall_s: last_step
            .saturating_duration_since(first_pump)
            .as_secs_f64(),
        cpu_s,
        peak_rss_mb,
        generated_samples,
        pumps,
        ingests,
        barrier_failures,
        scribe_compression,
        etl: etl_out.report,
        dpp,
        dpp_error,
        blob: store.blob_store().stats(),
        checkpoint,
        lanes,
        driver_spans: rec.into_spans(),
        model,
    }
}

/// The lowest session ids whose samples first reach `target` (all of them
/// when there are fewer), and how many samples they hold.
fn whole_sessions(samples: &[Sample], target: usize) -> (HashSet<SessionId>, u64) {
    let mut per_session: BTreeMap<SessionId, u64> = BTreeMap::new();
    for sample in samples {
        *per_session.entry(sample.session_id).or_default() += 1;
    }
    let (mut kept, mut total) = (HashSet::new(), 0);
    for (session, count) in per_session {
        if total >= target as u64 {
            break;
        }
        kept.insert(session);
        total += count;
    }
    (kept, total)
}

/// Hands every collected partition to the DPP; returns how many.
fn ingest(
    rec: &mut Recorder,
    handle: &mut DppHandle,
    landed: &mut Vec<StoredPartition>,
    pump: u64,
    parent: Option<usize>,
) -> u64 {
    let count = landed.len() as u64;
    for partition in landed.drain(..) {
        rec.time("dpp.ingest", pump, parent, || {
            handle.ingest_partition(&partition);
        });
    }
    count
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One trainer lane: a closed loop of pull, step, pull.
fn lane(
    trainer: TrainerHandle,
    mut model: Dlrm,
    pool: &BatchPool<ConvertedBatch>,
    start: &Barrier,
    opts: RunOptions,
    mut lose: bool,
) -> LaneOutput {
    let mut rec = Recorder::new(opts.traced);
    start.wait();
    let mut out = LaneOutput {
        batches: 0,
        samples: 0,
        digest: FNV_OFFSET,
        nonfinite: 0,
        end: Instant::now(),
        spans: Vec::new(),
        captured: Vec::new(),
    };
    let root = rec.open("trainer.lane", trainer.id() as u64, None);
    while let Some(item) = rec.time("trainer.recv", out.batches, root, || trainer.recv()) {
        if std::mem::take(&mut lose) {
            pool.recycle(item.batch);
            continue;
        }
        let loss = rec.time("trainer.step", out.batches, root, || {
            model.train_step(&item.batch, ExecutionMode::Deduplicated)
        });
        out.end = Instant::now();
        for byte in loss.to_bits().to_le_bytes() {
            out.digest = (out.digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        out.nonfinite += u64::from(!loss.is_finite());
        out.batches += 1;
        out.samples += item.batch.batch_size as u64;
        if out.captured.len() < opts.capture {
            out.captured.push((item.batch.clone(), loss));
        }
        pool.recycle(item.batch);
    }
    rec.close(root);
    out.spans = rec.into_spans();
    out
}
