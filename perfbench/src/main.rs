//! The end-to-end benchmark of the continuous RecD pipeline.
//!
//! ```text
//! perfbench --workload <rm1_train|rm1_lowdup|tail_exactly_once> [--seed N]
//!           [--seconds S] [--trace <0|1>] [--smoke] [--inject lost-sample|loss-digest]
//! ```
//!
//! One invocation repeats the workload's pipeline run (set-up included) for
//! `--seconds` seconds, at least [`MIN_RUNS`] times, checks every run, and
//! prints one JSON object as the last line of standard output:
//!
//! * `--trace 0`: the end-to-end metrics, each the median over the runs.
//! * `--trace 1`: untraced and traced runs alternate. The per-layer metrics
//!   are medians over the traced runs, tracing overhead is the untraced
//!   minus the traced training throughput, and the first traced run's
//!   batches are replayed through a baseline-mode model to check that
//!   deduplicated execution leaves the loss unchanged. Spans are written to
//!   `perfbench/out/`.
//!
//! A violated check counts as a failed operation and makes the exit code 1.
//! `--smoke` shrinks the data for the benchmark's own tests; `--inject`
//! plants a defect to show the checks can fail.

mod pipeline;
mod stats;
mod trace;
mod workload;

use pipeline::{RunOptions, RunOutput};
use recd_trainer::{Dlrm, ExecutionMode};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};
use trace::Summary;
use workload::Workload;

/// Fewest measured runs of each kind per invocation.
const MIN_RUNS: usize = 3;
/// Batches per lane replayed through the baseline-mode model.
const BASELINE_BATCHES: usize = 2;
/// Largest relative loss difference accepted between execution modes.
const LOSS_TOLERANCE: f32 = 1e-4;

/// The end-to-end metrics and their units, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("train_samples_per_s", "samples/s"),
    ("cpu_ms_per_ksample", "ms/ksample"),
    ("stored_bytes_per_sample", "bytes/sample"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics and their units, in output order.
const PER_LAYER: [(&str, &str); 42] = [
    ("datagen.generate_s", "s"),
    ("scribe.transport_s", "s"),
    ("scribe.compression_ratio", "ratio"),
    ("etl.pump_s", "s"),
    ("etl.pump_ms_p50", "ms"),
    ("etl.pump_ms_p90", "ms"),
    ("etl.pumps", "count"),
    ("etl.joined_samples", "count"),
    ("etl.partitions_landed", "count"),
    ("etl.peak_tail_lag_ms", "ms"),
    ("etl.finish_s", "s"),
    ("etl.checkpoint_s", "s"),
    ("etl.checkpoint_ms_p50", "ms"),
    ("etl.checkpoint_ms_p90", "ms"),
    ("dpp.checkpoint_s", "s"),
    ("pipeline.checkpoint_bytes", "bytes"),
    ("storage.stored_bytes", "bytes"),
    ("storage.put_ops", "count"),
    ("storage.read_ops", "count"),
    ("storage.read_bytes", "bytes"),
    ("storage.compression_ratio", "ratio"),
    ("dpp.ingest_s", "s"),
    ("dpp.barrier_s", "s"),
    ("dpp.finish_s", "s"),
    ("dpp.fill_cpu_s", "s"),
    ("dpp.convert_cpu_s", "s"),
    ("dpp.process_cpu_s", "s"),
    ("dpp.dedupe_factor", "ratio"),
    ("dpp.egress_bytes_per_sample", "bytes/sample"),
    ("dpp.peak_input_queue_depth", "count"),
    ("dpp.batch_pool_hit_ratio", "ratio"),
    ("trainer.step_s", "s"),
    ("trainer.step_ms_p50", "ms"),
    ("trainer.step_ms_p90", "ms"),
    ("trainer.recv_wait_s", "s"),
    ("trainer.batches", "count"),
    ("trainer.busy_frac", "ratio"),
    ("trainer.dedup_speedup", "ratio"),
    ("pipeline.driver_wall_s", "s"),
    ("pipeline.unattributed_s", "s"),
    ("trace.overhead_samples_per_s", "samples/s"),
    ("trace.spans", "count"),
];

/// A planted defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inject {
    /// Lane 0 skips stepping its first batch.
    LostSample,
    /// Lane 0's loss digest is altered in the second run.
    LossDigest,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    inject: Option<Inject>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut smoke = false;
    let mut inject = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--inject" => {
                inject = Some(match value()?.as_str() {
                    "lost-sample" => Inject::LostSample,
                    "loss-digest" => Inject::LossDigest,
                    other => return Err(format!("unknown --inject {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload: Workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
        smoke,
        inject,
    })
}

/// Failures found so far, against operations attempted.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// Each lane's loss digest in the first run.
    digests: Option<Vec<u64>>,
}

impl Checks {
    /// Checks one run on its own and against the first run.
    fn absorb(&mut self, index: usize, run: &RunOutput, inject: Option<Inject>) {
        self.attempted += run.attempted();
        let mut violations = run.violations();
        let mut digests: Vec<u64> = run.lanes.iter().map(|lane| lane.digest).collect();
        if inject == Some(Inject::LossDigest) && index == 1 {
            digests[0] ^= 1;
        }
        match &self.digests {
            None => self.digests = Some(digests),
            Some(first) if *first != digests => violations.push(format!(
                "loss digests {digests:x?} differ from the first run's {first:x?}"
            )),
            Some(_) => {}
        }
        for violation in &violations {
            eprintln!("perfbench: run {index}: {violation}");
        }
        self.failed += violations.len() as u64;
    }
}

/// The end-to-end metrics of one run.
fn end_to_end(run: &RunOutput) -> BTreeMap<&'static str, f64> {
    let trained = run.trained_samples() as f64;
    BTreeMap::from([
        ("train_samples_per_s", trained / run.wall_s),
        ("cpu_ms_per_ksample", run.cpu_s * 1e3 / (trained / 1e3)),
        (
            "stored_bytes_per_sample",
            run.etl.storage.stored_bytes as f64 / run.etl.etl.counters.joined_samples as f64,
        ),
        ("peak_rss_mb", run.peak_rss_mb),
        ("setup_s", run.setup_s),
    ])
}

/// The per-layer metrics of one traced run, derived from its spans and the
/// reports the layers returned.
fn per_layer(run: &RunOutput) -> BTreeMap<&'static str, f64> {
    let mut spans = Summary::default();
    spans.absorb(&run.driver_spans);
    for lane in &run.lanes {
        spans.absorb(&lane.spans);
    }
    let span_count =
        run.driver_spans.len() + run.lanes.iter().map(|lane| lane.spans.len()).sum::<usize>();
    let calls_s = |name: &str| {
        spans
            .calls_ms
            .get(name)
            .map_or(0.0, |c| c.iter().sum::<f64>() / 1e3)
    };
    let (dpp, etl, blob) = (&run.dpp, &run.etl, &run.blob);
    let phase_s = |nanos: u64| nanos as f64 / 1e9;
    let step_s = spans.self_seconds("trainer.step");
    BTreeMap::from([
        ("datagen.generate_s", spans.self_seconds("datagen.generate")),
        ("scribe.transport_s", spans.self_seconds("scribe.transport")),
        ("scribe.compression_ratio", run.scribe_compression),
        ("etl.pump_s", spans.self_seconds("etl.pump")),
        ("etl.pump_ms_p50", spans.call_ms("etl.pump", 0.5)),
        ("etl.pump_ms_p90", spans.call_ms("etl.pump", 0.9)),
        ("etl.pumps", run.pumps as f64),
        ("etl.joined_samples", etl.etl.counters.joined_samples as f64),
        ("etl.partitions_landed", etl.landed_partitions as f64),
        ("etl.peak_tail_lag_ms", etl.peak_tail_lag_ms as f64),
        ("etl.finish_s", spans.self_seconds("etl.finish")),
        ("etl.checkpoint_s", spans.self_seconds("etl.checkpoint")),
        (
            "etl.checkpoint_ms_p50",
            spans.call_ms("etl.checkpoint", 0.5),
        ),
        (
            "etl.checkpoint_ms_p90",
            spans.call_ms("etl.checkpoint", 0.9),
        ),
        ("dpp.checkpoint_s", spans.self_seconds("dpp.checkpoint")),
        (
            "pipeline.checkpoint_bytes",
            run.checkpoint.as_ref().map_or(0, |c| c.to_bytes().len()) as f64,
        ),
        ("storage.stored_bytes", blob.stored_bytes as f64),
        ("storage.put_ops", blob.put_ops as f64),
        ("storage.read_ops", blob.read_ops as f64),
        ("storage.read_bytes", blob.read_bytes as f64),
        ("storage.compression_ratio", etl.storage.compression_ratio()),
        ("dpp.ingest_s", spans.self_seconds("dpp.ingest")),
        ("dpp.barrier_s", spans.self_seconds("dpp.barrier")),
        ("dpp.finish_s", spans.self_seconds("dpp.finish")),
        ("dpp.fill_cpu_s", phase_s(dpp.reader_metrics.fill.cpu_nanos)),
        (
            "dpp.convert_cpu_s",
            phase_s(dpp.reader_metrics.convert.cpu_nanos),
        ),
        (
            "dpp.process_cpu_s",
            phase_s(dpp.reader_metrics.process.cpu_nanos),
        ),
        ("dpp.dedupe_factor", dpp.dedupe_factor),
        (
            "dpp.egress_bytes_per_sample",
            dpp.egress_bytes as f64 / (dpp.samples.max(1)) as f64,
        ),
        (
            "dpp.peak_input_queue_depth",
            dpp.peak_input_queue_depth as f64,
        ),
        ("dpp.batch_pool_hit_ratio", dpp.batch_pool.reuse_rate()),
        ("trainer.step_s", step_s),
        ("trainer.step_ms_p50", spans.call_ms("trainer.step", 0.5)),
        ("trainer.step_ms_p90", spans.call_ms("trainer.step", 0.9)),
        ("trainer.recv_wait_s", spans.self_seconds("trainer.recv")),
        (
            "trainer.batches",
            run.lanes.iter().map(|lane| lane.batches).sum::<u64>() as f64,
        ),
        ("trainer.busy_frac", step_s / calls_s("trainer.lane")),
        ("pipeline.driver_wall_s", calls_s("pipeline.drive")),
        (
            "pipeline.unattributed_s",
            spans.self_seconds("pipeline.drive"),
        ),
        ("trace.spans", span_count as f64),
    ])
}

/// Replays each lane's captured batches through fresh copies of the initial
/// model, once deduplicated and once in baseline mode. The deduplicated
/// replay must reproduce the lane's losses bit for bit, and the baseline
/// loss must match it. Returns the baseline-over-deduplicated step-time
/// ratio and the number of mismatches.
fn dedup_speedup(run: &RunOutput) -> (f64, u64) {
    let (mut dedup_time, mut baseline_time) = (Duration::ZERO, Duration::ZERO);
    let mut mismatches = 0;
    for (i, lane) in run.lanes.iter().enumerate() {
        let mut dedup = Dlrm::new(run.model.clone());
        let mut baseline = dedup.clone();
        for (step, (batch, lane_loss)) in lane.captured.iter().enumerate() {
            let started = Instant::now();
            let loss = dedup.train_step(batch, ExecutionMode::Deduplicated);
            dedup_time += started.elapsed();
            let started = Instant::now();
            let baseline_loss = baseline.train_step(batch, ExecutionMode::Baseline);
            baseline_time += started.elapsed();
            if loss.to_bits() != lane_loss.to_bits()
                || (baseline_loss - loss).abs() > LOSS_TOLERANCE * loss.abs().max(1.0)
            {
                eprintln!(
                    "perfbench: lane {i} step {step}: lane loss {lane_loss}, replayed {loss}, baseline {baseline_loss}"
                );
                mismatches += 1;
            }
        }
    }
    (
        baseline_time.as_secs_f64() / dedup_time.as_secs_f64(),
        mismatches,
    )
}

/// Writes every traced run's spans as JSON lines under `perfbench/out/`.
fn write_spans(args: &Args, runs: &[RunOutput]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, run) in runs.iter().enumerate() {
        trace::write_jsonl(&mut out, i, "driver", run.origin, &run.driver_spans)?;
        for (lane_id, lane) in run.lanes.iter().enumerate() {
            trace::write_jsonl(
                &mut out,
                i,
                &format!("lane{lane_id}"),
                run.origin,
                &lane.spans,
            )?;
        }
    }
    out.flush()?;
    Ok(path)
}

/// Median of each named metric over the runs.
fn medians(runs: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for run in runs {
        for (&name, &value) in run {
            by_name.entry(name).or_default().push(value);
        }
    }
    by_name
        .into_iter()
        .map(|(name, values)| (name, stats::median(&values)))
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let shape = args.workload.shape(args.seed, args.smoke);
    eprintln!(
        "perfbench: {} seed {} for {}s on {} available cores",
        args.workload.name(),
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let started = Instant::now();
    let mut checks = Checks::default();
    let mut untraced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traced_runs: Vec<RunOutput> = Vec::new();
    let mut traced_throughput: Vec<f64> = Vec::new();
    let mut speedup = None;
    let mut index = 0;
    let mut longest = 0.0f64;
    loop {
        // Stop once the minimum is met and another run would overrun the
        // time budget.
        let enough = untraced.len() >= MIN_RUNS && (!args.trace || traced_runs.len() >= MIN_RUNS);
        if enough && started.elapsed().as_secs_f64() + longest > args.seconds {
            break;
        }
        let run_started = Instant::now();
        // With tracing, traced runs alternate with untraced ones.
        let traced = args.trace && index % 2 == 1;
        let opts = RunOptions {
            traced,
            capture: if traced && speedup.is_none() {
                BASELINE_BATCHES
            } else {
                0
            },
            lose_sample: args.inject == Some(Inject::LostSample),
        };
        let mut run = pipeline::run(&shape, opts);
        longest = longest.max(run_started.elapsed().as_secs_f64());
        checks.absorb(index, &run, args.inject);
        let metrics = end_to_end(&run);
        eprintln!(
            "perfbench: {} run {index}{}: {:.0} samples/s, wall {:.3}s, setup {:.3}s, cpu {:.3}s",
            args.workload.name(),
            if traced { " (traced)" } else { "" },
            metrics["train_samples_per_s"],
            run.wall_s,
            run.setup_s,
            run.cpu_s,
        );
        if traced {
            if opts.capture > 0 {
                let (ratio, mismatches) = dedup_speedup(&run);
                checks.failed += mismatches;
                speedup = Some(ratio);
                for lane in &mut run.lanes {
                    lane.captured = Vec::new();
                }
            }
            traced_throughput.push(metrics["train_samples_per_s"]);
            traced_runs.push(run);
        } else {
            untraced.push(metrics);
        }
        index += 1;
    }

    let report = medians(&untraced);
    let (names, report) = if args.trace {
        match write_spans(&args, &traced_runs) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(err) => {
                eprintln!("perfbench: writing spans failed: {err}");
                checks.failed += 1;
            }
        }
        let mut layers = medians(&traced_runs.iter().map(per_layer).collect::<Vec<_>>());
        layers.insert("trainer.dedup_speedup", speedup.unwrap_or(f64::NAN));
        layers.insert(
            "trace.overhead_samples_per_s",
            report["train_samples_per_s"] - stats::median(&traced_throughput),
        );
        (&PER_LAYER[..], layers)
    } else {
        (&END_TO_END[..], report)
    };

    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = report.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a finite number");
            checks.failed += 1;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    eprintln!(
        "perfbench: {} runs, {} of {} operations failed (failed_frac {failed_frac})",
        index, checks.failed, checks.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    );
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
