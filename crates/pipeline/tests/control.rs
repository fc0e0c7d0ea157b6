//! End-to-end control-loop equivalence: the unified PID backpressure
//! controller may change *when* work happens — pool sizes, pump timing,
//! submission pacing — but never *what* is produced. A controller-on run
//! must deliver the **byte-identical trainer-batch union** of a
//! controller-off run under the same barrier schedule, fault-free and under
//! slow-trainer chaos alike; and with trainers as the bottleneck the
//! controller must demonstrably flatten the DPP input-queue peak.
//!
//! The controller-off oracle is the same runner without `with_ctrl`: it
//! executes the identical pump/checkpoint cadence, so any divergence is
//! attributable to the controller leaking into the payload path.

use recd_chaos::FaultPlan;
use recd_dpp::{CtrlConfig, ManualClock, ScaleClock, TrainerBatch};
use recd_pipeline::{PipelineRunner, RecdConfig, RmPreset, RmSpec};
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 2;
const TRAINERS: usize = 3;
const BATCH: usize = 128;

/// Every lane stalled within one pump window (the plan rejects same-instant
/// duplicates of a fault kind, so the stalls stagger by one 60s pump step
/// and overlap in wall time), twice: with every consumer paused the trainer
/// tier is unambiguously the bottleneck, so the controller's lane signal
/// fires (pump gate, compute shrink, submission pacing) while the
/// uncontrolled run just piles partitions into the input queue.
const SLOW_TRAINER_PLAN: &str = "1800000:stall-trainer:0:300;1860000:stall-trainer:1:300;\
                                 1920000:stall-trainer:2:300;3000000:stall-trainer:0:300;\
                                 3060000:stall-trainer:1:300;3120000:stall-trainer:2:300";

fn small_spec() -> RmSpec {
    RmPreset::Rm1.spec().scaled_down(60)
}

fn runner() -> PipelineRunner {
    PipelineRunner::new(small_spec(), RecdConfig::full())
        .with_continuous(WORKERS)
        .with_continuous_trainers(TRAINERS)
}

fn ctrl() -> CtrlConfig {
    CtrlConfig::bounds(1, 4)
}

/// Sorts a delivered union into its canonical (shard, seq) order.
fn canonical(mut batches: Vec<TrainerBatch>) -> Vec<TrainerBatch> {
    batches.sort_by_key(|b| (b.shard, b.seq));
    batches
}

/// Asserts two canonical unions are byte-identical.
fn assert_union_identical(reference: &[TrainerBatch], got: &[TrainerBatch], label: &str) {
    assert_eq!(
        got.len(),
        reference.len(),
        "{label}: delivered batch count diverged from the controller-off run"
    );
    for (i, (g, r)) in got.iter().zip(reference).enumerate() {
        assert_eq!(
            (g.shard, g.seq),
            (r.shard, r.seq),
            "{label}: batch {i} stream position diverged"
        );
        assert_eq!(
            g.batch, r.batch,
            "{label}: batch {i} payload diverged from the controller-off run"
        );
    }
}

#[test]
fn controller_off_and_on_deliver_identical_unions() {
    let off = runner().run(BATCH);
    let off_union = canonical(off.continuous_batches);
    assert!(
        off_union.len() >= 4,
        "reference must deliver several batches, got {}",
        off_union.len()
    );
    let off_report = off.report.continuous.as_ref().expect("continuous");
    assert!(
        off_report.dpp.ctrl.is_none(),
        "controller-off runs must not grow a ctrl report"
    );

    // The controller-on run samples on a manual clock, stepped by a helper
    // from before the service starts until it shuts the clock down, so the
    // tick count does not depend on how long the run takes.
    let clock = Arc::new(ManualClock::new());
    let stepper = {
        let clock = Arc::clone(&clock);
        std::thread::spawn(move || {
            let mut steps = 0u64;
            while clock.step() {
                steps += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            steps
        })
    };
    let on = runner()
        .with_ctrl(ctrl().with_clock(Arc::clone(&clock) as Arc<dyn ScaleClock>))
        .run(BATCH);
    let steps = stepper.join().expect("clock stepper");
    let on_report = on.report.continuous.as_ref().expect("continuous");
    let ctrl_report = on_report.dpp.ctrl.expect("controller-on runs report ctrl");
    assert!(ctrl_report.ticks >= 1, "the controller must have sampled");
    assert_eq!(
        ctrl_report.ticks, steps,
        "the controller evaluates exactly the granted ticks"
    );
    assert_eq!(
        on_report.dpp.samples, off_report.dpp.samples,
        "controller must not change delivered sample count"
    );
    assert_union_identical(&off_union, &canonical(on.continuous_batches), "ctrl on");
}

#[test]
fn controller_actuates_and_flattens_the_input_queue_under_slow_trainers() {
    // Fine-grained files make each sealed partition land as a long
    // submission burst, so the input-queue dynamics are observable on this
    // small workload: the uncontrolled run slams the burst into the queue's
    // capacity wall while the controller's submission pacing holds pending
    // input near the setpoint (4 of 8). Both runs share the shape — file
    // boundaries participate in batch composition.
    let runner = || runner().with_continuous_file_shape(16, 1);
    let plan = FaultPlan::parse(SLOW_TRAINER_PLAN).expect("plan parses");
    let planned = plan.len();
    let off = runner().with_chaos(plan.clone()).run(BATCH);
    let off_chaos = off.report.chaos.clone().expect("chaos report");
    assert_eq!(off_chaos.faults_fired, planned as u64);
    let off_peak = off
        .report
        .continuous
        .as_ref()
        .expect("continuous")
        .dpp
        .peak_input_queue_depth;
    let off_union = canonical(off.continuous_batches);

    let on = runner().with_chaos(plan).with_ctrl(ctrl()).run(BATCH);
    let on_report = on.report.continuous.as_ref().expect("continuous");
    let ctrl_report = on_report.dpp.ctrl.expect("ctrl report");
    assert!(
        ctrl_report.actuations > 0,
        "stalled lanes must drive the controller to actuate"
    );
    let on_peak = on_report.dpp.peak_input_queue_depth;
    assert!(
        on_peak < off_peak,
        "controller must flatten the input-queue peak: on {on_peak} vs off {off_peak}"
    );
    assert_union_identical(
        &off_union,
        &canonical(on.continuous_batches),
        "slow trainers",
    );
}

#[test]
fn controller_on_fleet_matches_the_controller_off_fleet_union() {
    let off = runner().with_hosts(3).run(BATCH);
    let off_union = canonical(off.continuous_batches);
    assert!(
        off_union.len() >= 4,
        "fleet reference must deliver several batches, got {}",
        off_union.len()
    );

    let on = runner().with_hosts(3).with_ctrl(ctrl()).run(BATCH);
    let on_report = on.report.continuous.as_ref().expect("continuous");
    let ctrl_report = on_report.dpp.ctrl.expect("per-host ctrl aggregates");
    assert!(ctrl_report.ticks > 0, "host controllers must have sampled");
    assert_union_identical(&off_union, &canonical(on.continuous_batches), "fleet ctrl");
}
