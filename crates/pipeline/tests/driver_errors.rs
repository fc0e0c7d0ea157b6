//! Driver errors at the two public entry points: `PipelineRunner` expects
//! the driver's result and panics with its text, and the `recd-dpp` binary
//! exits 2 for a plan error or a flag error (and 1 for a run error).

use recd_chaos::FaultPlan;
use recd_pipeline::{PipelineRunner, RecdConfig, RmPreset};
use std::process::Command;

#[test]
#[should_panic(expected = "host faults need a fleet")]
fn runner_rejects_a_host_fault_without_a_fleet() {
    let plan = FaultPlan::parse("60000:kill-host:0").expect("plan parses");
    PipelineRunner::new(RmPreset::Rm1.spec().scaled_down(60), RecdConfig::full())
        .with_chaos(plan)
        .run(128);
}

#[test]
fn cli_exits_2_on_a_plan_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_recd-dpp"))
        .args(["--preset", "tiny", "--tail", "--quiet"])
        .args(["--chaos-plan", "60000:kill-host:0"])
        .output()
        .expect("run recd-dpp");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`60000:kill-host:0` is a host fault"),
        "{stderr}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_recd-dpp"))
        .args(["--preset", "tiny", "--tail", "--hosts", "2", "--quiet"])
        .args(["--chaos-plan", "60000:kill-host:2"])
        .output()
        .expect("run recd-dpp");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("names a host outside"), "{stderr}");
}

#[test]
fn cli_exits_2_on_worker_bounds_without_ctrl() {
    let out = Command::new(env!("CARGO_BIN_EXE_recd-dpp"))
        .args(["--preset", "tiny", "--quiet", "--min-workers", "1"])
        .args(["--max-workers", "4"])
        .output()
        .expect("run recd-dpp");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--min-workers/--max-workers require --ctrl"),
        "{stderr}"
    );
}
