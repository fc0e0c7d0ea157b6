//! # recd-pipeline
//!
//! End-to-end orchestration of the RecD training pipeline and the experiment
//! drivers that regenerate every table and figure of the paper's evaluation.
//!
//! The pipeline glues the substrates together exactly as Figure 1 of the
//! paper draws them:
//!
//! ```text
//! datagen ──logs──▶ scribe (O1) ──▶ etl (O2) ──▶ storage ──▶ reader tier (O3, O4)
//!                                                              │
//!                                                              ▼
//!                                              trainer cost model + executable DLRM (O5–O7)
//! ```
//!
//! * [`RecdConfig`] switches each optimization on or off (the ablation axes).
//! * [`RmPreset`] provides scaled-down analogues of the paper's RM1/RM2/RM3
//!   production models.
//! * [`PipelineRunner`] runs one configuration end to end and produces a
//!   [`PipelineReport`] with storage, reader, and trainer measurements.
//!   `with_continuous` swaps the batch reader for the streaming tail → ETL →
//!   DPP pipeline, and `with_hosts` disaggregates that DPP tier over a
//!   multi-host fleet with a fault-tolerant control plane
//!   (`ContinuousReport::fleet` carries the accounting).
//! * [`ContinuousDriver`] is the one pump loop behind every continuous and
//!   streaming mode — `PipelineRunner`'s and the `recd-dpp` binary's alike:
//!   fault dispatch and ETL crash/resume, the controller's pump gate, one
//!   barrier/checkpoint policy chosen from its inputs, one trainer-lane
//!   harness generic over [`LaneWork`], and the metrics registry. The DPP
//!   tier sits behind [`DppBackend`], implemented by a single service and a
//!   fleet; failures are typed [`DriverError`]s.
//! * [`experiments`] packages the paper's evaluation: Figures 3, 4, 7, 8, 9,
//!   10 and Tables 2, 3, 4, plus the Scribe compression study, the
//!   single-node study, the DedupeFactor sweep, and the accuracy-neutrality
//!   check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod experiments;
pub mod run;

pub use checkpoint::PipelineCheckpoint;
pub use config::{RecdConfig, RmPreset, RmSpec};
pub use driver::{
    ContinuousDriver, DppBackend, DriverError, DriverOutput, LaneWork, TailFeed,
    CHECKPOINT_EVERY_BARRIERS,
};
pub use run::{
    ContinuousDerived, ContinuousReport, PipelineReport, PipelineRunner, StorageSimConfig,
};
