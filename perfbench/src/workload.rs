//! The benchmark's workloads. Each is a closed loop with one driver thread
//! and two trainer lanes; only the logs generated from the seed reach the
//! program.

use recd_data::Schema;
use recd_datagen::{WorkloadConfig, WorkloadPreset};
use recd_pipeline::RmPreset;
use recd_trainer::{DlrmConfig, PoolingKind};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RM1's schema and transformer-pooled model, deduplicated execution,
    /// no checkpoints: the trainer does almost all of the work.
    Rm1Train,
    /// RM1 with about 1.2 samples per session, so there is little
    /// duplication for the dedup path to exploit.
    Rm1Lowdup,
    /// The small preset with a cheap sum-pooled model under the
    /// exactly-once contract: a barrier and a pipeline checkpoint after
    /// every pump.
    TailExactlyOnce,
}

/// Everything a workload fixes about one run.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The generated logs.
    pub data: WorkloadConfig,
    /// Samples the run keeps: whole sessions in id order until this many
    /// are reached, so every seed gives a run of the same size.
    pub samples: usize,
    /// DPP batch size.
    pub batch_size: usize,
    /// Resolve a barrier and take a pipeline checkpoint after every pump.
    pub exactly_once: bool,
    /// Embedding dimension of the trained model.
    pub embedding_dim: usize,
    /// Pooling of the long sequence features.
    pub sequence_pooling: PoolingKind,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Rm1Train,
        Workload::Rm1Lowdup,
        Workload::TailExactlyOnce,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rm1Train => "rm1_train",
            Workload::Rm1Lowdup => "rm1_lowdup",
            Workload::TailExactlyOnce => "tail_exactly_once",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given: the data preset's own.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Rm1Train | Workload::Rm1Lowdup => RmPreset::Rm1.spec().workload.seed,
            Workload::TailExactlyOnce => WorkloadConfig::preset(WorkloadPreset::Small).seed,
        }
    }

    /// The workload's shape for `seed`. `smoke` shrinks the data to a
    /// fraction of a second of work for the benchmark's own tests.
    pub fn shape(self, seed: u64, smoke: bool) -> Shape {
        let rm1 = RmPreset::Rm1.spec();
        // (sessions generated, samples kept): sessions vary in size, so
        // generating a margin of them keeps every seed above the target.
        let size = |full: (usize, usize), small: (usize, usize)| if smoke { small } else { full };
        let (data, (sessions, samples), exactly_once, embedding_dim, sequence_pooling) = match self
        {
            Workload::Rm1Train => (
                rm1.workload,
                size((400, 3_840), (24, 200)),
                false,
                rm1.embedding_dim,
                rm1.sequence_pooling,
            ),
            Workload::Rm1Lowdup => (
                rm1.workload.with_samples_per_session(1.2),
                size((1_800, 2_200), (160, 150)),
                false,
                rm1.embedding_dim,
                rm1.sequence_pooling,
            ),
            Workload::TailExactlyOnce => (
                WorkloadConfig::preset(WorkloadPreset::Small),
                size((1_300, 16_000), (60, 500)),
                true,
                16,
                PoolingKind::Sum,
            ),
        };
        Shape {
            data: data.with_sessions(sessions).with_seed(seed),
            samples,
            batch_size: 256,
            exactly_once,
            embedding_dim,
            sequence_pooling,
        }
    }
}

impl Shape {
    /// The trained model for the generated schema. Transformer pooling is
    /// forward-only, so RM1's sequence tables stay frozen while every
    /// sum-pooled table trains.
    pub fn model(&self, schema: &Schema) -> DlrmConfig {
        DlrmConfig::from_schema(schema, self.embedding_dim, self.sequence_pooling)
    }
}
