//! The one continuous driver: log tail → streaming ETL → land → DPP →
//! trainer lanes, for a single DPP service and a multi-host fleet alike.
//!
//! [`ContinuousDriver`] owns everything a pump loop needs beyond the tiers
//! themselves: fault dispatch and ETL crash/resume, the controller's pump
//! gate, barriers and checkpoints, the trainer-lane harness, and the
//! observability registry plus its aggregator. The DPP tier sits behind the
//! small [`DppBackend`] trait, which [`DppHandle`] and [`FleetHandle`] both
//! implement. Batch mode is the same driver over already-landed partitions
//! ([`ContinuousDriver::landed`]): no pumps, just the final drain.
//!
//! # Barrier and checkpoint policy
//!
//! One policy, selected from the inputs rather than from a knob:
//!
//! * **With a fault plan**, every pump and the final drain end in a
//!   partition barrier, so batch boundaries are a pure function of the
//!   landing schedule. The ETL checkpoint is taken at start and after every
//!   [`CHECKPOINT_EVERY_BARRIERS`]-th pump barrier; a `crash-pump` resumes
//!   from it and replays the pumps since, which the DPP ingest dedup absorbs.
//! * **With a fleet backend**, every pump and the final drain end in a
//!   barrier: the coordinator's bounded replay and rebalance run at the
//!   barrier cuts.
//! * **A fault-free single service** takes neither barriers nor checkpoints —
//!   nothing would consume them, and both cost throughput.

use recd_chaos::{
    ChaosCounters, ChaosReport, FaultAction, FaultInjector, FaultKind, FaultPlan, RetryPolicy,
};
use recd_data::{LogRecord, Schema};
use recd_dpp::{
    DppConfig, DppHandle, DppReport, FleetHandle, FleetReport, PumpGate, RecvTimeout, TrainerBatch,
    TrainerHandle,
};
use recd_etl::{
    EtlCheckpoint, EtlService, EtlServiceReport, EtlStreamConfig, ManualClock, TablePartition,
};
use recd_obs::{
    AggregatorConfig, Collector, MetricsAggregator, MetricsRegistry, RegistryFederation,
};
use recd_scribe::{LogTail, TailConfig};
use recd_storage::{StoredPartition, TableStore};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pump barriers between ETL checkpoints on a fault-plan run. A crash
/// rewinds the tail to the latest checkpoint, so the DPP ingest dedup
/// absorbs replays of up to `CHECKPOINT_EVERY_BARRIERS - 1` pumps — the
/// replay depth the chaos suites exercise.
pub const CHECKPOINT_EVERY_BARRIERS: u64 = 4;

/// Longest the driver holds a pump on a red controller gate: backpressure
/// degrades to a delay, never a deadlock.
const PUMP_GATE_MAX_WAIT: Duration = Duration::from_secs(2);

/// Minimum wall time between aggregator polls on the pump path.
const POLL_PERIOD: Duration = Duration::from_millis(100);

/// Why a driven run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// A partition barrier did not resolve: a service tore down first.
    UnresolvedBarrier {
        /// Pumps completed when the barrier was injected.
        pump: u64,
        /// Whether it was the barrier after the final drain.
        final_drain: bool,
    },
    /// The plan schedules a host fault, but the backend has no second host.
    HostFaultWithoutFleet {
        /// The offending plan entry.
        fault: String,
    },
    /// The plan names a host the fleet does not have.
    HostOutOfRange {
        /// The offending plan entry.
        fault: String,
        /// The fleet's host count.
        hosts: usize,
    },
    /// Fleet hosts finished with errors.
    Hosts(Vec<String>),
    /// The DPP service finished with errors.
    Finish(String),
}

impl DriverError {
    /// Whether the error is the fault plan's (operator error, caught before
    /// any data moves) rather than the run's.
    pub fn is_plan_error(&self) -> bool {
        matches!(
            self,
            Self::HostFaultWithoutFleet { .. } | Self::HostOutOfRange { .. }
        )
    }
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnresolvedBarrier { pump, final_drain } => {
                let after = if *final_drain {
                    "the final drain"
                } else {
                    "pump"
                };
                write!(f, "partition barrier after {after} {pump} did not resolve")
            }
            Self::HostFaultWithoutFleet { fault } => write!(
                f,
                "`{fault}` is a host fault; host faults need a fleet of more than one host"
            ),
            Self::HostOutOfRange { fault, hosts } => {
                write!(f, "`{fault}` names a host outside the fleet's 0..{hosts}")
            }
            Self::Hosts(errors) => write!(f, "fleet hosts errored: {}", errors.join("; ")),
            Self::Finish(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// What a finished backend reports.
#[derive(Debug)]
pub struct BackendOutput {
    /// The service report (fleet-level aggregate for a fleet).
    pub dpp: DppReport,
    /// Fleet control-plane accounting; `None` for a single service.
    pub fleet: Option<FleetReport>,
    /// Final per-host reports of a fleet, keyed by host id.
    pub host_reports: Vec<(usize, DppReport)>,
}

/// The DPP tier as the driver sees it: one service or a fleet.
pub trait DppBackend {
    /// `None` for a single service, `Some(M)` for an `M`-host fleet.
    fn hosts(&self) -> Option<usize>;
    /// Hands one landed partition to the tier, exactly once.
    fn ingest(&mut self, partition: &StoredPartition);
    /// Partition barrier; `false` if the tier tore down before it resolved.
    fn barrier(&mut self) -> bool;
    /// Advances the control-plane clock (heartbeats); a no-op for one
    /// service.
    fn tick(&mut self, _now_ms: u64) {}
    /// Applies a host fault; a no-op for one service (the driver rejects
    /// such plans up front).
    fn host_fault(&mut self, _action: FaultAction) {}
    /// Takes the per-trainer pull endpoints.
    fn take_trainers(&mut self) -> Vec<TrainerHandle>;
    /// The controller's pump gate, if the tier runs one.
    fn pump_gate(&self) -> Option<PumpGate> {
        None
    }
    /// Metric sources the tier exports.
    fn collectors(&self) -> Vec<Arc<dyn Collector>>;
    /// Shuts the tier down and reports.
    fn finish(self) -> Result<BackendOutput, DriverError>;
}

impl DppBackend for DppHandle {
    fn hosts(&self) -> Option<usize> {
        None
    }

    fn ingest(&mut self, partition: &StoredPartition) {
        self.ingest_partition(partition);
    }

    fn barrier(&mut self) -> bool {
        self.flush_partition()
    }

    fn take_trainers(&mut self) -> Vec<TrainerHandle> {
        DppHandle::take_trainers(self)
    }

    fn pump_gate(&self) -> Option<PumpGate> {
        DppHandle::pump_gate(self)
    }

    fn collectors(&self) -> Vec<Arc<dyn Collector>> {
        let mut collectors: Vec<Arc<dyn Collector>> = vec![Arc::new(self.snapshot_source())];
        if let Some(ctrl) = self.ctrl_shared() {
            collectors.push(ctrl);
        }
        collectors
    }

    fn finish(self) -> Result<BackendOutput, DriverError> {
        let output = DppHandle::finish(self).map_err(|err| DriverError::Finish(err.to_string()))?;
        Ok(BackendOutput {
            dpp: output.report,
            fleet: None,
            host_reports: Vec::new(),
        })
    }
}

impl DppBackend for FleetHandle {
    fn hosts(&self) -> Option<usize> {
        Some(self.host_registries().len())
    }

    fn ingest(&mut self, partition: &StoredPartition) {
        self.ingest_partition(partition);
    }

    fn barrier(&mut self) -> bool {
        self.flush_partition()
    }

    fn tick(&mut self, now_ms: u64) {
        FleetHandle::tick(self, now_ms);
    }

    fn host_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::KillHost { host } => self.kill_host(host),
            FaultAction::PartitionHost { host, ms } => self.partition_host(host, ms),
            FaultAction::RejoinHost { host } => self.rejoin_host(host),
            _ => {}
        }
    }

    fn take_trainers(&mut self) -> Vec<TrainerHandle> {
        FleetHandle::take_trainers(self)
    }

    /// Every host registry federates under its `host="h<i>"` label (stable
    /// across incarnations) next to the coordinator's `recd_fleet_*`
    /// counters.
    fn collectors(&self) -> Vec<Arc<dyn Collector>> {
        let federation = Arc::new(RegistryFederation::new());
        for (label, registry) in self.host_registries() {
            federation.set_member(label, registry);
        }
        vec![federation, self.counters()]
    }

    fn finish(self) -> Result<BackendOutput, DriverError> {
        let output = FleetHandle::finish(self);
        if !output.errors.is_empty() {
            return Err(DriverError::Hosts(output.errors));
        }
        Ok(BackendOutput {
            dpp: output.dpp,
            fleet: Some(output.report),
            host_reports: output.host_reports,
        })
    }
}

/// What a trainer lane does with each delivered batch.
pub trait LaneWork: Send + 'static {
    /// Consumes one batch.
    fn consume(&mut self, batch: TrainerBatch);
}

/// Collects every batch (the equivalence suites compare the unions).
impl LaneWork for Vec<TrainerBatch> {
    fn consume(&mut self, batch: TrainerBatch) {
        self.push(batch);
    }
}

/// One finished trainer lane.
#[derive(Debug)]
pub struct LaneOutput<W> {
    /// Trainer id.
    pub trainer: usize,
    /// Whether a `kill-trainer` fault ended it.
    pub killed: bool,
    /// The lane's work, after its last batch.
    pub work: W,
}

/// The streaming-ETL half of a continuous run.
pub struct TailFeed {
    /// The raw log stream the tail replays.
    pub records: Vec<LogRecord>,
    /// Arrival process (jitter, stragglers, seed).
    pub tail: TailConfig,
    /// Join window, seal watermarks, layout.
    pub stream: EtlStreamConfig,
    /// Dataset schema.
    pub schema: Schema,
    /// Table the partitions land in.
    pub table: String,
    /// Log-time milliseconds per pump.
    pub step_ms: u64,
}

/// The run's accounting.
pub struct DriverOutput<W> {
    /// Streaming ETL accounting; `None` for a landed feed.
    pub etl: Option<EtlServiceReport>,
    /// The DPP tier's report (fleet-level aggregate for a fleet).
    pub dpp: DppReport,
    /// Fleet control-plane accounting; `None` for a single service.
    pub fleet: Option<FleetReport>,
    /// Final per-host reports of a fleet.
    pub host_reports: Vec<(usize, DppReport)>,
    /// Killed lanes in kill order, then the survivors in lane order.
    pub lanes: Vec<LaneOutput<W>>,
    /// Chaos accounting; `None` without a fault plan.
    pub chaos: Option<ChaosReport>,
    /// The aggregator over the run's registry, polled at start, on the pump
    /// path, and after the lanes joined.
    pub aggregator: MetricsAggregator,
    /// ETL pumps run.
    pub pumps: u64,
    /// Wall time from the first poll until the lanes joined.
    pub wall_seconds: f64,
}

/// Where the driver's partitions come from.
enum Source {
    /// Already-landed partitions, ingested in order as the final drain.
    Landed(Vec<StoredPartition>),
    /// A log tail pumped through the streaming ETL service.
    Tail(Box<Tail>),
}

/// The live ETL service and what rebuilds it after a crash: `feed.records`
/// keeps a replay copy of the tail under a fault plan and is empty
/// otherwise.
struct Tail {
    etl: EtlService,
    feed: TailFeed,
}

/// The continuous pipeline driver. Build it, [`wire`](Self::wire) the DPP
/// configuration through it, start the backend, then [`run`](Self::run).
pub struct ContinuousDriver {
    store: Arc<TableStore>,
    source: Source,
    plan: Option<FaultPlan>,
    injector: Option<FaultInjector>,
    retry: Option<(RetryPolicy, Arc<ChaosCounters>)>,
    registry: Arc<MetricsRegistry>,
}

impl ContinuousDriver {
    /// A batch-mode driver: `partitions` are already landed in `store` and
    /// are ingested in order as the run's final drain.
    pub fn landed(store: Arc<TableStore>, partitions: Vec<StoredPartition>) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        registry.register(Arc::new(store.blob_store().clone()));
        Self {
            store,
            source: Source::Landed(partitions),
            plan: None,
            injector: None,
            retry: None,
            registry,
        }
    }

    /// A continuous driver: the tail feeds a streaming ETL service that
    /// lands into `store`, under `plan` when one is given (the injector acts
    /// on the store's blob tier). The registry holds the blob store, the
    /// ETL gauges and the chaos counters.
    pub fn tail(store: Arc<TableStore>, mut feed: TailFeed, plan: Option<FaultPlan>) -> Self {
        let mut driver = Self::landed(store, Vec::new());
        driver.injector = plan
            .as_ref()
            .map(|plan| FaultInjector::new(plan, driver.store.blob_store().clone()));
        driver.retry = driver
            .injector
            .as_ref()
            .map(|injector| (RetryPolicy::storage_default(), injector.counters()));
        let records = std::mem::take(&mut feed.records);
        if plan.is_some() {
            feed.records = records.clone();
        }
        let mut etl = EtlService::new(
            LogTail::new(records, &feed.tail),
            feed.stream,
            Arc::clone(&driver.store),
            feed.schema.clone(),
            feed.table.clone(),
        );
        if let Some((policy, counters)) = &driver.retry {
            etl = etl.with_chaos_retry(*policy, Arc::clone(counters));
            driver
                .registry
                .register(Arc::clone(counters) as Arc<dyn Collector>);
        }
        driver.registry.register(etl.gauges());
        driver.source = Source::Tail(Box::new(Tail { etl, feed }));
        driver.plan = plan;
        driver
    }

    /// The run's registry: serve it, or render a live monitor from it. The
    /// backend's collectors join it when [`run`](Self::run) starts.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Wires a DPP (or fleet host) configuration into the run: storage
    /// retries under a fault plan, and the ETL tail-lag probe into the
    /// controller so lane backpressure never holds the pump while the
    /// stream falls behind its tail.
    pub fn wire(&self, mut config: DppConfig) -> DppConfig {
        if let Some((policy, counters)) = &self.retry {
            config = config.with_chaos_retry(*policy, Arc::clone(counters));
        }
        if let Source::Tail(tail) = &self.source {
            if let Some(ctrl) = config.ctrl.take() {
                let gauges = tail.etl.gauges();
                config = config.with_ctrl(ctrl.with_tail_lag_probe(Arc::new(move || {
                    gauges.tail_lag_ms.load(Ordering::Relaxed)
                })));
            }
        }
        config
    }

    /// Drives the run to completion over `backend`, spawning one lane per
    /// trainer endpoint with `work()` as what it does with each batch.
    ///
    /// # Errors
    ///
    /// A plan that faults hosts the backend lacks is rejected before any
    /// data moves. Otherwise the backend is always shut down and every lane
    /// joined before an unresolved barrier or a failed finish is returned.
    pub fn run<B: DppBackend, W: LaneWork>(
        mut self,
        mut backend: B,
        mut work: impl FnMut() -> W,
    ) -> Result<DriverOutput<W>, DriverError> {
        if let Err(err) = self.check_plan(backend.hosts()) {
            let _ = backend.finish();
            return Err(err);
        }
        let barriers_on = self.plan.is_some() || backend.hosts().is_some();
        for collector in backend.collectors() {
            self.registry.register(collector);
        }
        let aggregator =
            MetricsAggregator::new(Arc::clone(&self.registry), AggregatorConfig::default());
        let mut run = RunState {
            lanes: backend
                .take_trainers()
                .into_iter()
                .map(|trainer| Some(Lane::spawn(trainer, work())))
                .collect(),
            killed: Vec::new(),
            gate: backend.pump_gate(),
            barriers_on,
            pumps: 0,
            aggregator,
            started: Instant::now(),
            last_poll: Instant::now(),
        };
        run.aggregator.poll_at(0.0);
        let etl = self.feed(&mut backend, &mut run);
        let finished = backend.finish();
        let lanes = (run.killed.into_iter().map(|join| (join, true)))
            .chain(
                run.lanes
                    .into_iter()
                    .flatten()
                    .map(|lane| (lane.join, false)),
            )
            .map(|(join, killed)| {
                let (trainer, work) = join.join().expect("trainer lane thread");
                LaneOutput {
                    trainer,
                    killed,
                    work,
                }
            })
            .collect();
        let wall_seconds = run.started.elapsed().as_secs_f64();
        run.aggregator.poll_at(wall_seconds);
        let (etl, finished) = (etl?, finished?);
        Ok(DriverOutput {
            etl,
            dpp: finished.dpp,
            fleet: finished.fleet,
            host_reports: finished.host_reports,
            lanes,
            chaos: self.injector.as_mut().map(FaultInjector::finish),
            aggregator: run.aggregator,
            pumps: run.pumps,
            wall_seconds,
        })
    }

    /// Rejects plans that fault hosts the backend does not have: a silent
    /// no-op or a fault that can never fire would quietly run a weaker plan.
    fn check_plan(&self, hosts: Option<usize>) -> Result<(), DriverError> {
        let Some(plan) = &self.plan else {
            return Ok(());
        };
        for scheduled in plan.faults() {
            let (FaultKind::KillHost { host }
            | FaultKind::PartitionHost { host, .. }
            | FaultKind::RejoinHost { host }) = scheduled.kind
            else {
                continue;
            };
            let fault = scheduled.to_string();
            match hosts {
                Some(hosts) if hosts > 1 && host < hosts => {}
                Some(hosts) if hosts > 1 => {
                    return Err(DriverError::HostOutOfRange { fault, hosts })
                }
                _ => return Err(DriverError::HostFaultWithoutFleet { fault }),
            }
        }
        Ok(())
    }

    /// Feeds the backend: pumps the tail (or ingests the landed partitions)
    /// and ends with the final drain's barrier when the policy takes them.
    fn feed<B: DppBackend, W: LaneWork>(
        &mut self,
        backend: &mut B,
        run: &mut RunState<W>,
    ) -> Result<Option<EtlServiceReport>, DriverError> {
        let report = match std::mem::replace(&mut self.source, Source::Landed(Vec::new())) {
            Source::Landed(partitions) => {
                for partition in &partitions {
                    backend.ingest(partition);
                }
                None
            }
            Source::Tail(tail) => {
                let Tail { mut etl, feed } = *tail;
                let mut checkpoint = self.plan.as_ref().map(|_| etl.checkpoint());
                let mut clock = ManualClock::new();
                while !etl.tail_drained() {
                    let now = clock.advance(feed.step_ms.max(1));
                    backend.tick(now);
                    let actions = self
                        .injector
                        .as_mut()
                        .map_or_else(Vec::new, |injector| injector.poll(now));
                    for action in actions {
                        match action {
                            FaultAction::StallTrainer { lane, ms } => {
                                if let Some(Some(lane)) = run.lanes.get(lane) {
                                    lane.stall(ms);
                                }
                            }
                            FaultAction::KillTrainer { lane } => {
                                if let Some(lane) = run.lanes.get_mut(lane).and_then(Option::take) {
                                    run.killed.push(lane.kill());
                                }
                            }
                            FaultAction::CrashEtlPump => {
                                etl = self.resume(&feed, checkpoint.clone());
                            }
                            host => backend.host_fault(host),
                        }
                    }
                    if let Some(gate) = &run.gate {
                        let waited = Instant::now();
                        while !gate.pump_allowed() && waited.elapsed() < PUMP_GATE_MAX_WAIT {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                    etl.pump(now, &mut |stored: &StoredPartition, _: &TablePartition| {
                        backend.ingest(stored)
                    });
                    run.pumps += 1;
                    if run.barriers_on {
                        run.barrier(backend, false)?;
                        if checkpoint.is_some()
                            && run.pumps.is_multiple_of(CHECKPOINT_EVERY_BARRIERS)
                        {
                            checkpoint = Some(etl.checkpoint());
                        }
                    }
                    run.maybe_poll();
                }
                let sink =
                    &mut |stored: &StoredPartition, _: &TablePartition| backend.ingest(stored);
                Some(etl.finish(sink).report)
            }
        };
        if run.barriers_on {
            run.barrier(backend, true)?;
        }
        Ok(report)
    }

    /// Tears the in-memory ETL service down and rebuilds it from the
    /// latest checkpoint. The rewound tail replays everything since; the
    /// re-landed partitions are idempotent and the DPP ingest dedup skips
    /// the re-offers. (The registry keeps the dead service's gauges — a
    /// second registration would duplicate series.)
    fn resume(&self, feed: &TailFeed, checkpoint: Option<EtlCheckpoint>) -> EtlService {
        let (policy, counters) = self.retry.as_ref().expect("a crash implies a fault plan");
        let checkpoint = checkpoint.expect("a fault plan checkpoints at start");
        counters.note_pump_crash();
        let recovery_started = Instant::now();
        let etl = EtlService::resume_from(
            LogTail::new(feed.records.clone(), &feed.tail),
            feed.stream,
            Arc::clone(&self.store),
            feed.schema.clone(),
            feed.table.clone(),
            checkpoint,
        )
        .with_chaos_retry(*policy, Arc::clone(counters));
        counters.note_resume(recovery_started.elapsed());
        etl
    }
}

/// The mutable state of one run: the lanes, the policy, and the clocks.
struct RunState<W> {
    lanes: Vec<Option<Lane<W>>>,
    killed: Vec<JoinHandle<(usize, W)>>,
    gate: Option<PumpGate>,
    barriers_on: bool,
    pumps: u64,
    aggregator: MetricsAggregator,
    started: Instant,
    last_poll: Instant,
}

impl<W> RunState<W> {
    fn barrier<B: DppBackend>(
        &mut self,
        backend: &mut B,
        final_drain: bool,
    ) -> Result<(), DriverError> {
        if backend.barrier() {
            return Ok(());
        }
        Err(DriverError::UnresolvedBarrier {
            pump: self.pumps,
            final_drain,
        })
    }

    fn maybe_poll(&mut self) {
        if self.last_poll.elapsed() >= POLL_PERIOD {
            self.last_poll = Instant::now();
            self.aggregator
                .poll_at(self.started.elapsed().as_secs_f64());
        }
    }
}

/// A control command for a trainer-lane consumer.
enum LaneCmd {
    /// Stop consuming for the given duration (backpressure builds).
    Stall(Duration),
    /// Drain whatever is queued, drop the handle (tombstoning the lane),
    /// acknowledge, and exit.
    Kill(mpsc::Sender<()>),
}

/// One trainer lane: a consumer thread pulling its endpoint with a short
/// timeout so chaos commands interleave with consumption.
struct Lane<W> {
    cmd: mpsc::Sender<LaneCmd>,
    join: JoinHandle<(usize, W)>,
}

impl<W: LaneWork> Lane<W> {
    fn spawn(trainer: TrainerHandle, mut work: W) -> Self {
        let (cmd, cmd_rx) = mpsc::channel::<LaneCmd>();
        let join = std::thread::spawn(move || {
            let id = trainer.id();
            loop {
                match cmd_rx.try_recv() {
                    Ok(LaneCmd::Stall(pause)) => std::thread::sleep(pause),
                    Ok(LaneCmd::Kill(ack)) => {
                        while let Some(item) = trainer.try_recv() {
                            work.consume(item);
                        }
                        drop(trainer);
                        let _ = ack.send(());
                        return (id, work);
                    }
                    Err(_) => {}
                }
                match trainer.recv_timeout(Duration::from_millis(1)) {
                    RecvTimeout::Item(item) => work.consume(item),
                    RecvTimeout::Timeout => {}
                    RecvTimeout::Disconnected => return (id, work),
                }
            }
        });
        Self { cmd, join }
    }

    /// Pauses consumption for `ms` of wall time (asynchronous).
    fn stall(&self, ms: u64) {
        let _ = self.cmd.send(LaneCmd::Stall(Duration::from_millis(ms)));
    }

    /// Kills the lane and waits for the consumer to acknowledge the drop —
    /// called only between pumps, when the sink is quiescent, so no delivery
    /// races the teardown.
    fn kill(self) -> JoinHandle<(usize, W)> {
        let (ack, ack_rx) = mpsc::channel();
        let _ = self.cmd.send(LaneCmd::Kill(ack));
        let _ = ack_rx.recv();
        self.join
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
    use recd_etl::TableLayout;
    use recd_obs::sample_value;
    use recd_storage::TectonicSim;
    use std::sync::atomic::AtomicU64;

    /// A backend with no threads: counts ingests and barriers, resolves
    /// barriers as told, and finishes with the given error (if any).
    struct FakeBackend {
        hosts: Option<usize>,
        barrier_resolves: bool,
        finish_error: Option<DriverError>,
        ingests: Arc<AtomicU64>,
        barriers: Arc<AtomicU64>,
    }

    impl FakeBackend {
        fn new(hosts: Option<usize>) -> Self {
            Self {
                hosts,
                barrier_resolves: true,
                finish_error: None,
                ingests: Arc::default(),
                barriers: Arc::default(),
            }
        }
    }

    impl DppBackend for FakeBackend {
        fn hosts(&self) -> Option<usize> {
            self.hosts
        }

        fn ingest(&mut self, _partition: &StoredPartition) {
            self.ingests.fetch_add(1, Ordering::Relaxed);
        }

        fn barrier(&mut self) -> bool {
            self.barriers.fetch_add(1, Ordering::Relaxed);
            self.barrier_resolves
        }

        fn take_trainers(&mut self) -> Vec<TrainerHandle> {
            Vec::new()
        }

        fn collectors(&self) -> Vec<Arc<dyn Collector>> {
            Vec::new()
        }

        fn finish(self) -> Result<BackendOutput, DriverError> {
            match self.finish_error {
                Some(err) => Err(err),
                None => Ok(BackendOutput {
                    dpp: DppReport::default(),
                    fleet: None,
                    host_reports: Vec::new(),
                }),
            }
        }
    }

    /// A driver tailing the tiny preset's logs in one-minute pumps.
    fn tail_driver(plan: Option<FaultPlan>) -> ContinuousDriver {
        let (records, partition) =
            DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_logs();
        let feed = TailFeed {
            records,
            tail: TailConfig::default(),
            stream: EtlStreamConfig::new(TableLayout::ClusteredBySession),
            schema: partition.schema,
            table: "tiny".to_string(),
            step_ms: 60_000,
        };
        ContinuousDriver::tail(
            Arc::new(TableStore::new(TectonicSim::new(2), 64, 2)),
            feed,
            plan,
        )
    }

    /// Runs the tiny tail over a fake backend; returns (pumps, barriers the
    /// backend saw, ETL checkpoints the registry exported).
    fn policy_counts(plan: Option<FaultPlan>, hosts: Option<usize>) -> (u64, u64, u64) {
        let driver = tail_driver(plan);
        let registry = driver.registry();
        let backend = FakeBackend::new(hosts);
        let barriers = Arc::clone(&backend.barriers);
        let out = driver.run(backend, Vec::new).expect("fake run succeeds");
        let checkpoints = sample_value(&registry.gather(), "recd_etl_checkpoints_total", &[])
            .expect("ETL gauges registered") as u64;
        (out.pumps, barriers.load(Ordering::Relaxed), checkpoints)
    }

    #[test]
    fn barrier_and_checkpoint_policy_follows_the_inputs() {
        let (pumps, barriers, checkpoints) = policy_counts(Some(FaultPlan::new()), None);
        assert!(pumps > 2 * CHECKPOINT_EVERY_BARRIERS, "{pumps} pumps");
        assert_eq!(barriers, pumps + 1, "a plan ends every pump and the drain");
        assert_eq!(checkpoints, 1 + pumps / CHECKPOINT_EVERY_BARRIERS);

        let (pumps, barriers, checkpoints) = policy_counts(None, None);
        assert!(pumps > 0);
        assert_eq!(
            (barriers, checkpoints),
            (0, 0),
            "nothing would consume them"
        );

        let (pumps, barriers, checkpoints) = policy_counts(None, Some(2));
        assert_eq!(barriers, pumps + 1, "a fleet ends every pump and the drain");
        assert_eq!(checkpoints, 0);
    }

    #[test]
    fn an_unresolved_barrier_is_a_typed_error() {
        let mut backend = FakeBackend::new(None);
        backend.barrier_resolves = false;
        let err = tail_driver(Some(FaultPlan::new()))
            .run(backend, Vec::new)
            .err()
            .expect("the first pump barrier fails");
        assert_eq!(
            err,
            DriverError::UnresolvedBarrier {
                pump: 1,
                final_drain: false
            }
        );
        assert!(!err.is_plan_error());

        // A landed feed has no pumps: the fleet's drain barrier fails.
        let mut backend = FakeBackend::new(Some(2));
        backend.barrier_resolves = false;
        let store = Arc::new(TableStore::new(TectonicSim::new(2), 64, 2));
        let err = ContinuousDriver::landed(store, Vec::new())
            .run(backend, Vec::new)
            .err()
            .expect("the drain barrier fails");
        assert_eq!(
            err,
            DriverError::UnresolvedBarrier {
                pump: 0,
                final_drain: true
            }
        );
    }

    #[test]
    fn host_faults_need_a_fleet_that_has_the_host() {
        let plan = FaultPlan::parse("60000:kill-host:0").expect("plan parses");
        let backend = FakeBackend::new(None);
        let ingests = Arc::clone(&backend.ingests);
        let err = tail_driver(Some(plan.clone()))
            .run(backend, Vec::new)
            .err()
            .expect("a single service has no host to kill");
        assert!(matches!(err, DriverError::HostFaultWithoutFleet { .. }));
        assert!(err.is_plan_error());
        assert_eq!(
            ingests.load(Ordering::Relaxed),
            0,
            "rejected before any data moves"
        );

        let plan = FaultPlan::parse("60000:kill-host:3").expect("plan parses");
        let err = tail_driver(Some(plan))
            .run(FakeBackend::new(Some(3)), Vec::new)
            .err()
            .expect("host 3 is outside a 3-host fleet");
        assert_eq!(
            err,
            DriverError::HostOutOfRange {
                fault: "60000:kill-host:3".to_string(),
                hosts: 3
            }
        );
        assert!(err.is_plan_error());
    }

    #[test]
    fn finish_errors_surface_after_the_feed_completes() {
        let mut backend = FakeBackend::new(Some(2));
        backend.finish_error = Some(DriverError::Hosts(vec!["host h1: boom".to_string()]));
        let ingests = Arc::clone(&backend.ingests);
        let err = tail_driver(None)
            .run(backend, Vec::new)
            .err()
            .expect("host errors fail the run");
        assert_eq!(err, DriverError::Hosts(vec!["host h1: boom".to_string()]));
        assert!(!err.is_plan_error());
        assert!(
            ingests.load(Ordering::Relaxed) > 0,
            "the feed ran to the end"
        );
    }
}
