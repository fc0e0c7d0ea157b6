//! Exactly-once checkpoint/resume for the continuous ETL tier.
//!
//! A checkpoint captures everything an [`EtlService`](crate::EtlService)
//! needs to restart mid-stream and converge to the *same* output a crash-free
//! run would have produced:
//!
//! * the [`LogTail`](recd_scribe::LogTail) cursor — which arrival events have
//!   already been consumed;
//! * the full [`EtlStream`](crate::EtlStream) join/clustering state
//!   ([`EtlStreamState`]): pending join halves, the watermark-bounded
//!   joined-id memory, expiry heaps, open per-session hour buffers, and
//!   lifetime counters;
//! * the service's landing record: per-hour seal counts (re-seal `-r<N>`
//!   table suffixes), every landed [`StoredPartition`], and the accumulated
//!   [`StorageReport`].
//!
//! Checkpoints are taken at pump boundaries, where the sealed-partition queue
//! is empty (everything sealed has been landed), so the "work in flight"
//! window is exactly zero: a restart re-tails from the cursor and replays the
//! pure `push` state machine, whose output is a function of consumed-event
//! order alone. That makes the resumed run's landed bytes — and hence the
//! trainer-batch union downstream — byte-identical to an uninterrupted run,
//! which `crates/pipeline/tests/chaos.rs` asserts end to end.
//!
//! ## Cost model
//!
//! A checkpoint costs what changed since the last one, not what the service
//! holds. Immutable payloads are shared with the live service through
//! [`Arc`]:
//!
//! * open-hour rows ([`Sample`]s) and pending feature halves
//!   ([`FeatureLog`]s) — one pointer per row, never a copy of the feature
//!   vectors;
//! * the landing record ([`EtlCheckpoint::landed`],
//!   [`EtlCheckpoint::hour_seal_counts`]) — one pointer each.
//!
//! The snapshot copies only payload-free bookkeeping: the pending event
//! halves, the watermark-bounded joined-id memory, the expiry heaps and the
//! counters. Copies of shared state happen on change, and only while an
//! older snapshot still holds it: a pending feature when it joins, an hour's
//! rows when the hour seals, the landing record when a partition lands.
//! Each row is copied at most once; nothing is copied per pump.
//!
//! The in-tree `serde` shim is derive-only (no real serialization), so the
//! wire format is a hand-rolled flat little-endian codec over
//! [`recd_codec::ByteWriter`] / [`recd_codec::ByteReader`], with a magic +
//! version header and a trailing-bytes check so corrupt or foreign blobs fail
//! loudly instead of resuming from garbage.

use crate::partition::TablePartition;
use crate::stream::{EtlCounters, SealReason, SealedPartition};
use recd_codec::{ByteReader, ByteWriter, CodecError};
use recd_data::{EventLog, FeatureLog, RequestId, Sample, SessionId, Timestamp};
use recd_storage::{StorageReport, StoredPartition};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Magic bytes prefixing every serialized checkpoint (`"RCKP"`).
const MAGIC: u32 = u32::from_le_bytes(*b"RCKP");
/// Current checkpoint wire-format version. v2 added the `downsampled`
/// counter to the counter block.
const VERSION: u16 = 2;

/// Why a checkpoint blob could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the checkpoint magic.
    BadMagic {
        /// The four bytes actually found.
        found: u32,
    },
    /// The blob's wire-format version is not supported.
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
    },
    /// The blob decoded but left unconsumed bytes — a framing bug or a
    /// truncated rewrite.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// A field failed to decode.
    Codec(CodecError),
    /// A decoded enum discriminant was out of range.
    InvalidDiscriminant {
        /// Which enum was being decoded.
        context: &'static str,
        /// The value actually found.
        found: u8,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint blob (magic {found:#010x})")
            }
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (supported: {VERSION})"
                )
            }
            CheckpointError::TrailingBytes { remaining } => {
                write!(f, "checkpoint decoded with {remaining} trailing bytes")
            }
            CheckpointError::Codec(err) => write!(f, "checkpoint field decode failed: {err}"),
            CheckpointError::InvalidDiscriminant { context, found } => {
                write!(f, "invalid {context} discriminant {found}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(err: CodecError) -> Self {
        CheckpointError::Codec(err)
    }
}

/// One open hour's per-session clustering buffers: `(session, rows)` pairs
/// in session order, each session keeping its rows in arrival order. Rows
/// are shared with the live stream, never copied by a snapshot.
pub(crate) type OpenHourSessions = Vec<(u64, Vec<Arc<Sample>>)>;

/// A faithful, serializable snapshot of an
/// [`EtlStream`](crate::EtlStream)'s private state. Produced by
/// [`EtlStream::checkpoint`](crate::EtlStream::checkpoint) and consumed by
/// [`EtlStream::restore`](crate::EtlStream::restore); maps are stored as
/// key-sorted vectors and heaps as sorted vectors so the encoding is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EtlStreamState {
    pub(crate) pending_features: Vec<(u64, Arc<FeatureLog>)>,
    pub(crate) pending_events: Vec<(u64, EventLog)>,
    pub(crate) joined: Vec<(u64, u64)>,
    pub(crate) feature_expiry: Vec<(u64, u64)>,
    pub(crate) event_expiry: Vec<(u64, u64)>,
    pub(crate) joined_expiry: Vec<(u64, u64)>,
    /// `(hour, sessions)` in hour order; each session keeps its rows in
    /// arrival order, matching the live per-session clustering buffers.
    pub(crate) open_hours: Vec<(u64, OpenHourSessions)>,
    pub(crate) sealed: Vec<SealedPartition>,
    pub(crate) buffered_rows: u64,
    pub(crate) max_ts: u64,
    pub(crate) watermark: u64,
    pub(crate) counters: EtlCounters,
}

/// Everything an [`EtlService`](crate::EtlService) needs to resume a
/// mid-stream run: the tail cursor, the stream state, and the landing
/// record. Serialize with [`EtlCheckpoint::to_bytes`]; rebuild the service
/// with [`EtlService::resume_from`](crate::EtlService::resume_from).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EtlCheckpoint {
    /// How many tail arrival events had been consumed at checkpoint time
    /// (feed to [`LogTail::rewind_to`](recd_scribe::LogTail::rewind_to)).
    pub tail_cursor: usize,
    /// The join/clustering state machine's full state.
    pub stream: EtlStreamState,
    /// Seals per hour bucket — drives re-seal `-r<N>` table suffixes after
    /// resume. Shared with the live service.
    pub hour_seal_counts: Arc<BTreeMap<u64, u64>>,
    /// Every partition landed before the checkpoint, in land order. Shared
    /// with the live service.
    pub landed: Arc<Vec<StoredPartition>>,
    /// Storage accounting accumulated across the landed partitions.
    pub storage: StorageReport,
    /// Peak observed tail lag (ms) before the checkpoint.
    pub peak_tail_lag_ms: u64,
}

impl EtlCheckpoint {
    /// Serializes the checkpoint into a self-describing byte blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        w.put_u64(u64::from(VERSION));
        w.put_usize(self.tail_cursor);
        put_stream_state(&mut w, &self.stream);
        w.put_usize(self.hour_seal_counts.len());
        for (&hour, &seals) in self.hour_seal_counts.iter() {
            w.put_u64(hour);
            w.put_u64(seals);
        }
        w.put_usize(self.landed.len());
        for stored in self.landed.iter() {
            put_stored_partition(&mut w, stored);
        }
        put_storage_report(&mut w, &self.storage);
        w.put_u64(self.peak_tail_lag_ms);
        w.into_bytes()
    }

    /// Decodes a checkpoint produced by [`EtlCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the blob is not a checkpoint, is a
    /// different version, is truncated, or carries trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_u32()?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic { found: magic });
        }
        let version = r.get_u64()?;
        if version != u64::from(VERSION) {
            return Err(CheckpointError::UnsupportedVersion {
                found: version.min(u64::from(u16::MAX)) as u16,
            });
        }
        let tail_cursor = r.get_usize()?;
        let stream = get_stream_state(&mut r)?;
        let mut hour_seal_counts = BTreeMap::new();
        for _ in 0..r.get_usize()? {
            hour_seal_counts.insert(r.get_u64()?, r.get_u64()?);
        }
        let landed_len = r.get_usize()?;
        let mut landed = Vec::with_capacity(landed_len.min(1 + r.remaining() / 8));
        for _ in 0..landed_len {
            landed.push(get_stored_partition(&mut r)?);
        }
        let storage = get_storage_report(&mut r)?;
        let peak_tail_lag_ms = r.get_u64()?;
        if !r.is_exhausted() {
            return Err(CheckpointError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(Self {
            tail_cursor,
            stream,
            hour_seal_counts: Arc::new(hour_seal_counts),
            landed: Arc::new(landed),
            storage,
            peak_tail_lag_ms,
        })
    }
}

fn put_pair_list(w: &mut ByteWriter, pairs: &[(u64, u64)]) {
    w.put_usize(pairs.len());
    for &(a, b) in pairs {
        w.put_u64(a);
        w.put_u64(b);
    }
}

fn get_pair_list(r: &mut ByteReader<'_>) -> Result<Vec<(u64, u64)>, CheckpointError> {
    let len = r.get_usize()?;
    let mut pairs = Vec::with_capacity(len.min(1 + r.remaining() / 16));
    for _ in 0..len {
        pairs.push((r.get_u64()?, r.get_u64()?));
    }
    Ok(pairs)
}

fn put_sparse(w: &mut ByteWriter, sparse: &[Vec<u64>]) {
    w.put_usize(sparse.len());
    for ids in sparse {
        w.put_u64_slice(ids);
    }
}

fn get_sparse(r: &mut ByteReader<'_>) -> Result<Vec<Vec<u64>>, CheckpointError> {
    let len = r.get_usize()?;
    let mut sparse = Vec::with_capacity(len.min(1 + r.remaining() / 8));
    for _ in 0..len {
        sparse.push(r.get_u64_slice()?);
    }
    Ok(sparse)
}

fn put_feature(w: &mut ByteWriter, feature: &FeatureLog) {
    w.put_u64(feature.request_id.raw());
    w.put_u64(feature.session_id.raw());
    w.put_u64(feature.timestamp.as_millis());
    w.put_f32_slice(&feature.dense);
    put_sparse(w, &feature.sparse);
}

fn get_feature(r: &mut ByteReader<'_>) -> Result<FeatureLog, CheckpointError> {
    Ok(FeatureLog {
        request_id: RequestId::new(r.get_u64()?),
        session_id: SessionId::new(r.get_u64()?),
        timestamp: Timestamp::from_millis(r.get_u64()?),
        dense: r.get_f32_slice()?,
        sparse: get_sparse(r)?,
    })
}

fn put_event(w: &mut ByteWriter, event: &EventLog) {
    w.put_u64(event.request_id.raw());
    w.put_u64(event.session_id.raw());
    w.put_u64(event.timestamp.as_millis());
    w.put_f32(event.label);
}

fn get_event(r: &mut ByteReader<'_>) -> Result<EventLog, CheckpointError> {
    Ok(EventLog {
        request_id: RequestId::new(r.get_u64()?),
        session_id: SessionId::new(r.get_u64()?),
        timestamp: Timestamp::from_millis(r.get_u64()?),
        label: r.get_f32()?,
    })
}

fn put_sample(w: &mut ByteWriter, sample: &Sample) {
    w.put_u64(sample.session_id.raw());
    w.put_u64(sample.request_id.raw());
    w.put_u64(sample.timestamp.as_millis());
    w.put_f32(sample.label);
    w.put_f32_slice(&sample.dense);
    put_sparse(w, &sample.sparse);
}

fn get_sample(r: &mut ByteReader<'_>) -> Result<Sample, CheckpointError> {
    let session_id = SessionId::new(r.get_u64()?);
    let request_id = RequestId::new(r.get_u64()?);
    let timestamp = Timestamp::from_millis(r.get_u64()?);
    let label = r.get_f32()?;
    let dense = r.get_f32_slice()?;
    let sparse = get_sparse(r)?;
    Ok(Sample::builder(session_id, request_id, timestamp)
        .label(label)
        .dense(dense)
        .sparse(sparse)
        .build())
}

fn put_counters(w: &mut ByteWriter, c: &EtlCounters) {
    for value in [
        c.records,
        c.joined_samples,
        c.late_drops,
        c.duplicates,
        c.orphaned_features,
        c.orphaned_events,
        c.downsampled,
        c.sealed_partitions,
        c.sealed_rows,
        c.hour_seals,
        c.size_seals,
        c.finish_seals,
    ] {
        w.put_u64(value);
    }
}

fn get_counters(r: &mut ByteReader<'_>) -> Result<EtlCounters, CheckpointError> {
    Ok(EtlCounters {
        records: r.get_u64()?,
        joined_samples: r.get_u64()?,
        late_drops: r.get_u64()?,
        duplicates: r.get_u64()?,
        orphaned_features: r.get_u64()?,
        orphaned_events: r.get_u64()?,
        downsampled: r.get_u64()?,
        sealed_partitions: r.get_u64()?,
        sealed_rows: r.get_u64()?,
        hour_seals: r.get_u64()?,
        size_seals: r.get_u64()?,
        finish_seals: r.get_u64()?,
    })
}

fn put_seal_reason(w: &mut ByteWriter, reason: SealReason) {
    w.put_u8(match reason {
        SealReason::HourBoundary => 0,
        SealReason::SizeWatermark => 1,
        SealReason::Finish => 2,
    });
}

fn get_seal_reason(r: &mut ByteReader<'_>) -> Result<SealReason, CheckpointError> {
    match r.get_u8()? {
        0 => Ok(SealReason::HourBoundary),
        1 => Ok(SealReason::SizeWatermark),
        2 => Ok(SealReason::Finish),
        found => Err(CheckpointError::InvalidDiscriminant {
            context: "SealReason",
            found,
        }),
    }
}

fn put_sealed_partition(w: &mut ByteWriter, sealed: &SealedPartition) {
    w.put_u64(sealed.partition.hour);
    w.put_usize(sealed.partition.samples.len());
    for sample in &sealed.partition.samples {
        put_sample(w, sample);
    }
    put_seal_reason(w, sealed.reason);
    w.put_u64(sealed.watermark_ms);
}

fn get_sealed_partition(r: &mut ByteReader<'_>) -> Result<SealedPartition, CheckpointError> {
    let hour = r.get_u64()?;
    let len = r.get_usize()?;
    let mut samples = Vec::with_capacity(len.min(1 + r.remaining() / 32));
    for _ in 0..len {
        samples.push(get_sample(r)?);
    }
    let reason = get_seal_reason(r)?;
    let watermark_ms = r.get_u64()?;
    Ok(SealedPartition {
        partition: TablePartition { hour, samples },
        reason,
        watermark_ms,
    })
}

fn put_stream_state(w: &mut ByteWriter, state: &EtlStreamState) {
    w.put_usize(state.pending_features.len());
    for (request, feature) in &state.pending_features {
        w.put_u64(*request);
        put_feature(w, feature);
    }
    w.put_usize(state.pending_events.len());
    for (request, event) in &state.pending_events {
        w.put_u64(*request);
        put_event(w, event);
    }
    put_pair_list(w, &state.joined);
    put_pair_list(w, &state.feature_expiry);
    put_pair_list(w, &state.event_expiry);
    put_pair_list(w, &state.joined_expiry);
    w.put_usize(state.open_hours.len());
    for (hour, sessions) in &state.open_hours {
        w.put_u64(*hour);
        w.put_usize(sessions.len());
        for (session, rows) in sessions {
            w.put_u64(*session);
            w.put_usize(rows.len());
            for sample in rows {
                put_sample(w, sample);
            }
        }
    }
    w.put_usize(state.sealed.len());
    for sealed in &state.sealed {
        put_sealed_partition(w, sealed);
    }
    w.put_u64(state.buffered_rows);
    w.put_u64(state.max_ts);
    w.put_u64(state.watermark);
    put_counters(w, &state.counters);
}

fn get_stream_state(r: &mut ByteReader<'_>) -> Result<EtlStreamState, CheckpointError> {
    let mut pending_features = Vec::new();
    for _ in 0..r.get_usize()? {
        pending_features.push((r.get_u64()?, Arc::new(get_feature(r)?)));
    }
    let mut pending_events = Vec::new();
    for _ in 0..r.get_usize()? {
        pending_events.push((r.get_u64()?, get_event(r)?));
    }
    let joined = get_pair_list(r)?;
    let feature_expiry = get_pair_list(r)?;
    let event_expiry = get_pair_list(r)?;
    let joined_expiry = get_pair_list(r)?;
    let mut open_hours = Vec::new();
    for _ in 0..r.get_usize()? {
        let hour = r.get_u64()?;
        let mut sessions = Vec::new();
        for _ in 0..r.get_usize()? {
            let session = r.get_u64()?;
            let row_count = r.get_usize()?;
            let mut rows = Vec::with_capacity(row_count.min(1 + r.remaining() / 32));
            for _ in 0..row_count {
                rows.push(Arc::new(get_sample(r)?));
            }
            sessions.push((session, rows));
        }
        open_hours.push((hour, sessions));
    }
    let mut sealed = Vec::new();
    for _ in 0..r.get_usize()? {
        sealed.push(get_sealed_partition(r)?);
    }
    Ok(EtlStreamState {
        pending_features,
        pending_events,
        joined,
        feature_expiry,
        event_expiry,
        joined_expiry,
        open_hours,
        sealed,
        buffered_rows: r.get_u64()?,
        max_ts: r.get_u64()?,
        watermark: r.get_u64()?,
        counters: get_counters(r)?,
    })
}

fn put_stored_partition(w: &mut ByteWriter, stored: &StoredPartition) {
    w.put_str(&stored.table);
    w.put_u64(stored.hour);
    w.put_usize(stored.files.len());
    for file in &stored.files {
        w.put_str(file);
    }
}

fn get_stored_partition(r: &mut ByteReader<'_>) -> Result<StoredPartition, CheckpointError> {
    let table = r.get_str()?;
    let hour = r.get_u64()?;
    let file_count = r.get_usize()?;
    let mut files = Vec::with_capacity(file_count.min(1 + r.remaining() / 8));
    for _ in 0..file_count {
        files.push(r.get_str()?);
    }
    Ok(StoredPartition { table, hour, files })
}

fn put_storage_report(w: &mut ByteWriter, report: &StorageReport) {
    for value in [
        report.files,
        report.stripes,
        report.rows,
        report.raw_bytes,
        report.encoded_bytes,
        report.stored_bytes,
    ] {
        w.put_usize(value);
    }
}

fn get_storage_report(r: &mut ByteReader<'_>) -> Result<StorageReport, CheckpointError> {
    Ok(StorageReport {
        files: r.get_usize()?,
        stripes: r.get_usize()?,
        rows: r.get_usize()?,
        raw_bytes: r.get_usize()?,
        encoded_bytes: r.get_usize()?,
        stored_bytes: r.get_usize()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_data::LogRecord;

    fn sample(session: u64, request: u64, ts: u64) -> Sample {
        Sample::builder(
            SessionId::new(session),
            RequestId::new(request),
            Timestamp::from_millis(ts),
        )
        .label(0.5)
        .dense(vec![1.0, -2.5, 0.125])
        .sparse(vec![vec![request, session], vec![], vec![42]])
        .build()
    }

    fn populated_checkpoint() -> EtlCheckpoint {
        EtlCheckpoint {
            tail_cursor: 17,
            stream: EtlStreamState {
                pending_features: vec![(
                    3,
                    Arc::new(FeatureLog {
                        request_id: RequestId::new(3),
                        session_id: SessionId::new(30),
                        timestamp: Timestamp::from_millis(5_000),
                        dense: vec![0.25],
                        sparse: vec![vec![9, 9, 9]],
                    }),
                )],
                pending_events: vec![(
                    4,
                    EventLog {
                        request_id: RequestId::new(4),
                        session_id: SessionId::new(40),
                        timestamp: Timestamp::from_millis(6_000),
                        label: 1.0,
                    },
                )],
                joined: vec![(1, 1_000), (2, 2_000)],
                feature_expiry: vec![(5_000, 3)],
                event_expiry: vec![(6_000, 4)],
                joined_expiry: vec![(1_000, 1), (2_000, 2)],
                open_hours: vec![(
                    0,
                    vec![
                        (30, vec![Arc::new(sample(30, 1, 1_000))]),
                        (40, vec![Arc::new(sample(40, 2, 2_000))]),
                    ],
                )],
                sealed: vec![SealedPartition {
                    partition: TablePartition {
                        hour: 7,
                        samples: vec![sample(1, 9, 7 * Timestamp::MILLIS_PER_HOUR)],
                    },
                    reason: SealReason::SizeWatermark,
                    watermark_ms: 123,
                }],
                buffered_rows: 2,
                max_ts: 8_000,
                watermark: 3_000,
                counters: EtlCounters {
                    records: 10,
                    joined_samples: 2,
                    late_drops: 1,
                    duplicates: 1,
                    ..EtlCounters::default()
                },
            },
            hour_seal_counts: Arc::new(BTreeMap::from([(0, 1), (7, 2)])),
            landed: Arc::new(vec![StoredPartition {
                table: "tiny".into(),
                hour: 0,
                files: vec!["tiny/hour=0/file-00000.dwrf".into()],
            }]),
            storage: StorageReport {
                files: 1,
                stripes: 2,
                rows: 3,
                raw_bytes: 400,
                encoded_bytes: 300,
                stored_bytes: 200,
            },
            peak_tail_lag_ms: 9_001,
        }
    }

    #[test]
    fn checkpoint_round_trips_byte_exactly() {
        let checkpoint = populated_checkpoint();
        let bytes = checkpoint.to_bytes();
        let back = EtlCheckpoint::from_bytes(&bytes).expect("decode");
        assert_eq!(back, checkpoint);
        // Re-encoding the decoded checkpoint must reproduce the same bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn wire_format_is_pinned() {
        // FNV-1a of the fixture's encoding, recorded before checkpoints
        // shared their payloads: sharing must not change a single byte.
        let bytes = populated_checkpoint().to_bytes();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (972, 0xdc8f_1b92_11b2_4299));
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let checkpoint = EtlCheckpoint::default();
        let back = EtlCheckpoint::from_bytes(&checkpoint.to_bytes()).expect("decode");
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn bad_magic_version_and_truncation_fail_loudly() {
        let bytes = populated_checkpoint().to_bytes();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            EtlCheckpoint::from_bytes(&wrong_magic),
            Err(CheckpointError::BadMagic { .. })
        ));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            EtlCheckpoint::from_bytes(&wrong_version),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        ));

        assert!(matches!(
            EtlCheckpoint::from_bytes(&bytes[..bytes.len() - 3]),
            Err(CheckpointError::Codec(CodecError::UnexpectedEof { .. }))
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            EtlCheckpoint::from_bytes(&trailing),
            Err(CheckpointError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn stream_state_round_trips_through_a_live_stream() {
        use crate::stream::{EtlStream, EtlStreamConfig};
        use crate::TableLayout;

        let config = EtlStreamConfig::new(TableLayout::ClusteredBySession)
            .with_window_ms(5_000)
            .with_seal_grace_ms(1_000);
        let mut stream = EtlStream::new(config);
        for request in 0..20u64 {
            stream.push(LogRecord::Feature(FeatureLog {
                request_id: RequestId::new(request),
                session_id: SessionId::new(request % 3),
                timestamp: Timestamp::from_millis(1_000 + request * 700),
                dense: vec![request as f32],
                sparse: vec![vec![request]],
            }));
            if request % 2 == 0 {
                stream.push(LogRecord::Event(EventLog {
                    request_id: RequestId::new(request),
                    session_id: SessionId::new(request % 3),
                    timestamp: Timestamp::from_millis(1_200 + request * 700),
                    label: 1.0,
                }));
            }
        }

        let state = stream.checkpoint();
        let mut restored = EtlStream::restore(config, state.clone());
        assert_eq!(restored.checkpoint(), state);
        assert_eq!(restored.snapshot(), stream.snapshot());

        // Both copies must behave identically from here on.
        let tail: Vec<LogRecord> = (20..30u64)
            .map(|request| {
                LogRecord::Event(EventLog {
                    request_id: RequestId::new(request),
                    session_id: SessionId::new(request % 3),
                    timestamp: Timestamp::from_millis(1_200 + request * 700),
                    label: 0.0,
                })
            })
            .collect();
        for record in &tail {
            stream.push(record.clone());
            restored.push(record.clone());
        }
        stream.finish();
        restored.finish();
        assert_eq!(restored.report(), stream.report());
        assert_eq!(restored.drain_sealed(), stream.drain_sealed());
    }
}
