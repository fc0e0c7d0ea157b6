//! Checkpoint state of the streaming DPP service, for exactly-once
//! crash/resume of the continuous feed path.
//!
//! A [`DppCheckpoint`] is only meaningful at a **barrier boundary** — taken
//! right after [`DppHandle::flush_partition`](crate::DppHandle::flush_partition)
//! returns, when every submitted row has been delivered and the shard
//! accumulators are empty. At that point the service's durable state reduces
//! to counter baselines plus the set of already-ingested partition keys:
//!
//! * `files_routed` seeds the router's file → shard rotation so a resumed
//!   [`ShardPolicy::FileRoundRobin`](crate::ShardPolicy::FileRoundRobin) run
//!   continues the rotation exactly where the crashed instance stopped —
//!   batch composition stays a pure function of the cumulative submission
//!   order across the crash.
//! * `ingested` makes replay idempotent: the upstream ETL stage replays its
//!   log tail from *its* checkpoint cursor (at-least-once), and the service
//!   skips any partition it already consumed (dedup), which composes to
//!   exactly-once.
//!
//! Cost model: the `ingested` set is held by the live handle in sorted,
//! shared form ([`Arc`]`<`[`BTreeSet`]`>`), so a checkpoint copies one
//! pointer and four counters — never the set itself, and without a sort.
//! The set is copied only when a new partition is ingested while a
//! checkpoint still holds it; a replayed duplicate copies nothing.
//!
//! The wire format is the same hand-rolled little-endian framing as
//! [`recd_etl::checkpoint`]: magic, version, flat fields, and a
//! trailing-bytes check on decode. Decode failures surface as the shared
//! [`CheckpointError`].

use recd_codec::{ByteReader, ByteWriter};
use recd_etl::CheckpointError;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Magic prefix of a serialized DPP checkpoint (`"RDCK"`, little-endian) —
/// distinct from the ETL checkpoint magic so the two blob kinds cannot be
/// confused.
const MAGIC: u32 = u32::from_le_bytes(*b"RDCK");
/// Current wire-format version.
const VERSION: u16 = 1;

/// Serializable state of a [`DppHandle`](crate::DppHandle) at a barrier
/// boundary. Produced by
/// [`DppHandle::checkpoint`](crate::DppHandle::checkpoint); consumed by
/// [`DppService::resume`](crate::DppService::resume).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DppCheckpoint {
    /// Files submitted (and, at a barrier, fully routed) so far; seeds the
    /// resumed router's file round-robin rotation.
    pub files_routed: u64,
    /// Partitions ingested through the continuous feed path so far.
    pub partitions_ingested: u64,
    /// Replayed partitions skipped by dedup so far.
    pub duplicate_ingests: u64,
    /// Barrier ids issued so far; the resumed handle continues the monotonic
    /// sequence.
    pub next_barrier_id: u64,
    /// Blob-store prefixes of every partition already ingested, sorted — the
    /// dedup set that makes at-least-once replay exactly-once. Shared with
    /// the live handle.
    pub ingested: Arc<BTreeSet<String>>,
}

impl DppCheckpoint {
    /// Serializes to the flat little-endian wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        w.put_u64(VERSION as u64);
        w.put_u64(self.files_routed);
        w.put_u64(self.partitions_ingested);
        w.put_u64(self.duplicate_ingests);
        w.put_u64(self.next_barrier_id);
        w.put_usize(self.ingested.len());
        for key in self.ingested.iter() {
            w.put_str(key);
        }
        w.into_bytes()
    }

    /// Decodes a blob produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on a wrong magic, an unsupported version,
    /// a malformed field, or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_u32()?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic { found: magic });
        }
        let version = r.get_u64()? as u16;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let files_routed = r.get_u64()?;
        let partitions_ingested = r.get_u64()?;
        let duplicate_ingests = r.get_u64()?;
        let next_barrier_id = r.get_u64()?;
        let count = r.get_usize()?;
        let mut ingested = BTreeSet::new();
        for _ in 0..count {
            ingested.insert(r.get_str()?);
        }
        if !r.is_exhausted() {
            return Err(CheckpointError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(Self {
            files_routed,
            partitions_ingested,
            duplicate_ingests,
            next_barrier_id,
            ingested: Arc::new(ingested),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> DppCheckpoint {
        DppCheckpoint {
            files_routed: 42,
            partitions_ingested: 7,
            duplicate_ingests: 2,
            next_barrier_id: 9,
            ingested: Arc::new(BTreeSet::from([
                "events/hour=11/".to_string(),
                "events/hour=12/".to_string(),
                "events/hour=13/".to_string(),
            ])),
        }
    }

    #[test]
    fn round_trips_byte_exactly() {
        let checkpoint = fixture();
        let bytes = checkpoint.to_bytes();
        let back = DppCheckpoint::from_bytes(&bytes).expect("decode");
        assert_eq!(back, checkpoint);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let checkpoint = DppCheckpoint::default();
        let back = DppCheckpoint::from_bytes(&checkpoint.to_bytes()).expect("decode");
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn bad_magic_version_and_truncation_fail_loudly() {
        let good = fixture().to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            DppCheckpoint::from_bytes(&bad_magic),
            Err(CheckpointError::BadMagic { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            DppCheckpoint::from_bytes(&bad_version),
            Err(CheckpointError::UnsupportedVersion { .. })
        ));

        assert!(DppCheckpoint::from_bytes(&good[..good.len() - 1]).is_err());

        let mut trailing = good;
        trailing.push(0);
        assert!(matches!(
            DppCheckpoint::from_bytes(&trailing),
            Err(CheckpointError::TrailingBytes { remaining: 1 })
        ));
    }
}
