//! # kt-store
//!
//! The embedded telemetry store standing in for the paper's 11 TB
//! crawl database (§3.2: "We parse and store the network logs in a
//! database for efficient querying").
//!
//! * [`codec`] — a compact varint-based binary encoding for visit
//!   records (a NetLog event costs a handful of bytes instead of the
//!   ~200 bytes of its JSON form), written from an owned record or
//!   streamed event by event through a reusable [`VisitEncoder`];
//! * [`record`] — the [`VisitRecord`]: one (crawl, domain, OS) visit
//!   with its load outcome and events;
//! * [`store`] — [`TelemetryStore`]: append-only segments plus an
//!   in-memory index by crawl/domain/OS, safe for concurrent append
//!   from crawl workers, with full-scan and indexed query paths (the
//!   ablation benches compare the two);
//! * [`persist`] — dump/load the store to a length-prefixed snapshot
//!   file, with truncation recovery and corrupt-record skipping;
//! * [`journal`] — the `KTSTORE2` write-ahead log: per-visit CRC32
//!   frames, campaign checkpoints, deterministic crash-point
//!   injection, replay/resume, and the `fsck` store doctor, with
//!   group-commit frame batching behind [`journal::JournalConfig`];
//! * [`segment`] — memory-mapped sealed segments: spill a sealed
//!   segment to disk and serve it back through the zero-copy `Bytes`
//!   API via `mmap` (with an explicit resident fallback);
//! * [`snapshot`] — the content-addressed [`SnapshotStore`] for
//!   longitudinal series: identical visit records across snapshots are
//!   stored once, manifests link unchanged sites by reference, and
//!   [`snapshot_fsck`] audits the on-disk chunk layout.

#![warn(missing_docs)]

pub mod codec;
pub mod journal;
pub mod persist;
pub mod record;
pub mod segment;
pub mod snapshot;
pub mod store;

pub use codec::{decode_view, RecordHeader, VisitEncoder, VisitView};
pub use journal::{
    fsck, replay, CheckpointFrame, FsckOptions, FsckReport, JournalConfig, JournalError,
    JournalMeta, JournalStats, JournalWriter, KillMode, KillSpec, ReplayReport, ReplayedVisit,
    VisitDelta,
};
pub use persist::{load, load_any, save, LoadReport, PersistError, SaveReport};
pub use record::{CrawlId, LoadOutcome, VisitRecord};
pub use segment::{SegmentMode, SpillConfig};
pub use snapshot::{
    canonical_bytes, os_slot, shard_of, slot_os, snapshot_fsck, ContentHash, GcReport,
    IngestOutcome, ManifestEntry, SnapshotFsckReport, SnapshotManifest, SnapshotSaveReport,
    SnapshotStore, CANONICAL_CRAWL, SNAPSHOT_SHARDS,
};
pub use store::{CrawlHandle, TelemetryStore};
