//! # webcache-core
//!
//! The cache engine of the `webcache` workspace: a byte-capacity web cache
//! with pluggable replacement policies and per-document-type occupancy
//! accounting.
//!
//! ## Replacement schemes
//!
//! The four schemes studied by Lindemann & Waldhorst (DSN 2002):
//!
//! * **LRU** ([`policy::Lru`]) — recency-based; evicts the document unused
//!   for the longest time.
//! * **LFU-DA** ([`policy::LfuDa`]) — frequency-based with dynamic aging:
//!   `K(p) = f(p) + L`, where `L` is the cache age (the key of the last
//!   victim).
//! * **GreedyDual-Size** ([`policy::Gds`]) — cost/size aware:
//!   `H(p) = L + c(p)/s(p)`.
//! * **GreedyDual\*** ([`policy::GdStar`]) — adds long-term popularity and
//!   temporal correlation: `H(p) = L + (f(p)·c(p)/s(p))^(1/β)`, with β
//!   either fixed or estimated online from the inter-reference gap
//!   distribution.
//!
//! Plus the classic baselines **FIFO**, plain **LFU** and **SIZE** used in
//! the comparative literature (Arlitt et al.).
//!
//! Both GreedyDual variants take a [`CostModel`]: `Constant` (`c = 1`,
//! written GDS(1)/GD\*(1) in the paper) or `Packet`
//! (`c = 2 + ⌈s/536⌉`, written GDS(P)/GD\*(P)).
//!
//! ## Example
//!
//! ```
//! use webcache_core::{AdmissionSpec, Cache, PolicyKind};
//! use webcache_trace::{ByteSize, DocId, DocumentType};
//!
//! let mut cache = Cache::new(ByteSize::new(1000), PolicyKind::Lru.build(), AdmissionSpec::All);
//! let a = DocId::new(1);
//! assert!(!cache.access(a));                       // cold miss
//! cache.insert(a, DocumentType::Html, ByteSize::new(400));
//! assert!(cache.access(a));                        // hit
//! assert_eq!(cache.used_bytes().as_u64(), 400);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod cache;
pub mod cost;
pub mod float;
pub mod policy;
pub mod pqueue;
pub mod sharded;
pub mod sketch;
pub mod spec;

pub use admission::{
    AdmissionController, AdmissionPolicy, AdmissionSpec, AdmitAll, MaxSizeFilter, SecondHitFilter,
    TinyLfuFilter,
};
pub use cache::{Cache, Eviction, EvictionOutcome, InsertDisposition, Occupancy};
pub use cost::CostModel;
pub use float::OrderedF64;
pub use policy::{BetaMode, PolicyKind, ReplacementPolicy, S3Fifo};
pub use sharded::{
    validate_shard_count, ShardBalance, ShardConfigError, ShardCounters, ShardLockProbe,
    ShardSnapshot, ShardedEngine,
};
pub use sketch::FrequencySketch;
pub use spec::{ParseSpecError, PolicySpec, DEFAULT_SECOND_HIT_WINDOW};
