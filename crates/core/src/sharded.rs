//! A concurrent, shard-striped cache engine.
//!
//! [`ShardedEngine`] splits one logical cache into `N` independent
//! shards (`N` a power of two). Each shard owns a full [`Cache`] — its
//! own slab store and its own replacement-policy instance — sized at
//! `capacity / N`, behind its own `Mutex`. Documents are routed to
//! shards by fx-hashing their [`DocId`] ([`ShardedEngine::route`]), so
//! a document only ever lives in, and contends on, one shard.
//!
//! Two access paths with different locking disciplines:
//!
//! * **Write path** (lookups, inserts, invalidations) — `Mutex`-striped:
//!   a replay worker takes one shard's lock through
//!   [`ShardedEngine::with_shard`] and replays that shard's requests
//!   through it, so disjoint shards proceed fully in parallel.
//! * **Read path** (hit-rate accounting) — lock-free: per-shard
//!   [`ShardCounters`] are plain relaxed atomics, updated by the
//!   writers and readable by a metrics scraper (`/metrics`, `/healthz`)
//!   at any time without touching a single mutex. The counter types
//!   mirror the `webcache-obs` registry (`AtomicU64` adds), so gauges
//!   can be fed straight from a [`ShardSnapshot`].
//!
//! Sharding is not free in *quality*: each shard evicts against its own
//! `capacity / N` budget with only its own documents' recency/frequency
//! state, so eviction decisions that a global policy would make across
//! the whole population are approximated per shard. The simulator's
//! concurrent driver measures exactly this delta against the
//! single-shard oracle (`N = 1`, which degenerates to a plain
//! [`Cache`] bit-for-bit).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, TryLockError};
use std::time::Instant;

use webcache_obs::{Counter, Histogram};
use webcache_trace::{fxhash, ByteSize, DocId};

use crate::cache::Cache;
use crate::spec::PolicySpec;

/// Rejected shard configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardConfigError {
    /// A shard count of zero.
    Zero,
    /// A shard count that is not a power of two (carries the value).
    NotPowerOfTwo(usize),
}

impl std::fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardConfigError::Zero => write!(f, "shard count must be at least 1"),
            ShardConfigError::NotPowerOfTwo(n) => {
                write!(f, "shard count must be a power of two, got {n}")
            }
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Validates a shard count: positive and a power of two.
///
/// Power-of-two counts keep the router a shift of the hash's top bits —
/// no modulo — and make capacity splitting exact in the common case.
///
/// # Errors
///
/// [`ShardConfigError`] describing the rejected value.
pub fn validate_shard_count(shards: usize) -> Result<(), ShardConfigError> {
    if shards == 0 {
        Err(ShardConfigError::Zero)
    } else if !shards.is_power_of_two() {
        Err(ShardConfigError::NotPowerOfTwo(shards))
    } else {
        Ok(())
    }
}

/// Lock-free per-shard accounting: requests, hits and byte volumes.
///
/// Updated with relaxed atomics on the write path, amortized per batch
/// via [`ShardCounters::add_bulk`]; read at any time via
/// [`ShardCounters::snapshot`] with no locks. Individual counters are
/// each internally consistent; a snapshot taken mid-batch may be a few
/// requests stale, which is fine for rate gauges.
#[derive(Debug, Default)]
pub struct ShardCounters {
    requests: AtomicU64,
    hits: AtomicU64,
    bytes_requested: AtomicU64,
    bytes_hit: AtomicU64,
}

impl ShardCounters {
    /// Accounts a batch of requests in four adds (the amortized path).
    #[inline]
    pub fn add_bulk(&self, requests: u64, hits: u64, bytes_requested: u64, bytes_hit: u64) {
        self.requests.fetch_add(requests, Ordering::Relaxed);
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.bytes_requested
            .fetch_add(bytes_requested, Ordering::Relaxed);
        self.bytes_hit.fetch_add(bytes_hit, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            bytes_requested: self.bytes_requested.load(Ordering::Relaxed),
            bytes_hit: self.bytes_hit.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of one shard's [`ShardCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Requests routed to the shard.
    pub requests: u64,
    /// Requests served from the shard.
    pub hits: u64,
    /// Bytes requested from the shard.
    pub bytes_requested: u64,
    /// Bytes served from the shard.
    pub bytes_hit: u64,
}

impl ShardSnapshot {
    /// Hit rate (0 when the shard saw no requests).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Byte hit rate (0 when the shard served no bytes).
    pub fn byte_hit_rate(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            self.bytes_hit as f64 / self.bytes_requested as f64
        }
    }

    /// Sums the other snapshot into this one.
    pub fn merge(&mut self, other: ShardSnapshot) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.bytes_requested += other.bytes_requested;
        self.bytes_hit += other.bytes_hit;
    }
}

/// How evenly requests and bytes spread across shards.
///
/// `imbalance` metrics are `max / mean` over all shards: `1.0` is a
/// perfect spread, `N` means one shard took everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardBalance {
    /// Requests routed to the busiest shard.
    pub max_requests: u64,
    /// Mean requests per shard.
    pub mean_requests: f64,
    /// `max_requests / mean_requests` (1.0 when no shard saw traffic).
    pub request_imbalance: f64,
    /// Bytes requested from the heaviest shard.
    pub max_bytes: u64,
    /// Mean bytes requested per shard.
    pub mean_bytes: f64,
    /// `max_bytes / mean_bytes` (1.0 when no bytes moved).
    pub byte_imbalance: f64,
}

impl ShardBalance {
    /// Computes the balance of per-shard `(requests, bytes_requested)`
    /// counts.
    pub fn from_counts(per_shard: &[(u64, u64)]) -> ShardBalance {
        let shards = per_shard.len().max(1);
        let total_requests: u64 = per_shard.iter().map(|&(r, _)| r).sum();
        let total_bytes: u64 = per_shard.iter().map(|&(_, b)| b).sum();
        let max_requests = per_shard.iter().map(|&(r, _)| r).max().unwrap_or(0);
        let max_bytes = per_shard.iter().map(|&(_, b)| b).max().unwrap_or(0);
        let mean_requests = total_requests as f64 / shards as f64;
        let mean_bytes = total_bytes as f64 / shards as f64;
        let ratio = |max: u64, mean: f64| if mean > 0.0 { max as f64 / mean } else { 1.0 };
        ShardBalance {
            max_requests,
            mean_requests,
            request_imbalance: ratio(max_requests, mean_requests),
            max_bytes,
            mean_bytes,
            byte_imbalance: ratio(max_bytes, mean_bytes),
        }
    }
}

/// Contention instrumentation for one shard's stripe lock.
///
/// All four handles are the `webcache-obs` relaxed-atomic cells, so the
/// probe can record from the engine while a registry exports the same
/// cells (attach the handles with `Registry::attach_histogram` /
/// `attach_counter`). Probes are opt-in per engine
/// ([`ShardedEngine::set_lock_probes`]); without them the lock path is
/// a single well-predicted branch over the plain `Mutex::lock`, the
/// same no-op-by-default discipline as the policies' `MetricsSink`.
#[derive(Debug, Clone, Default)]
pub struct ShardLockProbe {
    /// Microseconds spent blocked waiting for the stripe lock
    /// (uncontended acquisitions observe 0).
    pub wait_us: Histogram,
    /// Microseconds the stripe lock was held per critical section.
    pub hold_us: Histogram,
    /// Total lock acquisitions through the probed paths.
    pub acquisitions: Counter,
    /// Acquisitions that found the lock held (`try_lock` failed).
    pub contended: Counter,
}

impl ShardLockProbe {
    /// Fresh, detached probe cells.
    pub fn new() -> ShardLockProbe {
        ShardLockProbe::default()
    }

    /// Fraction of acquisitions that had to block (0 when idle).
    pub fn contention_ratio(&self) -> f64 {
        let acquisitions = self.acquisitions.get();
        if acquisitions == 0 {
            0.0
        } else {
            self.contended.get() as f64 / acquisitions as f64
        }
    }
}

/// One shard: its cache behind the stripe lock, plus the lock-free
/// counters beside it.
#[derive(Debug)]
struct Shard {
    cache: Mutex<Cache>,
    counters: ShardCounters,
}

/// The concurrent sharded engine. See the [module docs](self).
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    capacity: ByteSize,
    shard_capacity: ByteSize,
    policy_label: String,
    lock_probes: Option<Vec<ShardLockProbe>>,
}

impl ShardedEngine {
    /// Builds an engine of `per_shard_distinct.len()` shards splitting
    /// `capacity` evenly, each with a fresh instance of `spec`'s
    /// replacement policy and its own admission-filter state.
    ///
    /// Shards use dense slot addressing: `per_shard_distinct[s]` is
    /// shard `s`'s distinct-document count and its documents must be
    /// addressed as `DocId::new(local_slot)` with shard-local slots
    /// `0..per_shard_distinct[s]` (a sharded trace view computes the
    /// mapping).
    ///
    /// # Errors
    ///
    /// [`ShardConfigError`] when the shard count is zero or not a power
    /// of two.
    pub fn with_dense_shards(
        capacity: ByteSize,
        spec: impl Into<PolicySpec>,
        per_shard_distinct: &[usize],
    ) -> Result<ShardedEngine, ShardConfigError> {
        let spec = spec.into();
        validate_shard_count(per_shard_distinct.len())?;
        let shard_capacity = Self::split_capacity(capacity, per_shard_distinct.len());
        let shards = per_shard_distinct
            .iter()
            .map(|&distinct| Shard {
                cache: Mutex::new(Cache::with_dense_slots(
                    shard_capacity,
                    spec.replacement.build(),
                    spec.admission,
                    distinct,
                )),
                counters: ShardCounters::default(),
            })
            .collect();
        Ok(ShardedEngine {
            shards,
            capacity,
            shard_capacity,
            policy_label: spec.label(),
            lock_probes: None,
        })
    }

    /// Installs one [`ShardLockProbe`] per shard; every subsequent
    /// [`ShardedEngine::with_shard`] times its lock wait and hold into
    /// the probe cells. Install before sharing the engine across
    /// threads (the setter takes `&mut self`).
    ///
    /// # Panics
    ///
    /// Panics when `probes.len()` differs from the shard count.
    pub fn set_lock_probes(&mut self, probes: Vec<ShardLockProbe>) {
        assert_eq!(probes.len(), self.shards.len(), "one lock probe per shard");
        self.lock_probes = Some(probes);
    }

    /// The installed lock probes, if any.
    pub fn lock_probes(&self) -> Option<&[ShardLockProbe]> {
        self.lock_probes.as_deref()
    }

    /// Splits the total byte budget evenly, never below one byte per
    /// shard (a [`Cache`] rejects a zero capacity).
    fn split_capacity(capacity: ByteSize, shards: usize) -> ByteSize {
        ByteSize::new((capacity.as_u64() / shards as u64).max(1))
    }

    /// Stateless routing: which of `shard_count` shards owns `doc`.
    ///
    /// Fx-hashes the id and keeps the hash's **top** `log2(shard_count)`
    /// bits — the single-multiply fx hash mixes upward, so the low bits
    /// of sequential ids are not usable as a bucket index.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `shard_count` is a positive power of two
    /// (validated constructors uphold this).
    #[inline]
    pub fn route(doc: DocId, shard_count: usize) -> usize {
        debug_assert!(shard_count.is_power_of_two());
        if shard_count == 1 {
            return 0;
        }
        let bits = shard_count.trailing_zeros();
        (fxhash::hash_u64(doc.as_u64()) >> (64 - bits)) as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The total configured capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// The per-shard capacity (`capacity / shards`, at least 1 byte).
    pub fn shard_capacity(&self) -> ByteSize {
        self.shard_capacity
    }

    /// The replacement policy's display label (e.g. `"GD*(P)"`).
    pub fn policy_label(&self) -> String {
        self.policy_label.clone()
    }

    /// Runs `f` with shard `index`'s cache locked, timing lock wait and
    /// hold into the shard's [`ShardLockProbe`] when probes are
    /// installed.
    ///
    /// The probed path is `try_lock`-then-block: an uncontended
    /// acquisition observes a zero wait without ever reading the clock;
    /// only the contended slow path (which is already paying a blocking
    /// park) takes two `Instant` reads for the wait and two for the
    /// hold.
    fn locked<R>(&self, index: usize, f: impl FnOnce(&mut Cache) -> R) -> R {
        let shard = &self.shards[index];
        let Some(probe) = self.lock_probes.as_ref().map(|p| &p[index]) else {
            let mut cache = shard.cache.lock().expect("shard mutex poisoned");
            return f(&mut cache);
        };
        probe.acquisitions.inc();
        let mut cache = match shard.cache.try_lock() {
            Ok(guard) => {
                probe.wait_us.observe(0);
                guard
            }
            Err(TryLockError::WouldBlock) => {
                probe.contended.inc();
                let blocked = Instant::now();
                let guard = shard.cache.lock().expect("shard mutex poisoned");
                probe.wait_us.observe(blocked.elapsed().as_micros() as u64);
                guard
            }
            Err(TryLockError::Poisoned(_)) => panic!("shard mutex poisoned"),
        };
        let held = Instant::now();
        let result = f(&mut cache);
        drop(cache);
        probe.hold_us.observe(held.elapsed().as_micros() as u64);
        result
    }

    /// Runs `f` with shard `index`'s cache locked.
    ///
    /// This is the replay drivers' bulk path: a worker that owns a
    /// shard's whole request subsequence takes the stripe lock once and
    /// replays through it, instead of locking per request (so with
    /// probes installed the cost is one timed acquisition per shard per
    /// pass — nothing per request).
    pub fn with_shard<R>(&self, index: usize, f: impl FnOnce(&mut Cache) -> R) -> R {
        self.locked(index, f)
    }

    /// Shard `index`'s lock-free counters (for bulk accounting next to
    /// [`ShardedEngine::with_shard`]).
    pub fn counters(&self, index: usize) -> &ShardCounters {
        &self.shards[index].counters
    }

    /// Snapshots every shard's counters, lock-free, in shard order.
    pub fn snapshot(&self) -> Vec<ShardSnapshot> {
        self.shards.iter().map(|s| s.counters.snapshot()).collect()
    }

    /// The engine-wide counter totals, lock-free.
    pub fn totals(&self) -> ShardSnapshot {
        let mut total = ShardSnapshot::default();
        for shard in &self.shards {
            total.merge(shard.counters.snapshot());
        }
        total
    }

    /// Request/byte spread across shards, from the lock-free counters.
    pub fn balance(&self) -> ShardBalance {
        let counts: Vec<(u64, u64)> = self
            .shards
            .iter()
            .map(|s| {
                let snap = s.counters.snapshot();
                (snap.requests, snap.bytes_requested)
            })
            .collect();
        ShardBalance::from_counts(&counts)
    }

    /// Bytes resident across all shards (locks each shard briefly).
    pub fn used_bytes(&self) -> ByteSize {
        let mut total = 0u64;
        for shard in &self.shards {
            total += shard
                .cache
                .lock()
                .expect("shard mutex poisoned")
                .used_bytes()
                .as_u64();
        }
        ByteSize::new(total)
    }

    /// Documents resident across all shards (locks each shard briefly).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.cache.lock().expect("shard mutex poisoned").len())
            .sum()
    }

    /// Whether no shard holds a document.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use webcache_trace::DocumentType;

    /// Distinct documents per shard of the test engines.
    const SLOTS: usize = 128;

    fn engine(shards: usize) -> ShardedEngine {
        ShardedEngine::with_dense_shards(
            ByteSize::new(8_000),
            PolicyKind::Lru,
            &[SLOTS; 8][..shards],
        )
        .expect("valid shard count")
    }

    /// One request for shard-local `slot`, as a sharded replay worker runs
    /// it: look up under the shard lock, insert on a miss, then account
    /// the outcome in the shard's lock-free counters.
    fn request(engine: &ShardedEngine, shard: usize, slot: u64, size: u64) -> bool {
        let doc = DocId::new(slot);
        let hit = engine.with_shard(shard, |cache| {
            let hit = cache.access(doc);
            if !hit {
                cache.insert(doc, DocumentType::Html, ByteSize::new(size));
            }
            hit
        });
        let bytes_hit = if hit { size } else { 0 };
        engine
            .counters(shard)
            .add_bulk(1, hit as u64, size, bytes_hit);
        hit
    }

    #[test]
    fn shard_count_validation() {
        assert_eq!(validate_shard_count(0), Err(ShardConfigError::Zero));
        assert_eq!(
            validate_shard_count(3),
            Err(ShardConfigError::NotPowerOfTwo(3))
        );
        assert_eq!(
            validate_shard_count(12),
            Err(ShardConfigError::NotPowerOfTwo(12))
        );
        for n in [1, 2, 4, 8, 64, 1024] {
            assert_eq!(validate_shard_count(n), Ok(()));
        }
        let err = ShardConfigError::NotPowerOfTwo(6).to_string();
        assert!(err.contains("power of two") && err.contains('6'), "{err}");
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 8, 256] {
            for id in 0..1_000u64 {
                let shard = ShardedEngine::route(DocId::new(id), n);
                assert!(shard < n);
                assert_eq!(shard, ShardedEngine::route(DocId::new(id), n));
            }
        }
    }

    #[test]
    fn routing_spreads_sequential_ids() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for id in 0..8_000u64 {
            counts[ShardedEngine::route(DocId::new(id), n)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max < 2 * min.max(1),
            "sequential ids skewed across shards: {counts:?}"
        );
    }

    #[test]
    fn capacity_splits_evenly_with_a_floor_of_one() {
        let e = engine(4);
        assert_eq!(e.capacity().as_u64(), 8_000);
        assert_eq!(e.shard_capacity().as_u64(), 2_000);
        let tiny =
            ShardedEngine::with_dense_shards(ByteSize::new(3), PolicyKind::Lru, &[1; 8]).unwrap();
        assert_eq!(tiny.shard_capacity().as_u64(), 1);
        assert_eq!(
            ShardedEngine::with_dense_shards(ByteSize::new(3), PolicyKind::Lru, &[1; 3])
                .unwrap_err(),
            ShardConfigError::NotPowerOfTwo(3)
        );
    }

    #[test]
    fn requests_count_lock_free_in_their_own_shard() {
        let e = engine(4);
        assert!(!request(&e, 2, 42, 100));
        assert!(request(&e, 2, 42, 100));
        let totals = e.totals();
        assert_eq!(totals.requests, 2);
        assert_eq!(totals.hits, 1);
        assert_eq!(totals.bytes_requested, 200);
        assert_eq!(totals.bytes_hit, 100);
        assert!((totals.hit_rate() - 0.5).abs() < 1e-12);
        assert!((totals.byte_hit_rate() - 0.5).abs() < 1e-12);
        // Exactly shard 2 saw the traffic.
        let busy: Vec<usize> = e
            .snapshot()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.requests > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(busy, vec![2]);
        assert_eq!(e.len(), 1);
        assert!(!e.is_empty());
        assert_eq!(e.used_bytes().as_u64(), 100);
    }

    #[test]
    fn concurrent_requests_from_many_threads_account_exactly() {
        let e = engine(4);
        let threads = 8;
        let per_thread = 500u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let e = &e;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let n = t * per_thread + i;
                        request(e, (n % 4) as usize, n % 61, 10);
                    }
                });
            }
        });
        let totals = e.totals();
        assert_eq!(totals.requests, threads * per_thread);
        assert_eq!(totals.bytes_requested, threads * per_thread * 10);
        let balance = e.balance();
        assert!(balance.request_imbalance >= 1.0);
        assert_eq!(
            e.snapshot().iter().map(|s| s.requests).sum::<u64>(),
            totals.requests
        );
    }

    #[test]
    fn lock_probes_do_not_change_behavior() {
        let mut probed = engine(4);
        probed.set_lock_probes((0..4).map(|_| ShardLockProbe::new()).collect());
        let plain = engine(4);
        for id in 0..500u64 {
            let shard = (id % 4) as usize;
            let slot = id % 93;
            let size = 40 + id % 7;
            assert_eq!(
                request(&probed, shard, slot, size),
                request(&plain, shard, slot, size)
            );
        }
        let invalidate =
            |e: &ShardedEngine| e.with_shard(1, |cache| cache.invalidate(DocId::new(1)));
        assert_eq!(invalidate(&probed), invalidate(&plain));
        assert_eq!(probed.len(), plain.len());
        assert_eq!(probed.used_bytes(), plain.used_bytes());
        assert_eq!(probed.totals(), plain.totals());
        // Every acquisition was observed, single-threaded ones uncontended.
        let probes = probed.lock_probes().unwrap();
        let acquisitions: u64 = probes.iter().map(|p| p.acquisitions.get()).sum();
        assert_eq!(acquisitions, 501);
        for p in probes {
            assert_eq!(p.contended.get(), 0);
            assert_eq!(p.contention_ratio(), 0.0);
            assert_eq!(p.wait_us.count(), p.acquisitions.get());
            assert_eq!(p.hold_us.count(), p.acquisitions.get());
        }
        assert!(plain.lock_probes().is_none());
    }

    #[test]
    fn contended_lock_registers_wait_time() {
        let mut e = engine(1);
        e.set_lock_probes(vec![ShardLockProbe::new()]);
        std::thread::scope(|scope| {
            // One holder pins the single shard's lock while another
            // thread requests through it — the request must block and
            // the probe must see the contention.
            let engine = &e;
            let holder = scope.spawn(move || {
                engine.with_shard(0, |_cache| {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                });
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            request(engine, 0, 1, 10);
            holder.join().unwrap();
        });
        let probe = &e.lock_probes().unwrap()[0];
        assert_eq!(probe.acquisitions.get(), 2);
        assert_eq!(probe.contended.get(), 1);
        assert!((probe.contention_ratio() - 0.5).abs() < 1e-12);
        // The blocked request waited most of the 30ms hold.
        assert!(probe.wait_us.sum() >= 10_000, "{}", probe.wait_us.sum());
        assert!(probe.hold_us.sum() >= 20_000, "{}", probe.hold_us.sum());
    }

    #[test]
    #[should_panic(expected = "one lock probe per shard")]
    fn probe_count_must_match_shards() {
        engine(4).set_lock_probes(vec![ShardLockProbe::new()]);
    }

    #[test]
    fn balance_of_empty_and_skewed_counts() {
        let empty = ShardBalance::from_counts(&[(0, 0), (0, 0)]);
        assert_eq!(empty.request_imbalance, 1.0);
        assert_eq!(empty.byte_imbalance, 1.0);
        let skewed = ShardBalance::from_counts(&[(30, 300), (10, 100)]);
        assert_eq!(skewed.max_requests, 30);
        assert!((skewed.request_imbalance - 1.5).abs() < 1e-12);
        assert!((skewed.byte_imbalance - 1.5).abs() < 1e-12);
    }
}
