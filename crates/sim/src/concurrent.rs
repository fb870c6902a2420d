//! Multi-threaded replay against the sharded engine.
//!
//! [`ConcurrentSimulator::run`] replays a [`DenseTrace`] through a
//! [`ShardedEngine`] with `M` client threads. The trace is first split
//! into per-shard request subsequences by a [`ShardedTrace`] view
//! (fx-hash routing, identical to [`ShardedEngine::route`]); clients
//! then take shards round-robin (client `c` owns shards `c`, `c + M`,
//! `c + 2M`, …) and replay each owned shard's subsequence through the
//! same request-at-a-time loop as
//! [`Simulator::run_dense_observed`](crate::Simulator::run_dense_observed),
//! holding that shard's stripe lock for the duration and publishing
//! progress through the engine's lock-free counters every 128 requests.
//!
//! ## Determinism
//!
//! Results are **independent of the client count and of thread
//! interleaving**. A document is routed to exactly one shard, so each
//! shard's subsequence — including its modification verdicts, which
//! depend only on per-document previous transfer sizes — is a fixed
//! function of the trace and the shard count. Each shard replays its
//! subsequence in trace order against its own cache and policy, and the
//! merged per-type counters are a commutative sum over shards. The
//! `N = 1` engine therefore reproduces the serial simulator's report
//! bit-for-bit, and any `M` produces the same merged report as `M = 1`
//! (both pinned by differential tests).
//!
//! Warm-up stays **global**: a request is measured iff its *global*
//! trace index is past the warm-up boundary, so the merged report uses
//! exactly the same measured set as the serial simulator.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use webcache_core::{
    Cache, Eviction, PolicySpec, ShardBalance, ShardConfigError, ShardLockProbe, ShardedEngine,
};
use webcache_trace::{ByteSize, DenseTrace, DocumentType, TypeMap};

use crate::live::{LiveStatus, LiveSummary, TraceSource};
use crate::metrics::HitStats;
use crate::observe::{AccessEvent, NoopObserver, Observer, RunMeta};
use crate::simulator::{
    access_kind, notify_insert, SimulationConfig, SimulationReport, NO_TRANSFER,
};

/// Requests a shard replays between counter publications, shutdown
/// checks and throttle sleeps.
const PUBLISH_EVERY: usize = 128;

/// A [`DenseTrace`] pre-split for an `N`-shard engine.
///
/// Built once per (trace, shard count) and shared read-only across the
/// client threads, exactly like the dense view itself. Holds, per
/// global document slot, the owning shard and the **shard-local** slot
/// (dense within the shard, numbered in first-appearance order, so each
/// shard's cache can use identity slot addressing), plus each shard's
/// request subsequence as global trace indices in trace order.
#[derive(Debug, Clone)]
pub struct ShardedTrace {
    shard_count: usize,
    /// Per global slot: the owning shard.
    shard_of_slot: Vec<u32>,
    /// Per global slot: the slot within the owning shard.
    local_slot: Vec<u32>,
    /// Per shard: the global slot behind each shard-local slot (the
    /// inverse of `local_slot`, for translating cache-level eviction
    /// victims back to the global addressing observers see).
    global_of_local: Vec<Vec<u32>>,
    /// Per shard: global request indices, in trace order.
    shard_requests: Vec<Vec<u32>>,
    /// Per shard: distinct documents routed to it.
    per_shard_distinct: Vec<usize>,
}

impl ShardedTrace {
    /// Splits `trace` for `shard_count` shards (power of two).
    ///
    /// # Errors
    ///
    /// [`ShardConfigError`] for a zero or non-power-of-two count.
    ///
    /// # Panics
    ///
    /// Panics when the trace exceeds `u32::MAX` requests (the per-shard
    /// subsequences store 32-bit indices).
    pub fn build(trace: &DenseTrace, shard_count: usize) -> Result<ShardedTrace, ShardConfigError> {
        webcache_core::validate_shard_count(shard_count)?;
        assert!(
            trace.len() <= u32::MAX as usize,
            "trace too long for 32-bit request indices"
        );
        let distinct = trace.distinct_documents();
        let mut shard_of_slot = vec![0u32; distinct];
        let mut local_slot = vec![0u32; distinct];
        let mut per_shard_distinct = vec![0usize; shard_count];
        // Global slots are numbered in first-appearance order, so walking
        // them in order hands out shard-local slots in first-appearance
        // order within each shard too.
        let mut global_of_local: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        for slot in 0..distinct {
            let shard = ShardedEngine::route(DenseTrace::slot_doc(slot as u32), shard_count);
            shard_of_slot[slot] = shard as u32;
            local_slot[slot] = per_shard_distinct[shard] as u32;
            global_of_local[shard].push(slot as u32);
            per_shard_distinct[shard] += 1;
        }
        let mut shard_requests: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        for (index, &slot) in trace.docs().iter().enumerate() {
            shard_requests[shard_of_slot[slot as usize] as usize].push(index as u32);
        }
        Ok(ShardedTrace {
            shard_count,
            shard_of_slot,
            local_slot,
            global_of_local,
            shard_requests,
            per_shard_distinct,
        })
    }

    /// The shard count this view was built for.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard owning global document `slot`.
    pub fn shard_of_slot(&self, slot: u32) -> usize {
        self.shard_of_slot[slot as usize] as usize
    }

    /// Distinct documents routed to each shard.
    pub fn per_shard_distinct(&self) -> &[usize] {
        &self.per_shard_distinct
    }

    /// Requests routed to shard `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shard_requests[shard].len()
    }
}

/// One shard's share of a concurrent replay.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Requests routed to the shard (warm-up included).
    pub requests: u64,
    /// Requests served from the shard's cache (warm-up included).
    pub hits: u64,
    /// Bytes requested from the shard (warm-up included).
    pub bytes_requested: u64,
    /// Bytes served from the shard's cache (warm-up included).
    pub bytes_hit: u64,
    /// Distinct documents routed to the shard.
    pub distinct_documents: usize,
    /// Per-type counters over the **measured** region only (the merge
    /// input; sums across shards to the serial report).
    pub by_type: TypeMap<HitStats>,
}

/// The outcome of one concurrent replay.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Label of the replacement policy (e.g. `"GD*(P)"`).
    pub policy: String,
    /// Configuration the run used (capacity is the **total** budget;
    /// each shard held `capacity / shards`).
    pub config: SimulationConfig,
    /// Shard count of the engine.
    pub shards: usize,
    /// Client threads that drove the replay.
    pub clients: usize,
    /// Requests replayed (equals the trace length when `completed`).
    pub requests: u64,
    /// Wall-clock duration of the replay (engine build included).
    pub elapsed: Duration,
    /// Whether the replay ran to completion (`false` when a shutdown
    /// flag stopped it mid-pass; counters then cover a prefix).
    pub completed: bool,
    /// Per-shard summaries, in shard order.
    pub per_shard: Vec<ShardSummary>,
    /// Merged per-type counters (measured region only).
    by_type: TypeMap<HitStats>,
}

impl ConcurrentReport {
    /// Merged per-type counters (measured region only).
    pub fn by_type(&self) -> &TypeMap<HitStats> {
        &self.by_type
    }

    /// Merged counters over all document types.
    pub fn overall(&self) -> HitStats {
        let mut total = HitStats::default();
        for (_, s) in self.by_type.iter() {
            total += *s;
        }
        total
    }

    /// Aggregate replay throughput in requests/second.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Request/byte spread across the shards (warm-up included).
    pub fn balance(&self) -> ShardBalance {
        let counts: Vec<(u64, u64)> = self
            .per_shard
            .iter()
            .map(|s| (s.requests, s.bytes_requested))
            .collect();
        ShardBalance::from_counts(&counts)
    }

    /// The merged outcome as a plain [`SimulationReport`] (no occupancy
    /// series — concurrent replay does not sample occupancy).
    pub fn to_simulation_report(&self) -> SimulationReport {
        SimulationReport::from_parts(self.policy.clone(), self.config, self.by_type)
    }
}

/// Replays dense traces through a sharded engine with client threads.
/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ConcurrentSimulator {
    /// The policy spec; the replacement half is instantiated once per
    /// shard, the admission half once per shard's cache.
    pub spec: PolicySpec,
    /// Simulation parameters; `capacity` is the total budget split
    /// evenly across shards, `occupancy_samples` is ignored.
    pub config: SimulationConfig,
    /// Optional per-shard lock-contention probes, cloned onto each
    /// pass's engine (the handles share cells, so stats accumulate
    /// across passes). `None` leaves the engine's lock path
    /// uninstrumented.
    pub lock_probes: Option<Vec<ShardLockProbe>>,
}

impl ConcurrentSimulator {
    /// A concurrent simulator without lock probes. Accepts a
    /// bare [`PolicyKind`](webcache_core::PolicyKind) or a composed
    /// spec, as [`Simulator::from_spec`](crate::Simulator::from_spec)
    /// does.
    pub fn new(spec: impl Into<PolicySpec>, config: SimulationConfig) -> ConcurrentSimulator {
        ConcurrentSimulator {
            spec: spec.into(),
            config,
            lock_probes: None,
        }
    }

    /// Installs per-shard lock probes (one per shard; see
    /// [`ShardedEngine::set_lock_probes`]).
    #[must_use]
    pub fn with_lock_probes(mut self, probes: Vec<ShardLockProbe>) -> ConcurrentSimulator {
        self.lock_probes = Some(probes);
        self
    }

    /// Splits `trace` for `shards` shards and replays it with `clients`
    /// threads.
    ///
    /// # Errors
    ///
    /// [`ShardConfigError`] for an invalid shard count.
    pub fn run(
        &self,
        trace: &DenseTrace,
        shards: usize,
        clients: usize,
    ) -> Result<ConcurrentReport, ShardConfigError> {
        let sharded = ShardedTrace::build(trace, shards)?;
        Ok(self.run_sharded(trace, &sharded, clients))
    }

    /// Replays over a pre-built [`ShardedTrace`] (the bench hot path —
    /// the split is built once, outside the timed region).
    pub fn run_sharded(
        &self,
        trace: &DenseTrace,
        sharded: &ShardedTrace,
        clients: usize,
    ) -> ConcurrentReport {
        self.run_sharded_observed(trace, sharded, clients, |_| NoopObserver)
            .0
    }

    /// Like [`ConcurrentSimulator::run_sharded`], with one observer per
    /// shard built by `factory(shard)`; observers are returned in shard
    /// order. Events carry **global** request indices and **global**
    /// document slots, so per-shard observers see the same event values
    /// as a serial observer would — only partitioned, each shard's
    /// stream in trace order.
    pub fn run_sharded_observed<O, F>(
        &self,
        trace: &DenseTrace,
        sharded: &ShardedTrace,
        clients: usize,
        factory: F,
    ) -> (ConcurrentReport, Vec<O>)
    where
        O: Observer + Send,
        F: Fn(usize) -> O + Sync,
    {
        self.run_sharded_controlled(trace, sharded, clients, None, None, factory)
    }

    /// The full-control variant: an optional aggregate request-rate
    /// throttle (split across clients in proportion to their share of
    /// the trace) and an optional shutdown flag checked every 128
    /// requests (a raised flag abandons the rest of the replay and
    /// marks the report `completed: false`).
    pub fn run_sharded_controlled<O, F>(
        &self,
        trace: &DenseTrace,
        sharded: &ShardedTrace,
        clients: usize,
        rate: Option<f64>,
        shutdown: Option<&AtomicBool>,
        factory: F,
    ) -> (ConcurrentReport, Vec<O>)
    where
        O: Observer + Send,
        F: Fn(usize) -> O + Sync,
    {
        let shards = sharded.shard_count();
        let clients = clients.max(1).min(shards.max(1));
        let started = Instant::now();
        let mut engine = ShardedEngine::with_dense_shards(
            self.config.capacity,
            self.spec,
            sharded.per_shard_distinct(),
        )
        .expect("ShardedTrace shard count is validated");
        if let Some(probes) = &self.lock_probes {
            engine.set_lock_probes(probes.clone());
        }
        let engine = engine;
        let warmup_end = ((trace.len() as f64) * self.config.warmup_fraction).floor() as usize;

        let mut outcomes: Vec<Option<(ShardOutcome, O)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let engine = &engine;
                    let factory = &factory;
                    scope.spawn(move || {
                        let owned: Vec<usize> = (client..shards).step_by(clients).collect();
                        let client_requests: usize =
                            owned.iter().map(|&s| sharded.shard_len(s)).sum();
                        let mut throttle = rate.filter(|_| client_requests > 0).map(|r| {
                            Throttle::new(r * client_requests as f64 / trace.len().max(1) as f64)
                        });
                        let mut results = Vec::with_capacity(owned.len());
                        for shard in owned {
                            let mut observer = factory(shard);
                            let outcome = engine.with_shard(shard, |cache| {
                                replay_shard(
                                    cache,
                                    engine,
                                    trace,
                                    sharded,
                                    shard,
                                    warmup_end,
                                    self.config,
                                    &mut observer,
                                    throttle.as_mut(),
                                    shutdown,
                                )
                            });
                            let completed = outcome.completed;
                            results.push((shard, outcome, observer));
                            if !completed {
                                break;
                            }
                        }
                        results
                    })
                })
                .collect();
            let mut slots: Vec<Option<(ShardOutcome, O)>> = (0..shards).map(|_| None).collect();
            for handle in handles {
                for (shard, outcome, observer) in handle.join().expect("client thread") {
                    slots[shard] = Some((outcome, observer));
                }
            }
            slots
        });

        let mut by_type: TypeMap<HitStats> = TypeMap::default();
        let mut per_shard = Vec::with_capacity(shards);
        let mut observers = Vec::with_capacity(shards);
        let mut requests = 0u64;
        let mut completed = true;
        for (shard, slot) in outcomes.iter_mut().enumerate() {
            let Some((outcome, observer)) = slot.take() else {
                // A client abandoned its remaining shards on shutdown.
                completed = false;
                continue;
            };
            completed &= outcome.completed;
            requests += outcome.summary.requests;
            for (ty, stats) in outcome.summary.by_type.iter() {
                by_type[ty] += *stats;
            }
            debug_assert_eq!(outcome.summary.shard, shard);
            per_shard.push(outcome.summary);
            observers.push(observer);
        }

        (
            ConcurrentReport {
                policy: engine.policy_label(),
                config: self.config,
                shards,
                clients,
                requests,
                elapsed: started.elapsed(),
                completed,
                per_shard,
                by_type,
            },
            observers,
        )
    }
}

/// What [`replay_shard`] hands back per shard.
struct ShardOutcome {
    summary: ShardSummary,
    completed: bool,
}

/// The per-shard hot loop: the serial dense replay specialized to one
/// shard's subsequence. Holds the shard lock (the caller passes the
/// locked cache) and publishes counter deltas every [`PUBLISH_EVERY`]
/// requests.
#[allow(clippy::too_many_arguments)]
fn replay_shard<O: Observer>(
    cache: &mut Cache,
    engine: &ShardedEngine,
    trace: &DenseTrace,
    sharded: &ShardedTrace,
    shard: usize,
    warmup_end: usize,
    config: SimulationConfig,
    observer: &mut O,
    mut throttle: Option<&mut Throttle>,
    shutdown: Option<&AtomicBool>,
) -> ShardOutcome {
    let requests = &sharded.shard_requests[shard];
    let distinct = sharded.per_shard_distinct[shard];
    observer.on_run_start(RunMeta {
        total_requests: requests.len(),
        warmup_end,
        capacity: engine.shard_capacity(),
    });

    let slots = trace.docs();
    let sizes = trace.sizes();
    let types = trace.type_indices();
    let local = &sharded.local_slot;
    let global_of = &sharded.global_of_local[shard];

    let mut last_transfer: Vec<u64> = vec![NO_TRANSFER; distinct];
    let mut evicted: Vec<Eviction> = Vec::new();
    let mut by_type: TypeMap<HitStats> = TypeMap::default();
    let mut summary = ShardSummary {
        shard,
        requests: 0,
        hits: 0,
        bytes_requested: 0,
        bytes_hit: 0,
        distinct_documents: distinct,
        by_type: TypeMap::default(),
    };
    let mut completed = true;

    for chunk in requests.chunks(PUBLISH_EVERY) {
        if shutdown.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            completed = false;
            break;
        }
        let mut chunk_hits = 0u64;
        let mut chunk_bytes_hit = 0u64;
        let mut chunk_bytes = 0u64;
        for &gi in chunk {
            let gi = gi as usize;
            let global_slot = slots[gi];
            let slot = local[global_slot as usize];
            let doc = DenseTrace::slot_doc(slot);
            let transfer = sizes[gi];
            let size = ByteSize::new(transfer);
            let doc_type = DocumentType::from_index(types[gi] as usize);

            // The last-transfer chain is per document and every document
            // lives in exactly one shard, so per-shard verdicts equal the
            // global serial ones.
            let prev = last_transfer[slot as usize];
            last_transfer[slot as usize] = transfer;
            let modified =
                prev != NO_TRANSFER && config.modification_rule.is_modification(prev, transfer);

            let hit = if modified {
                cache.invalidate(doc);
                false
            } else {
                cache.access(doc)
            };
            let event = AccessEvent {
                index: gi as u64,
                doc: DenseTrace::slot_doc(global_slot),
                doc_type,
                size,
                warmup: gi < warmup_end,
            };
            observer.on_access(event, access_kind(hit, modified));
            if !hit {
                let disposition = cache.insert_into(doc, doc_type, size, &mut evicted);
                // The cache addresses documents by shard-local slot;
                // translate victims back to global slots so observers
                // see the same document ids a serial replay would.
                for eviction in &mut evicted {
                    eviction.doc = DenseTrace::slot_doc(global_of[eviction.doc.as_u64() as usize]);
                }
                notify_insert(observer, event, disposition, &evicted);
            }

            chunk_bytes += size.as_u64();
            if hit {
                chunk_hits += 1;
                chunk_bytes_hit += size.as_u64();
            }
            if gi >= warmup_end {
                let stats = &mut by_type[doc_type];
                stats.record(size, hit);
                if modified {
                    stats.modification_misses += 1;
                }
            }
        }

        summary.requests += chunk.len() as u64;
        summary.hits += chunk_hits;
        summary.bytes_requested += chunk_bytes;
        summary.bytes_hit += chunk_bytes_hit;
        engine.counters(shard).add_bulk(
            chunk.len() as u64,
            chunk_hits,
            chunk_bytes,
            chunk_bytes_hit,
        );
        if let Some(t) = throttle.as_deref_mut() {
            t.pace(chunk.len() as u64, shutdown);
        }
    }
    observer.on_run_end();
    summary.by_type = by_type;
    ShardOutcome { summary, completed }
}

/// Sleeps as needed to hold one client's target request rate. Checked
/// once per [`PUBLISH_EVERY`] requests; never sleeps once the shutdown flag is up.
#[derive(Debug)]
struct Throttle {
    per_sec: f64,
    started: Instant,
    done: u64,
}

impl Throttle {
    fn new(per_sec: f64) -> Throttle {
        Throttle {
            per_sec: per_sec.max(1e-9),
            started: Instant::now(),
            done: 0,
        }
    }

    fn pace(&mut self, just_done: u64, shutdown: Option<&AtomicBool>) {
        self.done += just_done;
        let due = Duration::from_secs_f64(self.done as f64 / self.per_sec);
        let elapsed = self.started.elapsed();
        let stop = shutdown.is_some_and(|f| f.load(Ordering::Relaxed));
        if due > elapsed && !stop {
            std::thread::sleep(due - elapsed);
        }
    }
}

/// One completed pass of a [`ShardedReplayLoop`].
#[derive(Debug)]
pub struct ConcurrentPassSummary {
    /// 0-based pass index.
    pub pass: u64,
    /// Requests replayed in this pass.
    pub requests: u64,
    /// Wall-clock duration of the pass.
    pub elapsed: Duration,
    /// Aggregate requests per second achieved.
    pub req_per_sec: f64,
    /// The pass's report (per-shard summaries included).
    pub report: ConcurrentReport,
}

/// The continuous replay driver against the sharded engine — the
/// `webcache serve --shards N --clients M` engine. Mirrors
/// [`ReplayLoop`](crate::live::ReplayLoop): one fresh engine per pass,
/// shutdown honored between passes *and* every 128 requests within a
/// pass (an interrupted pass is discarded, not reported).
#[derive(Debug, Clone)]
pub struct ShardedReplayLoop {
    /// Cache/simulation parameters, applied to every pass.
    pub config: SimulationConfig,
    /// The policy spec, freshly instantiated per shard per pass.
    pub spec: PolicySpec,
    /// Target aggregate request rate; `None` replays flat out.
    pub rate: Option<f64>,
    /// Pass budget; `None` loops until shutdown.
    pub max_passes: Option<u64>,
    /// Shard count of the engine.
    pub shards: usize,
    /// Client threads per pass.
    pub clients: usize,
    /// Optional per-shard lock probes, shared across every pass's
    /// engine (handles share cells, so contention stats accumulate).
    pub lock_probes: Option<Vec<ShardLockProbe>>,
}

impl ShardedReplayLoop {
    /// Runs passes until `shutdown` rises, `max_passes` is reached, or
    /// `source` runs dry. `on_pass` fires after each completed pass.
    ///
    /// # Errors
    ///
    /// [`ShardConfigError`] for an invalid shard count.
    pub fn run<S, F>(
        &self,
        source: &mut S,
        status: &LiveStatus,
        shutdown: &AtomicBool,
        on_pass: F,
    ) -> Result<LiveSummary, ShardConfigError>
    where
        S: TraceSource,
        F: FnMut(&ConcurrentPassSummary),
    {
        self.run_observed(source, status, shutdown, |_| NoopObserver, on_pass)
    }

    /// Like [`ShardedReplayLoop::run`], with one observer per shard per
    /// pass built by `factory(shard)`. Observers see global request
    /// indices (see [`ConcurrentSimulator::run_sharded_observed`]); a
    /// factory handing each shard a clone of a shared flight-recorder
    /// ring is how the serve path keeps a decision trail in concurrent
    /// mode. Per-pass observer state is discarded at pass end — durable
    /// state must live behind the factory's shared handles.
    ///
    /// # Errors
    ///
    /// [`ShardConfigError`] for an invalid shard count.
    pub fn run_observed<S, O, OF, F>(
        &self,
        source: &mut S,
        status: &LiveStatus,
        shutdown: &AtomicBool,
        factory: OF,
        mut on_pass: F,
    ) -> Result<LiveSummary, ShardConfigError>
    where
        S: TraceSource,
        O: Observer + Send,
        OF: Fn(usize) -> O + Sync,
        F: FnMut(&ConcurrentPassSummary),
    {
        webcache_core::validate_shard_count(self.shards)?;
        let mut simulator = ConcurrentSimulator::new(self.spec, self.config);
        simulator.lock_probes = self.lock_probes.clone();
        status.set_replaying(true);
        let mut passes = 0u64;
        let mut requests = 0u64;
        while !shutdown.load(Ordering::Relaxed) && self.max_passes.is_none_or(|max| passes < max) {
            let Some(dense) = source.next_pass(passes) else {
                break;
            };
            // Rebuilt per pass: stream sources hand out a new trace each
            // epoch, and the split is one O(n) sweep — noise next to the
            // replay itself.
            let sharded = ShardedTrace::build(dense, self.shards)?;
            let (report, _) = simulator.run_sharded_controlled(
                dense,
                &sharded,
                self.clients,
                self.rate,
                Some(shutdown),
                &factory,
            );
            if !report.completed {
                break;
            }
            let elapsed = report.elapsed;
            let pass_requests = report.requests;
            let req_per_sec = report.requests_per_sec();
            requests += pass_requests;
            passes += 1;
            status.record_pass(passes, requests, req_per_sec);
            on_pass(&ConcurrentPassSummary {
                pass: passes - 1,
                requests: pass_requests,
                elapsed,
                req_per_sec,
                report,
            });
        }
        status.set_replaying(false);
        Ok(LiveSummary { passes, requests })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::FixedSource;
    use webcache_core::PolicyKind;
    use webcache_trace::{DocId, Request, Timestamp, Trace};

    fn mixed_trace(requests: usize, distinct: u64) -> Trace {
        (0..requests as u64)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(i),
                    DocId::new((i * 7 + 3) % distinct),
                    DocumentType::ALL[(i % 5) as usize],
                    ByteSize::new(200 + (i % 90) * 13),
                )
            })
            .collect()
    }

    fn config(capacity: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .build()
    }

    #[test]
    fn sharded_trace_partitions_everything_exactly_once() {
        let dense = DenseTrace::build(&mixed_trace(1_000, 97));
        let sharded = ShardedTrace::build(&dense, 8).unwrap();
        let total: usize = (0..8).map(|s| sharded.shard_len(s)).sum();
        assert_eq!(total, dense.len());
        let distinct: usize = sharded.per_shard_distinct().iter().sum();
        assert_eq!(distinct, dense.distinct_documents());
        // Every request's shard matches its document's shard.
        for (index, &slot) in dense.docs().iter().enumerate() {
            let shard = sharded.shard_of_slot(slot);
            assert!(sharded.shard_requests[shard].contains(&(index as u32)));
        }
        // Subsequences are in trace order.
        for s in 0..8 {
            assert!(sharded.shard_requests[s].windows(2).all(|w| w[0] < w[1]));
        }
        assert!(ShardedTrace::build(&dense, 3).is_err());
        assert!(ShardedTrace::build(&dense, 0).is_err());
    }

    #[test]
    fn single_shard_report_equals_the_serial_simulator() {
        let trace = mixed_trace(2_000, 131);
        let dense = DenseTrace::build(&trace);
        let config = config(20_000);
        for kind in [
            PolicyKind::Lru,
            PolicyKind::GdStar(webcache_core::CostModel::Packet),
        ] {
            let serial = crate::simulator::Simulator::new(kind.build(), config).run_dense(&dense);
            let concurrent = ConcurrentSimulator::new(kind, config)
                .run(&dense, 1, 1)
                .unwrap();
            assert_eq!(concurrent.policy, serial.policy);
            assert_eq!(concurrent.by_type(), serial.by_type());
            assert!(concurrent.completed);
            assert_eq!(concurrent.requests, dense.len() as u64);
        }
    }

    #[test]
    fn composed_spec_single_shard_matches_the_serial_spec_run() {
        let trace = mixed_trace(2_000, 131);
        let dense = DenseTrace::build(&trace);
        let config = config(8_000);
        let spec: PolicySpec = "tinylfu+lru".parse().unwrap();
        let serial = crate::simulator::Simulator::from_spec(spec, config).run_dense(&dense);
        let concurrent = ConcurrentSimulator::new(spec, config)
            .run(&dense, 1, 1)
            .unwrap();
        assert_eq!(concurrent.policy, "TinyLFU+LRU");
        assert_eq!(concurrent.policy, serial.policy);
        assert_eq!(concurrent.by_type(), serial.by_type());
    }

    #[test]
    fn merged_report_is_identical_for_any_client_count() {
        let dense = DenseTrace::build(&mixed_trace(3_000, 173));
        let config = config(15_000);
        let sim =
            ConcurrentSimulator::new(PolicyKind::Gdsf(webcache_core::CostModel::Packet), config);
        let sharded = ShardedTrace::build(&dense, 8).unwrap();
        let baseline = sim.run_sharded(&dense, &sharded, 1);
        for clients in [2, 3, 4, 8, 16] {
            let report = sim.run_sharded(&dense, &sharded, clients);
            assert_eq!(report.by_type(), baseline.by_type(), "clients={clients}");
            assert_eq!(report.per_shard.len(), baseline.per_shard.len());
            for (a, b) in report.per_shard.iter().zip(baseline.per_shard.iter()) {
                assert_eq!(a.requests, b.requests);
                assert_eq!(a.hits, b.hits);
                assert_eq!(a.bytes_requested, b.bytes_requested);
                assert_eq!(a.by_type, b.by_type);
            }
        }
    }

    #[test]
    fn per_shard_summaries_cover_the_full_trace() {
        let dense = DenseTrace::build(&mixed_trace(2_500, 113));
        let report = ConcurrentSimulator::new(PolicyKind::Lru, config(10_000))
            .run(&dense, 4, 2)
            .unwrap();
        assert_eq!(report.shards, 4);
        assert_eq!(report.clients, 2);
        let requests: u64 = report.per_shard.iter().map(|s| s.requests).sum();
        assert_eq!(requests, dense.len() as u64);
        let bytes: u64 = report.per_shard.iter().map(|s| s.bytes_requested).sum();
        assert_eq!(bytes, dense.sizes().iter().sum::<u64>());
        let balance = report.balance();
        assert!(balance.request_imbalance >= 1.0);
        assert!(balance.byte_imbalance >= 1.0);
        assert!(report.requests_per_sec() > 0.0);
        // The simulation-report view carries the same merged counters.
        assert_eq!(report.to_simulation_report().by_type(), report.by_type());
    }

    #[test]
    fn clients_beyond_shards_are_clamped() {
        let dense = DenseTrace::build(&mixed_trace(500, 41));
        let report = ConcurrentSimulator::new(PolicyKind::Fifo, config(5_000))
            .run(&dense, 2, 64)
            .unwrap();
        assert_eq!(report.clients, 2);
        assert!(report.completed);
    }

    #[test]
    fn raised_shutdown_flag_stops_the_replay_incomplete() {
        let dense = DenseTrace::build(&mixed_trace(4_000, 211));
        let sharded = ShardedTrace::build(&dense, 4).unwrap();
        let flag = AtomicBool::new(true);
        let (report, _) = ConcurrentSimulator::new(PolicyKind::Lru, config(10_000))
            .run_sharded_controlled(&dense, &sharded, 2, None, Some(&flag), |_| NoopObserver);
        assert!(!report.completed);
        assert_eq!(report.requests, 0, "flag was up before the first request");
    }

    #[test]
    fn sharded_loop_runs_passes_and_reports_status() {
        let trace = mixed_trace(800, 67);
        let mut source = FixedSource::new(&trace);
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(false);
        let mut seen = Vec::new();
        let summary = ShardedReplayLoop {
            config: config(8_000),
            spec: PolicyKind::Lru.into(),
            rate: None,
            max_passes: Some(3),
            shards: 4,
            clients: 4,
            lock_probes: None,
        }
        .run(&mut source, &status, &shutdown, |pass| {
            seen.push((pass.pass, pass.report.shards));
        })
        .unwrap();
        assert_eq!(summary.passes, 3);
        assert_eq!(summary.requests, 2_400);
        assert_eq!(seen, vec![(0, 4), (1, 4), (2, 4)]);
        assert_eq!(status.passes(), 3);
        assert!(!status.replaying());
        assert!(status.last_pass_req_per_sec() > 0.0);
    }

    #[test]
    fn sharded_loop_rejects_bad_shard_counts() {
        let trace = mixed_trace(100, 11);
        let mut source = FixedSource::new(&trace);
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(false);
        let err = ShardedReplayLoop {
            config: config(1_000),
            spec: PolicyKind::Lru.into(),
            rate: None,
            max_passes: Some(1),
            shards: 6,
            clients: 2,
            lock_probes: None,
        }
        .run(&mut source, &status, &shutdown, |_| {})
        .unwrap_err();
        assert_eq!(err, ShardConfigError::NotPowerOfTwo(6));
    }

    #[test]
    fn lock_probes_observe_every_shard_acquisition_without_changing_results() {
        let dense = DenseTrace::build(&mixed_trace(2_000, 131));
        let sharded = ShardedTrace::build(&dense, 4).unwrap();
        let config = config(12_000);
        let plain = ConcurrentSimulator::new(PolicyKind::Lru, config);
        let probes: Vec<ShardLockProbe> = (0..4).map(|_| ShardLockProbe::new()).collect();
        let probed =
            ConcurrentSimulator::new(PolicyKind::Lru, config).with_lock_probes(probes.clone());
        let baseline = plain.run_sharded(&dense, &sharded, 4);
        let report = probed.run_sharded(&dense, &sharded, 4);
        assert_eq!(report.by_type(), baseline.by_type());
        // The bulk path takes each shard's lock exactly once per pass.
        for probe in &probes {
            assert_eq!(probe.acquisitions.get(), 1);
            assert_eq!(probe.hold_us.count(), 1);
        }
        // A second pass through the same probes accumulates.
        probed.run_sharded(&dense, &sharded, 4);
        for probe in &probes {
            assert_eq!(probe.acquisitions.get(), 2);
        }
    }

    #[test]
    fn throttled_replay_holds_the_aggregate_rate() {
        let dense = DenseTrace::build(&mixed_trace(600, 31));
        let sharded = ShardedTrace::build(&dense, 2).unwrap();
        let started = Instant::now();
        let (report, _) = ConcurrentSimulator::new(PolicyKind::Lru, config(8_000))
            .run_sharded_controlled(&dense, &sharded, 2, Some(20_000.0), None, |_| NoopObserver);
        // 600 requests at 20k req/s aggregate ≈ 30 ms; allow wide slack.
        assert!(
            started.elapsed() >= Duration::from_millis(15),
            "throttle had no effect: {:?}",
            started.elapsed()
        );
        assert!(report.completed);
    }
}
