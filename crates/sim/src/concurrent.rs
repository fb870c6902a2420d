//! Multi-threaded replay against the sharded engine, and the serve loop
//! built on it.
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
//! One shard is the serial replay: its split is the identity, so the
//! shard reads global request indices and document slots directly.
//!
//! [`ShardedReplayLoop`] runs that replay pass after pass; it is the
//! only driver of `webcache serve`. Observers are owned by the caller,
//! one per shard, and persist across passes.
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
    Cache, Eviction, PolicySpec, ShardBalance, ShardConfigError, ShardLockProbe, ShardReasons,
    ShardedEngine,
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
/// client threads, exactly like the dense view itself. For `N > 1` it
/// holds, per global document slot, the owning shard and the
/// **shard-local** slot (dense within the shard, numbered in
/// first-appearance order, so each shard's cache can use identity slot
/// addressing), plus each shard's request subsequence as global trace
/// indices in trace order. For `N = 1` the split is the identity and
/// nothing is stored.
#[derive(Debug, Clone)]
pub struct ShardedTrace {
    shard_count: usize,
    /// Requests in the trace.
    requests: usize,
    /// Per shard: distinct documents routed to it.
    per_shard_distinct: Vec<usize>,
    /// The routing tables; `None` for one shard.
    split: Option<Split>,
}

/// The routing tables of a split over more than one shard.
#[derive(Debug, Clone)]
struct Split {
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
    /// Panics when a trace split over more than one shard exceeds
    /// `u32::MAX` requests (the per-shard subsequences store 32-bit
    /// indices).
    pub fn build(trace: &DenseTrace, shard_count: usize) -> Result<ShardedTrace, ShardConfigError> {
        webcache_core::validate_shard_count(shard_count)?;
        let distinct = trace.distinct_documents();
        if shard_count == 1 {
            return Ok(ShardedTrace {
                shard_count,
                requests: trace.len(),
                per_shard_distinct: vec![distinct],
                split: None,
            });
        }
        assert!(
            trace.len() <= u32::MAX as usize,
            "trace too long for 32-bit request indices"
        );
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
            requests: trace.len(),
            per_shard_distinct,
            split: Some(Split {
                shard_of_slot,
                local_slot,
                global_of_local,
                shard_requests,
            }),
        })
    }

    /// The shard count this view was built for.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard owning global document `slot`.
    pub fn shard_of_slot(&self, slot: u32) -> usize {
        self.split
            .as_ref()
            .map_or(0, |split| split.shard_of_slot[slot as usize] as usize)
    }

    /// Distinct documents routed to each shard.
    pub fn per_shard_distinct(&self) -> &[usize] {
        &self.per_shard_distinct
    }

    /// Requests routed to shard `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.split
            .as_ref()
            .map_or(self.requests, |split| split.shard_requests[shard].len())
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
    /// Optional per-shard flight-recorder reason channels, cloned onto
    /// each pass's engine (see [`ShardedEngine::with_dense_shards`]).
    /// Pair shard `s`'s channels with its observer's
    /// [`FlightObserver::with_reasons`](crate::FlightObserver::with_reasons);
    /// nothing else drains them. `None` pushes no reasons.
    pub reasons: Option<Vec<ShardReasons>>,
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
            reasons: None,
        }
    }

    /// Installs per-shard lock probes (one per shard; see
    /// [`ShardedEngine::set_lock_probes`]).
    #[must_use]
    pub fn with_lock_probes(mut self, probes: Vec<ShardLockProbe>) -> ConcurrentSimulator {
        self.lock_probes = Some(probes);
        self
    }

    /// Installs per-shard reason channels (one pair per shard).
    #[must_use]
    pub fn with_reasons(mut self, reasons: Vec<ShardReasons>) -> ConcurrentSimulator {
        self.reasons = Some(reasons);
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
        let mut observers = vec![NoopObserver; sharded.shard_count()];
        self.run_sharded_observed(trace, sharded, clients, &mut observers, None, None)
    }

    /// Like [`ConcurrentSimulator::run_sharded`], with `observers[s]`
    /// seeing shard `s`'s events. The observers stay the caller's, so
    /// their state carries over into the next replay. Events carry
    /// **global** request indices and **global** document slots, so
    /// per-shard observers see the same event values as a serial
    /// observer would — only partitioned, each shard's stream in trace
    /// order.
    ///
    /// `rate` throttles the aggregate request rate (split across
    /// clients in proportion to their share of the trace); `shutdown`
    /// is checked every 128 requests, and a raised flag abandons the
    /// rest of the replay and marks the report `completed: false`.
    ///
    /// # Panics
    ///
    /// Panics when `observers.len()` differs from the shard count.
    pub fn run_sharded_observed<O: Observer + Send>(
        &self,
        trace: &DenseTrace,
        sharded: &ShardedTrace,
        clients: usize,
        observers: &mut [O],
        rate: Option<f64>,
        shutdown: Option<&AtomicBool>,
    ) -> ConcurrentReport {
        let shards = sharded.shard_count();
        assert_eq!(observers.len(), shards, "one observer per shard");
        let clients = clients.clamp(1, shards);
        let started = Instant::now();
        let mut engine = ShardedEngine::with_dense_shards(
            self.config.capacity,
            self.spec,
            sharded.per_shard_distinct(),
            self.reasons.as_deref(),
        )
        .expect("ShardedTrace shard count is validated");
        if let Some(probes) = &self.lock_probes {
            engine.set_lock_probes(probes.clone());
        }
        let engine = engine;
        let config = self.config;
        let warmup_end = ((trace.len() as f64) * config.warmup_fraction).floor() as usize;

        let mut owned: Vec<Vec<(usize, &mut O)>> = (0..clients).map(|_| Vec::new()).collect();
        for (shard, observer) in observers.iter_mut().enumerate() {
            owned[shard % clients].push((shard, observer));
        }
        let mut outcomes: Vec<Option<ShardOutcome>> = (0..shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = owned
                .into_iter()
                .map(|owned| {
                    let engine = &engine;
                    scope.spawn(move || {
                        let client_requests: usize =
                            owned.iter().map(|&(s, _)| sharded.shard_len(s)).sum();
                        let mut throttle = rate.filter(|_| client_requests > 0).map(|r| {
                            Throttle::new(r * client_requests as f64 / trace.len().max(1) as f64)
                        });
                        let mut results = Vec::with_capacity(owned.len());
                        for (shard, observer) in owned {
                            let outcome = engine.with_shard(shard, |cache| {
                                let replay = if sharded.split.is_some() {
                                    replay_shard::<false, O>
                                } else {
                                    replay_shard::<true, O>
                                };
                                replay(
                                    cache,
                                    engine,
                                    trace,
                                    sharded,
                                    shard,
                                    warmup_end,
                                    config,
                                    observer,
                                    throttle.as_mut(),
                                    shutdown,
                                )
                            });
                            let completed = outcome.completed;
                            results.push(outcome);
                            if !completed {
                                break;
                            }
                        }
                        results
                    })
                })
                .collect();
            for handle in handles {
                for outcome in handle.join().expect("client thread") {
                    let shard = outcome.summary.shard;
                    outcomes[shard] = Some(outcome);
                }
            }
        });

        let mut by_type: TypeMap<HitStats> = TypeMap::default();
        let mut per_shard = Vec::with_capacity(shards);
        let mut requests = 0u64;
        let mut completed = true;
        for outcome in outcomes {
            let Some(outcome) = outcome else {
                // A client abandoned its remaining shards on shutdown.
                completed = false;
                continue;
            };
            completed &= outcome.completed;
            requests += outcome.summary.requests;
            for (ty, stats) in outcome.summary.by_type.iter() {
                by_type[ty] += *stats;
            }
            per_shard.push(outcome.summary);
        }

        ConcurrentReport {
            policy: engine.policy_label(),
            config,
            shards,
            clients,
            requests,
            elapsed: started.elapsed(),
            completed,
            per_shard,
            by_type,
        }
    }
}

/// What [`replay_shard`] hands back per shard.
struct ShardOutcome {
    summary: ShardSummary,
    completed: bool,
}

/// The per-shard hot loop: the serial dense replay specialized to one
/// shard's subsequence. `WHOLE` is the one-shard identity split: the
/// shard replays every request and addresses documents by their global
/// slots, with no routing tables to read. Holds the shard lock (the
/// caller passes the locked cache) and publishes counter deltas every
/// [`PUBLISH_EVERY`] requests.
#[allow(clippy::too_many_arguments)]
fn replay_shard<const WHOLE: bool, O: Observer>(
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
    let (indices, local, global_of): (&[u32], &[u32], &[u32]) = match &sharded.split {
        Some(split) if !WHOLE => (
            &split.shard_requests[shard],
            &split.local_slot,
            &split.global_of_local[shard],
        ),
        _ => (&[], &[], &[]),
    };
    let requests = sharded.shard_len(shard);
    let distinct = sharded.per_shard_distinct[shard];
    observer.on_run_start(RunMeta {
        total_requests: requests,
        warmup_end,
        capacity: engine.shard_capacity(),
    });

    let slots = trace.docs();
    let sizes = trace.sizes();
    let types = trace.type_indices();

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

    for start in (0..requests).step_by(PUBLISH_EVERY) {
        if shutdown.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            completed = false;
            break;
        }
        let end = (start + PUBLISH_EVERY).min(requests);
        let mut chunk_hits = 0u64;
        let mut chunk_bytes_hit = 0u64;
        let mut chunk_bytes = 0u64;
        for gi in (start..end).map(|i| if WHOLE { i } else { indices[i] as usize }) {
            let global_slot = slots[gi];
            let slot = if WHOLE {
                global_slot
            } else {
                local[global_slot as usize]
            };
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
                if !WHOLE {
                    // The cache addresses documents by shard-local slot;
                    // translate victims back to global slots so observers
                    // see the same document ids a serial replay would.
                    for eviction in &mut evicted {
                        eviction.doc =
                            DenseTrace::slot_doc(global_of[eviction.doc.as_u64() as usize]);
                    }
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

        let chunk = (end - start) as u64;
        summary.requests += chunk;
        summary.hits += chunk_hits;
        summary.bytes_requested += chunk_bytes;
        summary.bytes_hit += chunk_bytes_hit;
        engine
            .counters(shard)
            .add_bulk(chunk, chunk_hits, chunk_bytes, chunk_bytes_hit);
        if let Some(t) = throttle.as_deref_mut() {
            t.pace(chunk, shutdown);
        }
    }
    observer.on_run_end();
    summary.by_type = by_type;
    ShardOutcome { summary, completed }
}

/// Sleeps as needed to hold one client's target request rate. Checked
/// once per [`PUBLISH_EVERY`] requests; never sleeps once the shutdown
/// flag is up, so a throttled pass drains quickly on Ctrl-C.
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

    /// Counts `just_done` more requests and returns how long to sleep
    /// so that, `elapsed` after the start, the client is not ahead of
    /// its rate (`None` when it is not).
    fn sleep_due(&mut self, just_done: u64, elapsed: Duration) -> Option<Duration> {
        self.done += just_done;
        let due =
            Duration::try_from_secs_f64(self.done as f64 / self.per_sec).unwrap_or(Duration::MAX);
        due.checked_sub(elapsed).filter(|nap| !nap.is_zero())
    }

    fn pace(&mut self, just_done: u64, shutdown: Option<&AtomicBool>) {
        let elapsed = self.started.elapsed();
        if let Some(nap) = self.sleep_due(just_done, elapsed) {
            if !shutdown.is_some_and(|f| f.load(Ordering::Relaxed)) {
                std::thread::sleep(nap);
            }
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

/// The continuous replay driver — the `webcache serve` engine, at one
/// shard or many. Each pass replays one trace from the source through a
/// fresh engine; shutdown is honored between passes *and* every 128
/// requests within a pass (an interrupted pass is discarded, not
/// reported).
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
    /// Optional per-shard reason channels, shared across every pass's
    /// engine (see [`ConcurrentSimulator::reasons`]).
    pub reasons: Option<Vec<ShardReasons>>,
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
        let mut observers = vec![NoopObserver; self.shards];
        self.run_observed(source, status, shutdown, &mut observers, on_pass)
    }

    /// Like [`ShardedReplayLoop::run`], with `observers[s]` seeing shard
    /// `s`'s events on every pass (see
    /// [`ConcurrentSimulator::run_sharded_observed`]). Observers persist
    /// across passes, so windowed baselines, rings and totals keep their
    /// history while the caches restart cold.
    ///
    /// # Errors
    ///
    /// [`ShardConfigError`] for an invalid shard count.
    ///
    /// # Panics
    ///
    /// Panics when `observers.len()` differs from the shard count.
    pub fn run_observed<S, O, F>(
        &self,
        source: &mut S,
        status: &LiveStatus,
        shutdown: &AtomicBool,
        observers: &mut [O],
        mut on_pass: F,
    ) -> Result<LiveSummary, ShardConfigError>
    where
        S: TraceSource,
        O: Observer + Send,
        F: FnMut(&ConcurrentPassSummary),
    {
        webcache_core::validate_shard_count(self.shards)?;
        assert_eq!(observers.len(), self.shards, "one observer per shard");
        let simulator = ConcurrentSimulator {
            spec: self.spec,
            config: self.config,
            lock_probes: self.lock_probes.clone(),
            reasons: self.reasons.clone(),
        };
        status.set_replaying(true);
        let mut passes = 0u64;
        let mut requests = 0u64;
        while !shutdown.load(Ordering::Relaxed) && self.max_passes.is_none_or(|max| passes < max) {
            let Some(dense) = source.next_pass(passes) else {
                break;
            };
            // Rebuilt per pass: stream sources hand out a new trace each
            // epoch, and the split is one O(n) sweep — noise next to the
            // replay itself (and nothing at one shard).
            let sharded = ShardedTrace::build(dense, self.shards)?;
            let report = simulator.run_sharded_observed(
                dense,
                &sharded,
                self.clients,
                observers,
                self.rate,
                Some(shutdown),
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
    use crate::live::{FixedSource, LiveState};
    use crate::observe::AccessKind;
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

    /// An LRU serve loop over `shards` shards (one client per shard).
    fn serve_loop(shards: usize, max_passes: Option<u64>) -> ShardedReplayLoop {
        ShardedReplayLoop {
            config: SimulationConfig::builder()
                .capacity(ByteSize::from_kib(8))
                .warmup_fraction(0.0)
                .build(),
            spec: PolicyKind::Lru.into(),
            rate: None,
            max_passes,
            shards,
            clients: shards,
            lock_probes: None,
            reasons: None,
        }
    }

    #[test]
    fn sharded_trace_partitions_everything_exactly_once() {
        let dense = DenseTrace::build(&mixed_trace(1_000, 97));
        let sharded = ShardedTrace::build(&dense, 8).unwrap();
        let total: usize = (0..8).map(|s| sharded.shard_len(s)).sum();
        assert_eq!(total, dense.len());
        let distinct: usize = sharded.per_shard_distinct().iter().sum();
        assert_eq!(distinct, dense.distinct_documents());
        let split = sharded.split.as_ref().expect("eight shards are split");
        // Every request's shard matches its document's shard.
        for (index, &slot) in dense.docs().iter().enumerate() {
            let shard = sharded.shard_of_slot(slot);
            assert!(split.shard_requests[shard].contains(&(index as u32)));
        }
        // Subsequences are in trace order.
        for s in 0..8 {
            assert!(split.shard_requests[s].windows(2).all(|w| w[0] < w[1]));
        }
        assert!(ShardedTrace::build(&dense, 3).is_err());
        assert!(ShardedTrace::build(&dense, 0).is_err());
    }

    #[test]
    fn one_shard_split_is_the_identity_and_stores_nothing() {
        let dense = DenseTrace::build(&mixed_trace(1_000, 97));
        let whole = ShardedTrace::build(&dense, 1).unwrap();
        assert!(whole.split.is_none());
        assert_eq!(whole.shard_len(0), dense.len());
        assert_eq!(whole.per_shard_distinct(), &[dense.distinct_documents()]);
        assert!(dense
            .docs()
            .iter()
            .all(|&slot| whole.shard_of_slot(slot) == 0));
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
        let report = ConcurrentSimulator::new(PolicyKind::Lru, config(10_000))
            .run_sharded_observed(
                &dense,
                &sharded,
                2,
                &mut [NoopObserver; 4],
                None,
                Some(&flag),
            );
        assert!(!report.completed);
        assert_eq!(report.requests, 0, "flag was up before the first request");
    }

    #[test]
    fn throttle_requests_the_sleep_that_holds_its_rate() {
        // 1000 req/s: 128 requests are due 128 ms after the start.
        let mut throttle = Throttle::new(1_000.0);
        assert_eq!(
            throttle.sleep_due(128, Duration::ZERO),
            Some(Duration::from_millis(128))
        );
        assert_eq!(
            throttle.sleep_due(128, Duration::from_millis(200)),
            Some(Duration::from_millis(56))
        );
        // Behind schedule: no sleep.
        assert_eq!(throttle.sleep_due(128, Duration::from_millis(400)), None);
        assert_eq!(throttle.sleep_due(0, Duration::from_millis(384)), None);
        // A vanishing rate saturates instead of overflowing.
        let mut crawl = Throttle::new(0.0);
        assert_eq!(
            crawl.sleep_due(u64::MAX, Duration::ZERO),
            Some(Duration::MAX)
        );
    }

    #[test]
    fn throttled_replay_completes_with_the_unthrottled_report() {
        let dense = DenseTrace::build(&mixed_trace(600, 31));
        let sharded = ShardedTrace::build(&dense, 2).unwrap();
        let sim = ConcurrentSimulator::new(PolicyKind::Lru, config(8_000));
        let report = sim.run_sharded_observed(
            &dense,
            &sharded,
            2,
            &mut [NoopObserver; 2],
            Some(1e12),
            None,
        );
        assert!(report.completed);
        assert_eq!(
            report.by_type(),
            sim.run_sharded(&dense, &sharded, 2).by_type()
        );
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
    fn sharded_loop_runs_passes_and_reports_status() {
        let trace = mixed_trace(800, 67);
        let mut source = FixedSource::new(&trace);
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(false);
        let mut seen = Vec::new();
        let summary = ShardedReplayLoop {
            config: config(8_000),
            ..serve_loop(4, Some(3))
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
            clients: 2,
            ..serve_loop(6, Some(1))
        }
        .run(&mut source, &status, &shutdown, |_| {})
        .unwrap_err();
        assert_eq!(err, ShardConfigError::NotPowerOfTwo(6));
    }

    #[test]
    fn bounded_loop_runs_exactly_max_passes() {
        for shards in [1, 2] {
            let mut source = FixedSource::new(&mixed_trace(200, 16));
            let status = LiveStatus::new();
            let shutdown = AtomicBool::new(false);
            let mut pass_indices = Vec::new();
            let summary = serve_loop(shards, Some(3))
                .run(&mut source, &status, &shutdown, |pass| {
                    pass_indices.push(pass.pass)
                })
                .unwrap();
            assert_eq!(summary.passes, 3, "{shards} shards");
            assert_eq!(summary.requests, 600);
            assert_eq!(pass_indices, vec![0, 1, 2]);
            assert_eq!(status.passes(), 3);
            assert_eq!(status.requests(), 600);
            assert_eq!(status.state(), LiveState::Done);
            assert!(status.last_pass_req_per_sec() > 0.0);
        }
    }

    #[test]
    fn status_is_starting_before_replaying_during_and_done_after() {
        for shards in [1, 2] {
            let mut source = FixedSource::new(&mixed_trace(100, 16));
            let status = LiveStatus::new();
            assert_eq!(status.state(), LiveState::Starting);
            assert!(!status.replaying(), "not yet replaying");
            let mut during = Vec::new();
            serve_loop(shards, Some(2))
                .run(&mut source, &status, &AtomicBool::new(false), |_| {
                    during.push(status.state().label())
                })
                .unwrap();
            assert_eq!(during, vec!["replaying", "replaying"], "{shards} shards");
            assert_eq!(status.state().label(), "done");
        }
    }

    #[test]
    fn observers_persist_across_passes() {
        #[derive(Debug, Default)]
        struct CountRuns {
            starts: u64,
            accesses: u64,
        }
        impl Observer for CountRuns {
            fn on_run_start(&mut self, _meta: RunMeta) {
                self.starts += 1;
            }
            fn on_access(&mut self, _e: AccessEvent, _k: AccessKind) {
                self.accesses += 1;
            }
        }
        for shards in [1, 2] {
            let mut source = FixedSource::new(&mixed_trace(100, 16));
            let mut observers: Vec<CountRuns> = (0..shards).map(|_| CountRuns::default()).collect();
            serve_loop(shards, Some(4))
                .run_observed(
                    &mut source,
                    &LiveStatus::new(),
                    &AtomicBool::new(false),
                    &mut observers,
                    |_| {},
                )
                .unwrap();
            for observer in &observers {
                assert_eq!(observer.starts, 4, "one run start per pass per shard");
            }
            let accesses: u64 = observers.iter().map(|o| o.accesses).sum();
            assert_eq!(accesses, 400, "state accumulated across passes");
        }
    }

    #[test]
    fn raised_shutdown_flag_stops_before_the_first_pass() {
        for shards in [1, 2] {
            let mut source = FixedSource::new(&mixed_trace(100, 16));
            let status = LiveStatus::new();
            let summary = serve_loop(shards, None)
                .run(&mut source, &status, &AtomicBool::new(true), |_| {})
                .unwrap();
            assert_eq!(summary.passes, 0);
            assert_eq!(status.state(), LiveState::Done);
        }
    }

    #[test]
    fn shutdown_from_the_pass_callback_ends_an_unbounded_loop() {
        for shards in [1, 2] {
            let mut source = FixedSource::new(&mixed_trace(50, 16));
            let shutdown = AtomicBool::new(false);
            let summary = serve_loop(shards, None)
                .run(&mut source, &LiveStatus::new(), &shutdown, |pass| {
                    if pass.pass == 1 {
                        shutdown.store(true, Ordering::Relaxed);
                    }
                })
                .unwrap();
            assert_eq!(summary.passes, 2, "flag honored between passes");
        }
    }

    #[test]
    fn dry_source_ends_the_loop() {
        struct TwoPasses(DenseTrace);
        impl TraceSource for TwoPasses {
            fn next_pass(&mut self, pass: u64) -> Option<&DenseTrace> {
                (pass < 2).then_some(&self.0)
            }
        }
        for shards in [1, 2] {
            let mut source = TwoPasses(DenseTrace::build(&mixed_trace(30, 16)));
            let summary = serve_loop(shards, None)
                .run(
                    &mut source,
                    &LiveStatus::new(),
                    &AtomicBool::new(false),
                    |_| {},
                )
                .unwrap();
            assert_eq!(summary.passes, 2);
            assert_eq!(summary.requests, 60);
        }
    }
}
