//! Continuous replay plumbing shared by `webcache serve`: what feeds
//! each pass and how progress is published.
//!
//! The pass driver is [`ShardedReplayLoop`](crate::ShardedReplayLoop):
//! each pass replays one trace from a [`TraceSource`] through a fresh
//! sharded engine (one shard is the serial replay) until a shared
//! shutdown flag is raised, the pass budget is exhausted, or the source
//! runs dry.
//!
//! Liveness is published through a [`LiveStatus`] — a handful of atomics
//! (passes, requests, lifecycle state, last pass throughput) that an
//! HTTP `/healthz` handler can read from another thread without locking.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use webcache_trace::{DenseTrace, Trace};

/// Supplies the trace for each pass of a
/// [`ShardedReplayLoop`](crate::ShardedReplayLoop).
pub trait TraceSource {
    /// The trace for pass `pass` (0-based); `None` ends the loop.
    fn next_pass(&mut self, pass: u64) -> Option<&DenseTrace>;
}

/// Replays one fixed trace on every pass (`--trace <file>` mode).
#[derive(Debug)]
pub struct FixedSource {
    dense: DenseTrace,
}

impl FixedSource {
    /// Builds the dense view of `trace` once; every pass replays it.
    pub fn new(trace: &Trace) -> Self {
        FixedSource {
            dense: DenseTrace::build(trace),
        }
    }

    /// Wraps an already-built dense trace.
    pub fn from_dense(dense: DenseTrace) -> Self {
        FixedSource { dense }
    }
}

impl TraceSource for FixedSource {
    fn next_pass(&mut self, _pass: u64) -> Option<&DenseTrace> {
        Some(&self.dense)
    }
}

/// Where a replay loop is in its life, as `/healthz` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveState {
    /// The loop has not started replaying yet.
    Starting = 0,
    /// Passes are running.
    Replaying = 1,
    /// The loop has finished: pass budget spent, source dry or shutdown.
    Done = 2,
}

impl LiveState {
    /// Lower-case name, as published in `/healthz`.
    pub fn label(self) -> &'static str {
        match self {
            LiveState::Starting => "starting",
            LiveState::Replaying => "replaying",
            LiveState::Done => "done",
        }
    }

    fn from_u8(raw: u8) -> LiveState {
        match raw {
            0 => LiveState::Starting,
            1 => LiveState::Replaying,
            _ => LiveState::Done,
        }
    }
}

/// Replay progress readable from other threads without locking.
#[derive(Debug, Default)]
pub struct LiveStatus {
    passes: AtomicU64,
    requests: AtomicU64,
    /// [`LiveState`] as its discriminant; 0 (starting) until the loop
    /// begins.
    state: AtomicU8,
    /// `f64` bit pattern of the last completed pass's request rate.
    last_pass_rps: AtomicU64,
}

impl LiveStatus {
    /// Creates a zeroed status in the [`LiveState::Starting`] state.
    pub fn new() -> Self {
        LiveStatus::default()
    }

    /// Completed passes.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Requests replayed across all completed passes.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The loop's lifecycle state.
    pub fn state(&self) -> LiveState {
        LiveState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Whether the replay loop is currently running.
    pub fn replaying(&self) -> bool {
        self.state() == LiveState::Replaying
    }

    /// Requests per second of the last completed pass (0 before the
    /// first pass completes).
    pub fn last_pass_req_per_sec(&self) -> f64 {
        f64::from_bits(self.last_pass_rps.load(Ordering::Relaxed))
    }

    /// Flags the replay loop as running, or as done once it stops
    /// (replay-loop side). The done state is published with release
    /// ordering, so a reader that sees it also sees the final totals.
    pub(crate) fn set_replaying(&self, on: bool) {
        let state = if on {
            LiveState::Replaying
        } else {
            LiveState::Done
        };
        self.state.store(state as u8, Ordering::Release);
    }

    /// Publishes the totals after a completed pass (driver-side).
    pub(crate) fn record_pass(&self, passes: u64, requests: u64, req_per_sec: f64) {
        self.passes.store(passes, Ordering::Relaxed);
        self.requests.store(requests, Ordering::Relaxed);
        self.last_pass_rps
            .store(req_per_sec.to_bits(), Ordering::Relaxed);
    }
}

/// Totals for a finished loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveSummary {
    /// Passes completed.
    pub passes: u64,
    /// Requests replayed in total.
    pub requests: u64,
}
