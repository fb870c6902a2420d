//! Clairvoyant (Belady-style) reference point.
//!
//! An offline "policy" that knows the future: on replacement it evicts
//! the resident document whose next reference is furthest away (never
//! referenced again first, largest size as tie-break). For uniform
//! object sizes this is Belady's provably optimal MIN; with variable
//! sizes the greedy variant is no longer optimal (the problem becomes
//! NP-hard) but remains the standard upper-bound comparator in the web
//! caching literature.
//!
//! The oracle shares the online simulator's methodology (warm-up,
//! modification rule) so its hit rates are directly comparable to
//! [`Simulator`](crate::Simulator) reports — "GD\*(1) reaches 87 % of
//! clairvoyant" is a more informative statement than any absolute
//! number.

use std::collections::HashMap;

use webcache_core::pqueue::IndexedHeap;
use webcache_trace::{FxHashMap, Trace, TypeMap};

use crate::metrics::HitStats;
use crate::simulator::{ModificationRule, SimulationConfig};

/// Runs the clairvoyant policy over `trace` under `config` (capacity,
/// warm-up and modification rule are honoured; occupancy sampling and
/// admission rules are ignored).
///
/// Returns per-type hit statistics, comparable to an online
/// [`SimulationReport`](crate::SimulationReport)'s.
pub fn clairvoyant(trace: &Trace, config: &SimulationConfig) -> TypeMap<HitStats> {
    // Precompute each request's next-reference index: next_use[i] is the
    // position of the next request to the same document, or u64::MAX.
    let n = trace.len();
    let mut next_use = vec![u64::MAX; n];
    let mut last_pos: HashMap<u64, usize> = HashMap::new();
    for (i, r) in trace.iter().enumerate() {
        if let Some(prev) = last_pos.insert(r.doc.as_u64(), i) {
            next_use[prev] = i as u64;
        }
    }

    // Max-heap on next use: evict the latest-next-use document first.
    // Key: (u64::MAX - next_use, then smaller size last). PriorityKey is
    // private to core; a plain tuple key works with IndexedHeap.
    let mut heap: IndexedHeap<u64, (i64, i64)> = IndexedHeap::new();
    let mut resident_size: HashMap<u64, u64> = HashMap::new();
    let mut used = 0u64;
    let capacity = config.capacity.as_u64();
    let warmup_end = trace.warmup_boundary(config.warmup_fraction);
    let rule: ModificationRule = config.modification_rule;
    let mut last_transfer: HashMap<u64, u64> = HashMap::new();
    let mut by_type: TypeMap<HitStats> = TypeMap::default();

    // Smaller key pops first. We want to *keep* soon-needed documents and
    // evict far-future ones, so key = -(next_use) (far future pops first),
    // tie: larger documents pop first (free more bytes per eviction).
    let key_of = |next: u64, size: u64| -> (i64, i64) {
        let next = next.min(i64::MAX as u64 - 1);
        (-(next as i64), -(size as i64))
    };

    for (i, r) in trace.iter().enumerate() {
        let doc = r.doc.as_u64();
        let transfer = r.size.as_u64();
        let prev = last_transfer.insert(doc, transfer);
        let modified = prev.is_some_and(|p| rule.is_modification(p, transfer));

        let resident = resident_size.contains_key(&doc);
        let hit = resident && !modified;

        if modified && resident {
            let size = resident_size.remove(&doc).expect("resident");
            used -= size;
            heap.remove(doc);
        }

        if hit {
            // Refresh the document's key to its new next use.
            heap.update(doc, key_of(next_use[i], resident_size[&doc]));
        } else {
            // Fetch and admit, evicting far-future documents as needed.
            let size = transfer;
            if size <= capacity {
                // A clairvoyant cache never stores a dead document.
                if next_use[i] != u64::MAX {
                    while used + size > capacity {
                        let (victim, _) = heap.pop_min().expect("over budget => non-empty");
                        used -= resident_size.remove(&victim).expect("resident");
                    }
                    resident_size.insert(doc, size);
                    used += size;
                    heap.insert(doc, key_of(next_use[i], size));
                }
            }
        }

        if i >= warmup_end {
            let stats = &mut by_type[r.doc_type];
            stats.record(r.size, hit);
            if modified {
                stats.modification_misses += 1;
            }
        }
    }
    by_type
}

/// Convenience: the overall clairvoyant hit statistics.
pub fn clairvoyant_overall(trace: &Trace, config: &SimulationConfig) -> HitStats {
    let mut total = HitStats::default();
    for (_, s) in clairvoyant(trace, config).iter() {
        total += *s;
    }
    total
}

/// No next reference.
const NONE: u64 = u64::MAX;

/// The clairvoyant policy over short windows of requests, with work
/// buffers reused from one window to the next.
///
/// [`hits`](WindowedClairvoyant::hits) counts exactly the hits that
/// [`clairvoyant_overall`] reports for the same window replayed with no
/// warm-up, but it is built for being called over and over (the regret
/// tracker runs it every few thousand requests):
///
/// * documents are interned into window-local slots through an
///   [`FxHashMap`], so the rest of the replay indexes plain vectors;
/// * next uses come from one backward pass over the local slots;
/// * a resident document is keyed by the position of its next request.
///   Those positions are unique, so the resident set is a bit set over
///   window positions and "furthest next use" is its highest set bit
///   (a two-level bitmap: O(1) insert, remove and max);
/// * documents never requested again go first, from a stack. Their
///   order (the oracle's size tie-break) cannot change a hit: a live
///   document is evicted only once every dead one is gone, i.e. exactly
///   when the live bytes plus the newcomer exceed the capacity, so the
///   live set evolves the same under any order of the dead.
///
/// Once the first window of a given length has run, no call allocates.
#[derive(Debug, Default)]
pub struct WindowedClairvoyant {
    intern: FxHashMap<u64, u32>,
    /// Window-local slot and transfer size of each request.
    requests: Vec<(u32, u64)>,
    next_use: Vec<u64>,
    /// Per local slot: position of its next request (backward pass),
    /// last transfer size and resident size.
    later: Vec<u64>,
    last_transfer: Vec<Option<u64>>,
    resident: Vec<Option<u64>>,
    /// Next-use positions of the resident documents that have one.
    pending: PositionSet,
    /// Resident documents with no next use, by local slot.
    dead: Vec<u32>,
}

impl WindowedClairvoyant {
    /// An empty replayer; buffers grow on the first call.
    pub fn new() -> WindowedClairvoyant {
        WindowedClairvoyant::default()
    }

    /// Clairvoyant hits over `window`, a run of `(doc, transfer size)`
    /// requests, for a cache of `capacity` bytes under `rule`. Every
    /// request is measured: this equals `clairvoyant_overall(..).hits`
    /// on the same requests with a zero warm-up fraction.
    pub fn hits(
        &mut self,
        window: impl IntoIterator<Item = (u64, u64)>,
        capacity: u64,
        rule: ModificationRule,
    ) -> u64 {
        self.intern.clear();
        self.requests.clear();
        for (doc, size) in window {
            let next = self.intern.len() as u32;
            let slot = *self.intern.entry(doc).or_insert(next);
            self.requests.push((slot, size));
        }
        let docs = self.intern.len();
        self.later.clear();
        self.later.resize(docs, NONE);
        self.last_transfer.clear();
        self.last_transfer.resize(docs, None);
        self.resident.clear();
        self.resident.resize(docs, None);
        self.next_use.clear();
        self.next_use.resize(self.requests.len(), NONE);
        for (i, &(slot, _)) in self.requests.iter().enumerate().rev() {
            self.next_use[i] = self.later[slot as usize];
            self.later[slot as usize] = i as u64;
        }
        self.pending.reset(self.requests.len());
        self.dead.clear();

        let mut used = 0u64;
        let mut hits = 0u64;
        for (i, &(slot, transfer)) in self.requests.iter().enumerate() {
            let s = slot as usize;
            let prev = self.last_transfer[s].replace(transfer);
            let modified = prev.is_some_and(|p| rule.is_modification(p, transfer));
            let next = self.next_use[i];
            // A resident document is keyed by its next use, which is
            // this very request.
            if let Some(size) = self.resident[s] {
                self.pending.remove(i);
                if !modified {
                    hits += 1;
                    match next {
                        NONE => self.dead.push(slot),
                        at => self.pending.insert(at as usize),
                    }
                    continue;
                }
                // Stale copy: drop it and fetch the new version.
                self.resident[s] = None;
                used -= size;
            }
            // Miss: admit unless too large or dead, evicting the
            // furthest next use first.
            if transfer > capacity || next == NONE {
                continue;
            }
            while used + transfer > capacity {
                let victim = match self.dead.pop() {
                    Some(victim) => victim,
                    None => {
                        let at = self.pending.max().expect("over budget => resident docs");
                        self.pending.remove(at);
                        self.requests[at].0
                    }
                };
                used -= self.resident[victim as usize]
                    .take()
                    .expect("victims are resident");
            }
            self.resident[s] = Some(transfer);
            self.pending.insert(next as usize);
            used += transfer;
        }
        hits
    }
}

/// A set of positions `0..n` as a two-level bitmap: one bit per
/// position, one summary bit per non-empty word.
#[derive(Debug, Default)]
struct PositionSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl PositionSet {
    /// Empties the set and sizes it for positions `0..n`.
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.summary.clear();
        self.summary.resize(self.words.len().div_ceil(64), 0);
    }

    fn insert(&mut self, at: usize) {
        let w = at / 64;
        self.words[w] |= 1 << (at % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    fn remove(&mut self, at: usize) {
        let w = at / 64;
        self.words[w] &= !(1 << (at % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    /// The highest position in the set.
    fn max(&self) -> Option<usize> {
        let (s, &bits) = self
            .summary
            .iter()
            .enumerate()
            .rev()
            .find(|&(_, &bits)| bits != 0)?;
        let w = s * 64 + highest_bit(bits);
        Some(w * 64 + highest_bit(self.words[w]))
    }
}

fn highest_bit(bits: u64) -> usize {
    63 - bits.leading_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use webcache_core::PolicyKind;
    use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp};

    fn trace(docs: &[u64]) -> Trace {
        docs.iter()
            .enumerate()
            .map(|(i, &d)| {
                Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(d),
                    DocumentType::Html,
                    ByteSize::new(100),
                )
            })
            .collect()
    }

    fn config(capacity: u64) -> SimulationConfig {
        SimulationConfig::new(ByteSize::new(capacity)).with_warmup_fraction(0.0)
    }

    #[test]
    fn textbook_belady_beats_lru() {
        // The classic pattern where LRU fails and MIN succeeds:
        // cyclic a b c with capacity 2 blocks.
        let t = trace(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let oracle = clairvoyant_overall(&t, &config(200));
        let lru = crate::Simulator::new(PolicyKind::Lru.build(), config(200))
            .run(&t)
            .overall();
        assert_eq!(lru.hits, 0, "LRU thrashes on the cycle");
        assert!(oracle.hits >= 3, "MIN keeps one document across the cycle");
    }

    #[test]
    fn infinite_capacity_matches_compulsory_miss_bound() {
        let t = trace(&[0, 1, 0, 2, 1, 0, 3, 2, 1, 0]);
        let oracle = clairvoyant_overall(&t, &config(1_000_000));
        assert_eq!(oracle.requests - oracle.hits, t.distinct_documents() as u64);
    }

    #[test]
    fn oracle_dominates_every_online_policy_uniform_sizes() {
        // Pseudo-random uniform-size stream; clairvoyant MIN must beat or
        // match every online policy at every capacity.
        let mut state = 2024u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % 40
        };
        let stream: Vec<u64> = (0..2_000).map(|_| next()).collect();
        let t = trace(&stream);
        for blocks in [5u64, 10, 20] {
            let cap = blocks * 100;
            let oracle = clairvoyant_overall(&t, &config(cap));
            for kind in PolicyKind::ALL {
                let online = crate::Simulator::new(kind.build(), config(cap))
                    .run(&t)
                    .overall();
                assert!(
                    oracle.hits >= online.hits,
                    "{kind} beat the oracle at {blocks} blocks: {} vs {}",
                    online.hits,
                    oracle.hits
                );
            }
        }
    }

    #[test]
    fn dead_documents_are_never_cached() {
        // Single-shot documents waste no space: a tiny cache still hits
        // every re-reference of the one hot document.
        let t = trace(&[0, 1, 0, 2, 0, 3, 0, 4, 0]);
        let oracle = clairvoyant_overall(&t, &config(100));
        assert_eq!(oracle.hits, 4, "all re-references of doc 0 hit");
    }

    #[test]
    fn modifications_count_as_misses() {
        let t: Trace = vec![
            Request::new(
                Timestamp::ZERO,
                DocId::new(1),
                DocumentType::Html,
                ByteSize::new(100),
            ),
            Request::new(
                Timestamp::ZERO,
                DocId::new(1),
                DocumentType::Html,
                ByteSize::new(102),
            ),
            Request::new(
                Timestamp::ZERO,
                DocId::new(1),
                DocumentType::Html,
                ByteSize::new(102),
            ),
        ]
        .into();
        let oracle = clairvoyant_overall(&t, &config(1_000));
        assert_eq!(oracle.hits, 1);
        assert_eq!(oracle.modification_misses, 1);
    }

    #[test]
    fn warmup_is_honoured() {
        let t = trace(&[0, 0, 0, 0]);
        let stats = clairvoyant_overall(
            &t,
            &SimulationConfig::new(ByteSize::new(1_000)).with_warmup_fraction(0.5),
        );
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.hits, 2);
    }

    /// One request of a generated window: a document and how its size
    /// moves relative to the document's base size.
    #[derive(Debug, Clone, Copy)]
    enum Resize {
        Same,
        /// Under 5%: a modification under the paper's rule.
        Nudge,
        /// Over 5%: an interrupted transfer under the paper's rule.
        Jump,
        Zero,
        /// Larger than any capacity tried.
        Huge,
    }

    fn window_strategy() -> impl Strategy<Value = Vec<(u64, Resize)>> {
        let resize = (0u8..10).prop_map(|r| match r {
            0 => Resize::Nudge,
            1 => Resize::Jump,
            2 => Resize::Zero,
            3 => Resize::Huge,
            _ => Resize::Same,
        });
        proptest::collection::vec((0u64..48, resize), 0..400)
    }

    fn sized(window: &[(u64, Resize)]) -> Vec<(u64, u64)> {
        window
            .iter()
            .map(|&(doc, resize)| {
                let base = 100 + (doc % 9) * 150;
                let size = match resize {
                    Resize::Same => base,
                    Resize::Nudge => base + base / 50,
                    Resize::Jump => base * 2,
                    Resize::Zero => 0,
                    Resize::Huge => 1 << 40,
                };
                (doc, size)
            })
            .collect()
    }

    fn as_trace(requests: &[(u64, u64)]) -> Trace {
        requests
            .iter()
            .enumerate()
            .map(|(i, &(doc, size))| {
                Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(doc),
                    DocumentType::ALL[(doc % 5) as usize],
                    ByteSize::new(size),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The windowed replayer counts exactly the oracle's hits, window
        /// after window on one reused instance, under both modification
        /// rules and for capacities from one document to the whole
        /// window's bytes.
        #[test]
        fn windowed_clairvoyant_matches_oracle(
            windows in proptest::collection::vec(window_strategy(), 1..4),
            fraction in 0.0f64..1.0,
            any_change in 0u8..2,
        ) {
            let rule = if any_change == 1 {
                ModificationRule::AnyChange
            } else {
                ModificationRule::SizeDelta
            };
            let mut windowed = WindowedClairvoyant::new();
            for window in &windows {
                let requests = sized(window);
                let total: u64 = requests
                    .iter()
                    .map(|&(_, size)| size)
                    .filter(|&size| size < 1 << 40)
                    .sum();
                for capacity in [0, 100, 1_400, (total as f64 * fraction) as u64, total] {
                    let config = SimulationConfig::new(ByteSize::new(capacity))
                        .with_warmup_fraction(0.0)
                        .with_modification_rule(rule);
                    let expected = clairvoyant_overall(&as_trace(&requests), &config);
                    let hits = windowed.hits(requests.iter().copied(), capacity, rule);
                    prop_assert_eq!(hits, expected.hits, "capacity {}", capacity);
                    let n = requests.len() as f64;
                    if n > 0.0 {
                        prop_assert_eq!(
                            (hits as f64 / n).to_bits(),
                            expected.hit_rate().to_bits()
                        );
                    }
                }
            }
        }
    }
}
