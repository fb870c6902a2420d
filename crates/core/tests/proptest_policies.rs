//! Property tests for the cache engine: the capacity invariant, policy
//! conformance under arbitrary op sequences, heap correctness against a
//! reference model, and GreedyDual aging laws.

use std::collections::BTreeMap;

use proptest::prelude::*;

use webcache_core::policy::GdStar;
use webcache_core::pqueue::IndexedHeap;
use webcache_core::{AdmissionSpec, Cache, CostModel, PolicyKind};
use webcache_trace::{ByteSize, DocId, DocumentType};

#[derive(Debug, Clone)]
enum Op {
    Access(u64),
    Insert(u64, u8, u32),
    Invalidate(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64).prop_map(Op::Access),
        (0u64..64, 0u8..5, 1u32..5_000).prop_map(|(d, t, s)| Op::Insert(d, t, s)),
        (0u64..64).prop_map(Op::Invalidate),
    ]
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop::sample::select(PolicyKind::ALL.to_vec())
}

fn apply(cache: &mut Cache, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Access(d) => {
                cache.access(DocId::new(d));
            }
            Op::Insert(d, t, s) => {
                // Simulate the proxy: insert only on miss (access first).
                let doc = DocId::new(d);
                if !cache.access(doc) {
                    cache.insert(doc, DocumentType::ALL[t as usize], ByteSize::new(s as u64));
                }
            }
            Op::Invalidate(d) => {
                cache.invalidate(DocId::new(d));
            }
        }
    }
}

proptest! {
    /// Under arbitrary op sequences, every policy keeps the cache within
    /// capacity with consistent byte/occupancy accounting.
    #[test]
    fn cache_invariants_hold_for_all_policies(
        kind in arb_policy(),
        capacity in 1_000u64..50_000,
        ops in prop::collection::vec(arb_op(), 1..400),
    ) {
        let mut cache = Cache::new(ByteSize::new(capacity), kind.build(), AdmissionSpec::All);
        apply(&mut cache, &ops);
        cache.debug_validate();
        prop_assert!(cache.used_bytes() <= cache.capacity());
    }

    /// Cache behaviour is a pure function of the op sequence.
    #[test]
    fn cache_is_deterministic(
        kind in arb_policy(),
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let run = || {
            let mut cache = Cache::new(ByteSize::new(10_000), kind.build(), AdmissionSpec::All);
            apply(&mut cache, &ops);
            let mut docs: Vec<u64> = (0..64)
                .filter(|&d| cache.contains(DocId::new(d)))
                .collect();
            docs.sort_unstable();
            (docs, cache.used_bytes())
        };
        prop_assert_eq!(run(), run());
    }

    /// The indexed heap agrees with a BTreeMap reference model under
    /// arbitrary insert/update/pop/remove interleavings.
    #[test]
    fn heap_matches_reference_model(
        ops in prop::collection::vec((0u8..4, 0u32..32, 0u64..1_000), 1..300),
    ) {
        let mut heap: IndexedHeap<u32, (u64, u64)> = IndexedHeap::new();
        let mut model: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        let mut keys: std::collections::HashMap<u32, (u64, u64)> =
            std::collections::HashMap::new();
        let mut tie = 0u64;

        for (op, item, key) in ops {
            match op {
                0 | 1 => {
                    let key = (key, tie);
                    tie += 1;
                    if let Some(old) = keys.insert(item, key) {
                        model.remove(&old);
                        heap.update(item, key);
                    } else {
                        heap.insert(item, key);
                    }
                    model.insert(key, item);
                }
                2 => {
                    let expected = model.iter().next().map(|(&k, &i)| (i, k));
                    let got = heap.pop_min();
                    prop_assert_eq!(got, expected);
                    if let Some((item, key)) = got {
                        model.remove(&key);
                        keys.remove(&item);
                    }
                }
                _ => {
                    let got = heap.remove(item);
                    let expected = keys.remove(&item);
                    prop_assert_eq!(got, expected);
                    if let Some(k) = expected {
                        model.remove(&k);
                    }
                }
            }
            prop_assert_eq!(heap.len(), model.len());
        }
    }

    /// GreedyDual* inflation (cache age) never decreases, regardless of
    /// the access pattern, and H values always sit at or above it.
    #[test]
    fn gdstar_inflation_is_monotone(
        cost in prop::sample::select(vec![CostModel::Constant, CostModel::Packet]),
        beta in 0.2f64..3.0,
        ops in prop::collection::vec((0u64..32, 1u32..100_000, 0u8..3), 1..300),
    ) {
        use webcache_core::ReplacementPolicy;
        let mut p = GdStar::with_fixed_beta(cost, beta);
        let mut tracked = std::collections::HashSet::new();
        let mut last_inflation = 0.0f64;
        for (doc, size, action) in ops {
            let doc = DocId::new(doc);
            let size = ByteSize::new(size as u64);
            match action {
                0 => {
                    if tracked.insert(doc) {
                        p.on_insert(doc, size);
                    } else {
                        p.on_hit(doc, size);
                    }
                }
                1 => {
                    if tracked.contains(&doc) {
                        p.on_hit(doc, size);
                    }
                }
                _ => {
                    if let Some(victim) = p.evict() {
                        tracked.remove(&victim);
                    }
                }
            }
            prop_assert!(p.inflation() >= last_inflation);
            last_inflation = p.inflation();
            if let Some(h) = tracked.iter().next().and_then(|&d| p.h_value(d)) {
                prop_assert!(h >= 0.0);
            }
        }
    }

    /// Packet costs are monotone in size and bounded below by 3 for any
    /// non-empty document.
    #[test]
    fn packet_cost_monotone(a in 1u64..10_000_000, b in 1u64..10_000_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let cl = CostModel::Packet.cost(ByteSize::new(lo));
        let ch = CostModel::Packet.cost(ByteSize::new(hi));
        prop_assert!(cl <= ch);
        prop_assert!(cl >= 3.0);
    }

    /// Every policy's evict() drains exactly what was inserted, in some
    /// order, with no duplicates.
    #[test]
    fn eviction_drains_exactly_the_inserted_set(
        kind in arb_policy(),
        docs in prop::collection::btree_set(0u64..1_000, 1..100),
    ) {
        let mut p = kind.build();
        for &d in &docs {
            p.on_insert(DocId::new(d), ByteSize::new(d + 1));
        }
        let mut drained = Vec::new();
        while let Some(v) = p.evict() {
            drained.push(v.as_u64());
        }
        drained.sort_unstable();
        let expected: Vec<u64> = docs.into_iter().collect();
        prop_assert_eq!(drained, expected);
    }
}

mod admission_props {
    use proptest::prelude::*;
    use webcache_core::admission::{AdmissionController, AdmissionSpec};
    use webcache_trace::{ByteSize, DocId};

    proptest! {
        /// The second-hit filter's memory never exceeds its window, and
        /// an admission is always preceded by exactly one rejection of
        /// the same document since its last admission.
        #[test]
        fn second_hit_memory_is_bounded(
            window in 1usize..64,
            fetches in prop::collection::vec(0u64..40, 1..500),
        ) {
            let mut c = AdmissionController::new(AdmissionSpec::SecondHit(window));
            let mut pending: std::collections::HashSet<u64> =
                std::collections::HashSet::new();
            for doc in fetches {
                let admitted = c.admit(DocId::new(doc), ByteSize::new(1));
                prop_assert!(c.remembered() <= window);
                if admitted {
                    // Must have been pending (seen once and not yet
                    // forgotten by the window).
                    prop_assert!(pending.remove(&doc));
                } else {
                    pending.insert(doc);
                }
            }
        }

        /// MaxSize admissions are exactly the size-threshold predicate.
        #[test]
        fn max_size_is_pure_predicate(
            limit in 1u64..1_000_000,
            sizes in prop::collection::vec(0u64..2_000_000, 1..100),
        ) {
            let mut c = AdmissionController::new(AdmissionSpec::MaxSize(ByteSize::new(limit)));
            for (i, &s) in sizes.iter().enumerate() {
                prop_assert_eq!(
                    c.admit(DocId::new(i as u64), ByteSize::new(s)),
                    s <= limit
                );
            }
        }
    }
}

mod spec_round_trip {
    use proptest::prelude::*;
    use webcache_core::{AdmissionSpec, PolicyKind, PolicySpec};
    use webcache_trace::ByteSize;

    fn arb_admission() -> impl Strategy<Value = AdmissionSpec> {
        prop_oneof![
            Just(AdmissionSpec::All),
            Just(AdmissionSpec::TinyLfu),
            (1usize..1_000_000).prop_map(AdmissionSpec::SecondHit),
            (1u64..1u64 << 50).prop_map(|b| AdmissionSpec::MaxSize(ByteSize::new(b))),
        ]
    }

    proptest! {
        /// `Display` then `FromStr` is the identity for every spec: any
        /// admission half (arbitrary windows and byte ceilings) composed
        /// with any replacement kind survives the round trip.
        #[test]
        fn display_from_str_is_identity(
            admission in arb_admission(),
            replacement in prop::sample::select(PolicyKind::ALL.to_vec()),
        ) {
            let spec = PolicySpec::new(admission, replacement);
            let reparsed: PolicySpec = spec.to_string().parse().unwrap_or_else(|e| {
                panic!("{spec} failed to re-parse: {e}")
            });
            prop_assert_eq!(reparsed, spec);
        }

        /// The canonical label also parses after lowercasing — the form
        /// a user types on the command line.
        #[test]
        fn lowercased_label_also_parses(
            admission in arb_admission(),
            replacement in prop::sample::select(PolicyKind::ALL.to_vec()),
        ) {
            let spec = PolicySpec::new(admission, replacement);
            let lower: PolicySpec = spec.to_string().to_ascii_lowercase().parse().unwrap();
            prop_assert_eq!(lower, spec);
        }
    }
}
