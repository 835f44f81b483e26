//! Property-based tests for the oblivious operator library: every operator
//! is compared against a plaintext reference on randomly generated tables,
//! and the leakage-profile properties are spot-checked.

use std::collections::{BTreeMap, BTreeSet};

use obliv_join::schema::{Value, WideTable};
use obliv_join::Table;
use obliv_operators::{
    oblivious_group_aggregate, oblivious_join_aggregate, wide_anti_join, wide_distinct,
    wide_filter, wide_semi_join, wide_union_all, Aggregate, JoinAggregate, WidePredicate,
};
use obliv_trace::{CollectingSink, CountingSink, Tracer};
use proptest::prelude::*;

fn tracer() -> Tracer<CountingSink> {
    Tracer::new(CountingSink::new())
}

/// Strategy: a table with keys in a small domain (to force collisions) and
/// bounded values.
fn small_table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec((0u64..12, 0u64..100), 0..max_rows).prop_map(Table::from_pairs)
}

/// A pair table under the degenerate `{key, value}` schema.
fn wide(table: &Table) -> WideTable {
    WideTable::from_pair(table)
}

/// A `{key, value}` result read back as pairs, in output order.
fn pairs(table: &WideTable) -> Vec<(u64, u64)> {
    table
        .project_pair("key", "value")
        .unwrap()
        .iter()
        .map(|e| (e.key, e.value))
        .collect()
}

fn value_at_least(threshold: u64) -> WidePredicate {
    WidePredicate::at_least("value", Value::U64(threshold))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filter_matches_retain(table in small_table(60), threshold in 0u64..100) {
        let out = wide_filter(&tracer(), &wide(&table), &value_at_least(threshold)).unwrap();
        let expected: Vec<(u64, u64)> = table
            .rows()
            .iter()
            .filter(|e| e.value >= threshold)
            .map(|e| (e.key, e.value))
            .collect();
        prop_assert_eq!(pairs(&out), expected);
    }

    #[test]
    fn distinct_matches_set_semantics(table in small_table(80)) {
        let out = wide_distinct(&tracer(), &wide(&table)).unwrap();
        let expected: BTreeSet<(u64, u64)> =
            table.rows().iter().map(|e| (e.key, e.value)).collect();
        let got = pairs(&out);
        prop_assert_eq!(got.len(), expected.len());
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
        prop_assert_eq!(got.into_iter().collect::<BTreeSet<_>>(), expected);
    }

    #[test]
    fn union_preserves_multiset(a in small_table(40), b in small_table(40)) {
        let out = wide_union_all(&tracer(), &wide(&a), &wide(&b)).unwrap();
        prop_assert_eq!(out.len(), a.len() + b.len());
        let mut expected: Vec<(u64, u64)> = a
            .rows()
            .iter()
            .chain(b.rows().iter())
            .map(|e| (e.key, e.value))
            .collect();
        let mut got = pairs(&out);
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn semi_and_anti_join_partition(probe in small_table(50), witnesses in small_table(50)) {
        let (probe_w, witnesses_w) = (wide(&probe), wide(&witnesses));
        let semi = wide_semi_join(&tracer(), &probe_w, &witnesses_w, "key", "key").unwrap();
        let anti = wide_anti_join(&tracer(), &probe_w, &witnesses_w, "key", "key").unwrap();
        prop_assert_eq!(semi.len() + anti.len(), probe.len());

        let witness_keys: BTreeSet<u64> = witnesses.rows().iter().map(|e| e.key).collect();
        prop_assert!(pairs(&semi).iter().all(|(k, _)| witness_keys.contains(k)));
        prop_assert!(pairs(&anti).iter().all(|(k, _)| !witness_keys.contains(k)));
    }

    #[test]
    fn group_aggregates_match_reference(table in small_table(70)) {
        for agg in [Aggregate::Count, Aggregate::Sum, Aggregate::Min, Aggregate::Max] {
            let out = oblivious_group_aggregate(&tracer(), &table, agg);
            let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for e in table.iter() {
                groups.entry(e.key).or_default().push(e.value);
            }
            let expected: Vec<(u64, u64)> = groups
                .iter()
                .map(|(k, vs)| {
                    let v = match agg {
                        Aggregate::Count => vs.len() as u64,
                        Aggregate::Sum => vs.iter().sum(),
                        Aggregate::Min => *vs.iter().min().unwrap(),
                        Aggregate::Max => *vs.iter().max().unwrap(),
                    };
                    (*k, v)
                })
                .collect();
            let got: Vec<(u64, u64)> = out.rows().iter().map(|e| (e.key, e.value)).collect();
            prop_assert_eq!(got, expected, "{:?}", agg);
        }
    }

    #[test]
    fn join_aggregate_matches_materialised_join(a in small_table(40), b in small_table(40)) {
        for agg in [JoinAggregate::CountPairs, JoinAggregate::SumLeft, JoinAggregate::SumRight] {
            let out = oblivious_join_aggregate(&tracer(), &a, &b, agg);
            let mut per_key: BTreeMap<u64, u64> = BTreeMap::new();
            for x in a.iter() {
                for y in b.iter().filter(|y| y.key == x.key) {
                    let add = match agg {
                        JoinAggregate::CountPairs => 1,
                        JoinAggregate::SumLeft => x.value,
                        JoinAggregate::SumRight => y.value,
                        JoinAggregate::SumProducts => x.value * y.value,
                    };
                    *per_key.entry(x.key).or_insert(0) += add;
                }
            }
            let got: BTreeMap<u64, u64> = out.rows().iter().map(|e| (e.key, e.value)).collect();
            prop_assert_eq!(got, per_key, "{:?}", agg);
        }
    }

    #[test]
    fn filter_trace_is_a_function_of_public_sizes(
        table in small_table(60),
        threshold in 0u64..100,
    ) {
        // Two runs over tables of the same length that keep the same number
        // of rows (the real one, and a constant-key one whose first `kept`
        // rows match) must make exactly the same accesses.
        let run = |t: &Table, predicate: &WidePredicate| {
            let tracer = Tracer::new(CollectingSink::new());
            let out = wide_filter(&tracer, &wide(t), predicate).unwrap();
            (out.len(), tracer.with_sink(|s| s.accesses().to_vec()))
        };
        let (kept, a) = run(&table, &value_at_least(threshold));
        let uniform: Table = (0..table.len())
            .map(|i| (1u64, u64::from(i < kept)))
            .collect();
        let (kept_b, b) = run(&uniform, &value_at_least(1));
        prop_assert_eq!(kept, kept_b);
        prop_assert_eq!(a, b);
    }
}
