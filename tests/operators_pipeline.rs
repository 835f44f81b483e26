//! Cross-crate integration tests for the oblivious operator library:
//! operator pipelines agree with plaintext SQL-style references and keep the
//! join's leakage profile.

use std::collections::BTreeMap;

use obliv_join_suite::prelude::*;
use obliv_trace::{TraceSink, Tracer};

fn tracer() -> Tracer<CountingSink> {
    Tracer::new(CountingSink::new())
}

/// Oblivious `value >= threshold` selection over a pair table (the
/// degenerate `{key, value}` schema), read back as a pair table.
fn filter_value_at_least<S: TraceSink>(tracer: &Tracer<S>, t: &Table, threshold: u64) -> Table {
    let predicate = WidePredicate::at_least("value", Value::U64(threshold));
    wide_filter(tracer, &WideTable::from_pair(t), &predicate)
        .unwrap()
        .project_pair("key", "value")
        .unwrap()
}

#[test]
fn filter_join_aggregate_pipeline_matches_plaintext_sql() {
    // SELECT key, SUM(d1 * d2) FROM T1 JOIN T2 USING (key) WHERE T2.d >= 50 GROUP BY key
    let workload = power_law(300, 300, 1.9, 31);
    let (t1, t2) = (&workload.left, &workload.right);
    let tracer = tracer();

    let filtered = filter_value_at_least(&tracer, t2, 50);
    let result = oblivious_join_aggregate(&tracer, t1, &filtered, JoinAggregate::SumProducts);

    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    for a in t1.iter() {
        for b in t2.iter().filter(|b| b.value >= 50 && b.key == a.key) {
            *reference.entry(a.key).or_insert(0) = reference
                .get(&a.key)
                .copied()
                .unwrap_or(0)
                .wrapping_add(a.value * b.value);
        }
    }
    let got: BTreeMap<u64, u64> = result.rows().iter().map(|e| (e.key, e.value)).collect();
    assert_eq!(got, reference);
}

#[test]
fn join_aggregate_count_matches_full_join_cardinalities() {
    let workload = power_law(200, 250, 2.1, 8);
    let tracer = tracer();
    let counts = oblivious_join_aggregate(
        &tracer,
        &workload.left,
        &workload.right,
        JoinAggregate::CountPairs,
    );
    let total: u64 = counts.rows().iter().map(|e| e.value).sum();
    assert_eq!(total, workload.output_size);

    // And the per-key counts equal what the materialised oblivious join produces.
    let full = oblivious_join(&workload.left, &workload.right);
    assert_eq!(full.len() as u64, total);
}

#[test]
fn group_aggregate_over_join_output_agrees_with_join_aggregate() {
    // Computing SUM(d2) per key by (a) materialising the join and grouping
    // its output and (b) using the never-materialise operator must agree.
    let workload = power_law(150, 150, 2.0, 91);
    let (t1, t2) = (&workload.left, &workload.right);
    let tracer = tracer();

    let direct = oblivious_join_aggregate(&tracer, t1, t2, JoinAggregate::SumRight);

    // Materialise, then group: the join output's right values keyed by the
    // join key require re-tagging rows with their key, which the reference
    // join gives us via a plaintext pass (tests may look at plaintext).
    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    for a in t1.iter() {
        for b in t2.iter().filter(|b| b.key == a.key) {
            *reference.entry(a.key).or_insert(0) += b.value;
        }
    }
    let got: BTreeMap<u64, u64> = direct.rows().iter().map(|e| (e.key, e.value)).collect();
    assert_eq!(got, reference);
}

#[test]
fn semi_join_plus_anti_join_cover_the_probe_side() {
    let workload = pk_fk(60, 240, 5);
    let tracer = tracer();
    let (probe, witnesses) = (
        WideTable::from_pair(&workload.right),
        WideTable::from_pair(&workload.left),
    );
    let semi = wide_semi_join(&tracer, &probe, &witnesses, "key", "key").unwrap();
    let anti = wide_anti_join(&tracer, &probe, &witnesses, "key", "key").unwrap();
    assert_eq!(semi.len() + anti.len(), workload.right.len());
    // Every foreign row references an existing key in this generator.
    assert_eq!(anti.len(), 0);
}

#[test]
fn distinct_then_group_count_equals_histogram() {
    let t: Table = (0..500u64).map(|i| (i % 23, i % 7)).collect();
    let tracer = tracer();
    let counts = oblivious_group_aggregate(&tracer, &t, Aggregate::Count);
    let histogram = t.key_histogram();
    assert_eq!(counts.len(), histogram.len());
    for row in counts.rows() {
        assert_eq!(row.value, histogram[&row.key], "key {}", row.key);
    }

    let distinct = wide_distinct(&tracer, &WideTable::from_pair(&t)).unwrap();
    // 23 keys × 7 values, but only pairs (i % 23, i % 7) that actually occur.
    let expected: std::collections::BTreeSet<(u64, u64)> =
        t.rows().iter().map(|e| (e.key, e.value)).collect();
    assert_eq!(distinct.len(), expected.len());
}

#[test]
fn operator_traces_depend_only_on_sizes() {
    let digest = |t1: &Table, t2: &Table| {
        let tracer = Tracer::new(HashingSink::new());
        let filtered = filter_value_at_least(&tracer, t2, 10);
        // Pad the filter output to a fixed comparison point by only hashing
        // when the revealed intermediate size matches; the workloads below
        // are constructed so it does.
        let _ = oblivious_join_aggregate(&tracer, t1, &filtered, JoinAggregate::CountPairs);
        (filtered.len(), tracer.with_sink(|s| s.digest_hex()))
    };

    // Both pairs: n1 = 50, n2 = 50, every right value >= 10 so the filter
    // keeps all 50 rows, and the join-aggregate sees identical shapes.
    let a1: Table = (0..50u64).map(|i| (i, i)).collect();
    let a2: Table = (0..50u64).map(|i| (i, 10 + i)).collect();
    let b1: Table = (0..50u64).map(|_| (7, 1)).collect();
    let b2: Table = (0..50u64).map(|i| (i % 3, 10 + i)).collect();

    let (len_a, hash_a) = digest(&a1, &a2);
    let (len_b, hash_b) = digest(&b1, &b2);
    assert_eq!(len_a, len_b);
    assert_eq!(hash_a, hash_b);
}
