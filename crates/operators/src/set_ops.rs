//! Oblivious set-style operators: union, distinct, semi-join, anti-join.

use obliv_join::record::{AugRecord, TableId};
use obliv_join::Table;
use obliv_primitives::sort::bitonic;
use obliv_primitives::{oblivious_compact, Choice, CtSelect, Routable};
use obliv_trace::{TraceSink, Tracer};

/// Oblivious bag union: concatenate the two tables.
///
/// A single fixed copy pass; reveals nothing beyond the (public) input
/// sizes.
pub fn oblivious_union_all<S: TraceSink>(tracer: &Tracer<S>, t1: &Table, t2: &Table) -> Table {
    let records: Vec<AugRecord> = t1
        .iter()
        .map(|&e| AugRecord::from_entry(e, TableId::Left))
        .chain(t2.iter().map(|&e| AugRecord::from_entry(e, TableId::Right)))
        .collect();
    let buf = tracer.alloc_from(records);
    let mut out = Table::with_capacity(buf.len());
    for i in 0..buf.len() {
        let r = buf.read(i);
        tracer.bump_linear_steps(1);
        out.push(r.key, r.value);
    }
    out
}

/// Oblivious duplicate elimination over `(key, value)` pairs.
///
/// Sorts, marks every row equal to its predecessor as null in one fixed
/// scan, and compacts.  Cost `O(n log² n)`; reveals the number of distinct
/// rows.
pub fn oblivious_distinct<S: TraceSink>(tracer: &Tracer<S>, table: &Table) -> Table {
    let records: Vec<AugRecord> = table
        .iter()
        .map(|&e| AugRecord::from_entry(e, TableId::Left))
        .collect();
    let mut buf = tracer.alloc_from(records);
    bitonic::sort_by_key(&mut buf, |r: &AugRecord| (r.key, r.value));

    let mut prev_key = 0u64;
    let mut prev_value = 0u64;
    let mut have_prev = Choice::FALSE;
    for i in 0..buf.len() {
        let r = buf.read(i);
        tracer.bump_linear_steps(1);
        let duplicate = have_prev
            .and(Choice::eq_u64(r.key, prev_key))
            .and(Choice::eq_u64(r.value, prev_value));
        prev_key = r.key;
        prev_value = r.value;
        have_prev = Choice::TRUE;
        let mut dropped = r;
        dropped.set_null();
        buf.write(i, AugRecord::ct_select(duplicate, dropped, r));
    }

    let compacted = oblivious_compact(buf);
    let live = compacted.live as usize;
    compacted.table.as_slice()[..live]
        .iter()
        .map(|r| (r.key, r.value))
        .collect()
}

/// Oblivious semi-join: the rows of `t1` whose key appears in `t2`.
pub fn oblivious_semi_join<S: TraceSink>(tracer: &Tracer<S>, t1: &Table, t2: &Table) -> Table {
    key_membership_filter(tracer, t1, t2, true)
}

/// Oblivious anti-join: the rows of `t1` whose key does **not** appear in
/// `t2`.
pub fn oblivious_anti_join<S: TraceSink>(tracer: &Tracer<S>, t1: &Table, t2: &Table) -> Table {
    key_membership_filter(tracer, t1, t2, false)
}

/// Shared implementation of semi/anti-join: co-sort both tables by
/// `(key, tid)` with the `t2` witnesses first, carry a "key exists in t2"
/// flag through one fixed scan, then keep or drop the `t1` rows accordingly
/// and compact.  Cost `O(n log² n)`; reveals the output size.
fn key_membership_filter<S: TraceSink>(
    tracer: &Tracer<S>,
    t1: &Table,
    t2: &Table,
    keep_matching: bool,
) -> Table {
    let records: Vec<AugRecord> = t2
        .iter()
        .map(|&e| AugRecord::from_entry(e, TableId::Right))
        .chain(t1.iter().map(|&e| AugRecord::from_entry(e, TableId::Left)))
        .collect();
    let mut buf = tracer.alloc_from(records);

    // Witnesses (tid = 2) must precede the probed rows (tid = 1) within each
    // key group, so sort by (key, tid descending).
    bitonic::sort_by_key(&mut buf, |r: &AugRecord| (r.key, std::cmp::Reverse(r.tid)));

    let keep_matching = Choice::from_bool(keep_matching);
    let mut witness_key = 0u64;
    let mut have_witness = Choice::FALSE;
    for i in 0..buf.len() {
        let r = buf.read(i);
        tracer.bump_linear_steps(1);
        let is_witness = Choice::eq_u64(r.tid, TableId::Right.as_u64());
        witness_key = u64::ct_select(is_witness, r.key, witness_key);
        have_witness = is_witness.or(have_witness);

        let matched = have_witness.and(Choice::eq_u64(r.key, witness_key));
        // Keep probed rows whose match status agrees with the requested
        // polarity; drop every witness row.
        let wanted = matched
            .and(keep_matching)
            .or(matched.not().and(keep_matching.not()));
        let keep = is_witness.not().and(wanted);
        let mut dropped = r;
        dropped.set_null();
        buf.write(i, AugRecord::ct_select(keep, r, dropped));
    }

    let compacted = oblivious_compact(buf);
    let live = compacted.live as usize;
    compacted.table.as_slice()[..live]
        .iter()
        .map(|r| (r.key, r.value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_trace::{CollectingSink, CountingSink};

    fn probe() -> Table {
        Table::from_pairs(vec![(1, 10), (2, 20), (3, 30), (1, 11), (4, 40)])
    }

    fn witnesses() -> Table {
        Table::from_pairs(vec![(1, 100), (3, 300), (3, 301), (9, 900)])
    }

    #[test]
    fn union_all_concatenates() {
        let tracer = Tracer::new(CountingSink::new());
        let out = oblivious_union_all(&tracer, &probe(), &witnesses());
        assert_eq!(out.len(), 9);
        assert_eq!(out.rows()[0], (1, 10).into());
        assert_eq!(out.rows()[5], (1, 100).into());
    }

    #[test]
    fn distinct_removes_exact_duplicates_only() {
        let tracer = Tracer::new(CountingSink::new());
        let t = Table::from_pairs(vec![(1, 5), (2, 5), (1, 5), (1, 6), (2, 5), (1, 5)]);
        let out = oblivious_distinct(&tracer, &t);
        assert_eq!(out.rows(), &[(1, 5).into(), (1, 6).into(), (2, 5).into()]);

        let empty = oblivious_distinct(&tracer, &Table::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn semi_join_keeps_rows_with_matching_keys() {
        let tracer = Tracer::new(CountingSink::new());
        let out = oblivious_semi_join(&tracer, &probe(), &witnesses());
        // Keys 1 and 3 exist in the witness table.
        let mut expected: Vec<obliv_join::Entry> =
            vec![(1, 10).into(), (1, 11).into(), (3, 30).into()];
        expected.sort_unstable();
        let mut got = out.rows().to_vec();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn anti_join_keeps_rows_without_matching_keys() {
        let tracer = Tracer::new(CountingSink::new());
        let out = oblivious_anti_join(&tracer, &probe(), &witnesses());
        let mut got = out.rows().to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 20).into(), (4, 40).into()]);
    }

    #[test]
    fn semi_and_anti_join_partition_the_probe_table() {
        let tracer = Tracer::new(CountingSink::new());
        let semi = oblivious_semi_join(&tracer, &probe(), &witnesses());
        let anti = oblivious_anti_join(&tracer, &probe(), &witnesses());
        assert_eq!(semi.len() + anti.len(), probe().len());

        let mut all: Vec<_> = semi
            .rows()
            .iter()
            .chain(anti.rows().iter())
            .copied()
            .collect();
        all.sort_unstable();
        let mut expected = probe().rows().to_vec();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn semi_join_against_empty_witnesses_is_empty() {
        let tracer = Tracer::new(CountingSink::new());
        assert!(oblivious_semi_join(&tracer, &probe(), &Table::new()).is_empty());
        assert_eq!(
            oblivious_anti_join(&tracer, &probe(), &Table::new()).len(),
            probe().len()
        );
    }

    #[test]
    fn distinct_agrees_with_a_reference_set() {
        let tracer = Tracer::new(CountingSink::new());
        let t: Table = (0..200u64).map(|i| (i % 7, i % 13)).collect();
        let out = oblivious_distinct(&tracer, &t);

        let reference: std::collections::BTreeSet<(u64, u64)> =
            t.rows().iter().map(|e| (e.key, e.value)).collect();
        let expected: Vec<obliv_join::Entry> =
            reference.iter().map(|&(k, v)| (k, v).into()).collect();

        let mut got = out.rows().to_vec();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn traces_depend_only_on_sizes() {
        let run = |t1: Table, t2: Table| {
            let tracer = Tracer::new(CollectingSink::new());
            let _ = oblivious_semi_join(&tracer, &t1, &t2);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        let a = run(probe(), witnesses());
        let b = run(
            Table::from_pairs(vec![(7, 1), (7, 2), (7, 3), (7, 4), (7, 5)]),
            Table::from_pairs(vec![(7, 9), (7, 8), (8, 7), (8, 6)]),
        );
        assert_eq!(a, b);
    }
}
