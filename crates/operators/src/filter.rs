//! Oblivious selection and projection.

use obliv_join::record::{AugRecord, Entry, TableId};
use obliv_join::Table;
use obliv_primitives::{map_pass, oblivious_compact, Choice, CtSelect, Routable};
use obliv_trace::{TraceSink, Tracer};

/// A selection predicate over `(key, value)` rows.
///
/// Predicates are evaluated on local copies of the rows (never by indexing
/// public memory with secret data), and the filter writes every slot back
/// whether or not the row survives, so the only thing the execution reveals
/// is the number of surviving rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// Keep every row.
    True,
    /// Keep rows whose join key equals the constant.
    KeyEquals(u64),
    /// Keep rows whose join key lies in `[lo, hi]` (inclusive).
    KeyInRange(u64, u64),
    /// Keep rows whose data value is at least the constant.
    ValueAtLeast(u64),
    /// Keep rows whose data value is strictly below the constant.
    ValueBelow(u64),
}

impl Predicate {
    /// Evaluate the predicate on one row, branch-free.
    pub fn matches(&self, entry: &Entry) -> Choice {
        match *self {
            Predicate::True => Choice::TRUE,
            Predicate::KeyEquals(k) => Choice::eq_u64(entry.key, k),
            Predicate::KeyInRange(lo, hi) => {
                Choice::ge_u64(entry.key, lo).and(Choice::ge_u64(hi, entry.key))
            }
            Predicate::ValueAtLeast(v) => Choice::ge_u64(entry.value, v),
            Predicate::ValueBelow(v) => Choice::ge_u64(entry.value, v).not(),
        }
    }
}

/// Oblivious selection: keep the rows matching `predicate`.
///
/// Cost `O(n log n)`; reveals only the number of surviving rows (which the
/// returned table's length necessarily exposes).
pub fn oblivious_filter<S: TraceSink>(
    tracer: &Tracer<S>,
    table: &Table,
    predicate: Predicate,
) -> Table {
    let records: Vec<AugRecord> = table
        .iter()
        .map(|&e| AugRecord::from_entry(e, TableId::Left))
        .collect();
    let mut buf = tracer.alloc_from(records);

    // Mark non-matching rows as null; every slot is written back.
    map_pass(&mut buf, |r: AugRecord| {
        let keep = predicate.matches(&r.entry());
        let mut dropped = r;
        dropped.set_null();
        AugRecord::ct_select(keep, r, dropped)
    });

    // Gather the survivors; only now is their count revealed.
    let compacted = oblivious_compact(buf);
    let live = compacted.live as usize;
    compacted.table.as_slice()[..live]
        .iter()
        .map(|r| (r.key, r.value))
        .collect()
}

/// Oblivious projection: apply a per-row transformation in a single fixed
/// scan.  The mapping runs on local copies; the output has the same length
/// as the input, so nothing is revealed.
pub fn oblivious_project<S, F>(tracer: &Tracer<S>, table: &Table, map: F) -> Table
where
    S: TraceSink,
    F: Fn(Entry) -> Entry,
{
    let records: Vec<AugRecord> = table
        .iter()
        .map(|&e| AugRecord::from_entry(e, TableId::Left))
        .collect();
    let mut buf = tracer.alloc_from(records);
    map_pass(&mut buf, |mut r: AugRecord| {
        let mapped = map(r.entry());
        r.key = mapped.key;
        r.value = mapped.value;
        r
    });
    buf.as_slice().iter().map(|r| (r.key, r.value)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_trace::{CollectingSink, CountingSink, NullSink};

    fn table() -> Table {
        Table::from_pairs(vec![(1, 10), (2, 25), (1, 30), (3, 5), (2, 60)])
    }

    #[test]
    fn predicates_evaluate_correctly() {
        let e = Entry::new(5, 40);
        assert!(Predicate::True.matches(&e).to_bool());
        assert!(Predicate::KeyEquals(5).matches(&e).to_bool());
        assert!(!Predicate::KeyEquals(6).matches(&e).to_bool());
        assert!(Predicate::KeyInRange(3, 5).matches(&e).to_bool());
        assert!(Predicate::KeyInRange(5, 9).matches(&e).to_bool());
        assert!(!Predicate::KeyInRange(6, 9).matches(&e).to_bool());
        assert!(Predicate::ValueAtLeast(40).matches(&e).to_bool());
        assert!(!Predicate::ValueAtLeast(41).matches(&e).to_bool());
        assert!(Predicate::ValueBelow(41).matches(&e).to_bool());
        assert!(!Predicate::ValueBelow(40).matches(&e).to_bool());
    }

    #[test]
    fn filter_keeps_matching_rows_in_order() {
        let tracer = Tracer::new(CountingSink::new());
        let out = oblivious_filter(&tracer, &table(), Predicate::KeyEquals(1));
        assert_eq!(out.rows(), &[(1, 10).into(), (1, 30).into()]);

        let out = oblivious_filter(&tracer, &table(), Predicate::ValueAtLeast(25));
        assert_eq!(
            out.rows(),
            &[(2, 25).into(), (1, 30).into(), (2, 60).into()]
        );

        let out = oblivious_filter(&tracer, &table(), Predicate::True);
        assert_eq!(out.len(), 5);

        let out = oblivious_filter(&tracer, &table(), Predicate::KeyEquals(99));
        assert!(out.is_empty());
    }

    #[test]
    fn filter_of_empty_table_is_empty() {
        let tracer = Tracer::new(NullSink);
        assert!(oblivious_filter(&tracer, &Table::new(), Predicate::True).is_empty());
    }

    #[test]
    fn filter_trace_depends_only_on_input_size() {
        let run = |t: Table, p: Predicate| {
            let tracer = Tracer::new(CollectingSink::new());
            let _ = oblivious_filter(&tracer, &t, p);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        // Same n = 5, different predicates and data; traces identical.
        let a = run(table(), Predicate::KeyEquals(1));
        let b = run(table(), Predicate::ValueBelow(1_000_000));
        let c = run(Table::from_pairs(vec![(9, 9); 5]), Predicate::KeyEquals(0));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn project_applies_mapping_without_reordering() {
        let tracer = Tracer::new(CountingSink::new());
        let out = oblivious_project(&tracer, &table(), |e| Entry::new(e.key * 100, e.value + 1));
        assert_eq!(out.rows()[0], Entry::new(100, 11));
        assert_eq!(out.rows()[4], Entry::new(200, 61));
        assert_eq!(out.len(), 5);
    }
}
