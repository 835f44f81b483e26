//! `Augment-Tables` (Algorithm 2): compute the group dimensions α₁ and α₂.
//!
//! The two input tables are concatenated (with table ids) into `T_C`, sorted
//! by `(j, tid)` so each join value's entries become one contiguous block
//! with the `T₁` entries first, and the per-group counts are computed with
//! one forward and one backward linear pass (Figure 2).  A second sort by
//! `(tid, j, d)` separates the augmented tables again.
//!
//! The sum of the per-group products `α₁·α₂` — the output size `m` — falls
//! out of the same backward pass and is the one data-dependent quantity the
//! algorithm legitimately reveals (§3.2).

use obliv_primitives::sort::bitonic;
use obliv_primitives::{Choice, CtSelect};
use obliv_trace::{TraceSink, Tracer, TrackedBuffer};

use crate::record::{AugRecord, Payload, TableId};
use crate::table::Table;

/// The augmented tables produced by Algorithm 2, plus the output size.
#[derive(Debug)]
pub struct AugmentedTables<S: TraceSink, P: Payload = u64> {
    /// `T₁` augmented with `(α₁, α₂)`, sorted lexicographically by `(j, d)`.
    pub t1: TrackedBuffer<AugRecord<P>, S>,
    /// `T₂` augmented with `(α₁, α₂)`, sorted lexicographically by `(j, d)`.
    pub t2: TrackedBuffer<AugRecord<P>, S>,
    /// The exact join output size `m = Σ_j α₁(j)·α₂(j)`.
    pub output_size: u64,
}

/// Run Algorithm 2 on the two client tables.
///
/// Loading the plaintext tables into public memory is modelled as the
/// initial allocation of `T_C` (the adversary sees the lengths `n₁`, `n₂`,
/// which are public inputs).
pub fn augment_tables<S: TraceSink>(
    tracer: &Tracer<S>,
    t1: &Table,
    t2: &Table,
) -> AugmentedTables<S> {
    // Line 2: T_C ← (T₁ × {tid = 1}) ∪ (T₂ × {tid = 2}).
    let combined: Vec<AugRecord> = t1
        .iter()
        .map(|&e| AugRecord::from_entry(e, TableId::Left))
        .chain(t2.iter().map(|&e| AugRecord::from_entry(e, TableId::Right)))
        .collect();
    augment_combined(tracer, combined, t1.len(), t2.len())
}

/// The generic body of Algorithm 2 over an already-combined `T_C` whose
/// first `n1` records came from `T₁` and whose remaining `n2` came from
/// `T₂`.  The payload type is generic so the wide operators can run the
/// same augmentation over `[u64; W]` multi-column carries; with `P = u64`
/// this is exactly the legacy pair-shaped code path (same accesses, same
/// trace).
pub fn augment_combined<S: TraceSink, P: Payload>(
    tracer: &Tracer<S>,
    combined: Vec<AugRecord<P>>,
    n1: usize,
    n2: usize,
) -> AugmentedTables<S, P> {
    debug_assert_eq!(combined.len(), n1 + n2);
    let mut tc = tracer.alloc_from(combined);

    // Line 3: sort lexicographically by (j, tid) so every group is a
    // contiguous block with the T₁ entries first.
    bitonic::sort_by_key(&mut tc, |r: &AugRecord<P>| (r.key, r.tid));

    // Line 4: Fill-Dimensions — two linear passes (Figure 2).
    let output_size = fill_dimensions(&mut tc, tracer);

    // Line 5: re-sort by (tid, j, d) so the first n₁ entries are the
    // augmented T₁ (sorted by (j, d)) and the rest are the augmented T₂.
    bitonic::sort_by_key(&mut tc, |r: &AugRecord<P>| (r.tid, r.key, r.value));

    // Lines 6–7: split T_C back into the two augmented tables.
    let mut out1 = tracer.alloc_from(vec![AugRecord::<P>::default(); n1]);
    let mut out2 = tracer.alloc_from(vec![AugRecord::<P>::default(); n2]);
    for i in 0..n1 {
        let e = tc.read(i);
        out1.write(i, e);
        tracer.bump_linear_steps(1);
    }
    for i in 0..n2 {
        let e = tc.read(n1 + i);
        out2.write(i, e);
        tracer.bump_linear_steps(1);
    }
    drop(tc);

    AugmentedTables {
        t1: out1,
        t2: out2,
        output_size,
    }
}

/// The two linear passes of Figure 2 over the `(j, tid)`-sorted `T_C`.
///
/// Returns the output size `m`.
fn fill_dimensions<S: TraceSink, P: Payload>(
    tc: &mut TrackedBuffer<AugRecord<P>, S>,
    tracer: &Tracer<S>,
) -> u64 {
    let n = tc.len();

    // Forward pass: incremental counts.  Entries of a group see c₁ grow
    // while tid = 1 entries pass, then c₂ grow while tid = 2 entries pass;
    // the last entry of each group ends up holding the final (α₁, α₂).
    let mut prev_key: u64 = 0;
    let mut have_prev = Choice::FALSE;
    let mut c1: u64 = 0;
    let mut c2: u64 = 0;
    for i in 0..n {
        let mut e = tc.read(i);
        tracer.bump_linear_steps(1);
        let same_group = have_prev.and(Choice::eq_u64(e.key, prev_key));
        c1 = u64::ct_select(same_group, c1, 0);
        c2 = u64::ct_select(same_group, c2, 0);
        let from_left = Choice::eq_u64(e.tid, TableId::Left.as_u64());
        c1 += from_left.mask() & 1;
        c2 += from_left.not().mask() & 1;
        e.alpha1 = c1;
        e.alpha2 = c2;
        tc.write(i, e);
        prev_key = e.key;
        have_prev = Choice::TRUE;
    }

    // Backward pass: propagate each group's final counts (held by its last
    // entry) to the whole group, accumulating m = Σ α₁·α₂ at the boundaries.
    let mut next_key: u64 = 0;
    let mut have_next = Choice::FALSE;
    let mut a1: u64 = 0;
    let mut a2: u64 = 0;
    let mut m: u64 = 0;
    for i in (0..n).rev() {
        let mut e = tc.read(i);
        tracer.bump_linear_steps(1);
        let boundary = have_next.and(Choice::eq_u64(e.key, next_key)).not();
        a1 = u64::ct_select(boundary, e.alpha1, a1);
        a2 = u64::ct_select(boundary, e.alpha2, a2);
        m += boundary.mask() & a1.wrapping_mul(a2);
        e.alpha1 = a1;
        e.alpha2 = a2;
        tc.write(i, e);
        next_key = e.key;
        have_next = Choice::TRUE;
    }

    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_trace::{CollectingSink, CountingSink};

    fn augmented(t1: &[(u64, u64)], t2: &[(u64, u64)]) -> (Vec<AugRecord>, Vec<AugRecord>, u64) {
        let tracer = Tracer::new(CountingSink::new());
        let a = augment_tables(
            &tracer,
            &Table::from_pairs(t1.to_vec()),
            &Table::from_pairs(t2.to_vec()),
        );
        (
            a.t1.as_slice().to_vec(),
            a.t2.as_slice().to_vec(),
            a.output_size,
        )
    }

    #[test]
    fn paper_figure_2_example() {
        // T₁: (x,a1), (x,a2), (y,b1..b4), T₂: (x,u1..u3), (y,v1), (y,v2), (z,w1).
        let t1 = [(1, 101), (1, 102), (2, 201), (2, 202), (2, 203), (2, 204)];
        let t2 = [(1, 301), (1, 302), (1, 303), (2, 401), (2, 402), (3, 501)];
        let (a1, a2, m) = augmented(&t1, &t2);

        // m = 2·3 (x) + 4·2 (y) + 0·1 (z) = 14.
        assert_eq!(m, 14);

        // Every x entry carries (α₁, α₂) = (2, 3); every y entry (4, 2);
        // the z entry in T₂ carries (0, 1).
        for r in a1.iter().chain(a2.iter()) {
            match r.key {
                1 => assert_eq!((r.alpha1, r.alpha2), (2, 3), "{r:?}"),
                2 => assert_eq!((r.alpha1, r.alpha2), (4, 2), "{r:?}"),
                3 => assert_eq!((r.alpha1, r.alpha2), (0, 1), "{r:?}"),
                _ => panic!("unexpected key in {r:?}"),
            }
        }

        // The augmented tables preserve their rows and are sorted by (j, d).
        assert_eq!(a1.len(), 6);
        assert_eq!(a2.len(), 6);
        assert!(a1
            .windows(2)
            .all(|w| (w[0].key, w[0].value) <= (w[1].key, w[1].value)));
        assert!(a2
            .windows(2)
            .all(|w| (w[0].key, w[0].value) <= (w[1].key, w[1].value)));
        assert!(a1.iter().all(|r| r.tid == 1));
        assert!(a2.iter().all(|r| r.tid == 2));
    }

    #[test]
    fn disjoint_keys_produce_zero_output() {
        let (a1, a2, m) = augmented(&[(1, 1), (2, 2)], &[(3, 3), (4, 4)]);
        assert_eq!(m, 0);
        assert!(a1.iter().all(|r| r.alpha2 == 0 && r.alpha1 == 1));
        assert!(a2.iter().all(|r| r.alpha1 == 0 && r.alpha2 == 1));
    }

    #[test]
    fn empty_tables() {
        let (a1, a2, m) = augmented(&[], &[]);
        assert_eq!(m, 0);
        assert!(a1.is_empty());
        assert!(a2.is_empty());

        let (a1, a2, m) = augmented(&[(1, 1)], &[]);
        assert_eq!(m, 0);
        assert_eq!(a1.len(), 1);
        assert!(a2.is_empty());
        assert_eq!((a1[0].alpha1, a1[0].alpha2), (1, 0));
    }

    #[test]
    fn one_to_one_groups() {
        let t: Vec<(u64, u64)> = (0..8).map(|i| (i, i * 10)).collect();
        let (a1, a2, m) = augmented(&t, &t);
        assert_eq!(m, 8);
        assert!(a1.iter().all(|r| (r.alpha1, r.alpha2) == (1, 1)));
        assert!(a2.iter().all(|r| (r.alpha1, r.alpha2) == (1, 1)));
    }

    #[test]
    fn single_heavy_group() {
        let t1: Vec<(u64, u64)> = (0..5).map(|i| (42, i)).collect();
        let t2: Vec<(u64, u64)> = (0..7).map(|i| (42, 100 + i)).collect();
        let (a1, a2, m) = augmented(&t1, &t2);
        assert_eq!(m, 35);
        assert!(a1
            .iter()
            .chain(a2.iter())
            .all(|r| (r.alpha1, r.alpha2) == (5, 7)));
    }

    #[test]
    fn duplicate_data_values_are_kept() {
        // Repeated (j, d) pairs are legitimate rows and must all survive.
        let (a1, _a2, m) = augmented(&[(1, 9), (1, 9), (1, 9)], &[(1, 5)]);
        assert_eq!(m, 3);
        assert_eq!(a1.len(), 3);
        assert!(a1
            .iter()
            .all(|r| r.value == 9 && (r.alpha1, r.alpha2) == (3, 1)));
    }

    #[test]
    fn trace_depends_only_on_sizes() {
        let run = |t1: Vec<(u64, u64)>, t2: Vec<(u64, u64)>| {
            let tracer = Tracer::new(CollectingSink::new());
            let _ = augment_tables(&tracer, &Table::from_pairs(t1), &Table::from_pairs(t2));
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        // Same (n₁, n₂) = (4, 3), wildly different group structures.
        let a = run(
            vec![(1, 1), (1, 2), (1, 3), (1, 4)],
            vec![(1, 5), (1, 6), (1, 7)],
        );
        let b = run(
            vec![(1, 1), (2, 2), (3, 3), (4, 4)],
            vec![(9, 5), (9, 6), (8, 7)],
        );
        assert_eq!(a, b);
    }
}
