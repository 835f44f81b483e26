//! Batcher's bitonic sorting network, for arbitrary input lengths.
//!
//! This is the oblivious sort the paper builds everything on (§3.5): an
//! in-place, input-independent `O(n log² n)` network.  The arbitrary-length
//! variant used here follows the standard recursive construction: split the
//! input in halves sorted in opposite directions, then merge the resulting
//! bitonic sequence with hops of decreasing powers of two.  The sequence of
//! compare-exchange positions depends only on `n`.
//!
//! ## Execution strategy
//!
//! The network is *executed* iteratively: the recursion is flattened once
//! into a [`RunSchedule`] of maximal same-stride gate runs, memoised per
//! `(n, direction)` in [`network::cached_bitonic_runs`], and the driver
//! walks the runs with one batched trace transaction and one comparison
//! counter update per run ([`TrackedBuffer::paired_run_mut`]).  The gate
//! order and the compare-exchange semantics are identical to the recursive
//! walk — [`sort_by_key_dir_per_gate`] keeps that legacy driver around as
//! the differential-testing oracle and ablation baseline.
//!
//! The paper parameterises calls as `Bitonic-Sort⟨x ↑, y ↓, …⟩`; here the
//! same thing is expressed with a key-extraction closure returning a tuple
//! (use [`core::cmp::Reverse`] for descending components), plus an overall
//! [`Direction`].

use obliv_trace::{TraceSink, TrackedBuffer};

use super::network::{self, greatest_power_of_two_below, RunSchedule, Schedule};
use super::{compare_exchange, Direction};
use crate::ct::{Choice, CtSelect};

/// Sort `buf` in place, ascending by `key`.
///
/// ```
/// use obliv_trace::{CollectingSink, Tracer};
/// use obliv_primitives::sort::bitonic::sort_by_key;
///
/// let tracer = Tracer::new(CollectingSink::new());
/// let mut buf = tracer.alloc_from(vec![5u64, 1, 4, 1, 3]);
/// sort_by_key(&mut buf, |x| *x);
/// assert_eq!(buf.as_slice(), &[1, 1, 3, 4, 5]);
/// ```
pub fn sort_by_key<T, S, K, F>(buf: &mut TrackedBuffer<T, S>, key: F)
where
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    sort_by_key_dir(buf, Direction::Ascending, key);
}

/// Sort `buf` in place in the given direction by `key`.
///
/// Executes the precomputed, memoised run schedule for `(buf.len(), dir)`:
/// gates are processed in maximal same-stride runs, each run emitting four
/// coalesced trace events and a single comparison-counter update.  Run
/// boundaries are a pure function of the (public) length, so the batched
/// trace remains a function of public parameters only.
pub fn sort_by_key_dir<T, S, K, F>(buf: &mut TrackedBuffer<T, S>, dir: Direction, key: F)
where
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    let n = buf.len();
    if n <= 1 {
        return;
    }
    let sched = network::cached_bitonic_runs(n, dir);
    let tracer = buf.tracer();
    for run in sched.runs() {
        tracer.bump_comparisons(run.count as u64);
        let (lo_win, hi_win) = buf.paired_run_mut(run.lo, run.stride, run.count);
        for (a_slot, b_slot) in lo_win.iter_mut().zip(hi_win.iter_mut()) {
            // Same decision and branch-free write-back as `compare_exchange`,
            // on local copies of the pair.
            let a = *a_slot;
            let b = *b_slot;
            let out_of_order = if run.descending {
                key(&a) < key(&b)
            } else {
                key(&a) > key(&b)
            };
            let c = Choice::from_bool(out_of_order);
            *a_slot = T::ct_select(c, b, a);
            *b_slot = T::ct_select(c, a, b);
        }
    }
}

/// The legacy recursive per-gate driver: identical gate order and
/// semantics, but one traced read/write per element and one counter bump
/// per gate.
///
/// Retained as the differential-testing oracle for the scheduled driver
/// and as the baseline of `benches/sort_network_ablation.rs`; new code
/// should call [`sort_by_key_dir`].
pub fn sort_by_key_dir_per_gate<T, S, K, F>(buf: &mut TrackedBuffer<T, S>, dir: Direction, key: F)
where
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    let n = buf.len();
    sort_range(buf, 0, n, dir, &key);
}

fn sort_range<T, S, K, F>(
    buf: &mut TrackedBuffer<T, S>,
    lo: usize,
    n: usize,
    dir: Direction,
    key: &F,
) where
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    if n <= 1 {
        return;
    }
    let m = n / 2;
    // The two halves are sorted in opposite directions so that the whole
    // range forms a bitonic sequence, which `merge_range` then sorts.
    sort_range(buf, lo, m, dir.flipped(), key);
    sort_range(buf, lo + m, n - m, dir, key);
    merge_range(buf, lo, n, dir, key);
}

fn merge_range<T, S, K, F>(
    buf: &mut TrackedBuffer<T, S>,
    lo: usize,
    n: usize,
    dir: Direction,
    key: &F,
) where
    T: Copy + CtSelect,
    S: TraceSink,
    K: Ord,
    F: Fn(&T) -> K,
{
    if n <= 1 {
        return;
    }
    let m = greatest_power_of_two_below(n as u64) as usize;
    for i in lo..lo + (n - m) {
        compare_exchange(buf, i, i + m, dir, key);
    }
    merge_range(buf, lo, m, dir, key);
    merge_range(buf, lo + m, n - m, dir, key);
}

/// The network's compare-exchange schedule for `n` elements, in execution
/// order.  Executing [`sort_by_key`] on any input of length `n` touches
/// exactly these pairs in exactly this order (grouped into the runs of
/// [`run_schedule`]).
pub fn schedule(n: usize) -> Schedule {
    let mut sched = Schedule::new();
    schedule_sort(&mut sched, 0, n);
    sched
}

/// The network flattened into maximal same-stride gate runs, each carrying
/// its merge direction — the form the iterative driver executes.  The
/// concatenation of the runs' gates equals [`schedule`]`(n)` exactly.
///
/// Use [`network::cached_bitonic_runs`] for the memoised variant.
pub fn run_schedule(n: usize, dir: Direction) -> RunSchedule {
    let mut sched = RunSchedule::new();
    runs_sort(&mut sched, 0, n, dir);
    sched
}

fn schedule_sort(sched: &mut Schedule, lo: usize, n: usize) {
    if n <= 1 {
        return;
    }
    let m = n / 2;
    schedule_sort(sched, lo, m);
    schedule_sort(sched, lo + m, n - m);
    schedule_merge(sched, lo, n);
}

fn schedule_merge(sched: &mut Schedule, lo: usize, n: usize) {
    if n <= 1 {
        return;
    }
    let m = greatest_power_of_two_below(n as u64) as usize;
    for i in lo..lo + (n - m) {
        sched.push(i, i + m);
    }
    schedule_merge(sched, lo, m);
    schedule_merge(sched, lo + m, n - m);
}

fn runs_sort(sched: &mut RunSchedule, lo: usize, n: usize, dir: Direction) {
    if n <= 1 {
        return;
    }
    let m = n / 2;
    runs_sort(sched, lo, m, dir.flipped());
    runs_sort(sched, lo + m, n - m, dir);
    runs_merge(sched, lo, n, dir);
}

fn runs_merge(sched: &mut RunSchedule, lo: usize, n: usize, dir: Direction) {
    if n <= 1 {
        return;
    }
    let m = greatest_power_of_two_below(n as u64) as usize;
    sched.push_run(lo, m, n - m, dir == Direction::Descending);
    runs_merge(sched, lo, m, dir);
    runs_merge(sched, lo + m, n - m, dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_trace::{AccessKind, CollectingSink, CountingSink, Tracer};

    fn sorts_correctly(input: Vec<u64>) {
        let tracer = Tracer::new(CountingSink::new());
        let mut buf = tracer.alloc_from(input.clone());
        sort_by_key(&mut buf, |x| *x);
        let mut expected = input;
        expected.sort_unstable();
        assert_eq!(buf.as_slice(), expected.as_slice());
    }

    #[test]
    fn sorts_all_small_permutation_like_inputs() {
        // Exhaustive 0/1 inputs up to length 10: by the 0-1 principle, a
        // comparator network that sorts every 0/1 sequence sorts everything.
        for n in 0..=10usize {
            for mask in 0u32..(1 << n) {
                let input: Vec<u64> = (0..n).map(|i| ((mask >> i) & 1) as u64).collect();
                let tracer = Tracer::new(CountingSink::new());
                let mut buf = tracer.alloc_from(input.clone());
                sort_by_key(&mut buf, |x| *x);
                let mut expected = input;
                expected.sort_unstable();
                assert_eq!(buf.as_slice(), expected.as_slice(), "n={n} mask={mask:b}");
            }
        }
    }

    #[test]
    fn sorts_typical_inputs() {
        sorts_correctly(vec![]);
        sorts_correctly(vec![42]);
        sorts_correctly(vec![5, 4, 3, 2, 1]);
        sorts_correctly(vec![1, 1, 1, 1]);
        sorts_correctly((0..97).rev().map(|x| x * 7 % 31).collect());
        sorts_correctly((0..128).map(|x| (x * 2654435761u64) % 1000).collect());
    }

    #[test]
    fn descending_direction() {
        let tracer = Tracer::new(CountingSink::new());
        let mut buf = tracer.alloc_from(vec![3u64, 9, 1, 7, 7]);
        sort_by_key_dir(&mut buf, Direction::Descending, |x| *x);
        assert_eq!(buf.as_slice(), &[9, 7, 7, 3, 1]);
    }

    #[test]
    fn lexicographic_tuple_keys_with_reverse() {
        use core::cmp::Reverse;
        let tracer = Tracer::new(CountingSink::new());
        // (group, value): ascending group, descending value.
        let mut buf = tracer.alloc_from(vec![(2u64, 1u64), (1, 5), (2, 9), (1, 2)]);
        sort_by_key(&mut buf, |&(g, v)| (g, Reverse(v)));
        assert_eq!(buf.as_slice(), &[(1, 5), (1, 2), (2, 9), (2, 1)]);
    }

    #[test]
    fn scheduled_driver_matches_per_gate_oracle_bit_for_bit() {
        // Differential test: both drivers implement the same network, so
        // the final contents must agree element-wise — including ties,
        // which exercise the ct_select write-back order.
        for n in [0usize, 1, 2, 3, 5, 8, 13, 33, 64, 100, 129] {
            for dir in [Direction::Ascending, Direction::Descending] {
                let input: Vec<u64> = (0..n as u64).map(|x| (x * 2654435761) % 17).collect();
                let t1 = Tracer::new(CountingSink::new());
                let mut scheduled = t1.alloc_from(input.clone());
                sort_by_key_dir(&mut scheduled, dir, |x| *x);
                let t2 = Tracer::new(CountingSink::new());
                let mut per_gate = t2.alloc_from(input);
                sort_by_key_dir_per_gate(&mut per_gate, dir, |x| *x);
                assert_eq!(scheduled.as_slice(), per_gate.as_slice(), "n={n} {dir:?}");
                // Same comparison totals, batched or not.
                assert_eq!(t1.counters().comparisons, t2.counters().comparisons);
                // Same read/write totals, batched or not.
                assert_eq!(
                    t1.with_sink(|s| s.overall()),
                    t2.with_sink(|s| s.overall()),
                    "n={n} {dir:?}"
                );
            }
        }
    }

    #[test]
    fn executed_accesses_follow_the_run_schedule_exactly() {
        // The scheduled driver's collected trace is precisely the expansion
        // of the public run schedule: per run, a read of each window then a
        // write of each window.
        for n in [0usize, 1, 2, 3, 5, 8, 13] {
            let sched = run_schedule(n, Direction::Ascending);
            let tracer = Tracer::new(CollectingSink::new());
            let input: Vec<u64> = (0..n as u64).map(|x| (x * 37) % 11).collect();
            let mut buf = tracer.alloc_from(input);
            sort_by_key(&mut buf, |x| *x);
            let accesses = tracer.with_sink(|s| s.accesses().to_vec());

            let mut expected: Vec<(AccessKind, u64)> = Vec::new();
            for run in sched.runs() {
                for kind in [AccessKind::Read, AccessKind::Write] {
                    for start in [run.lo, run.lo + run.stride] {
                        for g in 0..run.count {
                            expected.push((kind, (start + g) as u64));
                        }
                    }
                }
            }
            let got: Vec<(AccessKind, u64)> = accesses.iter().map(|a| (a.kind, a.index)).collect();
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn trace_is_input_independent() {
        let n = 33usize;
        let run = |input: Vec<u64>| {
            let tracer = Tracer::new(CollectingSink::new());
            let mut buf = tracer.alloc_from(input);
            sort_by_key(&mut buf, |x| *x);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        let a = run((0..n as u64).collect());
        let b = run((0..n as u64).rev().collect());
        let c = run(vec![7; n]);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn comparison_counter_matches_schedule_size() {
        for n in [1usize, 2, 7, 16, 33, 100] {
            let tracer = Tracer::new(CountingSink::new());
            let mut buf = tracer.alloc_from((0..n as u64).rev().collect::<Vec<_>>());
            sort_by_key(&mut buf, |x| *x);
            assert_eq!(
                tracer.counters().comparisons,
                schedule(n).len() as u64,
                "n={n}"
            );
        }
    }
}
