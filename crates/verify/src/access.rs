//! Access-pattern checker for sorting-network traces.
//!
//! The type system in [`check`](crate::check) certifies obliviousness
//! *symbolically*, over the small verification language.  This module adds
//! the complementary *concrete* check: given a recorded public-memory
//! access stream (from a
//! [`CollectingSink`](obliv_trace::CollectingSink)) and the
//! [`RunSchedule`] the sort
//! claims to have executed, confirm that the stream is exactly the serial
//! reference walk of that schedule.
//!
//! A stream with runs missing or duplicated is a length mismatch; one
//! with every access present but some at the wrong offset or in the wrong
//! order is rejected at the first diverging access — the regression tests
//! below pin both.

use obliv_primitives::sort::network::RunSchedule;
use obliv_trace::{Access, ArrayId};

/// Why a recorded access stream is not the serial reference walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessCheckError {
    /// The stream has the wrong number of accesses — entire runs are
    /// missing or duplicated (each gate run contributes `4 × count`
    /// accesses: two read runs and two write runs over its windows).
    LengthMismatch {
        /// Accesses the schedule's serial walk performs.
        expected: usize,
        /// Accesses actually recorded.
        actual: usize,
    },
    /// The stream diverges from the reference walk at one position.
    Divergence {
        /// Index of the first differing access.
        at: usize,
        /// What the serial walk does there.
        expected: Access,
        /// What the stream recorded there.
        actual: Access,
    },
}

impl std::fmt::Display for AccessCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessCheckError::LengthMismatch { expected, actual } => write!(
                f,
                "access stream has {actual} accesses, the schedule's serial walk has {expected}"
            ),
            AccessCheckError::Divergence {
                at,
                expected,
                actual,
            } => write!(
                f,
                "access stream diverges at position {at}: expected {expected:?}, got {actual:?}"
            ),
        }
    }
}

impl std::error::Error for AccessCheckError {}

/// The serial reference walk of `schedule` over `array`: for every gate
/// run, a read run over each of its two windows followed by a write run
/// over each — the exact emission order of the sort driver.
pub fn expected_sort_accesses(array: ArrayId, schedule: &RunSchedule) -> Vec<Access> {
    let mut expected = Vec::with_capacity(4 * schedule.gate_count() as usize);
    for run in schedule.runs() {
        let lo = run.lo as u64;
        let hi = (run.lo + run.stride) as u64;
        let count = run.count as u64;
        for start in [lo, hi] {
            expected.extend((start..start + count).map(|i| Access::read(array, i)));
        }
        for start in [lo, hi] {
            expected.extend((start..start + count).map(|i| Access::write(array, i)));
        }
    }
    expected
}

/// Check `actual` element-wise against a precomputed reference stream.
pub fn check_against_reference(
    expected: &[Access],
    actual: &[Access],
) -> Result<(), AccessCheckError> {
    if expected.len() != actual.len() {
        return Err(AccessCheckError::LengthMismatch {
            expected: expected.len(),
            actual: actual.len(),
        });
    }
    for (at, (want, got)) in expected.iter().zip(actual).enumerate() {
        if want != got {
            return Err(AccessCheckError::Divergence {
                at,
                expected: *want,
                actual: *got,
            });
        }
    }
    Ok(())
}

/// Check that `actual` is exactly the serial walk of `schedule` over
/// `array`.
pub fn check_sort_accesses(
    array: ArrayId,
    schedule: &RunSchedule,
    actual: &[Access],
) -> Result<(), AccessCheckError> {
    check_against_reference(&expected_sort_accesses(array, schedule), actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_primitives::sort::network::cached_bitonic_runs;
    use obliv_primitives::sort::{bitonic, Direction};
    use obliv_trace::{CollectingSink, Tracer};

    const N: usize = 32;

    /// Accesses recorded while sorting only (the allocation is an event,
    /// not an access, so the stream is purely the sort's).
    fn sorted_accesses() -> Vec<Access> {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc_from((0..N as u64).map(|i| (i * 29) % 17).collect::<Vec<_>>());
        bitonic::sort_by_key(&mut buf, |v| *v);
        tracer.with_sink(|s| s.accesses().to_vec())
    }

    #[test]
    fn serial_sort_trace_is_the_reference_walk() {
        let schedule = cached_bitonic_runs(N, Direction::Ascending);
        let accesses = sorted_accesses();
        let array = accesses[0].array;
        check_sort_accesses(array, &schedule, &accesses).expect("serial walk is the reference");
    }

    #[test]
    fn reordered_accesses_are_a_divergence() {
        // Same accesses, two of them swapped: the length still matches, so
        // the checker must pin the first out-of-place access.
        let schedule = cached_bitonic_runs(N, Direction::Ascending);
        let mut accesses = sorted_accesses();
        let array = accesses[0].array;
        let at = accesses
            .windows(2)
            .position(|w| w[0] != w[1])
            .expect("a sort touches more than one cell");
        accesses.swap(at, at + 1);
        let err = check_sort_accesses(array, &schedule, &accesses)
            .expect_err("a reordered stream must be rejected");
        assert_eq!(
            err,
            AccessCheckError::Divergence {
                at,
                expected: accesses[at + 1],
                actual: accesses[at],
            }
        );
    }

    #[test]
    fn missing_runs_are_a_length_mismatch() {
        let schedule = cached_bitonic_runs(N, Direction::Ascending);
        let accesses = sorted_accesses();
        let array = accesses[0].array;
        let truncated = &accesses[..accesses.len() - 4];
        assert!(matches!(
            check_sort_accesses(array, &schedule, truncated),
            Err(AccessCheckError::LengthMismatch { .. })
        ));
    }
    #[test]
    fn errors_render_their_positions() {
        let e = AccessCheckError::Divergence {
            at: 7,
            expected: Access::read(ArrayId(0), 1),
            actual: Access::read(ArrayId(0), 2),
        };
        assert!(e.to_string().contains("position 7"));
        let e = AccessCheckError::LengthMismatch {
            expected: 8,
            actual: 4,
        };
        assert!(e.to_string().contains('8') && e.to_string().contains('4'));
    }
}
