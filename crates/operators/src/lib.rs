//! # obliv-operators — oblivious relational operators
//!
//! The paper closes by noting that its primitives — oblivious sorting,
//! distribution and expansion — "could also potentially be useful in
//! providing a general framework for oblivious algorithm design" and that
//! "grouping aggregations over joins could be computed using fewer sorting
//! steps than a full join would require" (§7).  This crate follows both
//! threads: it builds the standard relational operators obliviously from the
//! same primitives, and it implements the grouping-aggregation-over-join
//! operator the future-work section sketches.
//!
//! Every operator has the same leakage profile as the join itself: its
//! memory-access sequence depends only on the input sizes, the (public)
//! schema row widths and, where an output table is produced, on the
//! revealed output size.
//!
//! The operators work over typed multi-column tables
//! ([`obliv_join::schema`]) and select key and payload columns by name; a
//! pair-shaped [`Table`](obliv_join::Table) is the degenerate
//! `{key: u64, value: u64}` schema
//! ([`WideTable::from_pair`](obliv_join::WideTable::from_pair)).
//!
//! | operator | cost | reveals |
//! |----------|------|---------|
//! | [`wide_filter`] | `O(n log n)` | output size |
//! | [`wide_project`] | `O(n)` | nothing |
//! | [`wide_union_all`] | `O(n)` | nothing |
//! | [`wide_distinct`] | `O(n log² n)` | output size |
//! | [`wide_semi_join`] / [`wide_anti_join`] | `O(n log² n)` | output size |
//! | [`wide_join`] | `O(n log² n + m log m)` — the paper's join | output size `m` |
//! | [`wide_group_aggregate`] | `O(n log² n)` | number of groups |
//! | [`wide_join_aggregate`] | `O(n log² n)` — no `m`-sized expansion | number of groups |
//!
//! The two aggregates run on the pair-shaped kernels
//! [`oblivious_group_aggregate`] and [`oblivious_join_aggregate`], which are
//! public too.
//!
//! ```
//! use obliv_join::Table;
//! use obliv_operators::{oblivious_group_aggregate, Aggregate};
//! use obliv_trace::{NullSink, Tracer};
//!
//! // Per-department salary totals, without revealing department sizes.
//! let salaries = Table::from_pairs(vec![(10, 1000), (20, 800), (10, 1200), (30, 500)]);
//! let tracer = Tracer::new(NullSink);
//! let totals = oblivious_group_aggregate(&tracer, &salaries, Aggregate::Sum);
//! assert_eq!(totals.rows(), &[(10, 2200).into(), (20, 800).into(), (30, 500).into()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod join_aggregate;
pub mod wide;

pub use aggregate::{oblivious_group_aggregate, Aggregate};
pub use join_aggregate::{oblivious_join_aggregate, JoinAggregate};
pub use wide::{
    group_aggregate_output_schema, join_aggregate_output_schema, join_output_name,
    join_output_schema, project_output_schema, union_output_schema, validate_membership_keys,
    validate_row_width, wide_anti_join, wide_distinct, wide_filter, wide_group_aggregate,
    wide_join, wide_join_aggregate, wide_project, wide_semi_join, wide_sort, wide_union_all,
    WideCmp, WideError, WidePredicate, MAX_CARRY_WORDS, MAX_ROW_WORDS,
};
