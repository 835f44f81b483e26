//! Per-layer costs for the traced run: each one times calls into a layer's
//! public API (inside a span) or reads accounting the API already returns.
//! Nothing is instrumented inside the program.

use std::time::Instant;

use obliv_engine::{parse_query, Catalog, Engine, QueryRequest};
use obliv_join::schema::{Value, WideTable};
use obliv_join::{cost, oblivious_join_with_tracer, AugRecord, Phase, Table, TableId};
use obliv_operators::{wide_filter, wide_group_aggregate, wide_join, Aggregate, WidePredicate};
use obliv_primitives::sort::bitonic;
use obliv_primitives::{oblivious_compact, oblivious_distribute, Routable};
use obliv_trace::{CountingSink, HashingSink, NullSink, TraceSink, Tracer};

use crate::stats::{median, ms, Metric, Spans};

/// Repetitions of each timed layer call (the metric is their median).
pub const REPS: usize = 5;

/// One wide join as a workload's queries run it.
pub struct JoinCall<'a> {
    pub left: &'a WideTable,
    pub right: &'a WideTable,
    pub key: &'a str,
    pub carry_left: Vec<String>,
    pub carry_right: Vec<String>,
}

impl JoinCall<'_> {
    fn run<S: TraceSink>(&self, tracer: &Tracer<S>) -> usize {
        wide_join(
            tracer,
            self.left,
            self.right,
            self.key,
            self.key,
            &self.carry_left,
            &self.carry_right,
        )
        .expect("benchmark join is valid")
        .len()
    }
}

/// One filter and one aggregate over a workload's scanned table.
pub struct ScanCall<'a> {
    pub table: &'a WideTable,
    pub filter_col: &'a str,
    pub filter_at_least: Value,
    pub group_by: &'a str,
    pub sum_col: &'a str,
}

/// Time `f` `reps` times inside spans named `name`; durations in ms.
fn timed<R>(
    spans: &mut Spans,
    name: &str,
    root: usize,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let (out, d) = spans.time(name, Some(root), 0, &mut f);
            std::hint::black_box(out);
            ms(d)
        })
        .collect()
}

/// `core.*`, `primitives.*` and `baselines.*` on pair-shaped kernel inputs.
pub fn kernel_layers(
    spans: &mut Spans,
    root: usize,
    left: &Table,
    right: &Table,
    reps: usize,
) -> Vec<Metric> {
    let mut phase_ms: [Vec<f64>; 4] = Default::default();
    let mut last = None;
    for _ in 0..reps {
        let (result, _) = spans.time("core.oblivious_join", Some(root), 0, || {
            oblivious_join_with_tracer(&Tracer::new(NullSink), left, right)
        });
        let s = &result.stats;
        phase_ms[0].push(ms(s.phase(Phase::Augment).wall));
        phase_ms[1].push(ms(
            s.phase(Phase::ExpandLeft).wall + s.phase(Phase::ExpandRight).wall
        ));
        phase_ms[2].push(ms(s.phase(Phase::Align).wall));
        phase_ms[3].push(ms(s.phase(Phase::Zip).wall));
        last = Some(result.stats);
    }
    let stats = last.expect("at least one repetition");
    let ops = stats.total_ops();
    let (n1, n2, m) = (left.len(), right.len(), stats.output_size as usize);
    let predicted = cost::predict(n1, n2, m);
    let measured = ops.comparisons + ops.routing_hops;
    let error = measured.abs_diff(predicted.total_ops());

    // Primitives at the kernel's sizes, on kernel-width records.
    let records: Vec<AugRecord> = left
        .iter()
        .map(|&e| AugRecord::from_entry(e, TableId::Left))
        .chain(
            right
                .iter()
                .map(|&e| AugRecord::from_entry(e, TableId::Right)),
        )
        .collect();
    let sort = timed(spans, "primitives.sort", root, reps, || {
        let mut buf = Tracer::new(NullSink).alloc_from(records.clone());
        bitonic::sort_by_key(&mut buf, |r: &AugRecord| r.key);
        buf.len()
    });
    // n₁ records routed to injective destinations spread over m slots.
    let routed: Vec<AugRecord> = records[..n1]
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = *r;
            let slot = (i * 7919) % n1;
            r.set_dest((slot * m.max(n1) / n1) as u64 + 1);
            r
        })
        .collect();
    let distribute = timed(spans, "primitives.distribute", root, reps, || {
        oblivious_distribute(Tracer::new(NullSink).alloc_from(routed.clone()), m.max(n1)).len()
    });
    let holey: Vec<AugRecord> = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = *r;
            if i % 2 == 1 {
                r.set_null();
            }
            r
        })
        .collect();
    let compact = timed(spans, "primitives.compact", root, reps, || {
        oblivious_compact(Tracer::new(NullSink).alloc_from(holey.clone())).live
    });
    let insecure = timed(spans, "baselines.sort_merge_join", root, reps, || {
        obliv_baselines::sort_merge_join(left, right).0.len()
    });

    vec![
        Metric::median_of("core.augment_ms", "ms", &phase_ms[0]),
        Metric::median_of("core.expand_ms", "ms", &phase_ms[1]),
        Metric::median_of("core.align_ms", "ms", &phase_ms[2]),
        Metric::median_of("core.zip_ms", "ms", &phase_ms[3]),
        Metric::single("core.comparisons", "count", ops.comparisons as f64),
        Metric::single("core.routing_hops", "count", ops.routing_hops as f64),
        Metric::single("core.cost_model_error_ops", "count", error as f64),
        Metric::median_of("primitives.sort_ms", "ms", &sort),
        Metric::median_of("primitives.distribute_ms", "ms", &distribute),
        Metric::median_of("primitives.compact_ms", "ms", &compact),
        Metric::median_of("baselines.insecure_join_ms", "ms", &insecure),
    ]
}

/// `trace.witness_ms`, `trace.sink_ms` and `operators.*`.
pub fn operator_layers(
    spans: &mut Spans,
    root: usize,
    join: &JoinCall,
    scan: &ScanCall,
    reps: usize,
) -> Vec<Metric> {
    let null = timed(spans, "operators.join", root, reps, || {
        join.run(&Tracer::new(NullSink))
    });
    let counting = timed(spans, "trace.counting_join", root, reps, || {
        join.run(&Tracer::new(CountingSink::new()))
    });
    let hashing = timed(spans, "trace.hashing_join", root, reps.min(3), || {
        join.run(&Tracer::new(HashingSink::new()))
    });
    let predicate = WidePredicate::at_least(scan.filter_col, scan.filter_at_least.clone());
    let filter = timed(spans, "operators.filter", root, reps, || {
        wide_filter(&Tracer::new(NullSink), scan.table, &predicate)
            .expect("benchmark filter is valid")
            .len()
    });
    let aggregate = timed(spans, "operators.aggregate", root, reps, || {
        wide_group_aggregate(
            &Tracer::new(NullSink),
            scan.table,
            scan.group_by,
            Aggregate::Sum,
            Some(scan.sum_col),
        )
        .expect("benchmark aggregate is valid")
        .len()
    });
    let (null_ms, count_ms, hash_ms) = (median(&null), median(&counting), median(&hashing));
    vec![
        Metric::single("trace.witness_ms", "ms", hash_ms - null_ms),
        Metric::single("trace.sink_ms", "ms", count_ms - null_ms),
        Metric::median_of("operators.join_ms", "ms", &null),
        Metric::median_of("operators.filter_ms", "ms", &filter),
        Metric::median_of("operators.aggregate_ms", "ms", &aggregate),
    ]
}

/// Tables a workload registers, for resolution and in-process execution.
pub enum Registered<'a> {
    Pair(&'a str, &'a Table),
    Wide(&'a str, &'a WideTable),
}

/// `engine.parse_ms`, `engine.resolve_ms` and `engine.execute_ms` over a
/// sample of the workload's query texts.
pub fn engine_layers(
    spans: &mut Spans,
    root: usize,
    texts: &[String],
    tables: &[Registered],
    reps: usize,
) -> Vec<Metric> {
    let mut catalog = Catalog::new();
    let engine = Engine::new(crate::serve::engine_config());
    for t in tables {
        match t {
            Registered::Pair(name, table) => {
                catalog
                    .register(*name, (*table).clone())
                    .expect("register pair table");
                engine
                    .register_table(*name, (*table).clone())
                    .expect("register pair table");
            }
            Registered::Wide(name, table) => {
                catalog
                    .register_wide(*name, (*table).clone())
                    .expect("register wide table");
                engine
                    .register_wide_table(*name, (*table).clone())
                    .expect("register wide table");
            }
        }
    }
    let mut parse = Vec::new();
    let mut resolve = Vec::new();
    let mut requests = Vec::new();
    for text in texts {
        let (plan, d) = spans.time("engine.parse", Some(root), 0, || {
            parse_query(text).expect("query parses")
        });
        parse.push(ms(d));
        let (resolved, d) = spans.time("engine.resolve", Some(root), 0, || plan.resolve(&catalog));
        resolved.expect("query resolves");
        resolve.push(ms(d));
        requests.push(QueryRequest::new(text.clone(), plan));
    }
    let per_query: Vec<f64> = (0..reps)
        .map(|_| {
            engine.clear_result_cache();
            let (out, d) = spans.time("engine.execute_batch", Some(root), 0, || {
                engine.execute_batch(&requests)
            });
            out.expect("in-process batch runs");
            ms(d) / requests.len().max(1) as f64
        })
        .collect();
    vec![
        Metric::median_of("engine.parse_ms", "ms", &parse),
        Metric::median_of("engine.resolve_ms", "ms", &resolve),
        Metric::median_of("engine.execute_ms", "ms", &per_query),
    ]
}

/// Wall time of `f` in milliseconds.
pub fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    ms(t.elapsed())
}

/// `trace.sink_ms` for the bare kernel: `oblivious_join` under
/// `CountingSink` minus under `NullSink`, the two calls alternated.
pub fn kernel_sink_ms(
    spans: &mut Spans,
    root: usize,
    left: &Table,
    right: &Table,
    reps: usize,
) -> Metric {
    let mut null = Vec::new();
    let mut counting = Vec::new();
    for _ in 0..reps {
        let (_, d) = spans.time("core.oblivious_join", Some(root), 0, || {
            oblivious_join_with_tracer(&Tracer::new(NullSink), left, right).len()
        });
        null.push(ms(d));
        let (_, d) = spans.time("trace.counting_join", Some(root), 0, || {
            oblivious_join_with_tracer(&Tracer::new(CountingSink::new()), left, right).len()
        });
        counting.push(ms(d));
    }
    Metric::single("trace.sink_ms", "ms", median(&counting) - median(&null))
}
