//! Sharded-execution companion: one fixed join, swept over shard counts.
//!
//! Holds a 2048×2048 oblivious pair join fixed and sweeps the
//! coordinator's shard count (1, 2, 4), with the probe side partitioned
//! and the build side replicated.  Each point records the median wall time
//! of the scattered execution plus the coordinator's own telemetry —
//! `shard_scatter_ns_total` (time inside the per-shard engines) and
//! `shard_merge_ns_total` (the oblivious sorted-run merge) — so a flat or
//! inverted curve is diagnosable from the snapshot alone: merge time that
//! grows with shard count is the O(n log n) recombination tax the
//! coordinator pays for the O((n/N) log²(n/N)) per-shard sorts.
//!
//! Result rows are asserted bit-identical across every shard count (each
//! point ends in the same canonical key-sorted merge), and per-point trace
//! digests are recorded: they differ *across* shard counts (the access
//! pattern really is different work) but are deterministic for a fixed
//! (plan, sizes, shard count) — the report asserts that too, by running
//! every point twice on fresh coordinators.
//!
//! Prints one JSON document (schema `obliv-bench/fig10-shard-scaling/v1`)
//! to stdout; pass `--out <path>` to also write it to a file (CI redirects
//! it into the `BENCH_10.json` artifact).

use std::time::Instant;

use obliv_engine::{EngineConfig, Plan, QueryRequest};
use obliv_join::Table;
use obliv_shard::{Coordinator, ShardConfig};

/// Rows per side.
const ROWS_PER_SIDE: usize = 2048;
/// Shard counts swept (1 = the single-engine-equivalent baseline).
const SHARD_SWEEP: [usize; 3] = [1, 2, 4];
const ITERS: usize = 5;

fn pair_table(rows: usize, salt: u64) -> Table {
    Table::from_pairs((0..rows as u64).map(|i| (i % 64, (i * 37 + salt) % 1009)))
}

fn coordinator(shards: usize) -> Coordinator {
    let c = Coordinator::new(ShardConfig {
        shards,
        partitioned: vec!["orders".into()],
        engine: EngineConfig {
            workers: 1,
            // Every iteration must execute, not replay the result cache.
            result_cache: false,
            ..Default::default()
        },
        ..ShardConfig::default()
    });
    c.register_table("orders", pair_table(ROWS_PER_SIDE, 3))
        .unwrap();
    c.register_table("customers", pair_table(ROWS_PER_SIDE, 11))
        .unwrap();
    c
}

fn request() -> QueryRequest {
    QueryRequest::new(
        "fig10-join",
        Plan::scan("orders")
            .join(Plan::scan("customers"), "key", "key")
            .project(["key", "right_value"]),
    )
}

struct Point {
    shards: usize,
    median_secs: f64,
    scatter_ns: u64,
    merge_ns: u64,
    digest: String,
    rows: Vec<Vec<u8>>,
}

fn measure(shards: usize) -> Point {
    let c = coordinator(shards);
    let batch = vec![request()];
    let mut digest = String::new();
    let mut rows: Vec<Vec<u8>> = Vec::new();
    let mut samples: Vec<f64> = (0..ITERS + 1)
        .map(|_| {
            let start = Instant::now();
            let responses = c.execute_batch(&batch).unwrap();
            let secs = start.elapsed().as_secs_f64();
            digest = responses[0].summary.trace_digest.clone();
            let table = responses[0].rows.table();
            rows = (0..table.len())
                .map(|i| table.row_bytes(i).to_vec())
                .collect();
            secs
        })
        .collect();
    samples.remove(0); // warm-up iteration
    samples.sort_by(|a, b| a.total_cmp(b));
    let snap = c.metrics().snapshot();
    Point {
        shards,
        median_secs: samples[samples.len() / 2],
        scatter_ns: snap.counter("shard_scatter_ns_total", &[]),
        merge_ns: snap.counter("shard_merge_ns_total", &[]),
        digest,
        rows,
    }
}

fn main() {
    let out_path = {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(arg) = args.next() {
            if arg == "--out" {
                path = args.next();
            }
        }
        path
    };

    let points: Vec<Point> = SHARD_SWEEP.iter().map(|&shards| measure(shards)).collect();

    // Every shard count ends in the same canonical key-sorted merge, so
    // the result rows must be bit-identical across the whole sweep …
    for p in &points[1..] {
        assert_eq!(
            p.rows, points[0].rows,
            "{} shards must be row-identical to the 1-shard baseline",
            p.shards
        );
    }
    // … and each point's digest must be deterministic for its own
    // (plan, sizes, shard count), shown by a fresh coordinator replay.
    for p in &points {
        assert_eq!(
            measure(p.shards).digest,
            p.digest,
            "{} shards must be digest-deterministic",
            p.shards
        );
    }

    let single_secs = points[0].median_secs;
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\n      \"shards\": {},\n      \
                 \"median_secs\": {:.6},\n      \
                 \"speedup_vs_single\": {:.2},\n      \
                 \"scatter_ns\": {},\n      \
                 \"merge_ns\": {},\n      \
                 \"trace_digest\": \"{}\"\n    }}",
                p.shards,
                p.median_secs,
                single_secs / p.median_secs,
                p.scatter_ns,
                p.merge_ns,
                p.digest,
            )
        })
        .collect();
    // Shards scatter on scoped threads, so with no spare cores the sweep
    // degenerates to serialised per-shard runs plus the merge tax; the
    // curve is only meaningful relative to this.
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let json = format!(
        "{{\n  \"schema\": \"obliv-bench/fig10-shard-scaling/v1\",\n  \
         \"query\": \"join orders customers ON key | project key,right_value\",\n  \
         \"rows_per_side\": {},\n  \"partitioned\": \"orders\",\n  \"host_cpus\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        ROWS_PER_SIDE,
        host_cpus,
        rows.join(",\n"),
    );
    print!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
