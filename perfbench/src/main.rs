//! The repository's benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig8_kernel|join_skew|serve_mix|shard_join> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up several times (the median is `setup_s`),
//! then drives it closed-loop for `--seconds`, checking every answer
//! against a plain-Rust reference.  With `--trace 0` it reports the
//! end-to-end metrics, its timings scaled to a reference host speed (see
//! `calib`); with `--trace 1` it records spans around every call
//! it makes into a layer's public API, times each layer on the workload's
//! inputs, and reports the per-layer metrics.  The last line of standard
//! output is the result object; the line before it is the run record
//! (host, commit, toolchain, seed, parameters, sample counts, quartiles).
//! See `perfbench/README.md`.

mod calib;
mod gen;
mod layers;
mod reference;
mod serve;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use obliv_engine::MetricValue;

use crate::serve::{Class, Sample, Stack};
use crate::stats::{json_str, median, ms, num, Metric, Spans};
use crate::workloads::{Checks, Fig8, Mix, Served, Shard, Skew, Window};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 51;

/// Every per-layer metric, in report order, with its unit.
const PER_LAYER: [(&str, &str); 34] = [
    ("trace.events", "count"),
    ("trace.witness_ms", "ms"),
    ("trace.sink_ms", "ms"),
    ("core.augment_ms", "ms"),
    ("core.expand_ms", "ms"),
    ("core.align_ms", "ms"),
    ("core.zip_ms", "ms"),
    ("core.comparisons", "count"),
    ("core.routing_hops", "count"),
    ("core.cost_model_error_ops", "count"),
    ("primitives.sort_ms", "ms"),
    ("primitives.distribute_ms", "ms"),
    ("primitives.compact_ms", "ms"),
    ("operators.join_ms", "ms"),
    ("operators.filter_ms", "ms"),
    ("operators.aggregate_ms", "ms"),
    ("engine.parse_ms", "ms"),
    ("engine.resolve_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.queue_wait_p50_ms", "ms"),
    ("engine.queue_wait_p99_ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.register_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.batch_occupancy", "requests"),
    ("server.bytes_per_query", "bytes"),
    ("shard.overhead_ms", "ms"),
    ("shard.scatter_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("baselines.insecure_join_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("client.hit_p50_ms", "ms"),
    ("client.short_p50_ms", "ms"),
    ("client.short_p99_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Everything one run reports.
struct Report {
    params: gen::Params,
    attempted: u64,
    failed: u64,
    checks: Checks,
    metrics: Vec<Metric>,
    /// The end-to-end metrics without host-speed scaling, for the record.
    unscaled: Vec<Metric>,
    reference_ms: Metric,
    counts: Vec<(&'static str, u64)>,
    not_on_path: Vec<&'static str>,
    spans: Option<Spans>,
}

/// Set-up times in seconds, as measured and scaled to the reference host
/// speed.
#[derive(Default)]
struct Setup {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Setup {
    /// Time `make` after a host-speed calibration.
    fn time<T>(&mut self, make: impl FnOnce() -> T) -> T {
        let host = calib::factor_now();
        let start = Instant::now();
        let state = make();
        let secs = start.elapsed().as_secs_f64();
        self.raw.push(secs);
        self.scaled.push(secs * host);
        state
    }

    /// Set up until `SETUPS` set-ups are timed, dropping (so tearing down)
    /// each at once.  Running these after the window keeps their memory out
    /// of `peak_rss_mb`.
    fn finish<T>(&mut self, mut make: impl FnMut() -> T) {
        while self.raw.len() < SETUPS {
            drop(self.time(&mut make));
        }
    }
}

fn latencies(samples: &[Sample], class: Option<Class>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| class.is_none_or(|c| s.class == c))
        .map(|s| ms(s.latency))
        .collect()
}

/// The end-to-end metrics of a window, measured with tracing off: scaled
/// to the reference host speed when `scaled`, else as measured.
fn end_to_end(window: &Window, setup: &Setup, scaled: bool) -> Vec<Metric> {
    let (all, secs, setup_s): (Vec<f64>, f64, &[f64]) = if scaled {
        let c = &window.calibration;
        (
            window
                .samples
                .iter()
                .map(|s| ms(s.latency) * c.factor(s.epoch))
                .collect(),
            c.scaled_secs(),
            &setup.scaled,
        )
    } else {
        (
            latencies(&window.samples, None),
            window.elapsed.as_secs_f64(),
            &setup.raw,
        )
    };
    let verified = window.samples.iter().filter(|s| s.ok).count();
    vec![
        Metric::median_of("setup_s", "s", setup_s),
        Metric::quantile_of("query_p50_ms", "ms", &all, 0.5),
        Metric::quantile_of("query_p90_ms", "ms", &all, 0.9),
        Metric::single("qps", "1/s", verified as f64 / secs),
        Metric::single("peak_rss_mb", "MB", window.peak_rss_mb),
    ]
}

/// Per-layer metrics every workload derives from its window's replies.
fn window_layers(window: &Window) -> Vec<Metric> {
    let s = &window.samples;
    let fresh: Vec<&Sample> = s.iter().filter(|x| x.class != Class::Hit).collect();
    let events: Vec<f64> = fresh.iter().map(|x| x.trace_events as f64).collect();
    let queue: Vec<f64> = fresh.iter().map(|x| ms(x.queue_wait)).collect();
    let overhead: Vec<f64> = s
        .iter()
        .map(|x| {
            ms(x.latency)
                - if x.class == Class::Hit {
                    0.0
                } else {
                    ms(x.wall)
                }
        })
        .collect();
    // Traced against untraced operations, compared template by template
    // (the workloads mix query shapes of very different cost).
    let mut by_template: BTreeMap<(&str, Class), [Vec<f64>; 2]> = BTreeMap::new();
    for (x, &traced) in s.iter().zip(&window.traced_flags) {
        by_template.entry((x.template, x.class)).or_default()[traced as usize].push(ms(x.latency));
    }
    let ratios: Vec<f64> = by_template
        .values()
        .filter(|[off, on]| !off.is_empty() && !on.is_empty())
        .map(|[off, on]| median(on) / median(off))
        .collect();
    let shorts = latencies(s, Some(Class::Short));
    vec![
        Metric::median_of("trace.events", "count", &events),
        Metric::quantile_of("engine.queue_wait_p50_ms", "ms", &queue, 0.5),
        Metric::quantile_of("engine.queue_wait_p99_ms", "ms", &queue, 0.99),
        Metric::median_of("server.overhead_ms", "ms", &overhead),
        Metric::single(
            "bench.trace_overhead_pct",
            "%",
            (median(&ratios) - 1.0) * 100.0,
        ),
        Metric::median_of("client.hit_p50_ms", "ms", &latencies(s, Some(Class::Hit))),
        Metric::quantile_of("client.short_p50_ms", "ms", &shorts, 0.5),
        Metric::quantile_of("client.short_p99_ms", "ms", &shorts, 0.99),
    ]
}

/// Server-side accounting read over the wire: metrics scrape before and
/// after the window, cache statistics from the executor.
struct ServerCounters {
    bytes: u64,
    batches: u64,
    batched: u64,
    scatter_ns: u64,
    merge_ns: u64,
    hits: u64,
    misses: u64,
}

fn server_counters(stack: &mut Stack) -> ServerCounters {
    let snap = stack.clients[0].metrics().expect("metrics scrape");
    let (batches, batched) = match snap.get("server_batch_occupancy", &[]) {
        Some(MetricValue::Histogram(h)) => (h.count, h.sum),
        _ => (0, 0),
    };
    let cache = stack.backend.executor().cache_stats();
    ServerCounters {
        bytes: snap.counter("server_bytes_read_total", &[])
            + snap.counter("server_bytes_written_total", &[]),
        batches,
        batched,
        scatter_ns: snap.counter("shard_scatter_ns_total", &[]),
        merge_ns: snap.counter("shard_merge_ns_total", &[]),
        hits: cache.hits,
        misses: cache.misses,
    }
}

fn server_layers(before: &ServerCounters, after: &ServerCounters, window: &Window) -> Vec<Metric> {
    let queries = window.samples.len().max(1) as f64;
    let fresh = window
        .samples
        .iter()
        .filter(|s| s.class != Class::Hit)
        .count()
        .max(1) as f64;
    let batches = (after.batches - before.batches).max(1) as f64;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    vec![
        Metric::single(
            "server.batch_occupancy",
            "requests",
            (after.batched - before.batched) as f64 / batches,
        ),
        Metric::single(
            "server.bytes_per_query",
            "bytes",
            (after.bytes - before.bytes) as f64 / queries,
        ),
        Metric::single(
            "engine.cache_hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        Metric::single(
            "shard.scatter_ms",
            "ms",
            (after.scatter_ns - before.scatter_ns) as f64 / 1e6 / fresh,
        ),
        Metric::single(
            "shard.merge_ms",
            "ms",
            (after.merge_ns - before.merge_ns) as f64 / 1e6 / fresh,
        ),
    ]
}

fn window_counts(window: &Window) -> Vec<(&'static str, u64)> {
    let count = |c: Class| window.samples.iter().filter(|s| s.class == c).count() as u64;
    vec![
        ("queries", window.samples.len() as u64),
        (
            "verified",
            window.samples.iter().filter(|s| s.ok).count() as u64,
        ),
        ("hits", count(Class::Hit)),
        ("fresh_short", count(Class::Short)),
        ("fresh_join", count(Class::Join)),
        ("refreshes", window.refresh_ms.len() as u64),
        (
            "traced",
            window.traced_flags.iter().filter(|&&f| f).count() as u64,
        ),
    ]
}

fn report_of(
    params: gen::Params,
    window: &Window,
    checks: Checks,
    setup: &Setup,
    layer_metrics: Option<Vec<Metric>>,
    spans: Option<Spans>,
) -> Report {
    let failed = window.samples.iter().filter(|s| !s.ok).count() as u64 + window.failed_other;
    let (metrics, not_on_path) = match layer_metrics {
        None => (end_to_end(window, setup, true), Vec::new()),
        Some(measured) => complete_layers(measured),
    };
    Report {
        params,
        attempted: (window.samples.len() + window.refresh_ms.len()) as u64,
        failed,
        checks,
        metrics,
        unscaled: end_to_end(window, setup, false),
        reference_ms: Metric::median_of("reference_ms", "ms", &window.calibration.reference_ms),
        counts: window_counts(window),
        not_on_path,
        spans,
    }
}

/// Order the measured per-layer metrics as `PER_LAYER`; a layer the
/// workload's path does not reach reports 0 and is named in the record.
fn complete_layers(measured: Vec<Metric>) -> (Vec<Metric>, Vec<&'static str>) {
    let mut by_name: BTreeMap<&str, Metric> = measured.into_iter().map(|m| (m.name, m)).collect();
    let mut missing = Vec::new();
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            by_name.remove(name).unwrap_or_else(|| {
                missing.push(name);
                Metric::single(name, unit, 0.0)
            })
        })
        .collect();
    assert!(
        by_name.is_empty(),
        "unlisted per-layer metrics: {:?}",
        by_name.keys()
    );
    (metrics, missing)
}

fn run_fig8(args: &Args) -> Report {
    let mut setup = Setup::default();
    let state = setup.time(|| workloads::fig8_setup(args.seed));
    let (expected, twist_ok) = workloads::fig8_prepare(&state, args.seed);
    let mut spans = args.trace.then(|| Spans::new(Instant::now()));
    let (window, checks) =
        workloads::fig8_window(&state, &expected, args.seconds, twist_ok, spans.as_mut());
    setup.finish(|| workloads::fig8_setup(args.seed));
    let layer_metrics = spans
        .as_mut()
        .map(|spans| fig8_layers(spans, &state, &window));
    report_of(
        workloads::fig8_params(),
        &window,
        checks,
        &setup,
        layer_metrics,
        spans,
    )
}

fn fig8_layers(spans: &mut Spans, state: &Fig8, window: &Window) -> Vec<Metric> {
    let root = spans.begin("bench.layers", None, 0);
    let (left, right) = (&state.left, &state.right);
    let mut m = layers::kernel_layers(spans, root, left, right, 3);
    m.push(layers::kernel_sink_ms(spans, root, left, right, 3));
    spans.end(root);
    m.extend(
        window_layers(window)
            .into_iter()
            .filter(|m| m.name == "bench.trace_overhead_pct"),
    );
    m
}

/// A workload behind the server: set up, prepare, run the window, and in a
/// traced run add the server-side accounting and the workload's layers.
fn run_served<W: Served>(args: &Args) -> Report {
    let mut setup = Setup::default();
    let mut state = setup.time(|| W::setup(args.seed));
    let (reference, twist_ok) = state.prepare(args.seed);
    let mut spans = args.trace.then(|| Spans::new(Instant::now()));
    let before = args.trace.then(|| server_counters(state.stack()));
    let (window, checks, texts) = state.window(
        &reference,
        args.seed,
        args.seconds,
        twist_ok,
        spans.as_mut(),
    );
    setup.finish(|| W::setup(args.seed));
    let layer_metrics = spans.as_mut().map(|spans| {
        let after = server_counters(state.stack());
        let mut m = window_layers(&window);
        m.extend(server_layers(
            before.as_ref().expect("traced"),
            &after,
            &window,
        ));
        let root = spans.begin("bench.layers", None, 0);
        m.extend(state.layers(spans, root, &texts, &window, args.seed));
        spans.end(root);
        m
    });
    report_of(W::params(), &window, checks, &setup, layer_metrics, spans)
}

/// The commit when the checkout is a git work tree, else `none`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// SHA-256 over the program's sources (paths and contents, sorted), which
/// identifies the code even where the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" || name == "out" {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else if name.ends_with(".rs") || name.ends_with(".toml") || name == "Cargo.lock" {
                out.push(path);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    for dir in ["crates", "src", "perfbench"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    files.dedup();
    let mut hasher = obliv_trace::sha256::Sha256::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            hasher.update(f.to_string_lossy().as_bytes());
            hasher.update(&bytes);
        }
    }
    obliv_trace::sha256::Sha256::hex(&hasher.finalize())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

fn write_trace(args: &Args, spans: &Spans) -> String {
    let dir = Path::new("perfbench").join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.chrome_json())) {
        Ok(()) => path.to_string_lossy().into_owned(),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            String::new()
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "fig8_kernel" => run_fig8(&args),
        "join_skew" => run_served::<Skew>(&args),
        "serve_mix" => run_served::<Mix>(&args),
        "shard_join" => run_served::<Shard>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let correct = report.failed == 0 && report.checks.ok();

    let mut record = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        (
            "host_cpus",
            std::thread::available_parallelism().map_or(0, |n| n.get()).to_string(),
        ),
        ("commit", json_str(&commit())),
        ("source_sha256", json_str(&source_digest())),
        ("rustc", json_str(&rustc_version())),
        ("setups", SETUPS.to_string()),
        ("params", report.params.to_json()),
        (
            "samples",
            format!(
                "{{{}}}",
                report
                    .counts
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        (
            "failed_frac",
            num(report.failed as f64 / report.attempted.max(1) as f64),
        ),
        (
            "checks",
            format!(
                "{{\"equal_shape_groups\":{},\"equal_shape_mismatches\":{},\"content_twist_equal\":{}}}",
                report.checks.shape_groups, report.checks.shape_mismatches, report.checks.twist_ok
            ),
        ),
        (
            "metrics",
            format!(
                "{{{}}}",
                report.metrics.iter().map(Metric::record_json).collect::<Vec<_>>().join(",")
            ),
        ),
        (
            "unscaled",
            format!(
                "{{{}}}",
                report.unscaled.iter().map(Metric::record_json).collect::<Vec<_>>().join(",")
            ),
        ),
        ("host", format!("{{{}}}", report.reference_ms.record_json())),
        (
            "not_on_path",
            format!(
                "[{}]",
                report.not_on_path.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(",")
            ),
        ),
    ];
    if let Some(spans) = &report.spans {
        let selfs = spans.layer_self_ms();
        record.push((
            "layer_self_ms",
            format!(
                "{{{}}}",
                selfs
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_str(k), num(*v)))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ));
        record.push(("trace_file", json_str(&write_trace(&args, spans))));
    }
    println!(
        "{{\"record\":{{{}}}}}",
        record
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        report.attempted,
        report.failed,
        report
            .metrics
            .iter()
            .map(|m| format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: the run saw wrong or failed answers");
        ExitCode::FAILURE
    }
}
