//! The four workloads: inputs, request streams, and their timed windows.
//!
//! Every workload separates a timed set-up (inputs generated, engine or
//! coordinator built, tables registered, server bound, clients connected)
//! from an untimed preparation (the plain-Rust reference answers, the
//! content-twist check, warm-up queries), so `setup_s` times only what a
//! user of the program waits for.

use std::sync::Arc;
use std::time::{Duration, Instant};

use obliv_engine::{parse_query, Engine};
use obliv_join::schema::{Value, WideTable};
use obliv_join::{oblivious_join, oblivious_join_with_tracer, sorted_rows, JoinRow, Table};
use obliv_server::Client;
use obliv_shard::{chunk_bounds, Coordinator, ShardConfig};
use obliv_trace::{HashingSink, Tracer};

use crate::calib::{Calibration, HostClock};
use crate::gen::{self, Deck, Params, Rng, VALUE_RANGE};
use crate::layers::{self, JoinCall, Registered, ScanCall};
use crate::reference::{Agg, Cmp, Expected, Rel};
use crate::serve::{self, Backend, Class, QuerySpec, Sample, Stack};
use crate::stats::{ms, peak_rss_mb, Metric, Spans};

/// Content-twist salt: the twisted inputs have the workload's public shape
/// and different contents.
const TWIST: u64 = 0x7a11_5eed;

/// Result of a run's content checks beyond per-reply answers.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Equal-shape groups whose digests (or op counters) were compared.
    pub shape_groups: u64,
    pub shape_mismatches: u64,
    /// The content-twisted pair gave equal digests.
    pub twist_ok: bool,
}

impl Checks {
    pub fn ok(&self) -> bool {
        self.shape_mismatches == 0 && self.twist_ok
    }
}

/// What a timed window produced.
pub struct Window {
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    pub calibration: Calibration,
    /// Peak resident memory once the window's first `rss_after_ops`
    /// operations are done (or at its end, if it did fewer).
    pub peak_rss_mb: f64,
    /// Failed non-query operations (catalog refreshes).
    pub failed_other: u64,
    pub refresh_ms: Vec<f64>,
    /// Odd operations ran inside spans, even ones without (traced runs).
    pub traced_flags: Vec<bool>,
}

/// Closed loop: run operation `i = 0, 1, …` (traced when `tracing` and `i`
/// is odd) for `seconds`, calibrating the host speed between operations.
///
/// The program's memory grows with the number of queries it has answered
/// (the result cache keeps every fresh reply), and so with the host's
/// speed; the peak is read after a fixed number of operations instead.
fn timed_loop(
    seconds: u64,
    tracing: bool,
    rss_after_ops: u64,
    mut op: impl FnMut(u64, bool) -> Sample,
) -> Window {
    let mut clock = HostClock::start();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut samples = Vec::new();
    let mut traced_flags = Vec::new();
    let mut rss = None;
    while Instant::now() < deadline {
        clock.tick();
        let i = samples.len() as u64;
        if i == rss_after_ops {
            rss = Some(peak_rss_mb());
        }
        let traced = tracing && i % 2 == 1;
        let mut sample = op(i, traced);
        sample.epoch = clock.epoch();
        samples.push(sample);
        traced_flags.push(traced);
    }
    Window {
        samples,
        elapsed: start.elapsed(),
        calibration: clock.finish(),
        peak_rss_mb: rss.unwrap_or_else(peak_rss_mb),
        failed_other: 0,
        refresh_ms: Vec::new(),
        traced_flags,
    }
}

/// One client, closed loop: operation `i` sends `next(i)` and checks the
/// reply; then equal public shapes must have given equal digests.
fn client_window(
    client: &mut Client,
    seconds: u64,
    rss_after_ops: u64,
    spans: Option<&mut Spans>,
    twist_ok: bool,
    mut next: impl FnMut(u64) -> QuerySpec,
) -> (Window, Checks, Vec<String>) {
    let mut texts = Vec::new();
    let tracing = spans.is_some();
    let mut spans = spans;
    let window = timed_loop(seconds, tracing, rss_after_ops, |i, traced| {
        let spec = next(i);
        let sp = if traced { spans.as_deref_mut() } else { None };
        let sample = serve::send_traced(client, &spec, sp, i);
        serve::note_text(&mut texts, &spec.text);
        sample
    });
    let (shape_groups, shape_mismatches) = serve::check_equal_shapes(&window.samples);
    let checks = Checks {
        shape_groups,
        shape_mismatches,
        twist_ok,
    };
    (window, checks, texts)
}

fn twist_digest(backend: &Backend, text: &str) -> String {
    let req =
        obliv_engine::QueryRequest::new("twist", parse_query(text).expect("twist query parses"));
    backend
        .executor()
        .execute_batch(&[req])
        .expect("twist query runs")[0]
        .summary
        .trace_digest
        .clone()
}

fn projected(t: &WideTable, key: &str, value: &str) -> Table {
    t.project_pair(key, value).expect("word-encodable columns")
}

/// A workload served over the wire protocol.
pub trait Served: Sized {
    /// The plain-Rust reference answers the window checks against.
    type Reference;

    fn params() -> Params;

    /// Timed set-up: inputs, executor, tables, server, clients.
    fn setup(seed: u64) -> Self;

    fn stack(&mut self) -> &mut Stack;

    /// Untimed: the reference answers, the content-twist check (does the
    /// twisted pair give equal digests?) and warm-up queries.
    fn prepare(&mut self, seed: u64) -> (Self::Reference, bool);

    fn window(
        &mut self,
        reference: &Self::Reference,
        seed: u64,
        seconds: u64,
        twist_ok: bool,
        spans: Option<&mut Spans>,
    ) -> (Window, Checks, Vec<String>);

    /// This workload's per-layer metrics, timed after the window under
    /// `root`; `texts` are distinct query texts the window sent.
    fn layers(
        &mut self,
        spans: &mut Spans,
        root: usize,
        texts: &[String],
        window: &Window,
        seed: u64,
    ) -> Vec<Metric>;
}

// ---------------------------------------------------------------- fig8_kernel

/// Operations after which each workload reads its peak memory: reached
/// within about ten seconds on a contended 2-vCPU host.
const FIG8_RSS_AFTER_OPS: u64 = 20;
const SKEW_RSS_AFTER_OPS: u64 = 100;
const MIX_RSS_AFTER_OPS: u64 = 2000;
const SHARD_RSS_AFTER_OPS: u64 = 200;

pub struct Fig8 {
    pub left: Table,
    pub right: Table,
}

pub fn fig8_params() -> Params {
    Params {
        entries: vec![
            ("n", 2 * gen::FIG8_HALF as u64),
            ("n1", gen::FIG8_HALF as u64),
            ("n2", gen::FIG8_HALF as u64),
            ("m", gen::FIG8_HALF as u64),
            ("clients", 0),
            ("rss_after_ops", FIG8_RSS_AFTER_OPS),
        ],
    }
}

pub fn fig8_setup(seed: u64) -> Fig8 {
    let w = obliv_workloads::balanced_unique_keys(gen::FIG8_HALF, seed);
    Fig8 {
        left: w.left,
        right: w.right,
    }
}

/// The expected rows (from `sort_merge_join`) and the content twist, run
/// under `HashingSink` at a size the chained witness hashes quickly; ends
/// with a warm-up call, so schedule caches and allocator pools are full.
pub fn fig8_prepare(state: &Fig8, seed: u64) -> (Vec<JoinRow>, bool) {
    let expected = sorted_rows(obliv_baselines::sort_merge_join(&state.left, &state.right).0);
    let digest = |s: u64| {
        let w = obliv_workloads::balanced_unique_keys(512, s);
        let tracer = Tracer::new(HashingSink::new());
        oblivious_join_with_tracer(&tracer, &w.left, &w.right);
        tracer.with_sink(|sink| sink.digest_hex())
    };
    let twist_ok = digest(seed) == digest(seed ^ TWIST);
    oblivious_join(&state.left, &state.right);
    (expected, twist_ok)
}

pub fn fig8_window(
    state: &Fig8,
    expected: &[JoinRow],
    seconds: u64,
    twist_ok: bool,
    mut spans: Option<&mut Spans>,
) -> (Window, Checks) {
    let mut checks = Checks {
        twist_ok,
        ..Checks::default()
    };
    let predicted = obliv_join::cost::predict(state.left.len(), state.right.len(), expected.len());
    let window = timed_loop(seconds, spans.is_some(), FIG8_RSS_AFTER_OPS, |i, traced| {
        let start = Instant::now();
        let result = match (&mut spans, traced) {
            (Some(sp), true) => {
                sp.time("core.oblivious_join", None, i, || {
                    oblivious_join(&state.left, &state.right)
                })
                .0
            }
            _ => oblivious_join(&state.left, &state.right),
        };
        let latency = start.elapsed();
        let ok = sorted_rows(result.rows) == expected;
        // Equal public shape (n₁, n₂, m) on every call: the op counters
        // must repeat exactly and match the cost model.
        let ops = result.stats.total_ops();
        checks.shape_groups = 1;
        if ops.comparisons != predicted.total_comparisons()
            || ops.routing_hops != predicted.routing_hops
        {
            checks.shape_mismatches += 1;
        }
        Sample {
            class: Class::Join,
            latency,
            ok,
            template: "",
            trail: Vec::new(),
            digest: String::new(),
            wall: latency,
            queue_wait: Duration::ZERO,
            trace_events: 0,
            epoch: 0,
        }
    });
    (window, checks)
}

// ------------------------------------------------------------------ join_skew

/// `JOIN a b ON k | FILTER <col> >= X | AGG …`, grouped by the join key.
const SKEW_TEMPLATES: [(&str, &str, Agg, Option<&str>); 4] = [
    (
        "JOIN a b ON k | FILTER p>=# | AGG sum(x)",
        "p",
        Agg::Sum,
        Some("x"),
    ),
    (
        "JOIN a b ON k | FILTER x>=# | AGG max(s)",
        "x",
        Agg::Max,
        Some("s"),
    ),
    (
        "JOIN a b ON k | FILTER s>=# | AGG count",
        "s",
        Agg::Count,
        None,
    ),
    (
        "JOIN a b ON k | FILTER y>=# | AGG min(p)",
        "y",
        Agg::Min,
        Some("p"),
    ),
];

pub struct Skew {
    pub a: WideTable,
    pub b: WideTable,
    pub stack: Stack,
    pub engine: Arc<Engine>,
}

pub fn skew_query(joined: &Rel, rng: &mut Rng) -> QuerySpec {
    let (template, col, agg, agg_col) =
        SKEW_TEMPLATES[rng.below(SKEW_TEMPLATES.len() as u64) as usize];
    let x = gen::filter_constant(rng);
    let expected = joined
        .clone()
        .filter(col, Cmp::Ge, &Value::U64(x))
        .group("k", agg, agg_col);
    QuerySpec::new(template, x, Expected::from(expected))
}

impl Served for Skew {
    /// `a ⋈ b` on `k`.
    type Reference = Rel;

    fn params() -> Params {
        Params {
            entries: vec![
                ("rows_per_side", gen::SKEW_ROWS as u64),
                ("keys", gen::SKEW_KEYS),
                ("rows_per_key_per_side", gen::SKEW_PER_KEY),
                ("m", gen::SKEW_KEYS * gen::SKEW_PER_KEY * gen::SKEW_PER_KEY),
                ("templates", SKEW_TEMPLATES.len() as u64),
                ("clients", 1),
                ("rss_after_ops", SKEW_RSS_AFTER_OPS),
            ],
        }
    }

    fn setup(seed: u64) -> Skew {
        let (a, b) = gen::skew_tables(seed);
        let engine = Arc::new(Engine::new(serve::engine_config()));
        engine
            .register_wide_table("a", a.clone())
            .expect("register a");
        engine
            .register_wide_table("b", b.clone())
            .expect("register b");
        let stack = Stack::start(Backend::Engine(Arc::clone(&engine)), 1);
        Skew {
            a,
            b,
            stack,
            engine,
        }
    }

    fn stack(&mut self) -> &mut Stack {
        &mut self.stack
    }

    fn prepare(&mut self, seed: u64) -> (Rel, bool) {
        let joined = Rel::from_wide(&self.a).join(&Rel::from_wide(&self.b), "k", "k");
        let (ta, tb) = gen::skew_tables(seed ^ TWIST);
        let twin = Engine::new(serve::engine_config());
        twin.register_wide_table("a", ta)
            .expect("register twisted a");
        twin.register_wide_table("b", tb)
            .expect("register twisted b");
        // The twisted pair doubles as the warm-up query.
        let twist = "JOIN a b ON k | AGG sum(x)";
        let twist_ok = twist_digest(&self.stack.backend, twist)
            == twist_digest(&Backend::Engine(Arc::new(twin)), twist);
        (joined, twist_ok)
    }

    fn window(
        &mut self,
        joined: &Rel,
        seed: u64,
        seconds: u64,
        twist_ok: bool,
        spans: Option<&mut Spans>,
    ) -> (Window, Checks, Vec<String>) {
        let mut rng = Rng::stream(seed, 20);
        let client = &mut self.stack.clients[0];
        client_window(client, seconds, SKEW_RSS_AFTER_OPS, spans, twist_ok, |_| {
            skew_query(joined, &mut rng)
        })
    }

    fn layers(
        &mut self,
        spans: &mut Spans,
        root: usize,
        texts: &[String],
        _window: &Window,
        _seed: u64,
    ) -> Vec<Metric> {
        let (a, b) = (&self.a, &self.b);
        let mut m = layers::kernel_layers(
            spans,
            root,
            &projected(a, "k", "p"),
            &projected(b, "k", "x"),
            layers::REPS,
        );
        let join = JoinCall {
            left: a,
            right: b,
            key: "k",
            carry_left: vec!["p".into()],
            carry_right: vec!["x".into()],
        };
        let scan = ScanCall {
            table: a,
            filter_col: "p",
            filter_at_least: Value::U64(gen::VALUE_RANGE / 2),
            group_by: "k",
            sum_col: "s",
        };
        m.extend(layers::operator_layers(
            spans,
            root,
            &join,
            &scan,
            layers::REPS,
        ));
        let tables = [Registered::Wide("a", a), Registered::Wide("b", b)];
        m.extend(layers::engine_layers(spans, root, texts, &tables, 3));
        let register: Vec<f64> = (0..3)
            .map(|_| layers::time_ms(|| drop(self.engine.register_wide_table("b", b.clone()))))
            .collect();
        m.push(Metric::median_of("engine.register_ms", "ms", &register));
        m
    }
}

// ------------------------------------------------------------------ serve_mix

pub const MIX_HOT_PLANS: usize = 32;
/// Shares of each client's queries, in percent, exact over every 100
/// queries.  Cache hits are about 68 % of the replies (a refresh turns the
/// hot set's next use into misses), so the window's median falls well
/// inside the hit class and its 90th percentile inside the join class, not
/// on a class boundary.
pub const MIX_HOT_PCT: u64 = 72;
pub const MIX_SHORT_PCT: u64 = 13;
/// Share of fresh queries written in the legacy pair grammar, in percent.
pub const MIX_LEGACY_PCT: u64 = 25;
/// Client 0 re-registers `lineitem` every this many of its operations.
pub const MIX_REFRESH_EVERY: u64 = 400;
/// The two clients run in slices of this length; between slices, with both
/// idle, the host speed is calibrated.  Longer than the slowest query, so
/// a client seldom waits long for the other at a slice's end.
const MIX_SLICE: Duration = Duration::from_secs(1);

pub struct Mix {
    pub orders: WideTable,
    pub lineitem: WideTable,
    pub pl: Table,
    pub pr: Table,
    pub stack: Stack,
    pub engine: Arc<Engine>,
}

pub struct MixRels {
    orders: Rel,
    lineitem: Rel,
    pl: Rel,
    pr: Rel,
    joined: Rel,
    pair_joined: Rel,
    hot: Vec<QuerySpec>,
}

/// A query of the mix: `join` picks a join template, otherwise a
/// filter/aggregate scan.  `pick` chooses the template (one in four picks
/// is in the legacy pair grammar); the constant is seeded.
fn mix_query(r: &MixRels, rng: &mut Rng, join: bool, pick: u64) -> QuerySpec {
    let legacy = pick % 100 < MIX_LEGACY_PCT;
    let x = gen::filter_constant(rng);
    let u = Value::U64(x);
    let (template, rel) = match (join, legacy, pick / 100 % 3) {
        (true, true, _) => (
            "JOIN pl pr | FILTER v>=# | AGG sum",
            r.pair_joined.clone().filter("value", Cmp::Ge, &u).group(
                "key",
                Agg::Sum,
                Some("value"),
            ),
        ),
        (true, false, 0) => (
            "JOIN orders lineitem ON o_key | FILTER price>=# | AGG sum(qty)",
            r.joined
                .clone()
                .filter("price", Cmp::Ge, &u)
                .group("o_key", Agg::Sum, Some("qty")),
        ),
        (true, false, _) => (
            "JOIN orders lineitem ON o_key | FILTER qty>=# | AGG count",
            r.joined
                .clone()
                .filter("qty", Cmp::Ge, &u)
                .group("o_key", Agg::Count, None),
        ),
        (false, true, 0) => (
            "SCAN pl | FILTER v>=# | AGG sum",
            r.pl.clone()
                .filter("value", Cmp::Ge, &u)
                .group("key", Agg::Sum, Some("value")),
        ),
        (false, true, _) => (
            "SCAN pr | FILTER v<# | AGG max",
            r.pr.clone()
                .filter("value", Cmp::Lt, &u)
                .group("key", Agg::Max, Some("value")),
        ),
        (false, false, 0) => (
            "SCAN orders | FILTER price>=# | AGG sum(price) BY region",
            r.orders
                .clone()
                .filter("price", Cmp::Ge, &u)
                .group("region", Agg::Sum, Some("price")),
        ),
        (false, false, 1) => (
            "SCAN lineitem | FILTER qty>=# | AGG max(tax) BY o_key",
            r.lineitem
                .clone()
                .filter("qty", Cmp::Ge, &u)
                .group("o_key", Agg::Max, Some("tax")),
        ),
        (false, false, _) => {
            let neg = x as i64 - (VALUE_RANGE / 2) as i64;
            let rel = r
                .orders
                .clone()
                .filter("priority", Cmp::Lt, &Value::I64(neg))
                .group("urgent", Agg::Count, None);
            return QuerySpec::new(
                "SCAN orders | FILTER priority<# | AGG count BY urgent",
                neg,
                Expected::from(rel),
            );
        }
    };
    QuerySpec::new(template, x, Expected::from(rel))
}

/// Each client's operation kinds: `None` for the hot set, else a fresh
/// query, `Some(true)` a join.
fn mix_kinds() -> Deck<Option<bool>> {
    let fresh_shorts = std::iter::repeat_n(Some(false), MIX_SHORT_PCT as usize);
    let fresh_joins = std::iter::repeat_n(Some(true), (100 - MIX_HOT_PCT - MIX_SHORT_PCT) as usize);
    let mut kinds = vec![None; MIX_HOT_PCT as usize];
    kinds.extend(fresh_shorts.chain(fresh_joins));
    Deck::new(kinds)
}

/// Template picks for fresh queries (see [`mix_query`]): each of the three
/// templates once in the legacy grammar and three times in the wide one.
fn mix_picks() -> Deck<u64> {
    Deck::new(
        (0..3)
            .flat_map(|t| [0, 50, 60, 70].map(|l| t * 100 + l))
            .collect(),
    )
}

/// One mix client's state across slices.
struct MixClient {
    index: usize,
    client: Client,
    rng: Rng,
    kinds: Deck<Option<bool>>,
    picks: Deck<u64>,
    hot: Deck<usize>,
    ops: u64,
    samples: Vec<Sample>,
    flags: Vec<bool>,
    texts: Vec<String>,
    refresh_ms: Vec<f64>,
    failed: u64,
    spans: Spans,
}

impl Served for Mix {
    type Reference = MixRels;

    fn params() -> Params {
        Params {
            entries: vec![
                ("orders", gen::MIX_ORDERS as u64),
                (
                    "lineitem",
                    (gen::MIX_ORDERS * gen::MIX_ITEMS_PER_ORDER) as u64,
                ),
                (
                    "m_orders_lineitem",
                    (gen::MIX_ORDERS * gen::MIX_ITEMS_PER_ORDER) as u64,
                ),
                (
                    "pair_rows_per_side",
                    gen::MIX_PAIR_KEYS * gen::MIX_PAIR_PER_KEY,
                ),
                ("pair_keys", gen::MIX_PAIR_KEYS),
                (
                    "m_pair",
                    gen::MIX_PAIR_KEYS * gen::MIX_PAIR_PER_KEY * gen::MIX_PAIR_PER_KEY,
                ),
                ("hot_plans", MIX_HOT_PLANS as u64),
                ("hot_pct", MIX_HOT_PCT),
                ("short_pct", MIX_SHORT_PCT),
                ("join_pct", 100 - MIX_HOT_PCT - MIX_SHORT_PCT),
                ("legacy_pct_of_fresh", MIX_LEGACY_PCT),
                ("refresh_every_ops_of_client0", MIX_REFRESH_EVERY),
                ("slice_ms", MIX_SLICE.as_millis() as u64),
                ("clients", 2),
                ("rss_after_ops", MIX_RSS_AFTER_OPS),
            ],
        }
    }

    fn setup(seed: u64) -> Mix {
        let (orders, lineitem) = gen::mix_wide_tables(seed);
        let (pl, pr) = gen::mix_pair_tables(seed);
        let engine = Arc::new(Engine::new(serve::engine_config()));
        engine
            .register_wide_table("orders", orders.clone())
            .expect("register orders");
        engine
            .register_wide_table("lineitem", lineitem.clone())
            .expect("register lineitem");
        engine
            .register_table("pl", pl.clone())
            .expect("register pl");
        engine
            .register_table("pr", pr.clone())
            .expect("register pr");
        let stack = Stack::start(Backend::Engine(Arc::clone(&engine)), 2);
        Mix {
            orders,
            lineitem,
            pl,
            pr,
            stack,
            engine,
        }
    }

    fn stack(&mut self) -> &mut Stack {
        &mut self.stack
    }

    fn prepare(&mut self, seed: u64) -> (MixRels, bool) {
        let (o, l) = (Rel::from_wide(&self.orders), Rel::from_wide(&self.lineitem));
        let (p, q) = (Rel::from_pair(&self.pl), Rel::from_pair(&self.pr));
        let joined = o.clone().join(&l, "o_key", "o_key");
        let pair_joined = p.clone().join(&q, "key", "key");
        // The legacy join projects to (key, right value) named (key, value).
        let pair_joined = Rel {
            cols: vec!["key".into(), "left_value".into(), "value".into()],
            ..pair_joined
        };
        let mut rels = MixRels {
            orders: o,
            lineitem: l,
            pl: p,
            pr: q,
            joined,
            pair_joined,
            hot: Vec::new(),
        };
        let mut rng = Rng::stream(seed, 30);
        // The hot set's templates are fixed (about a fifth joins, a quarter
        // legacy); only its constants are seeded.
        rels.hot = (0..MIX_HOT_PLANS as u64)
            .map(|i| mix_query(&rels, &mut rng, i % 5 == 4, (i * 37) % 400))
            .collect();

        let (to, tl) = gen::mix_wide_tables(seed ^ TWIST);
        let twin = Engine::new(serve::engine_config());
        twin.register_wide_table("orders", to)
            .expect("register twisted orders");
        twin.register_wide_table("lineitem", tl)
            .expect("register twisted lineitem");
        let twist = "JOIN orders lineitem ON o_key | AGG sum(qty)";
        let twist_ok = twist_digest(&self.stack.backend, twist)
            == twist_digest(&Backend::Engine(Arc::new(twin)), twist);
        // Warm-up: fill the result cache with the hot set.
        for spec in &rels.hot {
            serve::send(&mut self.stack.clients[0], spec);
        }
        (rels, twist_ok)
    }

    fn window(
        &mut self,
        rels: &MixRels,
        seed: u64,
        seconds: u64,
        twist_ok: bool,
        spans: Option<&mut Spans>,
    ) -> (Window, Checks, Vec<String>) {
        let tracing = spans.is_some();
        let (engine, lineitem) = (&self.engine, &self.lineitem);
        // Client `c` runs closed-loop until `until`.
        let drive = |c: &mut MixClient, until: Instant, epoch: usize| {
            while Instant::now() < until {
                let i = c.ops;
                c.ops += 1;
                if c.index == 0 && i % MIX_REFRESH_EVERY == MIX_REFRESH_EVERY - 1 {
                    let t = Instant::now();
                    if engine
                        .register_wide_table("lineitem", lineitem.clone())
                        .is_err()
                    {
                        c.failed += 1;
                    }
                    c.refresh_ms.push(ms(t.elapsed()));
                    continue;
                }
                let spec = match c.kinds.draw(&mut c.rng) {
                    None => rels.hot[c.hot.draw(&mut c.rng)].clone(),
                    Some(join) => {
                        let pick = c.picks.draw(&mut c.rng);
                        mix_query(rels, &mut c.rng, join, pick)
                    }
                };
                let traced = tracing && i % 2 == 1;
                let qid = (c.index as u64) << 32 | i;
                let sp = if traced { Some(&mut c.spans) } else { None };
                let mut sample = serve::send_traced(&mut c.client, &spec, sp, qid);
                sample.epoch = epoch;
                c.samples.push(sample);
                c.flags.push(traced);
                serve::note_text(&mut c.texts, &spec.text);
            }
        };
        let mut clock = HostClock::start();
        let start = Instant::now();
        let deadline = start + Duration::from_secs(seconds);
        let mut clients: Vec<MixClient> = std::mem::take(&mut self.stack.clients)
            .into_iter()
            .enumerate()
            .map(|(index, client)| MixClient {
                index,
                client,
                rng: Rng::stream(seed, 40 + index as u64),
                kinds: mix_kinds(),
                picks: mix_picks(),
                hot: Deck::new((0..MIX_HOT_PLANS).collect()),
                ops: 0,
                samples: Vec::new(),
                flags: Vec::new(),
                texts: Vec::new(),
                refresh_ms: Vec::new(),
                failed: 0,
                spans: Spans::new(start),
            })
            .collect();
        let mut rss = None;
        while Instant::now() < deadline {
            let until = (Instant::now() + MIX_SLICE).min(deadline);
            let epoch = clock.epoch();
            std::thread::scope(|scope| {
                for c in clients.iter_mut() {
                    let drive = &drive;
                    scope.spawn(move || drive(c, until, epoch));
                }
            });
            let ops: usize = clients.iter().map(|c| c.samples.len()).sum();
            if rss.is_none() && ops as u64 >= MIX_RSS_AFTER_OPS {
                rss = Some(peak_rss_mb());
            }
            clock.tick();
        }
        let mut window = Window {
            samples: Vec::new(),
            elapsed: start.elapsed(),
            calibration: clock.finish(),
            peak_rss_mb: rss.unwrap_or_else(peak_rss_mb),
            failed_other: 0,
            refresh_ms: Vec::new(),
            traced_flags: Vec::new(),
        };
        let mut texts = Vec::new();
        let mut spans = spans;
        for c in clients {
            self.stack.clients.push(c.client);
            window.samples.extend(c.samples);
            window.traced_flags.extend(c.flags);
            window.refresh_ms.extend(c.refresh_ms);
            window.failed_other += c.failed;
            for t in &c.texts {
                serve::note_text(&mut texts, t);
            }
            if let Some(sp) = spans.as_deref_mut() {
                sp.absorb(c.spans);
            }
        }
        let (shape_groups, shape_mismatches) = serve::check_equal_shapes(&window.samples);
        let checks = Checks {
            shape_groups,
            shape_mismatches,
            twist_ok,
        };
        (window, checks, texts)
    }

    fn layers(
        &mut self,
        spans: &mut Spans,
        root: usize,
        texts: &[String],
        window: &Window,
        _seed: u64,
    ) -> Vec<Metric> {
        let (o, l) = (&self.orders, &self.lineitem);
        let mut m = vec![Metric::median_of(
            "engine.register_ms",
            "ms",
            &window.refresh_ms,
        )];
        m.extend(layers::kernel_layers(
            spans,
            root,
            &projected(o, "o_key", "price"),
            &projected(l, "o_key", "qty"),
            layers::REPS,
        ));
        let join = JoinCall {
            left: o,
            right: l,
            key: "o_key",
            carry_left: vec!["price".into()],
            carry_right: vec!["qty".into()],
        };
        let scan = ScanCall {
            table: l,
            filter_col: "qty",
            filter_at_least: Value::U64(gen::VALUE_RANGE / 2),
            group_by: "o_key",
            sum_col: "qty",
        };
        m.extend(layers::operator_layers(
            spans,
            root,
            &join,
            &scan,
            layers::REPS,
        ));
        let tables = [
            Registered::Wide("orders", o),
            Registered::Wide("lineitem", l),
            Registered::Pair("pl", &self.pl),
            Registered::Pair("pr", &self.pr),
        ];
        m.extend(layers::engine_layers(spans, root, texts, &tables, 3));
        m
    }
}

// ----------------------------------------------------------------- shard_join

/// The three scatter routes: a `SortedConcat` join, a re-aggregation and a
/// `Concat` filter.
pub const SHARD_TEMPLATES: [&str; 3] = [
    "SCAN orders | FILTER value>=# | JOIN customers ON key",
    "SCAN orders | FILTER value>=# | JOIN customers ON key | AGG count BY key",
    "SCAN orders | FILTER value>=#",
];

pub struct Shard {
    pub orders: Table,
    pub customers: Table,
    pub stack: Stack,
    pub coordinator: Arc<Coordinator>,
}

pub fn shard_config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        partitioned: vec!["orders".into()],
        engine: obliv_engine::EngineConfig {
            workers: 1,
            ..obliv_engine::EngineConfig::default()
        },
        ..ShardConfig::default()
    }
}

pub fn coordinator_with(shards: usize, orders: Table, customers: Table) -> Coordinator {
    let c = Coordinator::new(shard_config(shards));
    c.register_table("orders", orders).expect("register orders");
    c.register_table("customers", customers)
        .expect("register customers");
    c
}

/// Route `route` with constant `x`: the answer from the unsharded
/// reference, and the trail of sizes the scatter reveals (per-shard
/// filter survivors, join sizes and group counts, then the merged size).
pub fn shard_query(orders: &Rel, customers: &Rel, route: usize, x: u64) -> QuerySpec {
    let eval = |rel: Rel| {
        let rel = rel.filter("value", Cmp::Ge, &Value::U64(x));
        match route {
            0 => rel.join(customers, "key", "key"),
            1 => rel
                .join(customers, "key", "key")
                .group("key", Agg::Count, None),
            _ => rel,
        }
    };
    let n = orders.rows.len();
    let mut trail = Vec::new();
    for shard in 0..gen::SHARD_COUNT {
        let (lo, hi) = chunk_bounds(n, gen::SHARD_COUNT, shard);
        trail.extend(eval(orders.chunk(lo, hi)).trail);
    }
    let whole = eval(orders.clone());
    trail.push(whole.rows.len() as u64);
    let mut expected = Expected::from(whole);
    expected.trail = trail;
    QuerySpec::new(SHARD_TEMPLATES[route], x, expected)
}

/// The content twin of the shard tables: every key relabelled by one
/// seeded permutation shared by both tables, and every value re-drawn.
/// Each key keeps its positions, so every shard holds the same key
/// multiplicities and every per-shard and merged size is unchanged, while
/// the keys the join and the grouping compare are different.
fn shard_twin(orders: &Table, customers: &Table, seed: u64) -> (Table, Table) {
    let mut rng = Rng::stream(seed ^ TWIST, 50);
    let mut relabel: Vec<u64> = (0..gen::SHARD_KEYS).collect();
    rng.shuffle(&mut relabel);
    let mut twin = |t: &Table| {
        Table::from_pairs(
            t.iter()
                .map(|e| (relabel[e.key as usize], rng.below(VALUE_RANGE)))
                .collect::<Vec<_>>(),
        )
    };
    (twin(orders), twin(customers))
}

impl Served for Shard {
    /// `orders` and `customers` as reference relations.
    type Reference = (Rel, Rel);

    fn params() -> Params {
        Params {
            entries: vec![
                ("shards", gen::SHARD_COUNT as u64),
                ("rows_per_side", gen::SHARD_KEYS * gen::SHARD_PER_KEY),
                ("keys", gen::SHARD_KEYS),
                (
                    "m_unfiltered",
                    gen::SHARD_KEYS * gen::SHARD_PER_KEY * gen::SHARD_PER_KEY,
                ),
                ("routes", SHARD_TEMPLATES.len() as u64),
                ("clients", 1),
                ("rss_after_ops", SHARD_RSS_AFTER_OPS),
            ],
        }
    }

    fn setup(seed: u64) -> Shard {
        let (orders, customers) = gen::shard_tables(seed);
        let coordinator = Arc::new(coordinator_with(
            gen::SHARD_COUNT,
            orders.clone(),
            customers.clone(),
        ));
        let stack = Stack::start(Backend::Shards(Arc::clone(&coordinator)), 1);
        Shard {
            orders,
            customers,
            stack,
            coordinator,
        }
    }

    fn stack(&mut self) -> &mut Stack {
        &mut self.stack
    }

    fn prepare(&mut self, seed: u64) -> ((Rel, Rel), bool) {
        for (route, template) in SHARD_TEMPLATES.iter().enumerate() {
            let plan = parse_query(&template.replace('#', "0")).expect("shard template parses");
            let class = format!("{:?}", self.coordinator.classify(&plan));
            let want = ["SortedConcat", "Reaggregate", "Concat"][route];
            assert!(
                class.contains(want),
                "route {route} classified {class}, expected {want}"
            );
        }
        let (to, tc) = shard_twin(&self.orders, &self.customers, seed);
        let twin = coordinator_with(gen::SHARD_COUNT, to, tc);
        let twist = "JOIN orders customers ON key | AGG count BY key";
        let twist_ok = twist_digest(&self.stack.backend, twist)
            == twist_digest(&Backend::Shards(Arc::new(twin)), twist);
        let rels = (
            Rel::from_pair(&self.orders),
            Rel::from_pair(&self.customers),
        );
        (rels, twist_ok)
    }

    fn window(
        &mut self,
        (orders, customers): &(Rel, Rel),
        seed: u64,
        seconds: u64,
        twist_ok: bool,
        spans: Option<&mut Spans>,
    ) -> (Window, Checks, Vec<String>) {
        let mut rng = Rng::stream(seed, 60);
        let first = rng.below(3);
        let client = &mut self.stack.clients[0];
        client_window(client, seconds, SHARD_RSS_AFTER_OPS, spans, twist_ok, |i| {
            let route = ((first + i) % 3) as usize;
            shard_query(orders, customers, route, gen::filter_constant(&mut rng))
        })
    }

    fn layers(
        &mut self,
        spans: &mut Spans,
        root: usize,
        texts: &[String],
        _window: &Window,
        seed: u64,
    ) -> Vec<Metric> {
        let (o, c) = (&self.orders, &self.customers);
        let mut m = layers::kernel_layers(spans, root, o, c, layers::REPS);
        let (wo, wc) = (WideTable::from_pair(o), WideTable::from_pair(c));
        let join = JoinCall {
            left: &wo,
            right: &wc,
            key: "key",
            carry_left: vec!["value".into()],
            carry_right: vec!["value".into()],
        };
        let scan = ScanCall {
            table: &wo,
            filter_col: "value",
            filter_at_least: Value::U64(gen::VALUE_RANGE / 2),
            group_by: "key",
            sum_col: "value",
        };
        m.extend(layers::operator_layers(
            spans,
            root,
            &join,
            &scan,
            layers::REPS,
        ));
        let tables = [
            Registered::Pair("orders", o),
            Registered::Pair("customers", c),
        ];
        m.extend(layers::engine_layers(spans, root, texts, &tables, 3));
        m.push(shard_overhead(spans, root, o, c, seed));
        let register: Vec<f64> = (0..3)
            .map(|_| {
                layers::time_ms(|| drop(self.coordinator.register_table("customers", c.clone())))
            })
            .collect();
        m.push(Metric::median_of("engine.register_ms", "ms", &register));
        m
    }
}

/// A one-shard coordinator's latency minus a plain engine's on the same
/// join plan and tables (fresh constants each time, so neither answers
/// from its cache): the coordinator's fixed scatter and merge cost, which
/// the workload's two shards would otherwise hide behind their parallelism.
fn shard_overhead(
    spans: &mut Spans,
    root: usize,
    orders: &Table,
    customers: &Table,
    seed: u64,
) -> Metric {
    let coordinator = coordinator_with(1, orders.clone(), customers.clone());
    let engine = Engine::new(shard_config(1).engine);
    engine
        .register_table("orders", orders.clone())
        .expect("register orders");
    engine
        .register_table("customers", customers.clone())
        .expect("register customers");
    let mut rng = Rng::stream(seed, 70);
    let mut diffs = Vec::new();
    for _ in 0..layers::REPS {
        let text = SHARD_TEMPLATES[0].replace('#', &rng.below(VALUE_RANGE / 4).to_string());
        let req = || {
            vec![obliv_engine::QueryRequest::new(
                text.clone(),
                parse_query(&text).expect("shard query parses"),
            )]
        };
        let (_, sharded) = spans.time("shard.execute_batch", Some(root), 0, || {
            coordinator.execute_batch(&req())
        });
        let (_, plain) = spans.time("engine.execute_batch", Some(root), 0, || {
            engine.execute_batch(&req())
        });
        diffs.push(ms(sharded) - ms(plain));
    }
    Metric::median_of("shard.overhead_ms", "ms", &diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key multiplicities of each shard's chunk of `t`.
    fn chunk_histograms(t: &Table) -> Vec<Vec<u64>> {
        (0..gen::SHARD_COUNT)
            .map(|shard| {
                let (lo, hi) = chunk_bounds(t.len(), gen::SHARD_COUNT, shard);
                let chunk = Table::from_pairs(t.rows()[lo..hi].iter().map(|e| (e.key, e.value)));
                let mut counts: Vec<u64> = chunk.key_histogram().into_values().collect();
                counts.sort_unstable();
                counts
            })
            .collect()
    }

    #[test]
    fn shard_twin_keeps_every_shard_size_and_changes_the_keys() {
        let (orders, customers) = gen::shard_tables(9);
        let (to, tc) = shard_twin(&orders, &customers, 9);
        for (t, twin) in [(&orders, &to), (&customers, &tc)] {
            assert_eq!(chunk_histograms(t), chunk_histograms(twin));
            let keys = |t: &Table| t.iter().map(|e| e.key).collect::<Vec<_>>();
            assert_ne!(keys(t), keys(twin));
        }
        // One relabelling for both tables: the join's size is unchanged.
        let size = |o: &Table, c: &Table| obliv_baselines::sort_merge_join(o, c).0.len();
        assert_eq!(size(&orders, &customers), size(&to, &tc));
    }
}
