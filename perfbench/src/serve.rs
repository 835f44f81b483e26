//! The serving stack the server workloads drive (an `Engine` or a
//! `Coordinator` behind `Server::bind` on 127.0.0.1, reached by `Client`s)
//! and the closed loop that sends queries and verifies every reply.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obliv_engine::{Engine, EngineConfig, QueryExecutor};
use obliv_join::schema::Value;
use obliv_server::{Client, Server, ServerConfig};
use obliv_shard::Coordinator;

use crate::reference::{canonical, Expected};
use crate::stats::Spans;

/// One query the benchmark sends, with the answer it must get back.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub text: String,
    /// The text with its constant masked: queries of one template differ
    /// only in the constant.
    pub template: &'static str,
    pub join: bool,
    pub expected: Expected,
}

impl QuerySpec {
    pub fn new(
        template: &'static str,
        constant: impl std::fmt::Display,
        expected: Expected,
    ) -> QuerySpec {
        QuerySpec {
            text: template.replace('#', &constant.to_string()),
            template,
            join: template.contains("JOIN"),
            expected,
        }
    }
}

/// The kind of work a reply represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Answered from the result cache (or deduplicated in its batch).
    Hit,
    /// A fresh query without a join.
    Short,
    /// A fresh query with a join.
    Join,
}

/// What one query observed.
#[derive(Debug, Clone)]
pub struct Sample {
    pub class: Class,
    pub latency: Duration,
    pub ok: bool,
    pub template: &'static str,
    pub trail: Vec<u64>,
    pub digest: String,
    pub wall: Duration,
    pub queue_wait: Duration,
    pub trace_events: u64,
    /// The calibration epoch the query ran in (see `calib`).
    pub epoch: usize,
}

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    }
}

/// The backend behind the server.
pub enum Backend {
    Engine(Arc<Engine>),
    Shards(Arc<Coordinator>),
}

impl Backend {
    pub fn executor(&self) -> &dyn QueryExecutor {
        match self {
            Backend::Engine(e) => e.as_ref(),
            Backend::Shards(c) => c.as_ref(),
        }
    }
}

pub struct Stack {
    pub backend: Backend,
    /// Held for its lifetime: dropping it stops the server.
    _server: Server,
    pub clients: Vec<Client>,
}

impl Stack {
    pub fn start(backend: Backend, clients: usize) -> Stack {
        let config = ServerConfig::default();
        let server = match &backend {
            Backend::Engine(e) => Server::bind("127.0.0.1:0", Arc::clone(e), config),
            Backend::Shards(c) => Server::bind("127.0.0.1:0", Arc::clone(c), config),
        }
        .expect("bind a loopback port");
        let addr = server.local_addr().expect("bound server has an address");
        let clients = (0..clients)
            .map(|i| Client::connect(addr, format!("bench{i}")).expect("connect to the server"))
            .collect();
        Stack {
            backend,
            _server: server,
            clients,
        }
    }
}

impl Drop for Stack {
    /// Close every connection; the server, dropped next, stops and joins
    /// its threads.
    fn drop(&mut self) {
        self.clients.clear();
    }
}

/// Send one query and check the reply; a transport or engine error leaves
/// the sample not `ok` (a failed query).
pub fn send(client: &mut Client, spec: &QuerySpec) -> Sample {
    let start = Instant::now();
    let reply = client.query(spec.text.as_str());
    let latency = start.elapsed();
    let mut sample = Sample {
        class: if spec.join { Class::Join } else { Class::Short },
        latency,
        ok: false,
        template: spec.template,
        trail: spec.expected.trail.clone(),
        digest: String::new(),
        wall: Duration::ZERO,
        queue_wait: Duration::ZERO,
        trace_events: 0,
        epoch: 0,
    };
    match reply {
        Ok(reply) => {
            if reply.cached {
                sample.class = Class::Hit;
            }
            let rows: Vec<Vec<Value>> = (0..reply.rows.len()).map(|i| reply.rows.row(i)).collect();
            sample.ok = canonical(rows) == spec.expected.rows;
            if !sample.ok {
                eprintln!("wrong answer: {}", spec.text);
            }
            sample.digest = reply.summary.trace_digest;
            sample.wall = reply.summary.wall;
            sample.queue_wait = reply.summary.phases.queue_wait;
            sample.trace_events = reply.summary.trace_events;
        }
        Err(e) => eprintln!("query failed: {}: {e}", spec.text),
    }
    sample
}

/// How many of a window's distinct query texts the traced run replays
/// through the engine layer.
pub const LAYER_TEXTS: usize = 8;

/// Keep `text` if it is new and fewer than [`LAYER_TEXTS`] are kept.
pub fn note_text(texts: &mut Vec<String>, text: &str) {
    if texts.len() < LAYER_TEXTS && !texts.iter().any(|t| t == text) {
        texts.push(text.to_string());
    }
}

/// Send one query inside a `client.query` span when tracing.
pub fn send_traced(
    client: &mut Client,
    spec: &QuerySpec,
    spans: Option<&mut Spans>,
    query_id: u64,
) -> Sample {
    match spans {
        Some(spans) => {
            let (sample, _) = spans.time("client.query", None, query_id, || send(client, spec));
            sample
        }
        None => send(client, spec),
    }
}

/// Queries of one template with equal revealed-size trails must report one
/// trace digest.  Returns (groups checked, groups that disagreed).
pub fn check_equal_shapes(samples: &[Sample]) -> (u64, u64) {
    let mut groups: BTreeMap<(&str, &[u64]), Vec<&str>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.ok && !s.digest.is_empty()) {
        groups
            .entry((s.template, s.trail.as_slice()))
            .or_default()
            .push(s.digest.as_str());
    }
    let mut checked = 0;
    let mut bad = 0;
    for ((template, trail), digests) in &groups {
        if digests.len() < 2 {
            continue;
        }
        checked += 1;
        if digests.iter().any(|d| d != &digests[0]) {
            eprintln!("digest differs for equal public shape: {template} {trail:?}");
            bad += 1;
        }
    }
    (checked, bad)
}
