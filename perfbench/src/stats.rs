//! Sample statistics, the metric record, and the benchmark's own spans.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Linear-interpolation quantile of `samples` (`0 ≤ q ≤ 1`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The process's peak resident set so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One reported metric: its value plus the distribution it was taken from
/// (sample count and quartiles), for the run record.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Metric {
    /// A metric whose value is the median of `samples`.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::quantile_of(name, unit, samples, 0.5)
    }

    /// A metric whose value is the `q`-quantile of `samples`.
    pub fn quantile_of(name: &'static str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
        Metric {
            name,
            unit,
            value: quantile(samples, q),
            n: samples.len(),
            p25: quantile(samples, 0.25),
            p50: quantile(samples, 0.5),
            p75: quantile(samples, 0.75),
        }
    }

    /// A single measured value (a count or a whole-run ratio).
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            n: 1,
            p25: value,
            p50: value,
            p75: value,
        }
    }

    pub fn record_json(&self) -> String {
        format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{},\"p25\":{},\"median\":{},\"p75\":{}}}",
            self.name,
            num(self.value),
            self.unit,
            self.n,
            num(self.p25),
            num(self.p50),
            num(self.p75)
        )
    }
}

/// A JSON number (non-finite values, which no metric should produce, are
/// written as 0 so the output stays valid JSON).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One span recorded around a call into a layer's public API.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `engine.execute`.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: u64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// In-memory span store; written out once, when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>, query: u64) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) -> Duration {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = now;
        Duration::from_nanos(now - span.start_ns)
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        query: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.begin(name, parent, query);
        let out = f();
        let d = self.end(id);
        (out, d)
    }

    /// Append another thread's spans (re-basing parent indices).
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        let shift = other.origin.duration_since(self.origin).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb.saturating_sub(ca);
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per layer, in milliseconds.
    pub fn layer_self_ms(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer().to_string()).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Chrome trace (`chrome://tracing`, Perfetto) JSON: one complete event
    /// per span, real start times, the query id as the thread row.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                    json_str(&s.name),
                    json_str(s.layer()),
                    num(s.start_ns as f64 / 1e3),
                    num((s.end_ns - s.start_ns) as f64 / 1e3),
                    s.query,
                    i,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        format!("[\n{}\n]\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(Instant::now());
        spans.spans = vec![
            Span {
                name: "a.x".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
                query: 0,
            },
            Span {
                name: "b.y".into(),
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                query: 0,
            },
            Span {
                name: "b.z".into(),
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                query: 0,
            },
        ];
        assert_eq!(spans.self_ns(), vec![50, 30, 30]);
        assert_eq!(spans.layer_self_ms()["b"], 60.0 / 1e6);
    }
}
