//! # dsolve-obs
//!
//! Zero-dependency observability for the verification pipeline:
//!
//! * **Spans** — hierarchical timing regions emitted as Chrome
//!   `trace_event` complete events when a trace sink is attached
//!   ([`Obs::span`], [`Obs::phase_span`]); phase spans also accumulate
//!   into the metrics registry, so metrics work with tracing off.
//! * **Metrics** — a typed registry of lock-striped counters, gauges,
//!   and log-scale histograms ([`Metrics`]), snapshot into plain data
//!   ([`Snapshot`]) with hand-rolled JSON rendering for `figure10`.
//! * **Provenance** — every solved SMT query is attributed to the
//!   constraint that asked for it ([`QueryOrigin`], [`CostTable`]), so
//!   `--stats` can rank constraints by solver time and the trace names
//!   query events after NanoML source locations.
//! * **Logging** — a leveled stderr sink ([`log`]) replacing scattered
//!   `eprintln!` lines, filtered by `DSOLVE_LOG` and `--quiet`.
//!
//! One [`Obs`] handle exists per verification job, cloned (cheaply, it
//! is an `Arc`) into each layer. Span guards emit on `Drop`, so traces
//! stay balanced when a panic or budget exhaustion unwinds the stack.

#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod micro;
pub mod theory;
pub mod trace;

mod provenance;

pub use metrics::{
    bucket_floor_us, Counter, Gauge, Histogram, Metrics, MicroCounter, MicroTable, ObsPhase,
    TheoryKind, HIST_BUCKETS, NMICRO, NPHASES, NTHEORIES,
};
pub use provenance::{ConstraintCost, CostTable, QueryOrigin};
pub use trace::{
    json_escape, parse_json, validate_trace, validate_trace_file, Arg, Json, TraceSink, TraceSummary,
};

use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

struct Inner {
    enabled: bool,
    metrics: Metrics,
    costs: CostTable,
    trace: Option<TraceSink>,
}

/// A shared observability handle: metrics registry + cost table +
/// optional trace sink. Clones share the same registry.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.inner.enabled)
            .field("trace", &self.inner.trace.is_some())
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A live handle with metrics recording on and no trace sink — the
    /// default for every job.
    pub fn new() -> Obs {
        Obs {
            inner: Arc::new(Inner {
                enabled: true,
                metrics: Metrics::new(),
                costs: CostTable::new(),
                trace: None,
            }),
        }
    }

    /// A disabled handle: every record call is a no-op. All callers
    /// share one static instance, so this allocates nothing — solver
    /// constructors use it as their placeholder before the pipeline
    /// hands them the job's live handle.
    pub fn off() -> Obs {
        static OFF: OnceLock<Obs> = OnceLock::new();
        OFF.get_or_init(|| Obs {
            inner: Arc::new(Inner {
                enabled: false,
                metrics: Metrics::new(),
                costs: CostTable::new(),
                trace: None,
            }),
        })
        .clone()
    }

    /// A live handle that additionally streams Chrome trace events to
    /// `path`. Call [`Obs::finish`] at process exit to close the JSON
    /// array (viewers tolerate a missing close after a crash).
    pub fn with_trace(path: &Path) -> std::io::Result<Obs> {
        Ok(Obs {
            inner: Arc::new(Inner {
                enabled: true,
                metrics: Metrics::new(),
                costs: CostTable::new(),
                trace: Some(TraceSink::create(path)?),
            }),
        })
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The per-constraint cost table.
    pub fn costs(&self) -> &CostTable {
        &self.inner.costs
    }

    /// Whether a trace sink is attached.
    pub fn tracing(&self) -> bool {
        self.inner.trace.is_some()
    }

    /// Whether this handle records at all.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Simulates a trace-writer I/O failure from now on (no-op without a
    /// sink) — the `trace-io` fault point. Subsequent events are dropped
    /// the same way a really failed write is.
    pub fn simulate_trace_io_failure(&self) {
        if let Some(t) = &self.inner.trace {
            t.simulate_io_failure();
        }
    }

    /// Closes the trace array (no-op without a sink).
    pub fn finish(&self) {
        if let Some(t) = &self.inner.trace {
            t.finish();
        }
    }

    /// Opens a span in category `cat`. The event (and any metrics) are
    /// recorded when the returned guard drops, which keeps traces
    /// balanced across panics and early returns.
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> Span {
        if !self.inner.enabled {
            return Span::disabled();
        }
        Span {
            obs: Some(self.clone()),
            cat,
            name: name.into(),
            phase: None,
            start: Instant::now(),
            args: Vec::new(),
        }
    }

    /// Opens a span for a pipeline phase: the duration lands in
    /// `metrics.phase_ns[phase]` and, when tracing, a `cat:"phase"`
    /// event.
    pub fn phase_span(&self, phase: ObsPhase) -> Span {
        if !self.inner.enabled {
            return Span::disabled();
        }
        Span {
            obs: Some(self.clone()),
            cat: "phase",
            name: phase.name().to_string(),
            phase: Some(phase),
            start: Instant::now(),
            args: Vec::new(),
        }
    }

    /// Emits an instant event (no-op without a trace sink).
    pub fn instant(&self, cat: &'static str, name: &str, args: &[(&str, Arg)]) {
        if let Some(t) = &self.inner.trace {
            t.emit_instant(name, cat, args);
        }
    }

    /// Records one solved SMT query: drains the thread's theory
    /// timers and micro-counters, updates the latency histogram,
    /// attributes cost to the origin, and (when tracing) emits a query
    /// event named after the origin's source label.
    ///
    /// The thread-local accumulators are drained even on disabled
    /// handles so residue never bleeds between jobs.
    pub fn record_query(&self, origin: Option<&QueryOrigin>, start: Instant, verdict: &str) {
        let dur = start.elapsed();
        let theory = theory::drain();
        let micro_vals = micro::drain();
        if !self.inner.enabled {
            return;
        }
        let m = self.metrics();
        m.query_time.record(dur);
        for (i, &ns) in theory.iter().enumerate() {
            if ns > 0 {
                m.theory_ns[i].add(ns);
            }
        }
        m.micro.merge(&micro_vals);
        let ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        if let Some(o) = origin {
            self.inner.costs.add(o, ns, &micro_vals);
        }
        if let Some(t) = &self.inner.trace {
            let name: &str = origin.map(|o| &*o.label).unwrap_or("smt-check");
            let mut args: Vec<(&str, Arg)> = vec![("verdict", Arg::Str(verdict.to_string()))];
            if let Some(o) = origin {
                args.push(("constraint", Arg::U64(o.constraint as u64)));
                args.push(("round", Arg::U64(o.round)));
                args.push(("worker", Arg::U64(o.worker as u64)));
            }
            t.emit_complete(name, "smt", start, dur.as_micros() as u64, &args);
        }
    }

    /// Snapshots the registry and the top-`k` most expensive
    /// constraints into plain data.
    pub fn snapshot(&self, top_k: usize) -> Snapshot {
        let m = self.metrics();
        let mut phase_ns = [0u64; NPHASES];
        for (o, c) in phase_ns.iter_mut().zip(&m.phase_ns) {
            *o = c.get();
        }
        let mut theory_ns = [0u64; NTHEORIES];
        for (o, c) in theory_ns.iter_mut().zip(&m.theory_ns) {
            *o = c.get();
        }
        Snapshot {
            checks: m.smt_checks.get(),
            cache_hits: m.smt_cache_hits.get(),
            cache_misses: m.smt_cache_misses.get(),
            queries: m.smt_queries.get(),
            refused: m.smt_refused.get(),
            sessions: m.smt_sessions.get(),
            scoped_checks: m.smt_scoped_checks.get(),
            certs_checked: m.smt_certs_checked.get(),
            certs_failed: m.smt_certs_failed.get(),
            cache_poison_recoveries: m.cache_poison_recoveries.get(),
            workers_quarantined: m.workers_quarantined.get(),
            fixpoint_iterations: m.fixpoint_iterations.get(),
            fixpoint_rounds: m.fixpoint_rounds.get(),
            phase_ns,
            theory_ns,
            micro: m.micro.get(),
            query_time_buckets: m.query_time.buckets(),
            query_time_count: m.query_time.count(),
            query_time_sum_ns: m.query_time.sum_ns(),
            top_constraints: self.inner.costs.top(top_k),
        }
    }
}

/// An open span; emits on drop. Obtained from [`Obs::span`] /
/// [`Obs::phase_span`].
pub struct Span {
    obs: Option<Obs>,
    cat: &'static str,
    name: String,
    phase: Option<ObsPhase>,
    start: Instant,
    args: Vec<(&'static str, Arg)>,
}

impl Span {
    fn disabled() -> Span {
        Span {
            obs: None,
            cat: "",
            name: String::new(),
            phase: None,
            start: Instant::now(),
            args: Vec::new(),
        }
    }

    /// Attaches an argument shown in the trace viewer.
    pub fn arg(mut self, key: &'static str, value: impl Into<Arg>) -> Span {
        if self.obs.is_some() {
            self.args.push((key, value.into()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(obs) = &self.obs else { return };
        let dur = self.start.elapsed();
        if let Some(p) = self.phase {
            obs.metrics().phase_ns[p.index()]
                .add(dur.as_nanos().min(u64::MAX as u128) as u64);
        }
        if let Some(t) = &obs.inner.trace {
            t.emit_complete(
                &self.name,
                self.cat,
                self.start,
                dur.as_micros() as u64,
                &self.args,
            );
        }
    }
}

/// Plain-data snapshot of a job's metrics, renderable as JSON.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Validity checks requested (cache hits included).
    pub checks: u64,
    /// Checks answered from the query cache.
    pub cache_hits: u64,
    /// Checks not answered from the cache.
    pub cache_misses: u64,
    /// Queries actually solved (the charged count).
    pub queries: u64,
    /// Queries refused on entry by budget exhaustion.
    pub refused: u64,
    /// Incremental sessions opened.
    pub sessions: u64,
    /// Scoped checks inside sessions.
    pub scoped_checks: u64,
    /// Verdicts whose certificate replayed successfully (`--certify`).
    pub certs_checked: u64,
    /// Verdicts downgraded because their certificate failed (`--certify`).
    pub certs_failed: u64,
    /// Query-cache shard locks found poisoned and recovered.
    pub cache_poison_recoveries: u64,
    /// Workers quarantined after a panic (partitions weakened).
    pub workers_quarantined: u64,
    /// Fixpoint weakening iterations.
    pub fixpoint_iterations: u64,
    /// Fixpoint rounds.
    pub fixpoint_rounds: u64,
    /// Per-phase wall time, nanoseconds, indexed by [`ObsPhase`].
    pub phase_ns: [u64; NPHASES],
    /// Per-theory solve time, nanoseconds, indexed by [`TheoryKind`].
    pub theory_ns: [u64; NTHEORIES],
    /// Per-theory work-item counts, indexed by [`MicroCounter`].
    pub micro: [u64; NMICRO],
    /// Query latency histogram bucket counts (log2 µs buckets).
    pub query_time_buckets: [u64; HIST_BUCKETS],
    /// Query latency histogram sample count.
    pub query_time_count: u64,
    /// Query latency histogram sum, nanoseconds.
    pub query_time_sum_ns: u64,
    /// Most expensive constraints by attributed solver time.
    pub top_constraints: Vec<ConstraintCost>,
}

impl Snapshot {
    /// Fraction of cache-consulted checks answered by the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.checks as f64
        }
    }

    /// Renders the snapshot as a JSON object, `indent` spaces deep,
    /// matching the repo's hand-rolled JSON style.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut s = String::from("{\n");
        let phases: Vec<String> = ObsPhase::NAMES
            .iter()
            .zip(&self.phase_ns)
            .map(|(n, ns)| format!("\"{n}\": {ns}"))
            .collect();
        let _ = writeln!(s, "{inner}\"phase_ns\": {{ {} }},", phases.join(", "));
        let _ = writeln!(s, "{inner}\"checks\": {},", self.checks);
        let _ = writeln!(s, "{inner}\"cache_hits\": {},", self.cache_hits);
        let _ = writeln!(s, "{inner}\"cache_misses\": {},", self.cache_misses);
        let _ = writeln!(s, "{inner}\"cache_hit_rate\": {:.4},", self.cache_hit_rate());
        let _ = writeln!(s, "{inner}\"queries\": {},", self.queries);
        let _ = writeln!(s, "{inner}\"refused\": {},", self.refused);
        let _ = writeln!(s, "{inner}\"sessions\": {},", self.sessions);
        let _ = writeln!(s, "{inner}\"scoped_checks\": {},", self.scoped_checks);
        let _ = writeln!(s, "{inner}\"certs_checked\": {},", self.certs_checked);
        let _ = writeln!(s, "{inner}\"certs_failed\": {},", self.certs_failed);
        let _ = writeln!(
            s,
            "{inner}\"cache_poison_recoveries\": {},",
            self.cache_poison_recoveries
        );
        let _ = writeln!(
            s,
            "{inner}\"workers_quarantined\": {},",
            self.workers_quarantined
        );
        let _ = writeln!(
            s,
            "{inner}\"fixpoint_iterations\": {},",
            self.fixpoint_iterations
        );
        let _ = writeln!(s, "{inner}\"fixpoint_rounds\": {},", self.fixpoint_rounds);
        let theories: Vec<String> = TheoryKind::NAMES
            .iter()
            .zip(&self.theory_ns)
            .map(|(n, ns)| format!("\"{n}\": {ns}"))
            .collect();
        let _ = writeln!(s, "{inner}\"theory_ns\": {{ {} }},", theories.join(", "));
        let micros: Vec<String> = MicroCounter::NAMES
            .iter()
            .zip(&self.micro)
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        let _ = writeln!(s, "{inner}\"micro\": {{ {} }},", micros.join(", "));
        // Trim trailing empty buckets so rows stay readable. The
        // `bucket_floor_us` array names the inclusive lower bound of
        // each emitted bucket, making the histogram self-describing.
        let last = self
            .query_time_buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        let buckets: Vec<String> = self.query_time_buckets[..last]
            .iter()
            .map(|c| c.to_string())
            .collect();
        let floors: Vec<String> = (0..last)
            .map(|i| metrics::bucket_floor_us(i).to_string())
            .collect();
        let _ = writeln!(
            s,
            "{inner}\"query_time_us\": {{ \"count\": {}, \"sum_ns\": {}, \
             \"bucket_floor_us\": [{}], \"buckets\": [{}] }},",
            self.query_time_count,
            self.query_time_sum_ns,
            floors.join(", "),
            buckets.join(", ")
        );
        let tops: Vec<String> = self
            .top_constraints
            .iter()
            .map(|c| {
                let micro: Vec<String> = MicroCounter::NAMES
                    .iter()
                    .zip(&c.micro)
                    .filter(|(_, &v)| v > 0)
                    .map(|(n, v)| format!("\"{n}\": {v}"))
                    .collect();
                format!(
                    "{{ \"constraint\": {}, \"label\": \"{}\", \"total_ns\": {}, \
                     \"queries\": {}, \"micro\": {{ {} }} }}",
                    c.constraint,
                    json_escape(&c.label),
                    c.total_ns,
                    c.queries,
                    micro.join(", ")
                )
            })
            .collect();
        let _ = writeln!(s, "{inner}\"top_constraints\": [{}]", tops.join(", "));
        let _ = write!(s, "{pad}}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing() {
        let obs = Obs::off();
        obs.metrics().smt_queries.add(0); // registry exists but stays unread
        obs.record_query(None, Instant::now(), "valid");
        let snap = obs.snapshot(5);
        assert_eq!(snap.query_time_count, 0);
        drop(obs.span("x", "y"));
    }

    #[test]
    fn snapshot_json_parses_back() {
        let obs = Obs::new();
        obs.metrics().smt_checks.add(10);
        obs.metrics().smt_cache_hits.add(4);
        obs.metrics().smt_cache_misses.add(6);
        obs.metrics().smt_queries.add(6);
        obs.record_query(
            Some(&QueryOrigin {
                constraint: 2,
                label: Arc::from("assert on line 3"),
                round: 1,
                worker: 0,
            }),
            Instant::now(),
            "valid",
        );
        let snap = obs.snapshot(5);
        let json = snap.to_json(0);
        let doc = trace::parse_json(&json).expect("snapshot json parses");
        assert_eq!(doc.get("checks").and_then(trace::Json::as_num), Some(10.0));
        assert_eq!(
            doc.get("cache_hit_rate").and_then(trace::Json::as_num),
            Some(0.4)
        );
        assert!(doc.get("top_constraints").is_some());
    }

    #[test]
    fn spans_emit_to_trace_file() {
        let dir = std::env::temp_dir().join("obs-lib-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.json", std::process::id()));
        {
            let obs = Obs::with_trace(&path).unwrap();
            {
                let _s = obs.phase_span(ObsPhase::Parse);
                let _inner = obs.span("fixpoint", "round 0").arg("constraints", 3u64);
            }
            obs.record_query(None, Instant::now(), "valid");
            obs.finish();
        }
        let summary = validate_trace_file(&path).unwrap();
        assert!(summary.spans >= 3);
        assert!(summary.has_span("parse"));
        assert!(summary.has_span("round 0"));
        let _ = std::fs::remove_file(&path);
    }
}
