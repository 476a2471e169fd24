//! What one run collects: latency samples per op class, outcomes, and the
//! per-layer counts and timings of the traced ops.

use crate::answer::{self, Rows};
use crate::host::HostDiag;
use crate::ops::{fnv1a, Class};
use crate::stats::{median, supported_tail, Outcome, Tally};
use crate::trace::{self_ms_by_name, Trace};
use lazyetl_core::WarehouseStats;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;

/// Checks answers against references, outside the timed calls: answers
/// are held until [`Checker::settle`], one copy per distinct answer to a
/// statement, keyed by the statement and a hash of the answer's encoding.
#[derive(Default)]
pub struct Checker {
    pending: HashMap<(String, u64), (u64, Rows)>,
}

impl Checker {
    /// Hold `got` until [`Checker::settle`]; one copy is kept per
    /// distinct answer.
    pub fn defer(&mut self, sql: &str, got: Rows) {
        let key = (sql.to_string(), fnv1a(answer::encode(&got).as_bytes()));
        self.pending.entry(key).or_insert((0, got)).0 += 1;
    }

    /// Compare every held answer with `fetch`'s reference and record one
    /// outcome per op that returned it.
    pub fn settle(&mut self, tally: &mut Tally, mut fetch: impl FnMut(&str) -> Option<Rows>) {
        for ((sql, _), (n, got)) in self.pending.drain() {
            let ok = fetch(&sql).is_some_and(|want| answer::matches(&got, &want));
            for _ in 0..n {
                tally.record(if ok { Outcome::Correct } else { Outcome::Wrong });
            }
        }
    }
}

/// Per-layer accumulators, filled by traced ops only.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced ops.
    pub ops: u64,
    /// `Warehouse::plan_preview` wall times.
    pub plan_ms: Vec<f64>,
    /// `Repository::scan_changes` wall times on an unchanged repository.
    pub quiet_probe_ms: Vec<f64>,
    rows_scanned: u64,
    candidate_pairs: u64,
    pruned_pairs: u64,
    index_entries: u64,
    bytes_read: u64,
    records: u64,
    samples: u64,
    cache_hits: u64,
    cache_lookups: u64,
    qcache_hits: u64,
    qcache_lookups: u64,
    /// mSEED bytes decoded by `read_records_at`.
    pub decode_bytes: u64,
    /// Seconds `read_records_at` took for them.
    pub decode_s: f64,
    /// Landings seen by the traced run.
    pub landings: u64,
    patched: u64,
    fallbacks: u64,
    patch_rows: u64,
    /// `Warehouse::refresh` wall times right after a landing.
    pub refresh_ms: Vec<f64>,
    /// ETL-log length at the start and end of the measured loop.
    pub log_len: (usize, usize),
    /// Ops of the measured loop (traced or not).
    pub loop_ops: u64,
    /// `open_saved` wall times of the set-ups.
    pub open_saved_ms: Vec<f64>,
    /// Cache segments rehydrated by the last set-up.
    pub segments_loaded: u64,
    /// Server execution time per served query.
    pub server_exec_ms: Vec<f64>,
    /// Admission-queue wait per served query.
    pub server_queue_ms: Vec<f64>,
    /// Client round trip minus execution and queue wait.
    pub server_overhead_ms: Vec<f64>,
    /// Result batches received, summed over served queries.
    pub server_batches: u64,
    /// Served queries.
    pub server_queries: u64,
    /// Outbound-buffer high-water mark, in bytes.
    pub outbuf_hwm: u64,
}

impl Layers {
    /// Fold in the warehouse counters that moved across one traced call.
    pub fn add_stats(&mut self, a: &WarehouseStats, b: &WarehouseStats) {
        let (x, y) = (&a.exec, &b.exec);
        self.rows_scanned += y.rows_scanned - x.rows_scanned;
        for (s, t) in a.sources.iter().zip(&b.sources) {
            self.bytes_read += t.bytes_read - s.bytes_read;
            self.records += t.records_extracted - s.records_extracted;
            self.samples += t.samples_extracted - s.samples_extracted;
        }
        let (c, d) = (&a.cache, &b.cache);
        self.cache_hits += d.hits - c.hits;
        self.cache_lookups +=
            (d.hits + d.misses + d.stale_drops) - (c.hits + c.misses + c.stale_drops);
        let (q, r) = (&a.recycler, &b.recycler);
        self.qcache_hits += r.hits - q.hits;
        self.qcache_lookups +=
            (r.hits + r.misses + r.generation_drops) - (q.hits + q.misses + q.generation_drops);
    }

    /// Fold in the recycler maintenance one landing caused.
    pub fn add_landing(&mut self, a: &WarehouseStats, b: &WarehouseStats) {
        let (q, r) = (&a.recycler, &b.recycler);
        self.landings += 1;
        self.patched += r.results_patched - q.results_patched;
        self.fallbacks += r.recompute_fallbacks - q.recompute_fallbacks;
        self.patch_rows += r.patch_rows_applied - q.patch_rows_applied;
    }

    /// Fold in one query's rewrite report.
    pub fn add_rewrite(&mut self, r: &lazyetl_core::RewriteReport) {
        self.candidate_pairs += r.candidate_pairs as u64;
        self.pruned_pairs += r.pruned_pairs as u64;
        self.index_entries += r.index_entries_examined as u64;
    }

    /// The per-layer metrics, by name, with their units.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let per_op = |x: f64| ratio(x, self.ops as f64);
        let per_landing = |x: u64| ratio(x as f64, self.landings as f64);
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        vec![
            ("query.plan_ms", med(&self.plan_ms), "ms"),
            (
                "query.rows_scanned_per_op",
                per_op(self.rows_scanned as f64),
                "rows",
            ),
            (
                "rewrite.candidate_pairs_per_op",
                per_op(self.candidate_pairs as f64),
                "count",
            ),
            (
                "rewrite.pruned_share",
                ratio(self.pruned_pairs as f64, self.candidate_pairs as f64),
                "share",
            ),
            (
                "rewrite.index_entries_examined_per_op",
                per_op(self.index_entries as f64),
                "count",
            ),
            ("repo.quiet_probe_ms", med(&self.quiet_probe_ms), "ms"),
            (
                "repo.bytes_read_per_op",
                per_op(self.bytes_read as f64),
                "bytes",
            ),
            (
                "mseed.decode_mb_per_s",
                ratio(self.decode_bytes as f64 / 1e6, self.decode_s),
                "MB/s",
            ),
            (
                "extract.records_per_op",
                per_op(self.records as f64),
                "count",
            ),
            (
                "extract.samples_per_op",
                per_op(self.samples as f64),
                "count",
            ),
            (
                "cache.hit_share",
                ratio(self.cache_hits as f64, self.cache_lookups as f64),
                "share",
            ),
            (
                "qcache.hit_share",
                ratio(self.qcache_hits as f64, self.qcache_lookups as f64),
                "share",
            ),
            (
                "qcache.patched_per_landing",
                per_landing(self.patched),
                "count",
            ),
            (
                "qcache.fallbacks_per_landing",
                per_landing(self.fallbacks),
                "count",
            ),
            (
                "qcache.patch_rows_per_landing",
                per_landing(self.patch_rows),
                "rows",
            ),
            ("refresh.landed_ms", med(&self.refresh_ms), "ms"),
            (
                "log.entries_per_op",
                ratio(
                    self.log_len.1.saturating_sub(self.log_len.0) as f64,
                    self.loop_ops as f64,
                ),
                "count",
            ),
            ("persistence.open_saved_ms", med(&self.open_saved_ms), "ms"),
            (
                "persistence.segments_loaded",
                self.segments_loaded as f64,
                "count",
            ),
            ("server.exec_ms", med(&self.server_exec_ms), "ms"),
            ("server.queue_wait_ms", med(&self.server_queue_ms), "ms"),
            ("server.overhead_ms", med(&self.server_overhead_ms), "ms"),
            (
                "server.batches_per_query",
                ratio(self.server_batches as f64, self.server_queries as f64),
                "count",
            ),
            (
                "server.outbuf_hwm_kb",
                self.outbuf_hwm as f64 / 1024.0,
                "KiB",
            ),
        ]
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every span name the workloads record; `op` is the harness's own glue
/// around one traced operation, `landing` its glue around one landing.
pub const SPAN_NAMES: [&str; 9] = [
    "op",
    "query.plan_preview",
    "repo.scan_changes",
    "core.query",
    "server.query",
    "mseed.read_records_at",
    "landing",
    "repo.updates",
    "core.refresh",
];

/// Everything one run measured.
pub struct Run {
    /// Seconds the measured loop runs.
    pub seconds: f64,
    /// The trace, in a traced run.
    pub trace: Option<Trace>,
    /// Latencies (ms) of untraced ops, per class.
    pub samples: BTreeMap<Class, Vec<f64>>,
    /// Latencies (ms) of traced ops, per class.
    pub traced: BTreeMap<Class, Vec<f64>>,
    /// Outcomes.
    pub tally: Tally,
    /// Per-layer accumulators.
    pub layers: Layers,
    /// Set-up times, in seconds.
    pub setup_s: Vec<f64>,
    /// Host diagnostics over the measured loop.
    pub host: HostDiag,
    /// Peak resident set, in MiB.
    pub mem_peak_mb: f64,
    /// Sizes and settings worth reporting, as `(name, value)`.
    pub facts: Vec<(&'static str, String)>,
}

impl Run {
    /// An empty run.
    pub fn new(seconds: f64, traced: bool) -> Run {
        Run {
            seconds,
            trace: traced.then(Trace::new),
            samples: BTreeMap::new(),
            traced: BTreeMap::new(),
            tally: Tally::default(),
            layers: Layers::default(),
            setup_s: Vec::new(),
            host: HostDiag::default(),
            mem_peak_mb: 0.0,
            facts: Vec::new(),
        }
    }

    /// Whether op `k` is traced: in a traced run, every other op, so the
    /// untraced half measures what tracing costs.
    pub fn is_traced(&self, k: u64) -> bool {
        self.trace.is_some() && k.is_multiple_of(2)
    }

    /// Record an op's latency.
    pub fn sample(&mut self, class: Class, ms: f64, traced: bool) {
        let into = if traced {
            &mut self.traced
        } else {
            &mut self.samples
        };
        into.entry(class).or_default().push(ms);
    }

    /// End-to-end metrics as `(name, value, unit, samples, percentile)`;
    /// the percentile is set for tails.
    pub fn end_to_end(&self) -> Vec<(String, f64, &'static str, usize, Option<f64>)> {
        let mut out = vec![(
            "setup_s".to_string(),
            median(&self.setup_s).unwrap_or(0.0),
            "s",
            self.setup_s.len(),
            None,
        )];
        out.push(("mem_peak_mb".to_string(), self.mem_peak_mb, "MiB", 1, None));
        for (class, xs) in &self.samples {
            out.push((
                format!("{}_p50_ms", class.name()),
                median(xs).unwrap_or(0.0),
                "ms",
                xs.len(),
                None,
            ));
            if let Some((p, v)) = supported_tail(xs) {
                out.push((
                    format!("{}_tail_ms", class.name()),
                    v,
                    "ms",
                    xs.len(),
                    Some(p),
                ));
            }
        }
        out.push((
            "fail_share".to_string(),
            self.tally.fail_share(),
            "share",
            self.tally.attempted as usize,
            None,
        ));
        out
    }

    /// Tracing overhead: the mean over classes of traced minus untraced
    /// median latency, in milliseconds.
    pub fn trace_overhead_ms(&self) -> f64 {
        let diffs: Vec<f64> = self
            .traced
            .iter()
            .filter_map(|(c, t)| Some(median(t)? - median(self.samples.get(c)?)?))
            .collect();
        ratio(diffs.iter().sum(), diffs.len() as f64)
    }

    /// Per-layer metrics of a traced run, host diagnostics and span self
    /// times included.
    pub fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let mut out: Vec<(String, f64, &'static str)> = self
            .layers
            .metrics()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect();
        out.push(("trace.overhead_ms".into(), self.trace_overhead_ms(), "ms"));
        let self_ms = self
            .trace
            .as_ref()
            .map(|t| self_ms_by_name(t.spans()))
            .unwrap_or_default();
        for name in SPAN_NAMES {
            let ms = self_ms.get(name).copied().unwrap_or(0.0);
            out.push((
                format!("self.{name}_ms_per_op"),
                ratio(ms, self.layers.ops as f64),
                "ms",
            ));
        }
        out.extend(self.host_metrics());
        out
    }

    /// Host diagnostics as metrics.
    pub fn host_metrics(&self) -> Vec<(String, f64, &'static str)> {
        vec![
            ("host.cpu_share".into(), self.host.cpu_share, "share"),
            (
                "host.runqueue_wait_ms".into(),
                self.host.runqueue_wait_ms,
                "ms",
            ),
            (
                "host.steal_ticks".into(),
                self.host.steal_ticks as f64,
                "count",
            ),
            (
                "host.minor_faults".into(),
                self.host.minor_faults as f64,
                "count",
            ),
        ]
    }

    /// A JSON report of everything measured, for the run's output file.
    pub fn report_json(&self, workload: &str, seed: u64) -> String {
        let mut s = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"end_to_end\":{{");
        for (i, (name, v, unit, n, p)) in self.end_to_end().into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\",\"n\":{n}",
                num(v)
            );
            if let Some(p) = p {
                let _ = write!(s, ",\"percentile\":{}", num(p));
            }
            s.push('}');
        }
        s.push_str("},\"host\":{");
        let host: Vec<String> = self
            .host_metrics()
            .into_iter()
            .map(|(n, v, _)| format!("\"{n}\":{}", num(v)))
            .collect();
        s.push_str(&host.join(","));
        let _ = write!(
            s,
            "}},\"attempted\":{},\"wrong\":{},\"errored\":{},\"refused\":{}",
            self.tally.attempted, self.tally.wrong, self.tally.errored, self.tally.refused
        );
        s.push_str(",\"facts\":{");
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        s.push_str(&facts.join(","));
        s.push('}');
        if let Some(t) = &self.trace {
            s.push_str(",\"per_layer\":{");
            let pl: Vec<String> = self
                .per_layer()
                .into_iter()
                .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(v)))
                .collect();
            s.push_str(&pl.join(","));
            s.push_str("},\"span_self_ms\":{");
            let sm: Vec<String> = self_ms_by_name(t.spans())
                .into_iter()
                .map(|(n, v)| format!("\"{n}\":{}", num(v)))
                .collect();
            s.push_str(&sm.join(","));
            s.push('}');
        }
        s.push('}');
        s
    }
}

/// A finite number as JSON (non-finite values read as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
