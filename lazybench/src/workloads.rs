//! The workloads. Each sets up (several times, timed), then runs one
//! closed-loop client for the run's seconds, checking every answer
//! outside the timed calls against a reference warehouse in a child
//! process.

use crate::answer::{self, Rows};
use crate::data::{self, TOUCH_ALL};
use crate::host::{peak_rss_mb, HostDiag, HostSample};
use crate::ops::{Class, ExploreOps, Landing, Landings, Op, ServedOps, Stream, LANDING_SECS};
use crate::run::{Checker, Run};
use crate::stats::Outcome;
use lazyetl_core::{Warehouse, WarehouseConfig};
use lazyetl_mseed::record::SourceId;
use lazyetl_mseed::{read_records_at, scan_metadata_file, Timestamp};
use lazyetl_repo::{updates, Repository};
use lazyetl_server::client::QueryReply;
use lazyetl_server::{Client, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed per run; the median is reported.
const SETUP_REPEATS: usize = 5;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// mSEED records of one stream: `(file, [(offset, length)])` per file.
type StreamRecords = Vec<(PathBuf, Vec<(u64, u32)>)>;

/// Index the files of `repo` by stream, for the decode probe.
fn index_streams(repo: &Repository, streams: &[Stream]) -> Vec<StreamRecords> {
    let mut out = vec![Vec::new(); streams.len()];
    for f in repo.files() {
        let Ok(scan) = scan_metadata_file(&f.path) else {
            continue;
        };
        let Some(first) = scan.records.first() else {
            continue;
        };
        let Some(si) = streams
            .iter()
            .position(|s| s.station == first.source.station && s.channel == first.source.channel)
        else {
            continue;
        };
        let offsets = scan
            .records
            .iter()
            .map(|r| (r.byte_offset, r.record_length))
            .collect();
        out[si].push((f.path.clone(), offsets));
    }
    out
}

/// Time `read_records_at` over one stream's records (traced scans only).
fn decode_probe(run: &mut Run, root: usize, k: u64, recs: &StreamRecords) {
    if recs.is_empty() {
        return;
    }
    let trace = run.trace.as_mut().expect("probe runs in traced runs");
    let (bytes, ms) = trace.span("mseed.read_records_at", Some(root), k, || {
        let mut bytes = 0u64;
        for (path, offsets) in recs {
            let records = read_records_at(path, offsets).expect("probe reads mSEED records");
            bytes += offsets.iter().map(|&(_, l)| l as u64).sum::<u64>();
            std::hint::black_box(records);
        }
        bytes
    });
    run.layers.decode_bytes += bytes;
    run.layers.decode_s += ms / 1e3;
}

/// One in-process op through `Warehouse::query`, traced or not; returns
/// the answer's rows or the outcome that ended it.
fn in_process_op(
    run: &mut Run,
    wh: &Warehouse,
    probe_repo: &Repository,
    decode: Option<&StreamRecords>,
    op: &Op,
    k: u64,
) -> Result<Rows, Outcome> {
    if !run.is_traced(k) {
        let t0 = Instant::now();
        let res = wh.query(&op.sql);
        run.sample(op.class, ms_since(t0), false);
        return res.map(|o| answer::rows_of(&o.table)).map_err(|e| {
            eprintln!("op {k} failed: {e}");
            Outcome::Errored
        });
    }
    let trace = run.trace.as_mut().expect("traced op");
    let root = trace.begin("op", None, k);
    let (_, plan_ms) = trace.span("query.plan_preview", Some(root), k, || {
        wh.plan_preview(&op.sql)
    });
    let (_, probe_ms) = trace.span("repo.scan_changes", Some(root), k, || {
        probe_repo.scan_changes().expect("quiet probe")
    });
    let before = wh.stats_snapshot();
    let (res, ms) = trace.span("core.query", Some(root), k, || wh.query(&op.sql));
    let after = wh.stats_snapshot();
    run.layers.ops += 1;
    run.layers.plan_ms.push(plan_ms);
    run.layers.quiet_probe_ms.push(probe_ms);
    run.layers.add_stats(&before, &after);
    run.sample(op.class, ms, true);
    if let Ok(out) = &res {
        if let Some(rw) = &out.report.rewrite {
            run.layers.add_rewrite(rw);
        }
    }
    if let (Class::Scan, Some(recs)) = (op.class, decode) {
        decode_probe(run, root, k, recs);
    }
    run.trace.as_mut().expect("traced op").end(root);
    res.map(|o| answer::rows_of(&o.table)).map_err(|e| {
        eprintln!("op {k} failed: {e}");
        Outcome::Errored
    })
}

/// Close the measured loop: host diagnostics and the share of wall time
/// spent inside timed calls (the rest is checking and glue).
fn finish_loop(run: &mut Run, h0: HostSample, t0: Instant) {
    let wall = t0.elapsed().as_secs_f64();
    run.host = HostDiag::between(&h0, &HostSample::now(), wall);
    let timed_ms: f64 = run
        .samples
        .values()
        .chain(run.traced.values())
        .flatten()
        .sum();
    run.facts
        .push(("timed_share", format!("{:.3}", timed_ms / 1e3 / wall)));
}

/// Class shares as `class=share` pairs.
fn mix(shares: &[(Class, f64)]) -> String {
    let cells: Vec<String> = shares
        .iter()
        .map(|(c, s)| format!("{}={s:.3}", c.name()))
        .collect();
    cells.join(" ")
}

/// `explore_warm`: an interactive session on a warm lazy warehouse over
/// `small`, default configuration, every record cached by the warm-up.
pub fn explore_warm(run: &mut Run, seed: u64) -> Result<(), String> {
    let mut ops = ExploreOps::new(seed);
    let dir = data::small_dir();
    let mut wh = None;
    for _ in 0..SETUP_REPEATS {
        drop(wh.take());
        let t0 = Instant::now();
        let w = Warehouse::open_lazy(&dir, WarehouseConfig::default())
            .map_err(|e| format!("open lazy: {e}"))?;
        w.query(TOUCH_ALL).map_err(|e| format!("warm-up: {e}"))?;
        run.setup_s.push(t0.elapsed().as_secs_f64());
        wh = Some(w);
    }
    let wh = wh.expect("at least one set-up");
    let stats = wh.stats_snapshot();
    run.facts.push(("decoded_mb", mb(stats.cache_used_bytes)));
    run.facts
        .push(("cache_budget_mb", mb(stats.cache_budget_bytes)));
    run.facts.push(("files", stats.files.to_string()));
    run.facts.push(("mix", mix(&ops.shares())));

    let probe = Repository::open(&dir).map_err(|e| e.to_string())?;
    let decode = index_streams(&probe, &crate::ops::streams(&crate::ops::SMALL_STATIONS));
    let mut checker = Checker::default();
    run.layers.log_len.0 = wh.etl_log().len();
    let (h0, t0) = (HostSample::now(), Instant::now());
    let mut k = 0u64;
    while t0.elapsed().as_secs_f64() < run.seconds {
        let op = ops.next_op();
        let recs = op.stream.map(|s| &decode[s]);
        match in_process_op(run, &wh, &probe, recs, &op, k) {
            Ok(rows) => checker.defer(&op.sql, rows),
            Err(o) => run.tally.record(o),
        }
        k += 1;
    }
    finish_loop(run, h0, t0);
    run.layers.loop_ops = k;
    run.layers.log_len.1 = wh.etl_log().len();
    run.mem_peak_mb = peak_rss_mb();
    // Answers are checked after the loop, against an eager warehouse.
    let mut reference = Reference::spawn("explore_warm")?;
    checker.settle(&mut run.tally, |sql| reference.answer(sql));
    Ok(())
}

fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

/// A reference warehouse in a child process, so its memory and its
/// extraction stay out of the measured process: an eager warehouse over
/// the same files for `explore_warm`, a recycler-off lazy warehouse over
/// the same repository copy for `served_ingest`.
pub struct Reference {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Reference {
    /// Start the reference process (this program in its reference role)
    /// and wait until its warehouse is open.
    pub fn spawn(workload: &str) -> Result<Reference, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["--role", "reference", "--workload", workload])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn reference: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut ready = String::new();
        let opened = stdout.read_line(&mut ready).is_ok() && ready == "ready\n";
        let reference = Reference {
            child,
            stdin,
            stdout,
        };
        if opened {
            Ok(reference)
        } else {
            Err("reference warehouse did not open".into())
        }
    }

    /// The reference answer to `sql` at the repository's current state.
    pub fn answer(&mut self, sql: &str) -> Option<Rows> {
        let stdin = self.stdin.as_mut()?;
        writeln!(stdin, "{sql}").ok()?;
        stdin.flush().ok()?;
        let mut header = String::new();
        self.stdout.read_line(&mut header).ok()?;
        let n: usize = header.trim().strip_prefix("rows ")?.parse().ok()?;
        let mut rows = Vec::with_capacity(n);
        let mut line = String::new();
        for _ in 0..n {
            line.clear();
            self.stdout.read_line(&mut line).ok()?;
            rows.push(answer::decode_row(line.trim_end_matches('\n'))?);
        }
        Some(rows)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Closing stdin ends the reference loop; kill only if it lingers.
        drop(self.stdin.take());
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The reference role: open `workload`'s reference warehouse, say
/// `ready`, then answer each statement read from stdin.
pub fn serve_reference(workload: &str) -> Result<(), String> {
    let wh = if workload == "served_ingest" {
        Warehouse::open_lazy(data::served_repo_dir(), WarehouseConfig::default())
    } else {
        let config = WarehouseConfig {
            auto_refresh: false,
            ..Default::default()
        };
        Warehouse::open_eager(data::small_dir(), config)
    }
    .map_err(|e| format!("reference warehouse: {e}"))?;
    let stdin = std::io::stdin();
    let mut out = std::io::BufWriter::new(std::io::stdout());
    out.write_all(b"ready\n")
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;
    for line in stdin.lock().lines() {
        let sql = line.map_err(|e| e.to_string())?;
        let rows = wh
            .query(&sql)
            .map(|o| answer::rows_of(&o.table))
            .map_err(|e| format!("reference query {sql}: {e}"))?;
        out.write_all(answer::encode(&rows).as_bytes())
            .and_then(|_| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Configuration the served warehouse runs with: the result recycler and
/// its maintenance on, default auto-refresh.
fn served_config() -> WarehouseConfig {
    WarehouseConfig {
        recycle_query_results: true,
        maintain_recycled_results: true,
        ..Default::default()
    }
}

struct Served {
    wh: Arc<Warehouse>,
    server: Server,
    client: Client,
}

fn served_setup(run: &mut Run) -> Result<Served, String> {
    let t0 = Instant::now();
    let wh = Warehouse::open_saved(
        data::served_repo_dir(),
        data::served_snapshot_dir(),
        served_config(),
    )
    .map_err(|e| format!("open_saved: {e}"))?;
    run.layers.open_saved_ms.push(ms_since(t0));
    let wh = Arc::new(wh);
    // One worker serves the one client; idle extra workers would only
    // spread allocations over more arenas from run to run.
    let config = ServerConfig {
        workers: 1,
        ..Default::default()
    };
    let server = Server::start(Arc::clone(&wh), "127.0.0.1:0", config)
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    match client.query_all(TOUCH_ALL) {
        Ok(lazyetl_server::ServerReply::Result(_)) => {}
        _ => return Err("warm-up query failed".into()),
    }
    run.setup_s.push(t0.elapsed().as_secs_f64());
    Ok(Served { wh, server, client })
}

/// Stop a served set-up, joining the server's threads.
fn stop_served(s: Served) -> Result<lazyetl_server::ShutdownReport, String> {
    drop(s.client);
    s.server.stop().map_err(|e| format!("server stop: {e}"))
}

/// One served query over the wire, timed from send to the last batch.
fn served_op(
    run: &mut Run,
    s: &mut Served,
    repo: &Repository,
    op: &Op,
    class: Class,
    k: u64,
) -> Result<Rows, Outcome> {
    let traced = run.is_traced(k);
    let mut root = None;
    if traced {
        let trace = run.trace.as_mut().expect("traced op");
        let r = trace.begin("op", None, k);
        let (_, plan_ms) = trace.span("query.plan_preview", Some(r), k, || {
            s.wh.plan_preview(&op.sql)
        });
        let (_, probe_ms) = trace.span("repo.scan_changes", Some(r), k, || {
            repo.scan_changes().expect("quiet probe")
        });
        run.layers.plan_ms.push(plan_ms);
        run.layers.quiet_probe_ms.push(probe_ms);
        root = Some(r);
    }
    let before = traced.then(|| s.wh.stats_snapshot());
    let span = root.map(|r| {
        run.trace
            .as_mut()
            .expect("traced op")
            .begin("server.query", Some(r), k)
    });
    let t0 = Instant::now();
    let reply = s.client.query(&op.sql);
    let result = match reply {
        Ok(QueryReply::Stream(mut stream)) => {
            let metrics = stream.metrics();
            stream
                .collect_table()
                .map(|t| (t, metrics, stream.batches()))
                .map_err(|e| {
                    eprintln!("op {k} stream failed: {e}");
                    Outcome::Errored
                })
        }
        Ok(QueryReply::Busy { .. }) => Err(Outcome::Refused),
        Ok(QueryReply::Error { code, message }) => {
            eprintln!("op {k} failed: {code}: {message}");
            Err(Outcome::Errored)
        }
        Err(e) => {
            eprintln!("op {k} failed: {e}");
            Err(Outcome::Errored)
        }
    };
    let ms = ms_since(t0);
    if let Some(span) = span {
        run.trace.as_mut().expect("traced op").end(span);
    }
    run.sample(class, ms, traced);
    if let (Some(before), Some(root)) = (before, root) {
        let after = s.wh.stats_snapshot();
        run.layers.ops += 1;
        run.layers.add_stats(&before, &after);
        if let Ok((_, m, batches)) = &result {
            let exec = m.exec_us as f64 / 1e3;
            let queue = m.queue_wait_us as f64 / 1e3;
            run.layers.server_exec_ms.push(exec);
            run.layers.server_queue_ms.push(queue);
            run.layers.server_overhead_ms.push(ms - exec - queue);
            run.layers.server_batches += *batches as u64;
            run.layers.server_queries += 1;
        }
        run.trace.as_mut().expect("traced op").end(root);
    }
    result.map(|(t, _, _)| answer::rows_of(&t))
}

/// Where one stream's landings go: its newest file, which appends grow,
/// and the end of its data, where a new file starts.
struct Target {
    stream: Stream,
    newest: String,
    end: Timestamp,
}

/// Every stream with its newest original file; the generated data of
/// every stream ends at 22:40.
fn landing_targets(repo: &Repository, streams: &[Stream]) -> Vec<Target> {
    streams
        .iter()
        .map(|s| {
            let newest = repo
                .files()
                .iter()
                .filter_map(|f| {
                    let scan = scan_metadata_file(&f.path).ok()?;
                    let r = scan.records.first()?;
                    (r.source.station == s.station && r.source.channel == s.channel)
                        .then(|| (r.start, f.uri.clone()))
                })
                .max()
                .map(|(_, uri)| uri)
                .expect("every stream has files");
            Target {
                stream: *s,
                newest,
                end: Timestamp::from_ymd_hms(2010, 1, 12, 22, 40, 0, 0),
            }
        })
        .collect()
}

/// `served_ingest`: a dashboard served over loopback from a warm restart
/// while data lands on a seeded schedule counted in rounds.
pub fn served_ingest(run: &mut Run, seed: u64) -> Result<(), String> {
    for _ in 1..SETUP_REPEATS {
        let s = served_setup(run)?;
        stop_served(s)?;
    }
    let s = served_setup(run)?;
    served_loop(run, s, seed)
}

fn served_loop(run: &mut Run, mut s: Served, seed: u64) -> Result<(), String> {
    let mut ops = ServedOps::new(seed);
    let stats = s.wh.stats_snapshot();
    run.layers.segments_loaded = stats.cache.segments_loaded;
    run.facts.push(("decoded_mb", mb(stats.cache_used_bytes)));
    run.facts
        .push(("cache_budget_mb", mb(stats.cache_budget_bytes)));
    run.facts.push(("files_at_start", stats.files.to_string()));
    run.facts.push(("mix", mix(&crate::ops::served_shares())));
    let mut reference = Reference::spawn("served_ingest")?;
    let dir = data::served_repo_dir();
    let mut repo = Repository::open(&dir).map_err(|e| e.to_string())?;
    let mut targets = landing_targets(&repo, &crate::ops::streams(&crate::ops::SMALL_STATIONS));
    let mut schedule = Landings::new(seed, targets.len());
    let mut next = schedule.next_landing();
    let mut checker = Checker::default();

    run.layers.log_len.0 = s.wh.etl_log().len();
    let (h0, t0) = (HostSample::now(), Instant::now());
    let (mut k, mut round, mut landings, mut after_landing) = (0u64, 0u64, 0u64, false);
    while t0.elapsed().as_secs_f64() < run.seconds {
        for op in ops.round() {
            let class = if after_landing {
                Class::Refresh
            } else {
                op.class
            };
            after_landing = false;
            std::thread::sleep(ops.think_time());
            // Answers are checked before the next landing, so the
            // reference's work never sits between two timed ops.
            match served_op(run, &mut s, &repo, &op, class, k) {
                Ok(rows) => checker.defer(&op.sql, rows),
                Err(o) => run.tally.record(o),
            }
            k += 1;
        }
        if next.round <= round {
            checker.settle(&mut run.tally, |sql| reference.answer(sql));
            while next.round <= round {
                land(run, &s, &mut repo, &mut targets[next.stream], next, k)?;
                landings += 1;
                next = schedule.next_landing();
            }
            after_landing = true;
        }
        round += 1;
    }
    finish_loop(run, h0, t0);
    checker.settle(&mut run.tally, |sql| reference.answer(sql));
    run.layers.loop_ops = k;
    run.layers.log_len.1 = s.wh.etl_log().len();
    run.layers.outbuf_hwm = s.server.stats().outbuf_hwm_bytes;
    run.facts.push(("rounds", round.to_string()));
    run.facts.push(("landings", landings.to_string()));
    run.facts.push(("files_at_end", repo.len().to_string()));
    run.mem_peak_mb = peak_rss_mb();
    drop(reference);
    stop_served(s)?;
    Ok(())
}

/// Land one record's span of waveform on a stream: a new file at the end
/// of its data, or appended to its newest file.
fn land(
    run: &mut Run,
    s: &Served,
    repo: &mut Repository,
    target: &mut Target,
    landing: Landing,
    k: u64,
) -> Result<(), String> {
    let mut apply = || -> Result<(), String> {
        let err = |e: lazyetl_repo::RepoError| format!("landing on {:?}: {e}", target.stream);
        if landing.new_file {
            let st = target.stream;
            let src =
                SourceId::new(st.network, st.station, "", st.channel).map_err(|e| e.to_string())?;
            target.newest = updates::add_file(repo, &src, target.end, LANDING_SECS, landing.seed)
                .map_err(err)?;
        } else {
            updates::append_records(repo, &target.newest, LANDING_SECS, landing.seed)
                .map_err(err)?;
        }
        target.end = target.end.add_micros(i64::from(LANDING_SECS) * 1_000_000);
        Ok(())
    };
    if run.trace.is_none() {
        return apply();
    }
    let trace = run.trace.as_mut().expect("traced run");
    let root = trace.begin("landing", None, k);
    let (landed, _) = trace.span("repo.updates", Some(root), k, &mut apply);
    landed?;
    let before = s.wh.stats_snapshot();
    let (refreshed, ms) = trace.span("core.refresh", Some(root), k, || s.wh.refresh());
    refreshed.map_err(|e| format!("refresh after a landing: {e}"))?;
    let after = s.wh.stats_snapshot();
    trace.end(root);
    run.layers.refresh_ms.push(ms);
    run.layers.add_landing(&before, &after);
    Ok(())
}
