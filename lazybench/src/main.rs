//! End-to-end benchmark of the lazy warehouse.
//!
//! ```text
//! lazybench --workload <explore_warm|served_ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates its repository once per checkout (in the bench crate's
//! cache), pins itself to the first CPU it may use, sets the workload up
//! several times, runs one closed-loop client for the given seconds,
//! checks every answer against a reference warehouse in a child process,
//! and prints as its last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced, the per-layer
//! metrics with `--trace 1`. The line before it is the full report,
//! sample counts and host diagnostics included.

mod answer;
mod data;
mod host;
mod ops;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{num, Run};
use std::process::{Command, ExitCode};

/// End-to-end metrics every workload reports, in `BENCHMARK.json` order.
/// The other tails, `count` and the served-only classes are in the report
/// line only.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "mem_peak_mb",
    "window_p50_ms",
    "window_tail_ms",
    "scan_p50_ms",
    "meta_p50_ms",
    "export_p50_ms",
];

const WORKLOADS: [&str; 2] = ["explore_warm", "served_ingest"];

struct Args {
    role: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        role: "run".into(),
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--role" => a.role = value.clone(),
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// The prepare role: inputs on disk, made in a separate process so that
/// their memory never counts toward the measured process's peak.
fn prepare(workload: &str) -> Result<(), String> {
    data::small_dir();
    if workload == "served_ingest" {
        data::prepare_served()?;
    }
    Ok(())
}

fn run_prepare_child(workload: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--role", "prepare", "--workload", workload])
        .status()
        .map_err(|e| format!("spawn prepare: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("prepare failed: {status}"))
    }
}

fn run_workload(a: &Args) -> Result<Run, String> {
    let cpu = host::pin_to_first_cpu();
    run_prepare_child(&a.workload)?;
    let mut run = Run::new(a.seconds, a.trace);
    run.facts
        .push(("pinned_cpu", cpu.map_or("none".into(), |c| c.to_string())));
    match a.workload.as_str() {
        "explore_warm" => workloads::explore_warm(&mut run, a.seed)?,
        _ => workloads::served_ingest(&mut run, a.seed)?,
    }
    Ok(run)
}

fn metrics_json(pairs: &[(String, f64, &str)]) -> String {
    let cells: Vec<String> = pairs
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
        .collect();
    format!("{{{}}}", cells.join(","))
}

fn report(a: &Args, run: &Run) -> Result<String, String> {
    let out = data::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
    let full = run.report_json(&a.workload, a.seed);
    std::fs::write(out.join(format!("{stem}.json")), &full).map_err(|e| e.to_string())?;
    if let Some(t) = &run.trace {
        t.write_jsonl(&out.join(format!("{stem}-spans.jsonl")))
            .map_err(|e| e.to_string())?;
    }
    println!("{full}");

    let e2e = run.end_to_end();
    for (name, v, unit, n, p) in &e2e {
        let p = p.map_or(String::new(), |p| format!(" (p{p:.1})"));
        eprintln!("{name:>16} = {v:>10.4} {unit:<5} n={n}{p}");
    }
    let metrics: Vec<(String, f64, &str)> = if a.trace {
        run.per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|want| {
                e2e.iter()
                    .find(|(n, ..)| n == want)
                    .map(|(n, v, u, ..)| (n.clone(), *v, *u))
                    .ok_or(format!("{}: too few samples for {want}", a.workload))
            })
            .collect::<Result<_, _>>()?
    };
    let failed = run.tally.failed();
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0 && run.tally.attempted > 0,
        run.tally.attempted,
        metrics_json(&metrics)
    ))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lazybench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match a.role.as_str() {
        "prepare" => prepare(&a.workload).map(|_| None),
        "reference" => workloads::serve_reference(&a.workload).map(|_| None),
        "run" => run_workload(&a).and_then(|run| report(&a, &run)).map(Some),
        other => Err(format!("unknown role {other}")),
    };
    match result {
        Ok(Some(last)) => {
            println!("{last}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lazybench: {e}");
            ExitCode::FAILURE
        }
    }
}
