//! `serve-bench`: the end-to-end and per-layer wall-clock benchmark of the
//! cutfit serving path (binary container -> advice -> materialized cut ->
//! jobs).
//!
//! A run of one workload:
//!
//! 1. serves the workload through the public `Workspace` API with tracing
//!    off, once to warm up and then repeatedly for the time budget, and
//!    takes the medians of set-up and serving time;
//! 2. reads the process's peak resident set (`VmHWM`) after every timed
//!    pass, resetting it before each, and takes the median;
//! 3. replays the same plan through each layer's public entry points with
//!    spans around every call (the traced replay, under the workload's
//!    executor);
//! 4. replays it again under the other executor (`Sequential` for `Auto`
//!    sessions and the other way round), keeping final vertex states, so
//!    that `Sequential` and `Auto` engine time are both recorded;
//! 5. gates correctness: every job's digest must agree across all of these
//!    runs, and answers must match the exact references.

pub mod digest;
pub mod gate;
pub mod replay;
pub mod trace;
pub mod workload;

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use cutfit_core::graph::io::ParseError;
use cutfit_core::prelude::*;

pub use digest::Digest;
pub use replay::{replay, Engine, Replay};
pub use trace::Tracer;
pub use workload::Workload;

/// Timed passes a run makes at least, however short its budget.
pub const MIN_PASSES: usize = 5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// True when every job passed the correctness gate.
    pub correct: bool,
    /// Jobs dispatched through the `Workspace`.
    pub attempted: u64,
    /// Jobs that failed: a simulator error, or a digest or answer mismatch.
    pub failed: u64,
    /// End-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (from the replays).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines for the log.
    pub notes: Vec<String>,
}

/// One untraced pass through the `Workspace`.
struct Served {
    setup_s: f64,
    serve_s: f64,
    sim_total_s: f64,
    digest: Digest,
}

/// Serves `jobs` once: open the container, schedule, run every job.
fn serve(w: &Workload, path: &Path, jobs: &[Job]) -> Result<Served, ParseError> {
    let start = Instant::now();
    let mut ws = w.open(path, w.executor)?;
    let plan = ws.schedule(jobs);
    let scheduled = Instant::now();
    let report = ws.run_workload(&plan);
    let done = Instant::now();
    Ok(Served {
        setup_s: (scheduled - start).as_secs_f64(),
        serve_s: (done - scheduled).as_secs_f64(),
        sim_total_s: report.total_seconds() + ws.advice_seconds(),
        digest: Digest::of_report(&report, ws.advice_seconds(), ws.stats()),
    })
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Resets the process's peak resident set to its current resident set
/// (Linux: `5` written to `/proc/self/clear_refs`).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set, MiB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Runs workload `w` over the container at `path`: the timed loop for at
/// least `budget` (and [`MIN_PASSES`] passes), then the replays and the
/// correctness gate.
pub fn measure(
    w: &Workload,
    path: &Path,
    seed: u64,
    budget: Duration,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let jobs = w.jobs(seed);
    let mut notes = Vec::new();

    // The warm-up pass fills the page cache and the allocator; its digest
    // is the reference every other run must reproduce.
    let warm = serve(w, path, &jobs)?;
    let reference = warm.digest.clone();
    let mut failed = reference.failed().len() as u64;
    let mut attempted = jobs.len() as u64;
    let (mut setup, mut serving, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while setup.len() < MIN_PASSES || start.elapsed() < budget {
        reset_peak_rss()?;
        let pass = serve(w, path, &jobs)?;
        peaks.push(peak_rss_mb()?);
        let bad: BTreeSet<usize> = pass
            .digest
            .failed()
            .union(&pass.digest.mismatched(&reference))
            .copied()
            .collect();
        failed += bad.len() as u64;
        attempted += jobs.len() as u64;
        setup.push(pass.setup_s);
        serving.push(pass.serve_s);
    }
    let timed_s = start.elapsed().as_secs_f64();
    let served_failed = failed;
    let (setup_s, serve_s, peak_rss) = (median(&setup), median(&serving), median(&peaks));

    // The traced replay runs under the sessions' executor, so its spans
    // split the time the timed passes measured. The other replay runs under
    // the other executor and keeps the final vertex states for the gate.
    let other_executor = match w.executor {
        ExecutorMode::Sequential => ExecutorMode::Auto,
        _ => ExecutorMode::Sequential,
    };
    let mut traced = Tracer::default();
    let main = replay(w, path, &jobs, w.executor, Engine::Prepared, &mut traced)?;
    let mut other_trace = Tracer::default();
    let other = replay(
        w,
        path,
        &jobs,
        other_executor,
        Engine::States,
        &mut other_trace,
    )?;

    // The gate, untimed: untraced = traced = the other executor's replay,
    // and answers match the references.
    let main_bad = reference.mismatched(&main.digest);
    let other_bad = reference.mismatched(&other.digest);
    let wrong = gate::wrong_answers(&other.graph, other.answers.iter().chain(&main.answers));
    let gate_bad: BTreeSet<usize> = main_bad.union(&other_bad).chain(&wrong).copied().collect();
    failed += gate_bad.len() as u64;
    notes.push(format!(
        "digest {:016x}: untraced passes {}, traced {:?} replay {}, {:?} replay {}, reference answers {}",
        reference.fingerprint(),
        if served_failed == 0 { "agree" } else { "DISAGREE" },
        w.executor,
        verdict(&main_bad),
        other_executor,
        verdict(&other_bad),
        verdict(&wrong),
    ));
    notes.push(format!(
        "{} timed passes in {:.1}s: set-up {}; serve {}; peak RSS {}",
        setup.len(),
        timed_s,
        summary(&setup),
        summary(&serving),
        summary(&peaks),
    ));

    let plan: Vec<String> = reference
        .jobs
        .iter()
        .map(|j| {
            format!(
                "{}@{}/{}:{}",
                j.algorithm, j.strategy, j.num_parts, j.supersteps
            )
        })
        .collect();
    notes.push(format!("plan (job@cut:supersteps): {}", plan.join(" ")));

    let end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("serve_s", serve_s, "s"),
        metric("sim_total_s", warm.sim_total_s, "sim_s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
    ];
    let (seq_run_s, auto_run_s) = match w.executor {
        ExecutorMode::Sequential => (traced.total("engine.run"), other_trace.total("engine.run")),
        _ => (other_trace.total("engine.run"), traced.total("engine.run")),
    };
    let per_layer = per_layer(&traced, &main, seq_run_s, auto_run_s, setup_s + serve_s);
    let finite = end_to_end
        .iter()
        .chain(&per_layer)
        .all(|m| m.value.is_finite());
    if !finite {
        notes.push("a metric is not a finite number".to_string());
    }
    Ok(Outcome {
        correct: failed == 0 && finite,
        attempted,
        failed,
        end_to_end,
        per_layer,
        notes,
    })
}

/// "median (min, max)" of a non-empty sample, for the log.
fn summary(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{:.4} ({:.4}..{:.4})", median(values), min, max)
}

fn verdict(bad: &BTreeSet<usize>) -> String {
    if bad.is_empty() {
        "agree".to_string()
    } else {
        format!("DISAGREE on jobs {bad:?}")
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics: wall-clock spans of the traced replay, counts it
/// made, and the simulated bill (labelled `sim_s`), which the cluster layer
/// computes inside the engine; engine time under `Sequential` and `Auto`
/// comes from whichever replay ran under each.
fn per_layer(
    t: &Tracer,
    r: &Replay,
    seq_run_s: f64,
    auto_run_s: f64,
    untraced_s: f64,
) -> Vec<Metric> {
    let decode_s = t.total("graph.decode");
    let run_s = t.total("engine.run");
    let e = &r.engine;
    let sum = |f: fn(&SimReport) -> f64| r.reports.iter().map(f).sum::<f64>();
    let count = |f: fn(&SimReport) -> u64| r.reports.iter().map(f).sum::<u64>() as f64;
    let lookups = (r.stats.cache_hits + r.stats.cache_misses) as f64;
    let replay_s = t.total("setup") + t.total("serve");
    vec![
        metric("graph.decode_s", decode_s, "s"),
        metric(
            "graph.decode_edges_per_s",
            ratio(r.graph.num_edges() as f64, decode_s),
            "1/s",
        ),
        metric("partition.sweep_s", t.total("partition.sweep"), "s"),
        metric(
            "partition.sweep_wide_s",
            t.total_where(|s| s.name == "partition.sweep" && s.parts > 64),
            "s",
        ),
        metric(
            "algorithms.canonicalize_s",
            t.total("algorithms.canonicalize"),
            "s",
        ),
        metric("partition.assign_s", t.total("partition.assign"), "s"),
        metric("partition.build_s", t.total("partition.build"), "s"),
        metric("partition.metrics_s", t.total("partition.metrics"), "s"),
        metric(
            "partition.cuts_built",
            t.count("partition.build") as f64,
            "count",
        ),
        metric("partition.replicas", r.replicas as f64, "count"),
        metric("engine.prepare_s", t.total("engine.prepare"), "s"),
        metric("engine.run_s", run_s, "s"),
        metric("engine.supersteps", e.supersteps as f64, "count"),
        metric(
            "engine.superstep_us",
            1e6 * ratio(run_s, e.supersteps as f64),
            "us",
        ),
        metric("engine.messages", e.messages as f64, "count"),
        metric(
            "engine.mean_active_fraction",
            ratio(e.active_sum, e.samples as f64),
            "ratio",
        ),
        metric(
            "engine.scanned_edge_fraction",
            ratio(e.scanned_sum, e.samples as f64),
            "ratio",
        ),
        metric("engine.seq_run_s", seq_run_s, "s"),
        metric("engine.parallel_speedup", ratio(seq_run_s, auto_run_s), "x"),
        metric(
            "algorithms.triangles_s",
            t.total("algorithms.triangles"),
            "s",
        ),
        metric("core.advise_s", t.total("core.advise"), "s"),
        metric("core.probes", r.probes as f64, "count"),
        metric(
            "core.cache_hit_ratio",
            ratio(r.stats.cache_hits as f64, lookups),
            "ratio",
        ),
        metric("core.cut_switches", r.stats.cut_switches as f64, "count"),
        metric("cluster.sim_compute_s", sum(|s| s.compute_seconds), "sim_s"),
        metric("cluster.sim_network_s", sum(|s| s.network_seconds), "sim_s"),
        metric(
            "cluster.sim_provisioning_s",
            r.session.total_seconds,
            "sim_s",
        ),
        metric("cluster.remote_bytes", count(|s| s.remote_bytes), "B"),
        metric(
            "cluster.checkpoint_bytes",
            count(|s| s.checkpoint_bytes),
            "B",
        ),
        metric(
            "unattributed_s",
            t.uncovered("setup") + t.uncovered("serve"),
            "s",
        ),
        metric("trace_overhead_s", replay_s - untraced_s, "s"),
    ]
}

/// Renders the result line (the last line of standard output): `metrics` holds the
/// end-to-end metrics, or the per-layer ones when `traced`.
pub fn result_json(o: &Outcome, traced: bool) -> String {
    let metrics = if traced { &o.per_layer } else { &o.end_to_end };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        body.join(", ")
    )
}
