//! Command line of `serve-bench`.
//!
//! ```text
//! serve-bench gen --workload W --seed N --out PATH
//! serve-bench run --workload W --seed N --seconds S --trace 0|1 --container PATH
//! ```
//!
//! `gen` writes the workload's binary container (input generation, never
//! timed). `run` measures the workload over that container and prints, as
//! the last line of standard output, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Log lines
//! go to standard error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use cutfit_core::graph::binfmt::write_binary_file;
use serve_bench::{measure, result_json, Workload};

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    path: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::all().iter().map(|w| w.name).collect();
    format!(
        "usage: serve-bench gen --workload W --seed N --out PATH\n       \
         serve-bench run --workload W --seed N --seconds S --trace 0|1 --container PATH\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    if command != "gen" && command != "run" {
        return Err(format!("unknown command {command:?}"));
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut path) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                })
            }
            "--out" | "--container" => path = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let is_run = command == "run";
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: if is_run {
            seconds.ok_or("missing --seconds")?
        } else {
            0
        },
        trace: if is_run {
            trace.ok_or("missing --trace")?
        } else {
            false
        },
        path: path.ok_or("missing --out / --container")?,
        command,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve-bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    if args.command == "gen" {
        let graph = w.generate(args.seed);
        return match write_binary_file(&graph, &args.path) {
            Ok(bytes) => {
                eprintln!(
                    "serve-bench: {} container: {} x{} seed {}: {} vertices, {} edges, {} bytes",
                    w.name,
                    w.profile.name,
                    w.scale,
                    args.seed,
                    graph.num_vertices(),
                    graph.num_edges(),
                    bytes
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("serve-bench: writing {}: {e}", args.path.display());
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match measure(w, &args.path, args.seed, Duration::from_secs(args.seconds)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serve-bench: {} seed {} under {:?}, threads: {}",
        w.name,
        args.seed,
        w.executor,
        w.executor.threads()
    );
    for note in &outcome.notes {
        eprintln!("serve-bench: {note}");
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        eprintln!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&outcome, args.trace));
    ExitCode::SUCCESS
}
