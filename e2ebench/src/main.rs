//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints the metrics by name with their units and
//! the per-layer table on stderr, and prints one JSON result line as the
//! last line of stdout. Exits 0 when every output check passed, 1 when
//! one failed, 2 on usage or set-up errors (without a result line).

use std::path::PathBuf;

use tpdbt_e2ebench::metrics::{END_TO_END, PER_LAYER};
use tpdbt_e2ebench::plan::{sweep_plan, Workload};
use tpdbt_e2ebench::{drive, serve};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "e2ebench: {msg}\nusage: e2ebench --workload sweep|sweep-traced|sweep-async|serve \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                );
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    }
}

fn main() {
    let args = parse_args();
    // Scratch files stay inside the benchmark's own directory.
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(args.workload.name());
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    eprintln!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tpdbt_e2ebench::plan::parallelism()
    );
    let result = match (sweep_plan(args.workload, args.seed), args.trace) {
        (Some(plan), false) => {
            eprintln!("benchmarks: {}", plan.names.join(" "));
            drive::sweep_workload(&plan, args.seconds, &work)
        }
        (Some(plan), true) => {
            eprintln!("benchmarks: {}", plan.names.join(" "));
            drive::trace_sweep_workload(&plan, &work)
        }
        (None, false) => serve::serve_workload(args.seed, args.seconds, &work),
        (None, true) => serve::trace_serve_workload(args.seed, args.seconds, &work),
    };
    // Stores and trace exports go; spans.jsonl stays for inspection.
    if let Ok(entries) = std::fs::read_dir(&work) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let defs: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    eprint!("{}", out.render(defs));
    eprintln!(
        "  fail_ratio = {:.6} ({} failed of {} attempted)",
        out.fail_ratio(),
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        eprintln!("  check failed: {e}");
    }
    println!("{}", out.result_line(defs));
    if !out.correct() {
        std::process::exit(1);
    }
}
