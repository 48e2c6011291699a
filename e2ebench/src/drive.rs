//! One run of a sweep workload: set-up, reference, the timed sweeps or
//! the traced replay, checks, and metrics.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdbt_experiments::sweep::SweepReport;
use tpdbt_suite::all_names;
use tpdbt_trace::export::write_file;
use tpdbt_trace::{TraceFormat, Tracer};

use crate::check::{build_inputs, references, Inputs, Reference};
use crate::metrics::Outcome;
use crate::plan::SweepPlan;
use crate::spans::{render_table, Recorder};
use crate::sweep::{check_sweep, replay, sweep_once};
use crate::util::{median, percentile, secs};

/// Timed set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;
/// Untimed set-up repetitions before the timed ones: the first few of
/// a fresh process run up to 1.7× slower than the rest.
const SETUP_WARMUP: usize = 5;

fn io(what: &str, path: &Path, e: &std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

fn sweep_dir(work: &Path, i: usize) -> std::path::PathBuf {
    work.join(format!("sweep{i}"))
}

/// The sweep workloads' set-up, repeated [`SETUP_WARMUP`] times
/// untimed and then [`SETUP_REPS`] times timed: create the store
/// directory of one timed sweep and generate the guests of the whole
/// suite, the pool a seeded subset is drawn from, so that set-up costs
/// the same for every seed. Returns the median time and the plan's
/// guests from the last repetition.
///
/// # Errors
///
/// File-system and generator failures.
pub fn setup_sweep(plan: &SweepPlan, work: &Path) -> Result<(f64, Vec<Inputs>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = Vec::new();
    for i in 0..SETUP_WARMUP + SETUP_REPS {
        let started = Instant::now();
        let store = sweep_dir(work, i).join("store");
        fs::create_dir_all(&store).map_err(|e| io("create", &store, &e))?;
        inputs = build_inputs(&all_names(), plan.scale)?;
        if i >= SETUP_WARMUP {
            times.push(secs(started.elapsed()));
        }
    }
    inputs.retain(|i| plan.names.contains(&i.name));
    eprintln!(
        "set-up repetitions (ms): {:?}",
        times
            .iter()
            .map(|t| (t * 1e5).round() / 100.0)
            .collect::<Vec<_>>()
    );
    Ok((median(&times), inputs))
}

fn reference(plan: &SweepPlan, inputs: &[Inputs]) -> Result<Vec<Reference>, String> {
    let started = Instant::now();
    let refs = references(inputs, plan.scale)?;
    eprintln!(
        "reference outputs of {} benchmarks on the interpreter: {:.2} s (untimed)",
        refs.len(),
        secs(started.elapsed())
    );
    Ok(refs)
}

/// Runs the plan's sweep into a fresh cold store, again and again until
/// `seconds` have passed, checking each one.
///
/// The unit of work is one sweep: `sweep_s` is the median sweep,
/// `p50_us` the same in µs, and `p99_us` the slowest sweep of the run
/// (with 3–5 samples, the nearest-rank p99 is the maximum). `ops_per_s`
/// is cells per second of sweep wall time.
///
/// # Errors
///
/// Set-up, reference and sweep failures.
pub fn sweep_workload(plan: &SweepPlan, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let (setup_s, inputs) = setup_sweep(plan, work)?;
    let refs = reference(plan, &inputs)?;
    drop(inputs);
    let mut out = Outcome::default();
    let mut first_tables = None;
    let mut walls = Vec::new();
    let mut cells = 0;
    let measure = Instant::now();
    for i in 0.. {
        let dir = sweep_dir(work, i);
        fs::create_dir_all(&dir).map_err(|e| io("create", &dir, &e))?;
        let s = sweep_once(plan, &dir)?;
        walls.push(secs(s.wall));
        cells += s.report.cells.len();
        check_sweep(
            plan,
            &refs,
            &dir.join("store"),
            &s.tables,
            &mut first_tables,
            &mut out,
        );
        let _ = fs::remove_dir_all(&dir);
        if secs(measure.elapsed()) >= seconds {
            break;
        }
    }
    eprintln!(
        "{} sweeps of {} benchmarks: {:?} s",
        walls.len(),
        plan.names.len(),
        walls
            .iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    out.set("sweep_s", median(&walls));
    out.set("p50_us", median(&walls) * 1e6);
    out.set("p99_us", percentile(&sorted, 99.0) * 1e6);
    out.set("ops_per_s", cells as f64 / walls.iter().sum::<f64>());
    out.set("setup_s", setup_s);
    out.finish()?;
    Ok(out)
}

/// The traced run of a sweep workload: one timed sweep as the untraced
/// control, then a serial replay of the same cells with a span around
/// every call into a layer. Prints the per-layer table.
///
/// # Errors
///
/// Set-up, reference, sweep and replay failures.
pub fn trace_sweep_workload(plan: &SweepPlan, work: &Path) -> Result<Outcome, String> {
    let refs = reference(plan, &build_inputs(&plan.names, plan.scale)?)?;
    let mut out = Outcome::default();
    let mut first_tables = None;

    let dir = sweep_dir(work, 0);
    fs::create_dir_all(&dir).map_err(|e| io("create", &dir, &e))?;
    let sweep = sweep_once(plan, &dir)?;
    check_sweep(
        plan,
        &refs,
        &dir.join("store"),
        &sweep.tables,
        &mut first_tables,
        &mut out,
    );

    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let tracer = plan.program_tracer.then(|| Arc::new(Tracer::new()));
    let replay_dir = work.join("replay");
    let replayed = rec.span("bench.replay", 0, |rec| {
        let r = replay(plan, &refs, &replay_dir.join("store"), tracer.clone(), rec)?;
        if let Some(t) = &tracer {
            rec.span("trace.export", 0, |_| {
                write_file(t, TraceFormat::Jsonl, replay_dir.join("trace.jsonl"))
            })
            .map_err(|e| format!("trace export: {e}"))?;
        }
        Ok::<_, String>(r)
    })?;
    let wall = origin.elapsed();
    check_sweep(
        plan,
        &refs,
        &replay_dir.join("store"),
        &replayed.tables,
        &mut first_tables,
        &mut out,
    );

    // The same cells once more without the program tracer: the engine
    // time it adds is `trace.overhead`.
    let overhead = if plan.program_tracer {
        let control = replay(
            plan,
            &refs,
            &work.join("control").join("store"),
            None,
            &mut Recorder::new(Instant::now()),
        )?;
        secs(replayed.dbt.run()) / secs(control.dbt.run())
    } else {
        0.0
    };

    let rows = rec.layer_table(wall);
    eprint!(
        "{}",
        render_table("per-layer time of the replay", &rows, wall)
    );
    eprintln!(
        "replay wall {:.3} s against untraced sweep {:.3} s: ratio {:.3} (cost of serial replay plus spans)",
        secs(wall),
        secs(sweep.wall),
        secs(wall) / secs(sweep.wall)
    );
    let spans_path = work.join("spans.jsonl");
    fs::write(&spans_path, rec.to_jsonl()).map_err(|e| io("write", &spans_path, &e))?;
    for d in ["sweep0", "replay", "control"] {
        let _ = fs::remove_dir_all(work.join(d).join("store"));
    }

    set_sweep_metrics(&mut out, &sweep.report, plan.jobs);
    set_replay_metrics(&mut out, &rec, &replayed, wall);
    if let Some(t) = &sweep.tracer {
        out.set(
            "trace.events",
            t.counts().iter().map(|(_, n)| *n).sum::<u64>() as f64,
        );
        out.set("trace.retained", t.len() as f64);
        out.set("trace.export_s", secs(sweep.export));
        out.set("trace.overhead", overhead);
    }
    out.set("bench.replay_ratio", secs(wall) / secs(sweep.wall));
    out.finish()?;
    Ok(out)
}

/// Per-layer metrics of the `experiments` layer from an untraced sweep
/// run with `jobs` workers.
pub fn set_sweep_metrics(out: &mut Outcome, report: &SweepReport, jobs: usize) {
    let busy: u64 = report.cells.iter().map(|c| c.micros).sum();
    out.set("experiments.cells", report.cells.len() as f64);
    out.set("experiments.guest_runs", report.guest_runs as f64);
    out.set(
        "experiments.worker_busy",
        busy as f64 / 1e6 / (jobs as f64 * secs(report.elapsed)),
    );
}

/// Per-layer metrics of a replay recorded in `rec` over `wall`.
pub fn set_replay_metrics(
    out: &mut Outcome,
    rec: &Recorder,
    r: &crate::sweep::Replay,
    wall: Duration,
) {
    let d = &r.dbt;
    let s = &d.stats;
    let run_s = secs(d.run());
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set(
        "experiments.figures_s",
        secs(rec.total("experiments.figures")),
    );
    out.set("suite.workload_s", secs(rec.total("suite.workload")));
    out.set("dbt.run_s", run_s);
    out.set("dbt.noopt_s", secs(d.noopt));
    out.set("dbt.base_s", secs(d.base));
    out.set("dbt.ladder_s", secs(d.ladder));
    out.set("dbt.guest_mips", s.instructions as f64 / run_s / 1e6);
    out.set("dbt.instructions", s.instructions as f64);
    out.set("dbt.blocks_translated", s.blocks_translated as f64);
    out.set("dbt.regions_formed", s.regions_formed as f64);
    out.set("dbt.profiling_ops", s.profiling_ops as f64);
    out.set("dbt.region_entries", s.region_entries as f64);
    out.set("dbt.side_exits", s.side_exits as f64);
    out.set(
        "dbt.completion_ratio",
        ratio(s.completions, s.region_entries),
    );
    out.set("optimizer.enqueued", s.opt_enqueued as f64);
    out.set(
        "optimizer.install_ratio",
        ratio(s.opt_installed, s.opt_enqueued),
    );
    out.set("optimizer.queue_peak", s.opt_queue_peak as f64);
    out.set(
        "profile.analyze_s",
        secs(rec.total("profile.analyze") + rec.total("profile.analyze_train")),
    );
    out.set("profile.normalize_s", secs(rec.total("profile.normalize")));
    out.set("store.write_s", secs(rec.total("store.write")));
    out.set("store.bytes_written", r.bytes_written as f64);
    out.set("bench.replay_s", secs(wall));
    let self_sum: f64 = rec.layer_table(wall).iter().map(|row| row.self_s).sum();
    out.set("bench.self_share_sum", self_sum / secs(wall));
}
