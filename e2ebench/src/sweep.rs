//! The sweep workloads: timed `run_sweep` calls, and the traced replay
//! of the same cells through each layer's public function.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdbt_dbt::{Backend, Dbt, DbtConfig, ExecStats, OptMode, RunOutcome};
use tpdbt_experiments::figures;
use tpdbt_experiments::runner::{ladder, BenchResult};
use tpdbt_experiments::sweep::{run_sweep, SweepOptions, SweepReport};
use tpdbt_isa::PredecodedProgram;
use tpdbt_profile::navep::normalize;
use tpdbt_profile::report::{analyze, analyze_train};
use tpdbt_store::digest::fnv64_words;
use tpdbt_store::{Artifact, BaseArtifact, CacheKey, CellArtifact, PlainArtifact, ProfileStore};
use tpdbt_suite::{workload, InputKind, Workload as Guest};
use tpdbt_trace::export::write_file;
use tpdbt_trace::{TraceFormat, Tracer};

use crate::check::{cell_config, cells_per_sweep, check_store, Reference};
use crate::metrics::Outcome;
use crate::plan::SweepPlan;
use crate::spans::Recorder;

/// One timed sweep.
pub struct TimedSweep {
    /// Wall time of the sweep, its figure tables and (with the program
    /// tracer) the trace export.
    pub wall: Duration,
    /// Wall time of the trace export alone.
    pub export: Duration,
    /// Figures 8–18 as rendered text.
    pub tables: String,
    /// What `run_sweep` returned.
    pub report: SweepReport,
    /// The program tracer, when the plan attaches one.
    pub tracer: Option<Arc<Tracer>>,
}

/// Figures 8–18 as `reproduce all` prints them.
#[must_use]
pub fn render_figures(results: &[BenchResult]) -> String {
    figures::all(results)
        .iter()
        .map(|t| t.to_text())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs the plan's sweep once into a cold store under `dir`: the timed
/// operation of the sweep workloads.
///
/// # Errors
///
/// A failed sweep or trace export.
pub fn sweep_once(plan: &SweepPlan, dir: &Path) -> Result<TimedSweep, String> {
    let tracer = plan.program_tracer.then(|| Arc::new(Tracer::new()));
    let opts = SweepOptions {
        jobs: plan.jobs,
        cache_dir: Some(dir.join("store")),
        tracer: tracer.clone(),
        opt_mode: plan.opt_mode,
        ..SweepOptions::default()
    };
    let started = Instant::now();
    let report = run_sweep(&plan.names, plan.scale, &opts, |_| {}).map_err(|e| e.to_string())?;
    let tables = render_figures(&report.results);
    let export_start = Instant::now();
    if let Some(t) = &tracer {
        write_file(t, TraceFormat::Jsonl, dir.join("trace.jsonl"))
            .map_err(|e| format!("trace export: {e}"))?;
    }
    let export = export_start.elapsed();
    Ok(TimedSweep {
        wall: started.elapsed(),
        export,
        tables,
        report,
        tracer,
    })
}

/// Checks one timed sweep: every stored artifact against the reference
/// and, under sync optimization, the tables against the first
/// repetition's. Counts into `out`.
///
/// Async cells freeze their profiles when a background install lands,
/// which depends on thread timing, so their metrics (not their guest
/// outputs) legitimately differ from run to run.
pub fn check_sweep(
    plan: &SweepPlan,
    refs: &[Reference],
    store_dir: &Path,
    tables: &str,
    first_tables: &mut Option<String>,
    out: &mut Outcome,
) {
    let expected = cells_per_sweep(plan.names.len(), plan.scale);
    let failures = check_store(
        &ProfileStore::new(store_dir),
        refs,
        plan.scale,
        plan.opt_mode,
    );
    out.attempted += expected;
    out.failed += (failures.len() as u64).min(expected);
    for f in failures.iter().take(5) {
        eprintln!("  output check: {f}");
    }
    if plan.opt_mode != OptMode::Sync {
        return;
    }
    match first_tables {
        None => *first_tables = Some(tables.to_string()),
        Some(first) if first != tables => {
            out.errors
                .push("figure tables differ between repetitions".to_string());
        }
        Some(_) => {}
    }
}

/// Summed engine statistics and time of the replay's guest runs.
#[derive(Debug, Default)]
pub struct DbtTotals {
    /// Profiling-only runs (AVEP and train).
    pub noopt: Duration,
    /// `T = 1` base runs.
    pub base: Duration,
    /// Ladder runs.
    pub ladder: Duration,
    /// Summed counters (`opt_queue_peak` is the maximum).
    pub stats: ExecStats,
}

impl DbtTotals {
    fn add(&mut self, s: &ExecStats) {
        let t = &mut self.stats;
        t.instructions += s.instructions;
        t.cycles += s.cycles;
        t.profiling_ops += s.profiling_ops;
        t.blocks_translated += s.blocks_translated;
        t.regions_formed += s.regions_formed;
        t.opt_invocations += s.opt_invocations;
        t.side_exits += s.side_exits;
        t.completions += s.completions;
        t.loop_backs += s.loop_backs;
        t.region_entries += s.region_entries;
        t.retirements += s.retirements;
        t.opt_enqueued += s.opt_enqueued;
        t.opt_installed += s.opt_installed;
        t.opt_discarded += s.opt_discarded;
        t.opt_queue_peak = t.opt_queue_peak.max(s.opt_queue_peak);
    }

    /// Total guest-run time.
    #[must_use]
    pub fn run(&self) -> Duration {
        self.noopt + self.base + self.ladder
    }
}

/// What a replay produced.
pub struct Replay {
    /// Figure tables built from the replayed cells.
    pub tables: String,
    /// Guest-run totals.
    pub dbt: DbtTotals,
    /// Bytes of every artifact written.
    pub bytes_written: u64,
    /// Cells replayed.
    pub cells: u64,
}

#[derive(Clone, Copy)]
enum RunKind {
    NoOpt,
    Base,
    Ladder,
}

struct Replayer<'a> {
    plan: &'a SweepPlan,
    store: ProfileStore,
    tracer: Option<Arc<Tracer>>,
    dbt: DbtTotals,
    bytes_written: u64,
    next_id: u64,
}

impl Replayer<'_> {
    fn run(
        &mut self,
        rec: &mut Recorder,
        id: u64,
        kind: RunKind,
        config: DbtConfig,
        predecoded: &Arc<PredecodedProgram>,
        guest: &Guest,
    ) -> Result<RunOutcome, String> {
        let mut dbt = Dbt::new(config.with_backend(Backend::default()))
            .with_predecoded(Arc::clone(predecoded));
        if let Some(t) = &self.tracer {
            dbt = dbt.with_tracer(Arc::clone(t));
        }
        let name = match kind {
            RunKind::NoOpt => "dbt.noopt",
            RunKind::Base => "dbt.base",
            RunKind::Ladder => "dbt.ladder",
        };
        let started = Instant::now();
        let out = rec
            .span(name, id, |_| dbt.run_built(&guest.binary, &guest.input))
            .map_err(|e| e.to_string())?;
        let took = started.elapsed();
        match kind {
            RunKind::NoOpt => self.dbt.noopt += took,
            RunKind::Base => self.dbt.base += took,
            RunKind::Ladder => self.dbt.ladder += took,
        }
        self.dbt.add(&out.stats);
        Ok(out)
    }

    fn write(&mut self, rec: &mut Recorder, id: u64, key: &CacheKey, artifact: &Artifact) {
        let store = &self.store;
        // A failed write shows up as a missing artifact in the check.
        let _ = rec.span("store.write", id, |_| store.store(key, artifact));
        if let Ok(meta) = fs::metadata(store.dir().join(key.file_name())) {
            self.bytes_written += meta.len();
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

struct Baseline {
    name: &'static str,
    reference: Guest,
    predecoded: Arc<PredecodedProgram>,
    avep: tpdbt_profile::PlainProfile,
    train: tpdbt_profile::report::TrainMetrics,
    base_cycles: u64,
}

/// Replays the plan's sweep serially, cell by cell and in the sweep's
/// order (every baseline, then every ladder cell), calling each layer's
/// public function inside a span: `tpdbt_suite::workload`,
/// `Dbt::run_built`, `navep::normalize`, `report::analyze` /
/// `analyze_train`, `ProfileStore::store` and `figures::all`. Artifacts
/// land under the same keys a sweep uses, in a store at `store_dir`.
///
/// # Errors
///
/// Generator failures and guest traps.
pub fn replay(
    plan: &SweepPlan,
    refs: &[Reference],
    store_dir: &Path,
    tracer: Option<Arc<Tracer>>,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let mut store = ProfileStore::new(store_dir);
    if let Some(t) = &tracer {
        store = store.with_tracer(Arc::clone(t));
    }
    rec.span("store.open", 0, |_| store.sweep_orphans());
    let mut r = Replayer {
        plan,
        store,
        tracer,
        dbt: DbtTotals::default(),
        bytes_written: 0,
        next_id: 0,
    };
    let mode = plan.opt_mode;
    let mut baselines = Vec::with_capacity(plan.names.len());
    for (&name, keys) in plan.names.iter().zip(refs) {
        let id = r.id();
        let (reference, training) = rec
            .span("suite.workload", id, |_| {
                Ok::<_, tpdbt_suite::SuiteError>((
                    workload(name, r.plan.scale, InputKind::Ref)?,
                    workload(name, r.plan.scale, InputKind::Train)?,
                ))
            })
            .map_err(|e| format!("{name}: {e}"))?;
        let predecoded = Arc::new(PredecodedProgram::new(&reference.binary.program));
        let avep_cfg = DbtConfig::no_opt();
        let out = r.run(rec, id, RunKind::NoOpt, avep_cfg, &predecoded, &reference)?;
        let avep = out.as_plain_profile();
        let avep_art = Artifact::Plain(PlainArtifact {
            profile: avep.clone(),
            output: out.output,
        });
        r.write(rec, id, &keys.ref_guest.key(&avep_cfg), &avep_art);

        let id = r.id();
        let train_pre = Arc::new(PredecodedProgram::new(&training.binary.program));
        let out = r.run(rec, id, RunKind::NoOpt, avep_cfg, &train_pre, &training)?;
        let train_profile = out.as_plain_profile();
        let train = rec.span("profile.analyze_train", id, |_| {
            analyze_train(&train_profile, &avep)
        });
        let train_art = Artifact::Plain(PlainArtifact {
            profile: train_profile,
            output: out.output,
        });
        r.write(rec, id, &keys.train_guest.key(&avep_cfg), &train_art);

        let id = r.id();
        let base_cfg = cell_config(DbtConfig::two_phase(1), mode);
        let out = r.run(rec, id, RunKind::Base, base_cfg, &predecoded, &reference)?;
        let base = BaseArtifact {
            cycles: out.stats.cycles,
            output_digest: fnv64_words(&out.output),
        };
        r.write(
            rec,
            id,
            &keys.ref_guest.key(&base_cfg),
            &Artifact::Base(base),
        );
        baselines.push(Baseline {
            name,
            reference,
            predecoded,
            avep,
            train,
            base_cycles: base.cycles,
        });
    }

    let points = ladder(plan.scale);
    let mut results = Vec::with_capacity(baselines.len());
    for (b, keys) in baselines.iter().zip(refs) {
        let mut per_threshold = Vec::with_capacity(points.len());
        for &point in &points {
            let id = r.id();
            let cfg = cell_config(DbtConfig::two_phase(point.actual), mode);
            let out = r.run(rec, id, RunKind::Ladder, cfg, &b.predecoded, &b.reference)?;
            rec.span("profile.normalize", id, |_| normalize(&out.inip, &b.avep))
                .map_err(|e| format!("{}: {e}", b.name))?;
            let metrics = rec
                .span("profile.analyze", id, |_| analyze(&out.inip, &b.avep))
                .map_err(|e| format!("{}: {e}", b.name))?;
            let cell = CellArtifact {
                metrics,
                output_digest: fnv64_words(&out.output),
            };
            r.write(rec, id, &keys.ref_guest.key(&cfg), &Artifact::Cell(cell));
            per_threshold.push((point, metrics));
        }
        results.push(BenchResult {
            name: b.name,
            class: b.reference.class,
            per_threshold,
            train: b.train,
            avep: b.avep.clone(),
            base_cycles: b.base_cycles,
            avep_ops: b.avep.profiling_ops,
        });
    }
    let tables = rec.span("experiments.figures", 0, |_| render_figures(&results));
    Ok(Replay {
        tables,
        cells: r.next_id,
        dbt: r.dbt,
        bytes_written: r.bytes_written,
    })
}
