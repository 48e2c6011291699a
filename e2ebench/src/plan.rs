//! The four workloads and what each one runs.

use tpdbt_dbt::OptMode;
use tpdbt_suite::{all_names, fp_names, int_names, Scale};

use crate::util::Rng;

/// A benchmark workload. The names are part of the benchmark's
/// interface: later changes name them when they claim a gain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `reproduce all` at small scale: all 26 benchmarks, cold store,
    /// default backend, sync optimization, no program tracer.
    Sweep,
    /// The sweep over a seeded subset, with the program's tracer
    /// attached and exported as JSONL, as `reproduce --trace` does.
    SweepTraced,
    /// The sweep over a seeded subset under asynchronous optimization
    /// with one sweep worker.
    SweepAsync,
    /// An in-process `tpdbt-serve` daemon under a seeded open-loop
    /// query stream, then a closed-loop replay of the same stream.
    Serve,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::Sweep,
    Workload::SweepTraced,
    Workload::SweepAsync,
    Workload::Serve,
];

impl Workload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::SweepTraced => "sweep-traced",
            Workload::SweepAsync => "sweep-async",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// How one sweep workload calls `run_sweep`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepPlan {
    /// Benchmarks swept, in suite order.
    pub names: Vec<&'static str>,
    /// Suite scale.
    pub scale: Scale,
    /// Sweep worker threads.
    pub jobs: usize,
    /// Optimization scheduling of the optimizing cells.
    pub opt_mode: OptMode,
    /// Whether the program's own tracer is attached and exported.
    pub program_tracer: bool,
}

/// Worker threads and client connections: `min(2, nproc)`.
#[must_use]
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

/// Relative cost of each benchmark's small-scale cells, as serial
/// milliseconds of a one-benchmark sweep on the `cached` backend: with
/// the program tracer attached and exported, and under async
/// optimization. Measured once on
/// a 2-core Xeon; only the ratios matter. They pair benchmarks of
/// similar cost, so that every seeded subset costs about the same to
/// sweep and the seed moves the end-to-end numbers as little as
/// possible. A benchmark missing here (a later suite addition) stands
/// alone in its stratum.
const COST_MS: [(&str, u32, u32); 26] = [
    ("ammp", 509, 367),
    ("applu", 475, 342),
    ("apsi", 769, 425),
    ("art", 433, 379),
    ("bzip2", 443, 262),
    ("crafty", 823, 663),
    ("eon", 580, 441),
    ("equake", 339, 234),
    ("facerec", 515, 266),
    ("fma3d", 404, 274),
    ("galgel", 357, 169),
    ("gap", 393, 247),
    ("gcc", 767, 562),
    ("gzip", 614, 402),
    ("lucas", 1384, 972),
    ("mcf", 521, 332),
    ("mesa", 393, 310),
    ("mgrid", 367, 248),
    ("parser", 418, 239),
    ("perlbmk", 497, 444),
    ("sixtrack", 371, 310),
    ("swim", 536, 364),
    ("twolf", 274, 178),
    ("vortex", 757, 483),
    ("vpr", 1118, 786),
    ("wupwise", 1070, 815),
];

/// Which column of [`COST_MS`] a subset is balanced on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostMode {
    /// The program tracer attached.
    Traced,
    /// Asynchronous optimization.
    Async,
}

fn cost(name: &str, mode: CostMode) -> Option<u32> {
    COST_MS
        .iter()
        .find(|row| row.0 == name)
        .map(|&(_, traced, asynchronous)| match mode {
            CostMode::Traced => traced,
            CostMode::Async => asynchronous,
        })
}

/// Groups one suite class into cost-matched strata: ascending by cost,
/// neighbours pair up when the dearer costs at most 1.15× the cheaper,
/// and every other benchmark stands alone.
#[must_use]
pub fn cost_strata(mut names: Vec<&'static str>, mode: CostMode) -> Vec<Vec<&'static str>> {
    names.sort_by_key(|n| (cost(n, mode), *n));
    let mut strata = Vec::new();
    let mut i = 0;
    while i < names.len() {
        let pairs = match (
            cost(names[i], mode),
            names.get(i + 1).and_then(|n| cost(n, mode)),
        ) {
            (Some(a), Some(b)) => u64::from(b) * 100 <= u64::from(a) * 115,
            _ => false,
        };
        let width = if pairs { 2 } else { 1 };
        strata.push(names[i..i + width].to_vec());
        i += width;
    }
    strata
}

/// A seeded subset of the suite with both INT and FP analogs: every
/// other cost-matched stratum of each class, and from each of those one
/// benchmark the seed picks. Returned in suite order.
#[must_use]
pub fn seeded_subset(seed: u64, mode: CostMode) -> Vec<&'static str> {
    let mut rng = Rng::new(seed, 1);
    let mut picked = Vec::new();
    for class in [int_names(), fp_names()] {
        for stratum in cost_strata(class, mode).into_iter().step_by(2) {
            picked.push(stratum[rng.below(stratum.len())]);
        }
    }
    all_names()
        .into_iter()
        .filter(|n| picked.contains(n))
        .collect()
}

/// The sweep a sweep workload runs for `seed`; `None` for `serve`.
#[must_use]
pub fn sweep_plan(workload: Workload, seed: u64) -> Option<SweepPlan> {
    let jobs = parallelism();
    let plan = |names, jobs, opt_mode, program_tracer| SweepPlan {
        names,
        scale: Scale::Small,
        jobs,
        opt_mode,
        program_tracer,
    };
    match workload {
        // The suite inputs are deterministic: the seed is unused.
        Workload::Sweep => Some(plan(all_names(), jobs, OptMode::Sync, false)),
        // A third of the suite keeps a traced sweep, which is several
        // times slower than an untraced one, at a few seconds.
        Workload::SweepTraced => Some(plan(
            seeded_subset(seed, CostMode::Traced),
            jobs,
            OptMode::Sync,
            true,
        )),
        // One sweep worker leaves the other core to the program's
        // background optimizer workers.
        Workload::SweepAsync => Some(plan(
            seeded_subset(seed, CostMode::Async),
            1,
            OptMode::Async,
            false,
        )),
        Workload::Serve => None,
    }
}

/// The tiny-scale sweep that fills the serve daemon's store.
#[must_use]
pub fn serve_prefill_plan() -> SweepPlan {
    SweepPlan {
        names: all_names(),
        scale: Scale::Tiny,
        jobs: parallelism(),
        opt_mode: OptMode::Sync,
        program_tracer: false,
    }
}
