//! The benchmark's own tests: its definition matches `BENCHMARK.json`,
//! its output check catches a wrong reference, its replay reproduces
//! the sweep, and its seeds change what they should and nothing else.

use std::collections::HashSet;
use std::path::PathBuf;

use tpdbt_dbt::OptMode;
use tpdbt_e2ebench::check::{build_inputs, check_store, references, Reference};
use tpdbt_e2ebench::metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use tpdbt_e2ebench::plan::{
    cost_strata, seeded_subset, sweep_plan, CostMode, SweepPlan, Workload, WORKLOADS,
};
use tpdbt_e2ebench::serve::{
    stored_keys, stream, Query, FRESH_BENCHES, NEW_THRESHOLD_EVERY, RATE_QPS,
};
use tpdbt_e2ebench::spans::Recorder;
use tpdbt_e2ebench::sweep::{check_sweep, replay, sweep_once};
use tpdbt_experiments::runner::ladder;
use tpdbt_serve::json::{parse, Json};
use tpdbt_store::ProfileStore;
use tpdbt_suite::{fp_names, int_names, Scale};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_plan(names: &[&'static str]) -> SweepPlan {
    SweepPlan {
        names: names.to_vec(),
        scale: Scale::Tiny,
        jobs: 2,
        opt_mode: OptMode::Sync,
        program_tracer: false,
    }
}

fn tiny_refs(plan: &SweepPlan) -> Vec<Reference> {
    references(&build_inputs(&plan.names, plan.scale).unwrap(), plan.scale).unwrap()
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn array<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match json.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn field<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key).and_then(Json::as_str).unwrap()
}

#[test]
fn printed_names_equal_the_names_in_benchmark_json() {
    let json = benchmark_json();
    let listed = |key| -> Vec<(String, String)> {
        array(&json, key)
            .iter()
            .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
            .collect()
    };
    let ours = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(&END_TO_END));
    assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    let workloads: Vec<&str> = array(&json, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    // The result line carries every metric, even unset ones.
    let line = parse(&Outcome::default().result_line(&END_TO_END)).unwrap();
    for d in END_TO_END {
        let m = line.get("metrics").and_then(|m| m.get(d.name)).unwrap();
        assert_eq!(field(m, "unit"), d.unit);
    }
}

#[test]
fn output_check_fails_on_a_wrong_reference() {
    let plan = tiny_plan(&["gap", "swim"]);
    let dir = scratch("wrong-reference");
    let sweep = sweep_once(&plan, &dir).unwrap();
    let store = dir.join("store");
    let mut refs = tiny_refs(&plan);
    let cells = (3 + ladder(plan.scale).len()) as u64;

    let mut good = Outcome::default();
    check_sweep(&plan, &refs, &store, &sweep.tables, &mut None, &mut good);
    assert_eq!((good.attempted, good.failed), (2 * cells, 0));
    assert!(good.correct());

    // A wrong reference output fails the AVEP, base and every ladder
    // cell of that benchmark; a wrong training output fails its train
    // cell.
    refs[0].ref_output.push(1);
    refs[1].train_output.push(1);
    let failures = check_store(&ProfileStore::new(&store), &refs, plan.scale, plan.opt_mode);
    assert_eq!(failures.len() as u64, cells, "{failures:?}");
    let mut bad = Outcome::default();
    check_sweep(&plan, &refs, &store, &sweep.tables, &mut None, &mut bad);
    assert_eq!(bad.failed, cells);
    assert!(!bad.correct());

    // Tables that differ from the first repetition's fail the run.
    let mut first = Some(sweep.tables.clone());
    let mut changed = Outcome::default();
    let refs = tiny_refs(&plan);
    check_sweep(
        &plan,
        &refs,
        &store,
        "other tables",
        &mut first,
        &mut changed,
    );
    assert!(!changed.correct());
}

#[test]
fn replay_reproduces_the_sweep_and_its_spans_account_for_its_wall_time() {
    let plan = tiny_plan(&["mcf", "equake"]);
    let dir = scratch("replay");
    let sweep = sweep_once(&plan, &dir).unwrap();
    let refs = tiny_refs(&plan);
    let origin = std::time::Instant::now();
    let mut rec = Recorder::new(origin);
    let replayed = rec
        .span("bench.replay", 0, |rec| {
            replay(&plan, &refs, &dir.join("replay"), None, rec)
        })
        .unwrap();
    let wall = origin.elapsed();
    assert_eq!(replayed.tables, sweep.tables);
    assert_eq!(replayed.cells, sweep.report.cells.len() as u64);
    let failures = check_store(
        &ProfileStore::new(dir.join("replay")),
        &refs,
        plan.scale,
        plan.opt_mode,
    );
    assert!(failures.is_empty(), "{failures:?}");

    let rows = rec.layer_table(wall);
    let self_sum: f64 = rows.iter().map(|r| r.self_s).sum();
    assert!(self_sum <= wall.as_secs_f64() + 1e-6);
    for layer in ["dbt", "store", "suite", "profile", "experiments"] {
        assert!(rows.iter().any(|r| r.layer == layer), "no {layer} row");
    }
    let instructions: u64 = refs
        .iter()
        .map(|r| (2 + ladder(plan.scale).len() as u64) * r.ref_instructions + r.train_instructions)
        .sum();
    assert_eq!(replayed.dbt.stats.instructions, instructions);
}

#[test]
fn seeds_change_subsets_and_streams_but_not_the_sweep() {
    for mode in [CostMode::Traced, CostMode::Async] {
        let a = seeded_subset(1, mode);
        assert_ne!(a, seeded_subset(2, mode), "{mode:?}");
        assert_eq!(a, seeded_subset(1, mode));
        for subset in [&a, &seeded_subset(2, mode)] {
            assert!(subset.iter().any(|n| int_names().contains(n)));
            assert!(subset.iter().any(|n| fp_names().contains(n)));
        }
        // Strata cover each class exactly once.
        for class in [int_names(), fp_names()] {
            let mut flat: Vec<_> = cost_strata(class.clone(), mode).concat();
            flat.sort_unstable();
            let mut sorted = class;
            sorted.sort_unstable();
            assert_eq!(flat, sorted);
        }
    }
    let subset = |w, seed| sweep_plan(w, seed).unwrap().names;
    assert_ne!(
        subset(Workload::SweepTraced, 1),
        subset(Workload::SweepTraced, 2)
    );
    assert_ne!(
        subset(Workload::SweepAsync, 1),
        subset(Workload::SweepAsync, 2)
    );
    assert_eq!(stream(1, 2.0, 2), stream(1, 2.0, 2));
    assert_ne!(stream(1, 2.0, 2), stream(2, 2.0, 2));

    // `sweep` ignores the seed, and its tables repeat exactly.
    assert_eq!(
        sweep_plan(Workload::Sweep, 1),
        sweep_plan(Workload::Sweep, 2)
    );
    let mut plan = sweep_plan(Workload::Sweep, 1).unwrap();
    plan.scale = Scale::Tiny;
    let dir = scratch("sweep-seeds");
    let first = sweep_once(&plan, &dir.join("a")).unwrap().tables;
    let second = sweep_once(&plan, &dir.join("b")).unwrap().tables;
    assert_eq!(first, second);
}

#[test]
fn serve_stream_mixes_hot_cold_and_coalescing_queries() {
    let keys = stored_keys();
    assert_eq!(keys.len(), 390);
    assert!(keys.len() > 256, "the key set must exceed the hot tier");
    let stored: HashSet<&Query> = keys.iter().collect();
    let per_conn = stream(7, 20.0, 2);
    let total: usize = per_conn.iter().map(Vec::len).sum();
    let offered = 20.0 * RATE_QPS;
    assert!((total as f64 - offered).abs() < 0.05 * offered, "{total}");

    // Off-ladder cells arrive on every connection at the same moment.
    let fresh: Vec<Vec<_>> = per_conn
        .iter()
        .map(|arrivals| {
            arrivals
                .iter()
                .filter(|a| !stored.contains(&a.query))
                .map(|a| (a.due, a.query.clone()))
                .collect()
        })
        .collect();
    assert_eq!(fresh[0], fresh[1]);
    assert!(!fresh[0].is_empty());
    // One arrival in every hundred, each sent once per connection.
    let arrivals = total - fresh[0].len();
    assert!(
        (arrivals / NEW_THRESHOLD_EVERY).abs_diff(fresh[0].len()) <= 1,
        "{arrivals}"
    );
    let distinct: HashSet<_> = fresh[0].iter().map(|(_, q)| q.clone()).collect();
    assert_eq!(distinct.len(), fresh[0].len(), "a new threshold repeats");
    // Each is a cell of one of the cost-matched benchmarks, dealt so
    // that every one of them is asked equally often.
    let mut asked = vec![0usize; FRESH_BENCHES.len()];
    for (_, q) in &fresh[0] {
        let Query::Cell(bench, ..) = q else {
            panic!("{q:?} is not a cell");
        };
        asked[FRESH_BENCHES.iter().position(|b| b == bench).unwrap()] += 1;
    }
    assert!(
        asked.iter().max().unwrap() - asked.iter().min().unwrap() <= 1,
        "{asked:?}"
    );
    for arrivals in &per_conn {
        assert!(arrivals.windows(2).all(|w| w[0].due <= w[1].due));
    }
}
