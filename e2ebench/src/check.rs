//! Output checks against an independent reference.
//!
//! The reference output of every guest comes from the plain
//! `tpdbt_vm::Interpreter`, which shares no code with the translator's
//! backends beyond the instruction semantics. After a sweep, every
//! artifact the sweep stored is read back under the key
//! `SuiteGuest::key` gives it and compared with that reference.

use tpdbt_dbt::{DbtConfig, OptMode, ProfilingMode};
use tpdbt_experiments::runner::ladder;
use tpdbt_experiments::sweep::SuiteGuest;
use tpdbt_store::digest::fnv64_words;
use tpdbt_store::ProfileStore;
use tpdbt_suite::{workload, InputKind, Scale, Workload as Guest};

/// The generated inputs of one benchmark: its reference-input and
/// training-input guests.
#[derive(Debug)]
pub struct Inputs {
    /// Benchmark name.
    pub name: &'static str,
    /// The guest on its reference input.
    pub reference: Guest,
    /// The guest on its training input.
    pub training: Guest,
}

/// Generates the guests of `names` at `scale`.
///
/// # Errors
///
/// Unknown names and generator failures.
pub fn build_inputs(names: &[&'static str], scale: Scale) -> Result<Vec<Inputs>, String> {
    names
        .iter()
        .map(|&name| {
            let build = |kind| workload(name, scale, kind).map_err(|e| format!("{name}: {e}"));
            Ok(Inputs {
                name,
                reference: build(InputKind::Ref)?,
                training: build(InputKind::Train)?,
            })
        })
        .collect()
}

/// What a correct run of one benchmark must produce.
#[derive(Debug)]
pub struct Reference {
    /// Benchmark name.
    pub name: &'static str,
    /// Interpreter output on the reference input.
    pub ref_output: Vec<i64>,
    /// Interpreter output on the training input.
    pub train_output: Vec<i64>,
    /// Guest instructions the interpreter executed on the reference
    /// input (every translated run of the same guest executes the same
    /// instructions).
    pub ref_instructions: u64,
    /// The same on the training input.
    pub train_instructions: u64,
    /// Store-key identity of the reference-input guest.
    pub ref_guest: SuiteGuest,
    /// Store-key identity of the training-input guest.
    pub train_guest: SuiteGuest,
}

/// Runs `guest` on the plain interpreter with its memory images
/// preloaded; returns its output and instruction count.
///
/// # Errors
///
/// Guest traps.
pub fn interpret(guest: &Guest) -> Result<(Vec<i64>, u64), String> {
    let mut interp = tpdbt_vm::Interpreter::new(&guest.binary.program, &guest.input);
    interp.preload(&guest.binary.mem_image, &guest.binary.fmem_image);
    let stats = interp
        .run()
        .map_err(|e| format!("{} on the reference interpreter: {e}", guest.name))?;
    Ok((interp.machine().output().to_vec(), stats.instructions))
}

/// Computes the reference of every benchmark in `inputs`.
///
/// # Errors
///
/// Guest traps and generator failures.
pub fn references(inputs: &[Inputs], scale: Scale) -> Result<Vec<Reference>, String> {
    inputs
        .iter()
        .map(|i| {
            let (ref_output, ref_instructions) = interpret(&i.reference)?;
            let (train_output, train_instructions) = interpret(&i.training)?;
            let key_guest = |kind| {
                SuiteGuest::build(i.name, scale, kind).map_err(|e| format!("{}: {e}", i.name))
            };
            Ok(Reference {
                name: i.name,
                ref_output,
                train_output,
                ref_instructions,
                train_instructions,
                ref_guest: key_guest(InputKind::Ref)?,
                train_guest: key_guest(InputKind::Train)?,
            })
        })
        .collect()
}

/// The configuration a sweep gives a cell: the opt mode is folded into
/// every optimizing cell before its store key is derived, exactly as
/// the sweep and the serve daemon do.
#[must_use]
pub fn cell_config(config: DbtConfig, opt_mode: OptMode) -> DbtConfig {
    if config.mode == ProfilingMode::NoOpt {
        config
    } else {
        config.with_opt_mode(opt_mode)
    }
}

/// Reads back every artifact a sweep of `refs` at `scale` under
/// `opt_mode` stores, and compares each with the
/// reference: AVEP and train outputs in full, base and ladder cells by
/// output digest. Returns one line per missing or wrong artifact.
#[must_use]
pub fn check_store(
    store: &ProfileStore,
    refs: &[Reference],
    scale: Scale,
    opt_mode: OptMode,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |name: &str, label: &str, what: &str| {
        failures.push(format!("{name}/{label}: {what}"));
    };
    for r in refs {
        let digest = fnv64_words(&r.ref_output);
        let avep_key = r.ref_guest.key(&DbtConfig::no_opt());
        match store.load_plain(&avep_key) {
            Some(p) if p.output == r.ref_output => {}
            Some(_) => fail(r.name, "avep", "output differs from the reference"),
            None => fail(r.name, "avep", "artifact missing"),
        }
        let train_key = r.train_guest.key(&DbtConfig::no_opt());
        match store.load_plain(&train_key) {
            Some(p) if p.output == r.train_output => {}
            Some(_) => fail(r.name, "train", "output differs from the reference"),
            None => fail(r.name, "train", "artifact missing"),
        }
        let base_key = r
            .ref_guest
            .key(&cell_config(DbtConfig::two_phase(1), opt_mode));
        match store.load_base(&base_key) {
            Some(b) if b.output_digest == digest => {}
            Some(_) => fail(r.name, "base", "output digest differs from the reference"),
            None => fail(r.name, "base", "artifact missing"),
        }
        for point in ladder(scale) {
            let key = r
                .ref_guest
                .key(&cell_config(DbtConfig::two_phase(point.actual), opt_mode));
            match store.load_cell(&key) {
                Some(c) if c.output_digest == digest && c.metrics.threshold == point.actual => {}
                Some(_) => fail(
                    r.name,
                    point.label,
                    "output digest differs from the reference",
                ),
                None => fail(r.name, point.label, "artifact missing"),
            }
        }
    }
    failures
}

/// Cells one sweep of `benchmarks` benchmarks at `scale` runs: AVEP,
/// train and base, plus one per ladder point.
#[must_use]
pub fn cells_per_sweep(benchmarks: usize, scale: Scale) -> u64 {
    (benchmarks * (3 + ladder(scale).len())) as u64
}
