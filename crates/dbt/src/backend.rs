//! Pluggable execution backends: how translated guest code actually
//! runs.
//!
//! The engine in [`crate::engine`] owns *when* things happen — block
//! discovery, counter bumps, threshold registration, region formation,
//! freezing — while an [`ExecBackend`] owns *how* a translated block's
//! instructions execute. Two backends are provided:
//!
//! * [`InterpBackend`] — the reference backend: per-instruction
//!   dispatch through [`tpdbt_vm::step`], exactly the execution model
//!   the engine used before backends existed.
//! * [`CachedBackend`] — a pre-decoded translation cache: each block
//!   is decoded and fused once at translation time into a
//!   [`tpdbt_isa::DecodedBlock`] (a [`tpdbt_isa::FusedOp`]
//!   superinstruction buffer plus a pre-resolved terminator) and every
//!   later execution replays the buffer through
//!   [`tpdbt_vm::exec_body`] / [`tpdbt_vm::exec_term`]. At region
//!   install the copies are resolved to their cached bodies and the
//!   whole region is compiled into a straight-line [`CompiledTrace`]
//!   along its profiled edges, which the engine executes through guard
//!   ops with side exits falling back to per-block execution (see
//!   [`crate::trace`]).
//!
//! All backends drive the same execute-half semantics in `tpdbt-vm`,
//! so architectural state, outputs, and every profile counter are
//! bitwise identical by construction — the differential proptest in
//! `tests/backend_differential.rs` pins this.

use std::sync::Arc;

use tpdbt_isa::{Block, DecodedBlock, Pc, PredecodedProgram, Program};
use tpdbt_optimizer::SwapCell;
use tpdbt_profile::RegionDump;
use tpdbt_vm::{exec_body, exec_term, step, Flow, Machine, VmError};

use crate::trace::{compile_trace, CompiledTrace};

/// One region's installed optimized code: the copies resolved to
/// decoded bodies, plus the compiled straight-line trace. Chain and
/// trace live in the same slot so installs, re-formations, and
/// retirements replace or clear both in a single atomic table
/// publication: no reader can ever observe a fresh chain with a stale
/// trace (or vice versa).
#[derive(Clone, Debug, Default)]
pub struct RegionCode {
    /// Per-copy decoded bodies (the translation cache's own `Arc`s),
    /// entry first.
    pub chain: Vec<Arc<DecodedBlock>>,
    /// The region's straight-line trace.
    pub trace: Option<Arc<CompiledTrace>>,
}

impl RegionCode {
    /// Whether the slot holds no optimized code (cleared / never
    /// installed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty() && self.trace.is_none()
    }
}

/// The region table: one [`RegionCode`] slot per region id. Published
/// wholesale (see [`CachedBackend`]), never mutated in place.
pub type ChainTable = Vec<RegionCode>;

/// Which execution backend runs translated code — the user-facing
/// selection knob (`--backend {interp,cached}` on every binary).
///
/// The backend never changes a run's observable results (profiles,
/// outputs, stats, simulated cycles) — only how fast the host executes
/// the guest — so it is deliberately excluded from
/// [`crate::DbtConfig::fingerprint`] and all backends share
/// profile-store cache entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Reference per-instruction interpreter dispatch.
    Interp,
    /// Pre-decoded translation cache with superinstruction fusion and
    /// trace-compiled regions (the default).
    #[default]
    Cached,
}

impl Backend {
    /// All backends, for test matrices.
    pub const ALL: [Backend; 2] = [Backend::Interp, Backend::Cached];

    /// The flag-value name (`"interp"` / `"cached"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Cached => "cached",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" => Ok(Backend::Interp),
            "cached" => Ok(Backend::Cached),
            other => Err(format!(
                "unknown backend '{other}' (expected 'interp' or 'cached')"
            )),
        }
    }
}

/// Where a block execution was dispatched from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecSite {
    /// Profiling-phase (unoptimized) dispatch.
    Unopt,
    /// Copy `copy` of optimized region `region`.
    Region {
        /// Region id (index into the engine's region table).
        region: usize,
        /// Copy index within the region.
        copy: usize,
    },
}

/// How translated code executes. Implementations must be semantically
/// transparent: for any block, [`ExecBackend::exec_block`] must effect
/// exactly the architectural-state transition and [`Flow`] that
/// per-instruction [`tpdbt_vm::step`] dispatch would, including trap
/// payloads.
///
/// The engine reports translation-cache lifecycle events through the
/// remaining hooks: [`ExecBackend::on_translate`] at fast-translation
/// (cache insert), [`ExecBackend::install_region`] at region formation
/// *and* re-formation (optimized-code insert / replace), and
/// [`ExecBackend::retire_region`] at adaptive retirement (optimized-code
/// invalidation). Install hooks receive the full [`RegionDump`] — the
/// copy list plus the internal edge table — because trace compilation
/// needs the region's shape, not just its members.
pub trait ExecBackend {
    /// The block at `block.start` was fast-translated.
    fn on_translate(&mut self, program: &Program, block: &Block) {
        let _ = (program, block);
    }

    /// Region `region` was formed or re-formed; `dump` describes its
    /// copies (entry first) and internal edges.
    fn install_region(&mut self, region: usize, dump: &RegionDump) {
        let _ = (region, dump);
    }

    /// Region `region` was formed on a background optimizer thread and
    /// arrives with its copies already resolved (`chain`, parallel to
    /// `dump.copies`) and its trace compiled. The default delegates to
    /// [`ExecBackend::install_region`] — backends without a translation
    /// cache ignore the compiled artifacts.
    fn install_region_compiled(
        &mut self,
        region: usize,
        dump: &RegionDump,
        chain: Vec<Arc<DecodedBlock>>,
        trace: Option<Arc<CompiledTrace>>,
    ) {
        let _ = (chain, trace);
        self.install_region(region, dump);
    }

    /// Region `region` was retired: its optimized code must never run
    /// again.
    fn retire_region(&mut self, region: usize) {
        let _ = region;
    }

    /// The compiled trace installed for `region`, if this backend
    /// compiles traces and one is currently installed. The engine
    /// snapshots it (an [`Arc`] clone) per region entry, so a
    /// mid-execution retire or reform can swap the table without
    /// tearing the running trace.
    fn region_trace(&self, region: usize) -> Option<Arc<CompiledTrace>> {
        let _ = region;
        None
    }

    /// Executes the translated block spanning `[start, end)`, returning
    /// the terminator's control flow.
    ///
    /// # Errors
    ///
    /// Propagates guest traps ([`VmError`]) exactly as interpretation
    /// of the same instructions would.
    fn exec_block(
        &mut self,
        program: &Program,
        start: Pc,
        end: Pc,
        site: ExecSite,
        machine: &mut Machine,
    ) -> Result<Flow, VmError>;
}

/// The reference backend: per-instruction dispatch through
/// [`tpdbt_vm::step`], byte-for-byte the execution model the engine
/// used before the translation cache existed.
#[derive(Clone, Copy, Debug, Default)]
pub struct InterpBackend;

impl InterpBackend {
    /// Creates the reference backend.
    #[must_use]
    pub fn new() -> InterpBackend {
        InterpBackend
    }
}

impl ExecBackend for InterpBackend {
    fn exec_block(
        &mut self,
        program: &Program,
        start: Pc,
        end: Pc,
        _site: ExecSite,
        machine: &mut Machine,
    ) -> Result<Flow, VmError> {
        let mut flow = Flow::Halted;
        for at in start..end {
            machine.set_pc(at);
            flow = step(program, machine)?;
            if matches!(flow, Flow::Halted) && at + 1 < end {
                unreachable!("halt only terminates blocks");
            }
        }
        Ok(flow)
    }
}

/// Replays a decoded block's body (flat or fused) and terminator.
/// After a successful block the machine PC rests on the terminator,
/// matching the interpreter backend's final state exactly.
fn run_decoded(block: &DecodedBlock, machine: &mut Machine) -> Result<Flow, VmError> {
    exec_body(&block.body, block.start, machine)?;
    let pc = block.term_pc();
    machine.set_pc(pc);
    exec_term(block.term.view(), pc, machine)
}

/// The pre-decoded translation cache with superinstruction fusion and
/// trace-compiled regions.
///
/// Blocks are decoded and fused exactly once — at fast-translation
/// time — into [`DecodedBlock`]s whose bodies are
/// [`tpdbt_isa::FusedOp`] superinstructions, so the profiling phase
/// already dispatches fused code (fusion is architecturally invisible,
/// pinned by `crates/vm/tests/fusion_props.rs`). Optionally a shared
/// [`PredecodedProgram`] makes that a once-per-*guest* cost across
/// runs and threads (sweep ladder cells, serve queries) instead of
/// once per run. Region installs reuse the cached `Arc`s as the chain
/// and compile the region into a [`CompiledTrace`] published in the
/// same slot.
///
/// The region table lives behind a [`SwapCell`]: installs and
/// retirements build a *new* table and publish it in one atomic swap,
/// while the execution thread reads through a private [`Arc`] snapshot
/// refreshed at each publication point. This is what makes the
/// background optimizer's install genuinely atomic — no reader can
/// observe a half-written chain, or a trace out of step with its chain
/// — and keeps the backend `Send + Sync` clean behind the
/// `ExecBackend` seam.
#[derive(Debug)]
pub struct CachedBackend {
    /// Cross-run shared decode cache, when the driver provided one.
    shared: Option<Arc<PredecodedProgram>>,
    /// The translation cache proper: decoded block per start address.
    blocks: Vec<Option<Arc<DecodedBlock>>>,
    /// Publication handle for the region table. Cleared slots on
    /// retirement, replaced wholesale on (re-)installation.
    chains: SwapCell<ChainTable>,
    /// The execution thread's snapshot of `chains` (plain `Arc` deref
    /// on the hot path; refreshed after every publish).
    view: Arc<ChainTable>,
}

impl CachedBackend {
    /// Creates a translation cache for a program of `program_len`
    /// instructions. When `shared` is given (and sized for the same
    /// program), decoded blocks are pulled from — and published to —
    /// it, so concurrent and successive runs of the same guest decode
    /// each block only once globally.
    #[must_use]
    pub fn new(program_len: usize, shared: Option<Arc<PredecodedProgram>>) -> CachedBackend {
        let shared = shared.filter(|p| p.len() == program_len);
        let view: Arc<ChainTable> = Arc::new(Vec::new());
        CachedBackend {
            shared,
            blocks: vec![None; program_len],
            chains: SwapCell::from_arc(Arc::clone(&view)),
            view,
        }
    }

    /// Number of blocks currently in the translation cache.
    #[must_use]
    pub fn cached_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    /// The currently installed code for `region` (test observability;
    /// the engine reads through [`ExecBackend::region_trace`] and
    /// [`ExecBackend::exec_block`]).
    #[must_use]
    pub fn region_code(&self, region: usize) -> Option<&RegionCode> {
        self.view.get(region)
    }

    /// Copy-on-write slot update: clone the current table, replace
    /// `region`'s code, publish it and refresh the local view. Chain
    /// and trace change together — this is the single point where
    /// optimized code becomes (or stops being) visible.
    fn install_code(&mut self, region: usize, code: RegionCode) {
        let mut table = (*self.view).clone();
        if table.len() <= region {
            table.resize_with(region + 1, RegionCode::default);
        }
        table[region] = code;
        self.view = Arc::new(table);
        self.chains.store(Arc::clone(&self.view));
    }
}

impl ExecBackend for CachedBackend {
    fn on_translate(&mut self, program: &Program, block: &Block) {
        let pc = block.start;
        if self.blocks[pc].is_none() {
            self.blocks[pc] = match &self.shared {
                Some(cache) => cache.block(program, pc),
                None => Some(Arc::new(DecodedBlock::from_block(program, block).fused())),
            };
        }
    }

    fn install_region(&mut self, region: usize, dump: &RegionDump) {
        let chain: Vec<Arc<DecodedBlock>> = dump
            .copies
            .iter()
            .map(|&pc| {
                Arc::clone(
                    self.blocks[pc]
                        .as_ref()
                        .expect("region members are translated before formation"),
                )
            })
            .collect();
        let trace = compile_trace(&dump.copies, &dump.edges, &chain).map(Arc::new);
        self.install_code(region, RegionCode { chain, trace });
    }

    fn install_region_compiled(
        &mut self,
        region: usize,
        dump: &RegionDump,
        chain: Vec<Arc<DecodedBlock>>,
        trace: Option<Arc<CompiledTrace>>,
    ) {
        if chain.len() != dump.copies.len() {
            // A worker that could not resolve every copy falls back to
            // the engine-thread resolution path.
            self.install_region(region, dump);
            return;
        }
        self.install_code(region, RegionCode { chain, trace });
    }

    fn retire_region(&mut self, region: usize) {
        if self.view.get(region).is_some_and(|c| !c.is_empty()) {
            self.install_code(region, RegionCode::default());
        }
    }

    fn region_trace(&self, region: usize) -> Option<Arc<CompiledTrace>> {
        self.view.get(region).and_then(|c| c.trace.clone())
    }

    fn exec_block(
        &mut self,
        program: &Program,
        start: Pc,
        end: Pc,
        site: ExecSite,
        machine: &mut Machine,
    ) -> Result<Flow, VmError> {
        if let ExecSite::Region { region, copy } = site {
            if let Some(block) = self.view.get(region).and_then(|c| c.chain.get(copy)) {
                return run_decoded(block, machine);
            }
        }
        if self.blocks[start].is_none() {
            // Defensive: the engine always translates before executing,
            // but a standalone user of the backend may not.
            self.blocks[start] = match &self.shared {
                Some(cache) => cache.block(program, start),
                None => DecodedBlock::decode(program, start).map(|b| Arc::new(b.fused())),
            };
        }
        let block = self.blocks[start]
            .as_ref()
            .ok_or(VmError::BadPc { pc: start })?;
        debug_assert_eq!((block.start, block.end), (start, end));
        let _ = end;
        run_decoded(block, machine)
    }
}

/// Static dispatch over the built-in backends (keeps the engine's
/// hot loop free of virtual calls).
#[derive(Debug)]
pub(crate) enum BackendImpl {
    Interp(InterpBackend),
    Cached(CachedBackend),
}

impl BackendImpl {
    pub(crate) fn new(
        backend: Backend,
        program: &Program,
        shared: Option<Arc<PredecodedProgram>>,
    ) -> BackendImpl {
        match backend {
            Backend::Interp => BackendImpl::Interp(InterpBackend::new()),
            Backend::Cached => BackendImpl::Cached(CachedBackend::new(program.len(), shared)),
        }
    }
}

impl ExecBackend for BackendImpl {
    fn on_translate(&mut self, program: &Program, block: &Block) {
        match self {
            BackendImpl::Interp(b) => b.on_translate(program, block),
            BackendImpl::Cached(b) => b.on_translate(program, block),
        }
    }

    fn install_region(&mut self, region: usize, dump: &RegionDump) {
        match self {
            BackendImpl::Interp(b) => b.install_region(region, dump),
            BackendImpl::Cached(b) => b.install_region(region, dump),
        }
    }

    fn install_region_compiled(
        &mut self,
        region: usize,
        dump: &RegionDump,
        chain: Vec<Arc<DecodedBlock>>,
        trace: Option<Arc<CompiledTrace>>,
    ) {
        match self {
            BackendImpl::Interp(b) => b.install_region_compiled(region, dump, chain, trace),
            BackendImpl::Cached(b) => b.install_region_compiled(region, dump, chain, trace),
        }
    }

    fn retire_region(&mut self, region: usize) {
        match self {
            BackendImpl::Interp(b) => b.retire_region(region),
            BackendImpl::Cached(b) => b.retire_region(region),
        }
    }

    fn region_trace(&self, region: usize) -> Option<Arc<CompiledTrace>> {
        match self {
            BackendImpl::Interp(b) => b.region_trace(region),
            BackendImpl::Cached(b) => b.region_trace(region),
        }
    }

    fn exec_block(
        &mut self,
        program: &Program,
        start: Pc,
        end: Pc,
        site: ExecSite,
        machine: &mut Machine,
    ) -> Result<Flow, VmError> {
        match self {
            BackendImpl::Interp(b) => b.exec_block(program, start, end, site, machine),
            BackendImpl::Cached(b) => b.exec_block(program, start, end, site, machine),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_isa::{decode_block, Cond, ProgramBuilder, Reg};
    use tpdbt_profile::{RegionEdge, RegionKind, SuccSlot};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.reserve_mem(8);
        let top = b.fresh_label("top");
        b.movi(Reg::new(1), 3); // 0
        b.bind(top).unwrap();
        b.addi(Reg::new(0), Reg::new(0), 5); // 1
        b.store(Reg::new(0), Reg::new(1), 0); // 2
        b.out(Reg::new(0)); // 3
        b.br_imm(Cond::Lt, Reg::new(0), 20, top); // 4
        b.halt(); // 5
        b.build().unwrap()
    }

    /// A loop-shaped region dump over copies of the interior block.
    fn loop_dump(copies: Vec<Pc>) -> RegionDump {
        let edges = (0..copies.len())
            .map(|i| RegionEdge {
                from: i,
                slot: SuccSlot::Taken,
                to: if i + 1 < copies.len() { i + 1 } else { 0 },
            })
            .collect();
        let tail = copies.len() - 1;
        RegionDump {
            id: 0,
            kind: RegionKind::Loop,
            copies,
            edges,
            tail,
        }
    }

    #[test]
    fn backend_flag_round_trips() {
        for b in Backend::ALL {
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
            assert_eq!(b.to_string(), b.name());
        }
        assert!("jit".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Cached);
    }

    /// The fused variant is the cached backend now; its old flag value
    /// is gone, with no alias, and the error names what remains.
    #[test]
    fn removed_cached_fused_flag_is_rejected() {
        let err = "cached-fused".parse::<Backend>().unwrap_err();
        assert!(
            err.contains("'interp'") && err.contains("'cached'"),
            "{err}"
        );
    }

    /// Both dispatch sites of the cached backend — the profiling
    /// phase's cache lookup and a region copy's chain entry — compute
    /// the interpreter's machine state and flow: fusion must be
    /// architecturally invisible.
    #[test]
    fn both_backends_step_a_block_identically() {
        let p = sample();
        let block = decode_block(&p, 1).unwrap();
        let mut interp = InterpBackend::new();
        let mut cached = CachedBackend::new(p.len(), None);
        cached.on_translate(&p, &block);
        assert_eq!(cached.cached_blocks(), 1);
        cached.install_region(0, &loop_dump(vec![1, 1]));

        let mut mi = Machine::new(&p, &[]);
        let mut mc = mi.clone();
        for site in [ExecSite::Unopt, ExecSite::Region { region: 0, copy: 1 }] {
            let fi = interp
                .exec_block(&p, block.start, block.end, site, &mut mi)
                .unwrap();
            let fc = cached
                .exec_block(&p, block.start, block.end, site, &mut mc)
                .unwrap();
            assert_eq!(fi, fc);
            assert_eq!(mi, mc, "architectural state must be bitwise identical");
        }
    }

    #[test]
    fn shared_predecode_is_published_across_backends() {
        let p = sample();
        let shared = Arc::new(PredecodedProgram::new(&p));
        let block = decode_block(&p, 0).unwrap();
        let mut first = CachedBackend::new(p.len(), Some(Arc::clone(&shared)));
        first.on_translate(&p, &block);
        assert_eq!(shared.decoded_count(), 1);
        // A second run of the same guest reuses the decode.
        let mut second = CachedBackend::new(p.len(), Some(Arc::clone(&shared)));
        second.on_translate(&p, &block);
        assert_eq!(shared.decoded_count(), 1);
        let a = first.blocks[0].as_ref().unwrap();
        let b = second.blocks[0].as_ref().unwrap();
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn mismatched_shared_cache_is_ignored() {
        let p = sample();
        let mut other = ProgramBuilder::new();
        other.halt();
        let tiny = other.build().unwrap();
        let shared = Arc::new(PredecodedProgram::new(&tiny));
        let backend = CachedBackend::new(p.len(), Some(shared));
        assert!(backend.shared.is_none());
    }

    #[test]
    fn compiled_install_uses_the_provided_chain() {
        let p = sample();
        let body = decode_block(&p, 1).unwrap();
        let mut cached = CachedBackend::new(p.len(), None);
        // Worker-compiled chain: the backend's own cache never saw the
        // block, yet region execution works.
        let chain = vec![Arc::new(DecodedBlock::from_block(&p, &body))];
        cached.install_region_compiled(0, &loop_dump(vec![1]), chain, None);
        assert_eq!(cached.cached_blocks(), 0);
        let mut m = Machine::new(&p, &[]);
        let flow = cached
            .exec_block(
                &p,
                body.start,
                body.end,
                ExecSite::Region { region: 0, copy: 0 },
                &mut m,
            )
            .unwrap();
        assert!(matches!(flow, Flow::Jump { .. }));
        // A length-mismatched chain falls back to cache resolution.
        cached.on_translate(&p, &body);
        cached.install_region_compiled(1, &loop_dump(vec![1]), Vec::new(), None);
        assert_eq!(cached.view[1].chain.len(), 1);
    }

    /// Installs put a fused chain *and* a trace in one slot, and
    /// retirement / re-formation replaces both atomically — the
    /// stale-trace regression surface.
    #[test]
    fn install_compiles_trace_and_retire_drops_it_atomically() {
        let p = sample();
        let entry = decode_block(&p, 0).unwrap();
        let body = decode_block(&p, 1).unwrap();
        let mut fused = CachedBackend::new(p.len(), None);
        fused.on_translate(&p, &entry);
        fused.on_translate(&p, &body);
        fused.install_region(0, &loop_dump(vec![1]));
        let trace = fused.region_trace(0).expect("install compiles");
        assert_eq!(trace.starts(), vec![1]);
        // The chain bodies run as superinstructions.
        assert!(matches!(
            fused.view[0].chain[0].body,
            tpdbt_isa::BlockBody::Fused(_)
        ));

        // A reader mid-execution holds its own snapshot...
        let snapshot = fused.chains.load();
        // ...while a re-formation swaps chain and trace together.
        fused.install_region(0, &loop_dump(vec![1, 1]));
        let reformed = fused.region_trace(0).expect("reinstalled");
        assert_eq!(reformed.starts(), vec![1, 1], "trace tracks the new shape");
        assert_eq!(fused.view[0].chain.len(), 2);
        assert_eq!(snapshot[0].chain.len(), 1, "old snapshot untouched");
        assert_eq!(
            snapshot[0].trace.as_ref().unwrap().len(),
            1,
            "old snapshot keeps its matching trace"
        );

        // Retirement clears both in one publication, replacing the
        // table wholesale.
        let before_retire = fused.chains.load();
        fused.retire_region(0);
        assert!(fused.region_trace(0).is_none(), "no stale trace");
        assert!(fused.view[0].is_empty(), "no stale chain");
        assert_eq!(before_retire[0].chain.len(), 2, "old table untouched");
        assert!(!Arc::ptr_eq(&before_retire, &fused.view));
        // Re-formation after retirement reinstalls.
        fused.install_region(0, &loop_dump(vec![1]));
        assert_eq!(fused.view[0].chain.len(), 1);
    }

    /// Region installs reuse the translation cache's fused bodies: the
    /// chain holds the very same `Arc`s, nothing is cloned or re-fused.
    #[test]
    fn installed_chain_shares_the_translation_cache_blocks() {
        let p = sample();
        let shared = Arc::new(PredecodedProgram::new(&p));
        let body = decode_block(&p, 1).unwrap();
        for shared in [None, Some(Arc::clone(&shared))] {
            let mut cached = CachedBackend::new(p.len(), shared);
            cached.on_translate(&p, &body);
            cached.install_region(0, &loop_dump(vec![1, 1]));
            let cache_block = cached.blocks[1].as_ref().unwrap();
            for copy in &cached.view[0].chain {
                assert!(Arc::ptr_eq(copy, cache_block));
            }
        }
        // An async worker resolves copies through the same shared
        // cache, so its compiled chain is the cache's blocks too.
        let mut cached = CachedBackend::new(p.len(), Some(Arc::clone(&shared)));
        cached.on_translate(&p, &body);
        let dump = loop_dump(vec![1]);
        let chain = vec![shared.block(&p, 1).unwrap()];
        let trace = compile_trace(&dump.copies, &dump.edges, &chain).map(Arc::new);
        cached.install_region_compiled(0, &dump, chain, trace);
        assert!(Arc::ptr_eq(
            &cached.view[0].chain[0],
            cached.blocks[1].as_ref().unwrap()
        ));
        assert!(cached.region_trace(0).is_some());
    }

    #[test]
    fn backends_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InterpBackend>();
        assert_send_sync::<CachedBackend>();
        assert_send_sync::<BackendImpl>();
    }
}
