//! Trace compilation: an optimized region lowered to a single
//! straight-line superinstruction trace.
//!
//! The cached backend's region chains (PR 5) removed per-pc cache
//! lookups from optimized execution, but each block still paid the
//! full generic machinery per step: backend dispatch, chain-table
//! indexing, 1:1 micro-op replay, `Flow` construction, and the
//! engine's terminator-to-successor-slot mapping. A [`CompiledTrace`]
//! removes all of it for the common case. At region-install time each
//! copy is lowered to a [`TraceSegment`]: its body re-encoded as fused
//! superinstructions ([`tpdbt_isa::FusedOp`]) and its terminator
//! pre-resolved to a [`Guard`] — the compiled form of the region's
//! internal edge table. Conditional branches (including the
//! float-compare-plus-branch idiom) evaluate inline in the guard and
//! map straight to the next segment index; leaving the region through
//! any direction the edge table does not cover is a *side exit*
//! ([`EXIT`]) that falls back to per-block execution in the engine.
//!
//! Invariants:
//!
//! * A trace is **bitwise transparent**: executing segment `i` leaves
//!   the machine exactly as the cached backend's per-block replay of
//!   copy `i` would (fused bodies are sequential compositions; guards
//!   evaluate precisely the terminator expression of
//!   [`tpdbt_vm::exec_term`]).
//! * Segment `i` corresponds 1:1 to region copy `i`, so the engine's
//!   per-copy bookkeeping (fuel accounting, side-exit statistics,
//!   adaptive retirement) is unchanged.
//! * Traces are installed and retired **atomically** with their
//!   region's chain — both live in one [`crate::backend::RegionCode`]
//!   slot published by table swap, so a reform or retirement can never
//!   leave a stale trace behind while the chain changes underneath it.
//! * Terminators with engine-visible bookkeeping (returns feed the
//!   first-occurrence `ret_targets` numbering; calls push the shadow
//!   stack) compile to [`Guard::Other`], which defers to the engine's
//!   generic path instead of guessing.

use std::sync::Arc;

use tpdbt_isa::{fuse_ops, BlockBody, Cond, DecodedBlock, MicroOp, MicroOperand, MicroTerm, Pc};
use tpdbt_profile::{RegionEdge, SuccSlot};
use tpdbt_vm::Machine;

/// Successor sentinel: control leaves the region (side exit or tail
/// completion — the engine distinguishes by comparing against the
/// region's tail copy).
pub(crate) const EXIT: u32 = u32::MAX;

/// A segment's pre-resolved terminator decision. The fast variants are
/// trap-free and mutate at most the registers their constituent ops
/// would; everything with traps or engine-visible side effects is
/// [`Guard::Other`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Guard {
    /// Conditional branch: evaluate inline, follow the compiled edge.
    Branch {
        /// Comparison condition.
        cond: Cond,
        /// Left operand register index.
        a: u8,
        /// Right operand.
        b: MicroOperand,
        /// Guest target when taken.
        taken: Pc,
        /// Guest target when not taken.
        fall: Pc,
        /// Next segment when taken ([`EXIT`] = leave region).
        on_taken: u32,
        /// Next segment when not taken.
        on_fall: u32,
    },
    /// The cmp+branch superinstruction: a trailing `FCmpLt` fused into
    /// its conditional branch. Writes the compare result register, then
    /// branches on it — exactly the two constituent steps.
    FCmpBranch {
        /// Float compare: left register.
        fa: u8,
        /// Float compare: right register.
        fb: u8,
        /// Integer destination of the compare result.
        dst: u8,
        /// Branch condition over `dst`.
        cond: Cond,
        /// Branch right operand.
        b: MicroOperand,
        /// Guest target when taken.
        taken: Pc,
        /// Guest target when not taken.
        fall: Pc,
        /// Next segment when taken.
        on_taken: u32,
        /// Next segment when not taken.
        on_fall: u32,
    },
    /// Unconditional jump with a statically known target.
    Direct {
        /// Next segment.
        next: u32,
        /// Guest target.
        target: Pc,
    },
    /// Anything with traps or engine bookkeeping (call, return, switch,
    /// halt): the engine runs its generic terminator + outcome path.
    Other,
}

impl Guard {
    /// Evaluates a fast guard against the machine, returning the next
    /// segment index and guest target. `None` means [`Guard::Other`]:
    /// the caller must run the generic terminator path. Trap-free; the
    /// only architectural write is [`Guard::FCmpBranch`]'s compare
    /// result, identical to its constituent `FCmpLt`.
    #[inline]
    pub(crate) fn quick_eval(self, m: &mut Machine) -> Option<(u32, Pc)> {
        let rhs = |m: &Machine, b: MicroOperand| match b {
            MicroOperand::Reg(r) => m.reg(r as usize),
            MicroOperand::Imm(v) => v,
        };
        match self {
            Guard::Branch {
                cond,
                a,
                b,
                taken,
                fall,
                on_taken,
                on_fall,
            } => {
                let y = rhs(m, b);
                Some(if cond.eval(m.reg(a as usize), y) {
                    (on_taken, taken)
                } else {
                    (on_fall, fall)
                })
            }
            Guard::FCmpBranch {
                fa,
                fb,
                dst,
                cond,
                b,
                taken,
                fall,
                on_taken,
                on_fall,
            } => {
                let v = i64::from(m.freg(fa as usize) < m.freg(fb as usize));
                m.set_reg(dst as usize, v);
                let y = rhs(m, b);
                Some(if cond.eval(m.reg(dst as usize), y) {
                    (on_taken, taken)
                } else {
                    (on_fall, fall)
                })
            }
            Guard::Direct { next, target } => Some((next, target)),
            Guard::Other => None,
        }
    }
}

/// One region copy lowered for trace execution.
#[derive(Clone, Debug)]
pub(crate) struct TraceSegment {
    /// Guest address of the copy's first instruction.
    pub start: Pc,
    /// Instruction count including the terminator (the engine's
    /// per-block `instructions` / cycle accounting quantum).
    pub len: u32,
    /// Guest address of the terminator.
    pub term_pc: Pc,
    /// The fused straight-line body (terminator excluded; for
    /// [`Guard::FCmpBranch`] the trailing compare is excluded too — the
    /// guard performs it).
    pub body: BlockBody,
    /// The pre-decoded terminator, for [`Guard::Other`] segments.
    pub term: MicroTerm,
    /// The compiled successor decision.
    pub guard: Guard,
}

/// An optimized region compiled into a straight-line superinstruction
/// trace (one [`TraceSegment`] per region copy, entry first).
///
/// Produced at region-install time by the cached backend (and
/// by async optimizer workers); executed by the engine's traced region
/// loop. Opaque outside the crate — tests can observe shape through
/// [`CompiledTrace::starts`].
#[derive(Clone, Debug)]
pub struct CompiledTrace {
    pub(crate) segs: Box<[TraceSegment]>,
}

impl CompiledTrace {
    /// Number of segments (== region copies).
    #[must_use]
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// Whether the trace has no segments (never true for a compiled
    /// region, which has at least its entry copy).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// The guest start address of each segment, in copy order — the
    /// trace's identity for staleness checks.
    #[must_use]
    pub fn starts(&self) -> Vec<Pc> {
        self.segs.iter().map(|s| s.start).collect()
    }
}

/// Compiles a region into a straight-line trace. `chain` is the copy
/// list resolved to decoded blocks (parallel to `copies`); `edges` is
/// the region's internal edge table. Returns `None` when the chain
/// does not cover the copy list (the caller falls back to per-block
/// chains).
pub(crate) fn compile_trace(
    copies: &[Pc],
    edges: &[RegionEdge],
    chain: &[Arc<DecodedBlock>],
) -> Option<CompiledTrace> {
    if chain.len() != copies.len() || copies.is_empty() {
        return None;
    }
    let mut segs = Vec::with_capacity(copies.len());
    for (i, block) in chain.iter().enumerate() {
        if block.start != copies[i] {
            return None;
        }
        let succ = |slot: SuccSlot| -> u32 {
            edges
                .iter()
                .find(|e| e.from == i && e.slot == slot)
                .map_or(EXIT, |e| e.to as u32)
        };
        let flat = block.body.flat_ops();
        // cmp+branch fusion: a trailing float compare feeding the
        // block's own conditional branch moves into the guard.
        let (body_ops, fcmp) = match (flat.last(), &block.term) {
            (Some(&MicroOp::FCmpLt { dst, a: fa, b: fb }), MicroTerm::Branch { a, .. })
                if *a == dst =>
            {
                (&flat[..flat.len() - 1], Some((fa, fb, dst)))
            }
            _ => (&flat[..], None),
        };
        let guard = match (&block.term, fcmp) {
            (
                MicroTerm::Branch {
                    cond,
                    b,
                    taken,
                    fallthrough,
                    ..
                },
                Some((fa, fb, dst)),
            ) => Guard::FCmpBranch {
                fa,
                fb,
                dst,
                cond: *cond,
                b: *b,
                taken: *taken,
                fall: *fallthrough,
                on_taken: succ(SuccSlot::Taken),
                on_fall: succ(SuccSlot::Fallthrough),
            },
            (
                MicroTerm::Branch {
                    cond,
                    a,
                    b,
                    taken,
                    fallthrough,
                },
                None,
            ) => Guard::Branch {
                cond: *cond,
                a: *a,
                b: *b,
                taken: *taken,
                fall: *fallthrough,
                on_taken: succ(SuccSlot::Taken),
                on_fall: succ(SuccSlot::Fallthrough),
            },
            (MicroTerm::Jump { target }, _) => Guard::Direct {
                next: succ(SuccSlot::Other(0)),
                target: *target,
            },
            _ => Guard::Other,
        };
        // Same representation policy as `DecodedBlock::fused`: a body
        // with no specialized window stays flat — the 1:1 loop is the
        // faster form for it.
        let fused = fuse_ops(body_ops);
        let body = if fused.len() < body_ops.len() {
            BlockBody::Fused(fused)
        } else {
            BlockBody::Flat(body_ops.to_vec().into())
        };
        segs.push(TraceSegment {
            start: block.start,
            len: (block.end - block.start) as u32,
            term_pc: block.term_pc(),
            body,
            term: block.term.clone(),
            guard,
        });
    }
    Some(CompiledTrace {
        segs: segs.into_boxed_slice(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_isa::{Cond, ProgramBuilder, Reg};
    use tpdbt_profile::RegionEdge;

    /// A two-block loop: entry with a conditional latch back to itself.
    #[test]
    fn compiles_branch_guards_with_edge_table() {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.bind(top).unwrap();
        b.addi(Reg::new(0), Reg::new(0), 1); // 0
        b.addi(Reg::new(1), Reg::new(1), 2); // 1 (fuses with 0)
        b.br_imm(Cond::Lt, Reg::new(0), 10, top); // 2
        b.halt(); // 3
        let p = b.build().unwrap();
        let block = Arc::new(DecodedBlock::decode(&p, 0).unwrap());
        let edges = vec![RegionEdge {
            from: 0,
            slot: SuccSlot::Taken,
            to: 0,
        }];
        let trace = compile_trace(&[0], &edges, &[Arc::clone(&block)]).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.starts(), vec![0]);
        let seg = &trace.segs[0];
        assert_eq!((seg.start, seg.len, seg.term_pc), (0, 3, 2));
        // The two add-immediates fused into one superinstruction.
        assert_eq!(seg.body.instr_count(), 2);
        if let BlockBody::Fused(ops) = &seg.body {
            assert_eq!(ops.len(), 1);
        } else {
            panic!("trace bodies are fused");
        }
        match seg.guard {
            Guard::Branch {
                on_taken, on_fall, ..
            } => {
                assert_eq!(on_taken, 0, "loop back to entry");
                assert_eq!(on_fall, EXIT, "fall-through leaves the region");
            }
            ref g => panic!("expected a branch guard, got {g:?}"),
        }
    }

    #[test]
    fn fcmp_feeding_the_branch_moves_into_the_guard() {
        use tpdbt_isa::FReg;
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.bind(top).unwrap();
        b.fadd(FReg::new(0), FReg::new(0), FReg::new(1)); // 0
        b.fcmp_lt(Reg::new(2), FReg::new(0), FReg::new(2)); // 1
        b.br_imm(Cond::Ne, Reg::new(2), 0, top); // 2
        b.halt();
        let p = b.build().unwrap();
        let block = Arc::new(DecodedBlock::decode(&p, 0).unwrap());
        let trace = compile_trace(&[0], &[], &[block]).unwrap();
        let seg = &trace.segs[0];
        // The compare left the body for the guard.
        assert_eq!(seg.body.instr_count(), 1);
        assert!(matches!(
            seg.guard,
            Guard::FCmpBranch {
                fa: 0,
                fb: 2,
                dst: 2,
                cond: Cond::Ne,
                on_taken: EXIT,
                on_fall: EXIT,
                ..
            }
        ));
    }

    #[test]
    fn mismatched_chain_refuses_to_compile() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let block = Arc::new(DecodedBlock::decode(&p, 0).unwrap());
        assert!(compile_trace(&[0, 1], &[], &[block]).is_none());
        assert!(compile_trace(&[], &[], &[]).is_none());
        let wrong = Arc::new(DecodedBlock::decode(&p, 0).unwrap());
        assert!(compile_trace(&[3], &[], &[wrong]).is_none());
    }

    #[test]
    fn quick_eval_matches_exec_term_on_both_directions() {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.bind(top).unwrap();
        b.addi(Reg::new(0), Reg::new(0), 1);
        b.br_imm(Cond::Lt, Reg::new(0), 2, top);
        b.halt();
        let p = b.build().unwrap();
        let block = Arc::new(DecodedBlock::decode(&p, 0).unwrap());
        let edges = vec![RegionEdge {
            from: 0,
            slot: SuccSlot::Taken,
            to: 0,
        }];
        let trace = compile_trace(&[0], &edges, &[block]).unwrap();
        let guard = trace.segs[0].guard;
        let mut m = Machine::new(&p, &[]);
        // r0 = 1 < 2: taken.
        m.set_reg(0, 1);
        assert_eq!(guard.quick_eval(&mut m), Some((0, 0)));
        // r0 = 5: not taken, exits to the fall-through pc.
        m.set_reg(0, 5);
        assert_eq!(guard.quick_eval(&mut m), Some((EXIT, 2)));
    }
}
