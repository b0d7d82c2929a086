//! EDM-visibility units — where the asynchronously consulted state is
//! observed.
//!
//! The golden run's one [`AccessTrace`] records def/use events for state
//! whose every semantic access flows through an explicit hook: registers,
//! cache data words, ports, save slots, memory words. Everything else —
//! PC, PSR, signature register, pipeline latches, cache tags/flags, the
//! store/fill buffers, stack bounds, EDAC syndrome — is consulted
//! *asynchronously* by the pipeline and the error detection mechanisms.
//! Each such element is a [`VisUnit`], traced in the same container as
//! [`TraceUnit::Vis`]: the golden run records the **visibility windows**
//! in which an asynchronous observer actually samples that state. The
//! hooks live at the (few, enumerable) consult sites:
//!
//! * the fetch path: `fill_latch` reads the PC and deposits a whole new
//!   fetch latch; every instruction consumes the latch word and PC;
//! * branches read exactly the PSR flag(s) their condition consults
//!   (`beq`/`bne` the EQ bit, `blt`/`bge` the LT bit, `bgt`/`ble` both),
//!   and `cmp`/`fcmp` deposit both flags full-width;
//! * a control transfer overwrites the PC and zeroes the signature
//!   register **unconditionally** — a value-independent full write, the
//!   one sound kill for signature flips (the per-instruction
//!   `signature_step` folding is a read-modify-write that *morphs* a
//!   flip rather than observing or clearing it, so it is deliberately
//!   not an event: a signature fault is only ever claimed `Overwritten`
//!   when a transfer's zeroing precedes every `sig` compare);
//! * the cache hit check reads a line's valid bit on every access, its
//!   tag only while the line is valid, and its dirty bit only on a miss
//!   of a valid line (the short-circuit order of the real consult);
//!   a line fill overwrites tag/valid/dirty, a store overwrites dirty;
//! * a line fill reads the EDAC syndrome and deposits a whole fill
//!   buffer per word; a store deposits a whole store buffer;
//! * a stack-region data access reads both stack-bound registers;
//! * the register write-back deposits a whole result latch; `epc`/
//!   `cause` are written only by the trap path.
//!
//! A fault in a [`VisUnit`] whose recorded events never sample it is
//! *latent*; one whose first event is a full-width deposit is
//! *overwritten*; one whose first event is a sample is *live* there, in
//! the exact state `golden ⊕ flip` — exactly the def/use argument,
//! transplanted to the asynchronous observers (the planner's fate resolver
//! walks every unit alike). The one exception is the signature register,
//! which every instruction folds: only its write-first rule is sound.
//!
//! Two state elements remain opaque by design: the fetch-latch valid bit
//! (consulted every instruction to decide whether to fetch — no window
//! exists) and the operand latch (a shift register whose flips *migrate*
//! between its two slots; the planner resolves single flips there with
//! the value-level shift instants, see
//! [`AccessTrace::nth_shift_at_or_after`]).
//!
//! [`AccessTrace`]: crate::access::AccessTrace
//! [`AccessTrace::nth_shift_at_or_after`]: crate::access::AccessTrace::nth_shift_at_or_after
//! [`TraceUnit::Vis`]: crate::access::TraceUnit::Vis

use crate::cache;
use crate::scan::BitLocation;
use serde::{Deserialize, Serialize};

/// A unit of asynchronously consulted architectural state with a dense
/// index; traced as [`TraceUnit::Vis`](crate::access::TraceUnit::Vis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VisUnit {
    /// The program counter.
    Pc,
    /// One bit of the processor status register (bits are independently
    /// read and written: branches consult exactly one or two of them).
    Psr(u8),
    /// The control-flow signature register. The per-instruction signature
    /// folding evolves a flipped value, so `golden ⊕ flip` stops
    /// describing the faulty state after one instruction: only the
    /// write-first rule is sound.
    Sig,
    /// The fetch-latch instruction word.
    FetchWord,
    /// The fetch-latch instruction address.
    FetchPc,
    /// The write-back result latch (value + rd + we, deposited whole).
    Exwb,
    /// The store buffer (addr + data + valid, deposited whole).
    Sbuf,
    /// The fill buffer (addr + data + parity + valid, deposited whole).
    Fbuf,
    /// The trap bookkeeping registers `epc` + `cause` (written only by
    /// the trap path, never consulted at run time).
    EpcCause,
    /// The EDAC syndrome register (read by every line fill).
    EdacSyndrome,
    /// The lower stack bound (read by stack-region accesses).
    StackLo,
    /// The upper stack bound (read by stack-region accesses).
    StackHi,
    /// One cache line's tag.
    CacheTag(usize),
    /// One cache line's valid flag.
    CacheValid(usize),
    /// One cache line's dirty flag.
    CacheDirty(usize),
}

/// Non-per-line units: Pc + 8 PSR bits + Sig + FetchWord + FetchPc +
/// Exwb + Sbuf + Fbuf + EpcCause + EdacSyndrome + StackLo + StackHi.
const SCALAR_UNITS: usize = 19;

impl VisUnit {
    /// Total number of visibility units.
    pub const COUNT: usize = SCALAR_UNITS + 3 * cache::NUM_LINES;

    /// Dense index of this unit in `0..VisUnit::COUNT`.
    #[must_use]
    #[inline]
    pub fn index(&self) -> usize {
        match *self {
            VisUnit::Pc => 0,
            VisUnit::Psr(b) => 1 + b as usize,
            VisUnit::Sig => 9,
            VisUnit::FetchWord => 10,
            VisUnit::FetchPc => 11,
            VisUnit::Exwb => 12,
            VisUnit::Sbuf => 13,
            VisUnit::Fbuf => 14,
            VisUnit::EpcCause => 15,
            VisUnit::EdacSyndrome => 16,
            VisUnit::StackLo => 17,
            VisUnit::StackHi => 18,
            VisUnit::CacheTag(l) => SCALAR_UNITS + l,
            VisUnit::CacheValid(l) => SCALAR_UNITS + cache::NUM_LINES + l,
            VisUnit::CacheDirty(l) => SCALAR_UNITS + 2 * cache::NUM_LINES + l,
        }
    }
}

impl BitLocation {
    /// The visibility unit governing this bit, or `None` when the bit is
    /// either a def/use bit or genuinely opaque (the fetch-latch valid
    /// bit, the operand latch).
    pub(crate) fn vis_unit(&self) -> Option<VisUnit> {
        match *self {
            BitLocation::Pc { .. } => Some(VisUnit::Pc),
            BitLocation::Psr { bit } => Some(VisUnit::Psr(bit)),
            BitLocation::SigReg { .. } => Some(VisUnit::Sig),
            BitLocation::FetchWord { .. } => Some(VisUnit::FetchWord),
            BitLocation::FetchPc { .. } => Some(VisUnit::FetchPc),
            BitLocation::ResultValue { .. }
            | BitLocation::ResultRd { .. }
            | BitLocation::ResultWe => Some(VisUnit::Exwb),
            BitLocation::StoreBufAddr { .. }
            | BitLocation::StoreBufData { .. }
            | BitLocation::StoreBufValid => Some(VisUnit::Sbuf),
            BitLocation::FillBufAddr { .. }
            | BitLocation::FillBufData { .. }
            | BitLocation::FillBufParity
            | BitLocation::FillBufValid => Some(VisUnit::Fbuf),
            BitLocation::Epc { .. } | BitLocation::Cause { .. } => Some(VisUnit::EpcCause),
            BitLocation::EdacSyndrome { .. } => Some(VisUnit::EdacSyndrome),
            BitLocation::StackLo { .. } => Some(VisUnit::StackLo),
            BitLocation::StackHi { .. } => Some(VisUnit::StackHi),
            BitLocation::CacheTag { line, .. } => Some(VisUnit::CacheTag(line as usize)),
            BitLocation::CacheValid { line } => Some(VisUnit::CacheValid(line as usize)),
            BitLocation::CacheDirty { line } => Some(VisUnit::CacheDirty(line as usize)),
            // Traceable via the access trace, or opaque by design
            // (FetchValid is consulted every instruction; the operand
            // latch shifts — see the module docs).
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::access::{Access, AccessKind, AccessTrace, TraceUnit};
    use crate::scan;

    /// Every visibility unit, in catalog order.
    pub(crate) fn all_units() -> Vec<VisUnit> {
        let mut units: Vec<VisUnit> = vec![VisUnit::Pc];
        for b in 0..8 {
            units.push(VisUnit::Psr(b));
        }
        units.extend([
            VisUnit::Sig,
            VisUnit::FetchWord,
            VisUnit::FetchPc,
            VisUnit::Exwb,
            VisUnit::Sbuf,
            VisUnit::Fbuf,
            VisUnit::EpcCause,
            VisUnit::EdacSyndrome,
            VisUnit::StackLo,
            VisUnit::StackHi,
        ]);
        for l in 0..cache::NUM_LINES {
            units.push(VisUnit::CacheTag(l));
            units.push(VisUnit::CacheValid(l));
            units.push(VisUnit::CacheDirty(l));
        }
        units
    }

    #[test]
    fn unit_indices_are_dense_and_unique() {
        let units = all_units();
        assert_eq!(units.len(), VisUnit::COUNT);
        let mut seen = [false; VisUnit::COUNT];
        for u in units {
            let i = u.index();
            assert!(!seen[i], "duplicate index {i} for {u:?}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn every_catalog_bit_is_traceable_visible_or_known_opaque() {
        // The catalog partitions exactly: each bit has a def/use unit, or
        // a visibility unit, or is one of the two deliberately opaque
        // elements (fetch-valid, operand latch).
        for &loc in scan::catalog() {
            match (loc.trace_unit(), loc.vis_unit()) {
                (Some(TraceUnit::Vis(t)), Some(v)) => assert_eq!(t, v, "{loc:?}"),
                (Some(TraceUnit::Vis(_)), None) | (_, Some(_)) => {
                    panic!("{loc:?} must be traced through its visibility unit")
                }
                (Some(_), None) => {}
                (None, None) => assert!(
                    matches!(
                        loc,
                        BitLocation::FetchValid
                            | BitLocation::OperandA { .. }
                            | BitLocation::OperandB { .. }
                    ),
                    "{loc:?} is neither traced, visible, nor known-opaque"
                ),
            }
        }
    }

    #[test]
    fn first_at_or_after_and_shift_counts() {
        let pc = TraceUnit::Vis(VisUnit::Pc);
        let mut t = AccessTrace::new();
        t.record(pc, 5, AccessKind::Read);
        t.record(pc, 9, AccessKind::Write);
        t.record_shift(3);
        t.record_shift(7);
        t.record_shift(7);
        assert_eq!(
            t.first_at_or_after(pc, 6),
            Some(Access {
                at: 9,
                kind: AccessKind::Write
            })
        );
        assert_eq!(t.first_at_or_after(pc, 10), None);
        assert_eq!(t.first_at_or_after(TraceUnit::Vis(VisUnit::Sig), 0), None);
        assert_eq!(t.nth_shift_at_or_after(0, 0), Some(3));
        assert_eq!(t.nth_shift_at_or_after(0, 2), Some(7));
        assert_eq!(t.nth_shift_at_or_after(4, 1), Some(7));
        assert_eq!(t.nth_shift_at_or_after(4, 2), None);
        assert_eq!(t.nth_shift_at_or_after(8, 0), None);
    }
}
