//! EDM-visibility tracing — analytic coverage for the *untraceable* set.
//!
//! The def/use access trace ([`crate::access`]) covers state whose every
//! semantic access flows through an explicit hook: registers, cache data
//! words, ports, save slots, memory words. Everything else — PC, PSR,
//! signature register, pipeline latches, cache tags/flags, the store/fill
//! buffers, stack bounds, EDAC syndrome — is consulted *asynchronously*
//! by the pipeline and the error detection mechanisms, so the def/use
//! trace alone would leave every fault landing there to simulation (~28 %
//! of multi-bit candidates).
//!
//! This module closes most of that gap with a second, coarser trace: the
//! golden run records, per [`VisUnit`], the **visibility windows** in
//! which each asynchronous observer actually samples that state. The
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
//! walks both traces alike). The one exception is the signature register,
//! which every instruction folds: only its write-first rule is sound.
//!
//! Two state elements remain opaque by design: the fetch-latch valid bit
//! (consulted every instruction to decide whether to fetch — no window
//! exists) and the operand latch (a shift register whose flips *migrate*
//! between its two slots; the planner resolves single flips there with
//! the value-level shift instants, see
//! [`VisTrace::nth_shift_at_or_after`]).

use crate::access::{Access, AccessKind};
use crate::cache;
use crate::scan::BitLocation;

/// A unit of *untraceable* architectural state with a dense index, the
/// visibility-window analogue of [`crate::access::TraceUnit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// either covered by the ordinary access trace
    /// ([`BitLocation::trace_unit`] returns `Some`) or genuinely opaque
    /// (the fetch-latch valid bit, the operand latch).
    #[must_use]
    pub fn vis_unit(&self) -> Option<VisUnit> {
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

/// The visibility-window trace of one golden run: per [`VisUnit`], the
/// ordered instants at which an asynchronous observer sampled (`Read`) or
/// fully deposited (`Write`) that unit, plus the operand-latch shift
/// instants for the planner's value-level rule.
#[derive(Debug, Clone, PartialEq)]
pub struct VisTrace {
    units: Vec<Vec<Access>>,
    shifts: Vec<u64>,
}

impl Default for VisTrace {
    fn default() -> Self {
        VisTrace::new()
    }
}

impl VisTrace {
    /// An empty trace covering every unit.
    #[must_use]
    pub fn new() -> Self {
        VisTrace {
            units: vec![Vec::new(); VisUnit::COUNT],
            shifts: Vec::new(),
        }
    }

    /// Appends an event. Entries for one unit must arrive in
    /// non-decreasing `at` order (they do, when recorded during
    /// execution); [`VisTrace::first_at_or_after`] relies on it.
    pub fn record(&mut self, unit: VisUnit, at: u64, kind: AccessKind) {
        let slot = &mut self.units[unit.index()];
        debug_assert!(slot.last().is_none_or(|a| a.at <= at), "trace not sorted");
        slot.push(Access { at, kind });
    }

    /// Appends an operand-latch shift instant (each `read_reg` shifts the
    /// latch: `a ← b`, `b ← value`).
    pub fn record_shift(&mut self, at: u64) {
        debug_assert!(self.shifts.last().is_none_or(|&s| s <= at));
        self.shifts.push(at);
    }

    /// All events of `unit`, in execution order.
    #[must_use]
    pub fn accesses(&self, unit: VisUnit) -> &[Access] {
        &self.units[unit.index()]
    }

    /// The first event of `unit` visible to a fault injected at boundary
    /// `inject_at` (first entry with `at >= inject_at`), or `None`.
    #[must_use]
    pub fn first_at_or_after(&self, unit: VisUnit, inject_at: u64) -> Option<Access> {
        let slot = &self.units[unit.index()];
        let i = slot.partition_point(|a| a.at < inject_at);
        slot.get(i).copied()
    }

    /// The instant of the `n`-th (from 0) operand-latch shift visible to
    /// a fault injected at boundary `inject_at` (shift instants
    /// `>= inject_at`), or `None` when fewer shifts follow.
    #[must_use]
    pub fn nth_shift_at_or_after(&self, inject_at: u64, n: usize) -> Option<u64> {
        let first = self.shifts.partition_point(|&s| s < inject_at);
        self.shifts.get(first + n).copied()
    }

    /// Total number of recorded events, across all units (shifts
    /// excluded).
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.units.iter().map(Vec::len).sum()
    }

    /// Mutates the trace (for adversarial tests): inserts `access` into
    /// `unit`'s slot at its sorted position — the "one extra EDM sample"
    /// of the soundness proptests.
    pub fn insert_for_test(&mut self, unit: VisUnit, access: Access) {
        let slot = &mut self.units[unit.index()];
        let i = slot.partition_point(|a| a.at <= access.at);
        slot.insert(i, access);
    }

    /// Mutates the kind of the event at position `i` of `unit`'s slot
    /// (for adversarial tests — demoting a kill shrinks the window).
    pub fn set_kind_for_test(&mut self, unit: VisUnit, i: usize, kind: AccessKind) {
        self.units[unit.index()][i].kind = kind;
    }

    /// Removes the event at position `i` of `unit`'s slot (for
    /// adversarial tests — deleting a boundary shrinks the window).
    pub fn remove_for_test(&mut self, unit: VisUnit, i: usize) {
        self.units[unit.index()].remove(i);
    }
}

/// The machine's optional visibility recorder. Behaviourally inert
/// exactly like [`crate::access::TraceSlot`]: clones of a tracing machine
/// do not trace, equality ignores it, and it serializes as `null`.
#[derive(Debug, Default)]
pub(crate) struct VisSlot(pub(crate) Option<Box<VisTrace>>);

impl Clone for VisSlot {
    fn clone(&self) -> Self {
        VisSlot(None)
    }
}

impl PartialEq for VisSlot {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl serde::Serialize for VisSlot {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for VisSlot {
    fn from_value(_v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(VisSlot::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan;

    #[test]
    fn unit_indices_are_dense_and_unique() {
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
        // The catalog partitions exactly: each bit has a trace unit, or a
        // visibility unit, or is one of the two deliberately opaque
        // elements (fetch-valid, operand latch).
        for &loc in scan::catalog() {
            let traced = loc.trace_unit().is_some();
            let vis = loc.vis_unit().is_some();
            assert!(!(traced && vis), "{loc:?} must not be doubly covered");
            if !traced && !vis {
                assert!(
                    matches!(
                        loc,
                        BitLocation::FetchValid
                            | BitLocation::OperandA { .. }
                            | BitLocation::OperandB { .. }
                    ),
                    "{loc:?} is neither traced, visible, nor known-opaque"
                );
            }
        }
    }

    #[test]
    fn first_at_or_after_and_shift_counts() {
        let mut t = VisTrace::new();
        t.record(VisUnit::Pc, 5, AccessKind::Read);
        t.record(VisUnit::Pc, 9, AccessKind::Write);
        t.record_shift(3);
        t.record_shift(7);
        t.record_shift(7);
        assert_eq!(
            t.first_at_or_after(VisUnit::Pc, 6),
            Some(Access {
                at: 9,
                kind: AccessKind::Write
            })
        );
        assert_eq!(t.first_at_or_after(VisUnit::Pc, 10), None);
        assert_eq!(t.first_at_or_after(VisUnit::Sig, 0), None);
        assert_eq!(t.nth_shift_at_or_after(0, 0), Some(3));
        assert_eq!(t.nth_shift_at_or_after(0, 2), Some(7));
        assert_eq!(t.nth_shift_at_or_after(4, 1), Some(7));
        assert_eq!(t.nth_shift_at_or_after(4, 2), None);
        assert_eq!(t.nth_shift_at_or_after(8, 0), None);
    }
}
