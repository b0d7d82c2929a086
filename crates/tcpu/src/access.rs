//! Golden-run access tracing — the substrate of the campaign planner's
//! fate resolver.
//!
//! While the golden reference run executes, the machine records one
//! [`AccessTrace`]: for every *traceable unit* of architectural state, the
//! ordered dynamic-instruction indices at which that unit is read or fully
//! written. Two kinds of unit share its one dense index space:
//!
//! * **def/use units** — a general-purpose register, a cache data word, an
//!   output port, a save register, a memory word — whose every semantic
//!   access flows through an explicit hook (`read_reg`/`write_reg`, cached
//!   accesses, line fills, write-backs, `out`, the harness port sample);
//! * **visibility units** ([`TraceUnit::Vis`]) — the state the pipeline
//!   and the error detection mechanisms consult *asynchronously* (PC, PSR
//!   flags, signature, latches, cache tags/flags, buffers, stack bounds,
//!   EDAC syndrome), recorded at the few enumerable consult sites listed
//!   in [`crate::vis`].
//!
//! The trace also holds the operand latch's shift instants (one per
//! register read), for the planner's value-level rule on that shift
//! register.
//!
//! A campaign planner can then classify most transient faults without
//! simulating them:
//!
//! * first post-injection access is a **full-width write** → the flip is
//!   deposited over with the fault-free value before anything observed it:
//!   the outcome is *overwritten*;
//! * the unit is **never accessed** again → the flip sits untouched until
//!   the end-of-run state diff: the outcome is *latent*;
//! * first post-injection access is a **read** at boundary `b` → every
//!   fault in the same unit whose first post-injection access is that same
//!   read produces the identical faulty trajectory, so one simulated
//!   representative stands for the whole equivalence class.
//!
//! Only the fetch-latch valid bit and the operand latch have no unit
//! ([`crate::scan::BitLocation::trace_unit`] returns `None`): the first is
//! consulted by every instruction, the second shifts its contents.

use crate::cache;
use crate::mem;
use crate::vis::VisUnit;
use serde::{Deserialize, Serialize};

/// How a traceable unit was touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// The unit's value was observed (any width): a flip in it is live.
    Read,
    /// The whole unit was overwritten without being observed first.
    Write,
    /// Part of the unit was overwritten. The real machine only performs
    /// unit-width writes, so it never records this kind; it exists so the
    /// planner (and its adversarial tests) must treat anything narrower
    /// than a full write conservatively — as neither a kill nor a use.
    PartialWrite,
}

impl AccessKind {
    /// `true` only for a full-width write (the only kind that analytically
    /// overwrites a pending flip).
    #[must_use]
    pub fn is_full_write(&self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One recorded access: the dynamic instruction during which it happened.
///
/// A fault injected at instruction boundary `t` (i.e. after `t`
/// instructions have retired, before instruction `t` executes) is visible
/// to exactly the accesses with `at >= t`. This is the unpacked view of a
/// [`Recorded`] entry, for the planner's queries and for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// Dynamic instruction index during which the access occurred.
    pub at: u64,
    /// Read, full write, or partial write.
    pub kind: AccessKind,
}

/// Largest instant a [`Recorded`] entry can hold: the instant shares a
/// `u32` with the two kind bits.
pub const MAX_INSTANT: u64 = (1 << 30) - 1;

/// One recorded access as the trace stores it, 8 bytes: the instant with
/// the kind in its two low bits, plus the value the access read or
/// deposited (see [`AccessTrace::record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Recorded {
    key: u32,
    value: u32,
}

impl Recorded {
    fn new(at: u64, kind: AccessKind, value: u32) -> Self {
        assert!(
            at <= MAX_INSTANT,
            "instant {at} does not fit the packed access trace (max {MAX_INSTANT})"
        );
        let bits = match kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::PartialWrite => 2,
        };
        Recorded {
            key: (at as u32) << 2 | bits,
            value,
        }
    }

    /// Dynamic instruction index during which the access occurred.
    #[must_use]
    #[inline]
    pub fn at(&self) -> u64 {
        u64::from(self.key >> 2)
    }

    /// Read, full write, or partial write.
    #[must_use]
    #[inline]
    pub fn kind(&self) -> AccessKind {
        match self.key & 3 {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            _ => AccessKind::PartialWrite,
        }
    }

    /// The value read or deposited.
    #[must_use]
    #[inline]
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The unpacked view.
    #[must_use]
    pub fn access(&self) -> Access {
        Access {
            at: self.at(),
            kind: self.kind(),
        }
    }
}

/// One operand-latch shift: a register read, with the register and the
/// value read (the value the latch's `b` slot takes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shift {
    key: u32,
    value: u32,
}

impl Shift {
    /// Dynamic instruction index of the read.
    #[must_use]
    #[inline]
    pub fn at(&self) -> u64 {
        u64::from(self.key >> 4)
    }

    /// The register read.
    #[must_use]
    #[inline]
    pub fn reg(&self) -> u8 {
        (self.key & 0xF) as u8
    }

    /// The value read.
    #[must_use]
    #[inline]
    pub fn value(&self) -> u32 {
        self.value
    }
}

/// Flag bits of [`AccessTrace::step`] above the ROM slot: the
/// instruction's data access missed and filled its cache line.
pub const STEP_FILL: u32 = 1 << 16;
/// The instruction's line fill first wrote a dirty victim back.
pub const STEP_WRITEBACK: u32 = 1 << 17;

/// A unit of architectural state with a dense trace index. Each scan-chain
/// bit that is traceable maps to exactly one unit (the register, cache
/// word, port, save slot, or asynchronously consulted element containing
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceUnit {
    /// General-purpose register `r0..r15`.
    Reg(u8),
    /// One 32-bit word of a data-cache line (`word` in `0..4`).
    CacheWord {
        /// Cache line index.
        line: usize,
        /// Word within the line.
        word: usize,
    },
    /// One 32-bit output port.
    PortOut(u8),
    /// One of the two save registers.
    Save(u8),
    /// One word of data RAM or stack, by [`mem::word_key`] index.
    MemWord(usize),
    /// State consulted asynchronously by the pipeline or an EDM, traced
    /// at its consult sites (see [`crate::vis`]).
    Vis(VisUnit),
}

impl From<VisUnit> for TraceUnit {
    fn from(v: VisUnit) -> Self {
        TraceUnit::Vis(v)
    }
}

/// Number of non-memory units: 16 registers + 8×4 cache words + 4 output
/// ports + 2 save registers.
const CPU_UNITS: usize = 16 + cache::NUM_LINES * cache::WORDS_PER_LINE + 4 + 2;

/// Number of def/use units: the CPU units plus every RAM and stack word.
const DEFUSE_UNITS: usize = CPU_UNITS + mem::NUM_DATA_WORDS;

impl TraceUnit {
    /// Total number of traceable units (def/use units, then the
    /// visibility units).
    pub const COUNT: usize = DEFUSE_UNITS + VisUnit::COUNT;

    /// Dense index of this unit in `0..TraceUnit::COUNT`.
    #[must_use]
    #[inline]
    pub fn index(&self) -> usize {
        match *self {
            TraceUnit::Reg(r) => r as usize,
            TraceUnit::CacheWord { line, word } => 16 + line * cache::WORDS_PER_LINE + word,
            TraceUnit::PortOut(p) => 16 + cache::NUM_LINES * cache::WORDS_PER_LINE + p as usize,
            TraceUnit::Save(s) => 16 + cache::NUM_LINES * cache::WORDS_PER_LINE + 4 + s as usize,
            TraceUnit::MemWord(w) => CPU_UNITS + w,
            TraceUnit::Vis(v) => DEFUSE_UNITS + v.index(),
        }
    }
}

/// The full per-unit access trace of one golden run, plus the operand-latch
/// shifts and one step word per executed instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessTrace {
    units: Vec<Vec<Recorded>>,
    shifts: Vec<Shift>,
    /// Per instruction: the step word (see [`AccessTrace::step`]) and the
    /// index of its first operand-latch shift.
    steps: Vec<[u32; 2]>,
}

impl Default for AccessTrace {
    fn default() -> Self {
        AccessTrace::new()
    }
}

impl AccessTrace {
    /// An empty trace covering every unit.
    #[must_use]
    pub fn new() -> Self {
        AccessTrace {
            units: vec![Vec::new(); TraceUnit::COUNT],
            shifts: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Appends an access with the value it read or deposited: the word
    /// for registers, cache and memory words and ports; the register's
    /// contents for the PSR flags, tags, flags, syndrome and latches; and,
    /// for the two stack-bound units, the address the bound was checked
    /// against. Entries for one unit must arrive in non-decreasing `at`
    /// order (they do, when recorded during execution);
    /// [`AccessTrace::first_at_or_after`] relies on it.
    ///
    /// # Panics
    ///
    /// Panics if `at` exceeds [`MAX_INSTANT`].
    #[inline]
    pub fn record(&mut self, unit: TraceUnit, at: u64, kind: AccessKind, value: u32) {
        let slot = &mut self.units[unit.index()];
        debug_assert!(slot.last().is_none_or(|a| a.at() <= at), "trace not sorted");
        slot.push(Recorded::new(at, kind, value));
    }

    /// Appends an operand-latch shift (each register read shifts the
    /// latch: `a ← b`, `b ← value`).
    ///
    /// # Panics
    ///
    /// Panics if `at` does not fit the 28 bits a shift keeps for it.
    pub fn record_shift(&mut self, at: u64, reg: u8, value: u32) {
        assert!(
            at < 1 << 28,
            "shift instant {at} does not fit the packed trace"
        );
        debug_assert!(self.shifts.last().is_none_or(|s| s.at() <= at));
        self.shifts.push(Shift {
            key: (at as u32) << 4 | u32::from(reg & 0xF),
            value,
        });
    }

    /// Opens instruction `at`'s step word with its ROM slot. Steps arrive
    /// one per instruction, in order, before the instruction's shifts.
    pub fn record_step(&mut self, at: u64, slot: u32) {
        debug_assert_eq!(self.steps.len() as u64, at, "one step per instruction");
        self.steps.push([slot, self.shifts.len() as u32]);
    }

    /// Sets `flag` ([`STEP_FILL`], [`STEP_WRITEBACK`]) on the step word of
    /// the instruction executing now.
    pub fn mark_step(&mut self, flag: u32) {
        if let Some(s) = self.steps.last_mut() {
            s[0] |= flag;
        }
    }

    /// The step word of instruction `at`: the ROM slot it executed from in
    /// the low 16 bits, plus the `STEP_*` flags.
    #[must_use]
    #[inline]
    pub fn step(&self, at: u64) -> u32 {
        self.steps[at as usize][0]
    }

    /// The index in [`AccessTrace::shifts`] of the first shift at or after
    /// boundary `at`: instruction `at`'s first shift, or the end past the
    /// last instruction.
    #[must_use]
    #[inline]
    pub fn first_shift(&self, at: u64) -> usize {
        self.steps
            .get(at as usize)
            .map_or(self.shifts.len(), |s| s[1] as usize)
    }

    /// All accesses to `unit`, in execution order, unpacked.
    #[must_use]
    pub fn accesses(&self, unit: TraceUnit) -> Vec<Access> {
        self.recorded(unit).iter().map(Recorded::access).collect()
    }

    /// All accesses to `unit` as stored, with their values.
    #[must_use]
    #[inline]
    pub fn recorded(&self, unit: TraceUnit) -> &[Recorded] {
        &self.units[unit.index()]
    }

    /// All accesses to the unit of index `index` (see
    /// [`TraceUnit::index`]), as stored.
    #[must_use]
    #[inline]
    pub fn recorded_at(&self, index: usize) -> &[Recorded] {
        &self.units[index]
    }

    /// Every operand-latch shift, in execution order.
    #[must_use]
    pub fn shifts(&self) -> &[Shift] {
        &self.shifts
    }

    /// The first access to `unit` visible to a fault injected at
    /// instruction boundary `inject_at`, i.e. the first entry with
    /// `at >= inject_at`; `None` when the unit is never touched again.
    #[must_use]
    pub fn first_at_or_after(&self, unit: TraceUnit, inject_at: u64) -> Option<Access> {
        let slot = self.recorded(unit);
        let i = slot.partition_point(|a| a.at() < inject_at);
        slot.get(i).map(Recorded::access)
    }

    /// The instant of the `n`-th (from 0) operand-latch shift visible to
    /// a fault injected at boundary `inject_at` (shift instants
    /// `>= inject_at`), or `None` when fewer shifts follow.
    #[must_use]
    pub fn nth_shift_at_or_after(&self, inject_at: u64, n: usize) -> Option<u64> {
        let first = self.shifts.partition_point(|s| s.at() < inject_at);
        self.shifts.get(first + n).map(Shift::at)
    }

    /// Mutates the trace (for adversarial tests): inserts `access`, with
    /// value 0, into `unit`'s slot at its sorted position.
    pub fn insert_for_test(&mut self, unit: TraceUnit, access: Access) {
        let slot = &mut self.units[unit.index()];
        let i = slot.partition_point(|a| a.at() <= access.at);
        slot.insert(i, Recorded::new(access.at, access.kind, 0));
    }

    /// Mutates the kind of the access at position `i` of `unit`'s slot
    /// (for adversarial tests).
    pub fn set_kind_for_test(&mut self, unit: TraceUnit, i: usize, kind: AccessKind) {
        let a = &mut self.units[unit.index()][i];
        *a = Recorded::new(a.at(), kind, a.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_indices_are_dense_and_unique() {
        let mut seen = vec![false; TraceUnit::COUNT];
        let mut units: Vec<TraceUnit> = Vec::new();
        for r in 0..16 {
            units.push(TraceUnit::Reg(r));
        }
        for line in 0..cache::NUM_LINES {
            for word in 0..cache::WORDS_PER_LINE {
                units.push(TraceUnit::CacheWord { line, word });
            }
        }
        for p in 0..4 {
            units.push(TraceUnit::PortOut(p));
        }
        for s in 0..2 {
            units.push(TraceUnit::Save(s));
        }
        for w in 0..mem::NUM_DATA_WORDS {
            units.push(TraceUnit::MemWord(w));
        }
        units.extend(
            crate::vis::tests::all_units()
                .into_iter()
                .map(TraceUnit::Vis),
        );
        assert_eq!(units.len(), TraceUnit::COUNT);
        for u in units {
            let i = u.index();
            assert!(!seen[i], "duplicate index {i} for {u:?}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn first_at_or_after_is_a_lower_bound() {
        let mut t = AccessTrace::new();
        let u = TraceUnit::Reg(3);
        t.record(u, 10, AccessKind::Read, 0);
        t.record(u, 10, AccessKind::Write, 0);
        t.record(u, 25, AccessKind::Read, 0);
        assert_eq!(
            t.first_at_or_after(u, 0),
            Some(Access {
                at: 10,
                kind: AccessKind::Read
            })
        );
        assert_eq!(
            t.first_at_or_after(u, 10),
            Some(Access {
                at: 10,
                kind: AccessKind::Read
            })
        );
        assert_eq!(
            t.first_at_or_after(u, 11),
            Some(Access {
                at: 25,
                kind: AccessKind::Read
            })
        );
        assert_eq!(t.first_at_or_after(u, 26), None);
        assert_eq!(t.first_at_or_after(TraceUnit::Reg(4), 0), None);
    }

    #[test]
    fn intra_instruction_order_is_preserved() {
        // read-then-write of the same unit during one instruction must
        // stay read-first: the read makes the flip live.
        let mut t = AccessTrace::new();
        let u = TraceUnit::CacheWord { line: 2, word: 1 };
        t.record(u, 7, AccessKind::Read, 0);
        t.record(u, 7, AccessKind::Write, 0);
        let first = t.first_at_or_after(u, 7).unwrap();
        assert_eq!(first.kind, AccessKind::Read);
    }

    #[test]
    fn only_full_writes_kill() {
        assert!(AccessKind::Write.is_full_write());
        assert!(!AccessKind::Read.is_full_write());
        assert!(!AccessKind::PartialWrite.is_full_write());
    }
}
