//! Diff replay (DESIGN.md §8l): a faulty run carried as the golden run
//! plus a sorted diff, in [`Machine::sparse_diff`]'s `(position, value)`
//! space, advanced from one golden access of a diffed unit to the next.
//!
//! The golden [`AccessTrace`] records every semantic read and write with
//! its value, so an instruction that touches no diffed unit computes
//! exactly what golden computed and leaves the diff as it was. Replay
//! therefore skips it and stops only at an *event*: an instruction during
//! which golden's trace touches a unit the diff covers (or, while the
//! operand latch is diffed, shifts the latch). At an event:
//!
//! * if the instruction only *writes* diffed units, it deposits golden's
//!   values there and those entries leave the diff;
//! * otherwise a register instruction re-executes through the machine's
//!   own `execute`, twice, on two scratch machines seeded with golden's
//!   traced operands and with the same operands patched by the diff; the
//!   written words whose results differ form the new entries;
//! * a load or store whose address, cache tag, flags and EDAC syndrome are
//!   all golden's takes golden's hit, miss and write-back decisions, so the
//!   diff's data moves with it word for word (cache ↔ memory ↔ register).
//!
//! Whatever the diff cannot follow stops replay with a [`Fallback`]: the
//! caller materializes golden-at-that-instant plus the diff and hands the
//! machine to the interpreter.

use crate::access::{
    AccessKind, AccessTrace, Recorded, Shift, TraceUnit, STEP_FILL, STEP_WRITEBACK,
};
use crate::cache::{self, WORDS_PER_LINE};
use crate::isa::{Decoded, Opcode};
use crate::machine::{word, Machine, OperandLatch, ResultLatch, StepEvent, CORE_WORDS};
use crate::mem::{self, Region};
use crate::vis::VisUnit;

/// Why diff replay handed a run to the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackReason {
    /// The diff covers the PC, the fetch latch or the signature register,
    /// which every instruction consults.
    ControlState,
    /// A load or store computes its address from a diffed base register.
    Address,
    /// A load or store consults a diffed cache tag or valid/dirty flag.
    CacheControl,
    /// A branch or return would go elsewhere than golden's.
    Branch,
    /// The faulty instruction raises an EDM that golden's does not.
    Trap,
    /// The harness samples a diffed output port: the plant input diverges.
    Output,
    /// Events came so densely that interpreting is cheaper.
    Dense,
}

impl FallbackReason {
    /// Every reason, in a fixed order.
    pub const ALL: [FallbackReason; 7] = [
        FallbackReason::ControlState,
        FallbackReason::Address,
        FallbackReason::CacheControl,
        FallbackReason::Branch,
        FallbackReason::Trap,
        FallbackReason::Output,
        FallbackReason::Dense,
    ];

    /// Stable lower-case label for telemetry and reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FallbackReason::ControlState => "control-state",
            FallbackReason::Address => "address",
            FallbackReason::CacheControl => "cache-control",
            FallbackReason::Branch => "branch",
            FallbackReason::Trap => "trap",
            FallbackReason::Output => "output",
            FallbackReason::Dense => "dense",
        }
    }
}

/// Replay stopped before instruction `at`: the diff describes the faulty
/// state at that boundary, and the instruction is the interpreter's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fallback {
    /// The instant of the instruction the diff cannot follow.
    pub at: u64,
    /// What it could not follow.
    pub reason: FallbackReason,
}

/// A worker's reusable replay state: the two scratch machines event
/// instructions execute on and one trace cursor per unit. Allocated once;
/// [`DiffReplay::new`] resets the cursors.
#[derive(Debug)]
pub struct ReplayScratch {
    golden: Machine,
    faulty: Machine,
    cursors: Vec<u32>,
}

impl Default for ReplayScratch {
    fn default() -> Self {
        ReplayScratch {
            golden: Machine::new(),
            faulty: Machine::new(),
            cursors: vec![0; TraceUnit::COUNT],
        }
    }
}

/// The trace indices of the (up to two) units whose golden accesses are
/// `pos`'s events, padded with [`NO_UNIT`]; `None` for a position replay
/// cannot carry (PC, fetch latch, signature, and the state no flip
/// reaches: input ports, the parity switch and shadow lines).
fn units_of(pos: u32) -> Option<[u32; 2]> {
    use word::*;
    let p = pos as usize;
    let two = |a: TraceUnit, b: TraceUnit| Some([a.index() as u32, b.index() as u32]);
    let unit = |u: TraceUnit| Some([u.index() as u32, NO_UNIT]);
    let vis = |v: VisUnit| unit(TraceUnit::Vis(v));
    match p {
        _ if p < PC => unit(TraceUnit::Reg(p as u8)),
        PSR => two(VisUnit::Psr(0).into(), VisUnit::Psr(1).into()),
        STACK_LO => vis(VisUnit::StackLo),
        STACK_HI => vis(VisUnit::StackHi),
        // Deposited only by a trap, which ends replay first; the two
        // pipeline latches are never read and are kept aside (see
        // `DiffReplay::latch`).
        EPC | CAUSE | IDEX_A..=EXWB_WE => Some([NO_UNIT; 2]),
        SAVE..FETCH_WORD => unit(TraceUnit::Save((p - SAVE) as u8)),
        LINES..SBUF_ADDR => {
            let (line, off) = ((p - LINES) / LINE_WORDS, (p - LINES) % LINE_WORDS);
            match off {
                0 => vis(VisUnit::CacheTag(line)),
                1 => two(
                    VisUnit::CacheValid(line).into(),
                    VisUnit::CacheDirty(line).into(),
                ),
                w => unit(TraceUnit::CacheWord { line, word: w - 2 }),
            }
        }
        SBUF_ADDR..=SBUF_VALID => vis(VisUnit::Sbuf),
        FBUF_ADDR..=FBUF_VALID => vis(VisUnit::Fbuf),
        EDAC => vis(VisUnit::EdacSyndrome),
        PORTS_OUT..PORTS_IN => unit(TraceUnit::PortOut((p - PORTS_OUT) as u8)),
        _ if p >= CORE_WORDS => unit(TraceUnit::MemWord(p - CORE_WORDS)),
        _ => None,
    }
}

/// The operand latch under replay: the differences of the slots as they
/// stood before shift `origin` (the first after injection), and the latest
/// two later shifts whose value differed, by shift index.
struct Latch {
    origin: i64,
    initial: [Option<u32>; 2],
    tainted: [(i64, u32); 2],
}

impl Latch {
    /// The difference the latch takes from shift `k`: what it shifted in,
    /// or, before `origin`, what the injection left.
    fn slot(&self, k: i64) -> Option<u32> {
        if let Some(&(_, v)) = self.tainted.iter().find(|&&(i, _)| i == k && i >= 0) {
            return Some(v);
        }
        match self.origin - k {
            1 => self.initial[1],
            2 => self.initial[0],
            _ => None,
        }
    }

    /// Shift `k` shifted in the faulty `value`, which differs from golden's.
    fn taint(&mut self, k: usize, value: u32) {
        self.tainted = [self.tainted[1], (k as i64, value)];
    }
}

/// No unit, in [`units_of`].
const NO_UNIT: u32 = u32::MAX;

/// The next-event placeholder of a diff entry not yet looked up.
const STALE: u64 = u64::MAX - 1;

/// `true` when replay can carry a state differing from golden's by
/// `diff` (see [`DiffReplay::new`]).
#[must_use]
pub fn carries(diff: &[(u32, u32)]) -> bool {
    diff.iter().all(|&(pos, _)| units_of(pos).is_some())
}

/// Diff position of general-purpose register `r`.
fn reg(r: u8) -> u32 {
    u32::from(r & 0xF)
}

/// Diff position of data word `w` of cache line `line`.
fn line_word(line: usize, w: usize) -> u32 {
    (word::LINES + line * word::LINE_WORDS + 2 + w) as u32
}

/// Diff position of the data word at dense key `key`.
fn mem_word(key: usize) -> u32 {
    (CORE_WORDS + key) as u32
}

/// The first index at or after `from` of `list` whose instant is at least
/// `t`, given that every entry before `from` is earlier: a galloping search
/// forward from the cursor, so short hops cost a probe or two.
fn seek<T>(list: &[T], from: usize, t: u64, at: impl Fn(&T) -> u64) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= list.len() && at(&list[lo + step - 1]) < t {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(list.len());
    lo + list[lo..hi].partition_point(|x| at(x) < t)
}

/// One faulty run under diff replay. See the module documentation.
pub struct DiffReplay<'a> {
    trace: &'a AccessTrace,
    golden: &'a Machine,
    scratch: &'a mut ReplayScratch,
    diff: Vec<(u32, u32)>,
    /// Parallel to `diff`: each entry's next event instant, [`STALE`]
    /// until computed (see [`DiffReplay::refresh`]), and the trace indices
    /// of the units it watches ([`NO_UNIT`] for none).
    next: Vec<u64>,
    units: Vec<[u32; 2]>,
    /// The operand and result latches are written by most instructions
    /// and read by none, so they stay out of `diff` and its events: the
    /// operand latch holds the last two register reads, and `latch` the
    /// reads whose value differed; the result latch holds the last write.
    latch: Latch,
    /// The result latch's faulty words (value, rd, we), valid until golden
    /// next writes the latch at or after the instant kept with them.
    exwb: Option<(u64, [Option<u32>; 3])>,
    /// The diff with both latches merged in (see [`DiffReplay::diff`]).
    merged: Vec<(u32, u32)>,
    /// Every instruction before this instant is accounted for.
    now: u64,
    events: u64,
    /// Set when the diff holds a position replay cannot carry.
    blocked: Option<Fallback>,
}

impl<'a> DiffReplay<'a> {
    /// Starts replaying a run whose state at boundary `at` is golden's
    /// plus `diff` (sorted by position, as [`Machine::flip_diff`] returns
    /// it). `trace` is the golden run's access trace and `golden` any
    /// machine of that run (it supplies the decoded ROM and the stack
    /// bounds, which golden never changes). A diff covering a position
    /// replay cannot carry makes the first [`DiffReplay::advance`] fall
    /// back at `at`.
    pub fn new(
        trace: &'a AccessTrace,
        golden: &'a Machine,
        scratch: &'a mut ReplayScratch,
        at: u64,
        diff: Vec<(u32, u32)>,
    ) -> Self {
        debug_assert!(diff.windows(2).all(|p| p[0].0 < p[1].0), "diff not sorted");
        let blocked = !carries(&diff);
        let latch_word = |w: usize| {
            diff.iter()
                .find(|&&(p, _)| p as usize == w)
                .map(|&(_, v)| v)
        };
        let latch = Latch {
            origin: trace.first_shift(at) as i64,
            initial: [latch_word(word::IDEX_A), latch_word(word::IDEX_B)],
            tainted: [(-1, 0); 2],
        };
        let exwb = [word::EXWB_VALUE, word::EXWB_RD, word::EXWB_WE].map(latch_word);
        let diff: Vec<(u32, u32)> = diff
            .into_iter()
            .filter(|&(p, _)| !(word::IDEX_A..=word::EXWB_WE).contains(&(p as usize)))
            .collect();
        scratch.cursors.fill(0);
        DiffReplay {
            trace,
            golden,
            scratch,
            next: vec![STALE; diff.len()],
            units: diff
                .iter()
                .map(|&(p, _)| units_of(p).unwrap_or([NO_UNIT; 2]))
                .collect(),
            diff,
            latch,
            exwb: exwb.iter().any(Option::is_some).then_some((at, exwb)),
            merged: Vec::new(),
            now: at,
            events: 0,
            blocked: blocked.then_some(Fallback {
                at,
                reason: FallbackReason::ControlState,
            }),
        }
    }

    /// The faulty state's difference from golden's at the current instant,
    /// in [`Machine::sparse_diff`]'s form.
    pub fn diff(&mut self) -> &[(u32, u32)] {
        let now = self.now;
        let latch = self.latch_at(now);
        let exwb = match self.exwb {
            Some((from, words)) => {
                let exwb = TraceUnit::Vis(VisUnit::Exwb).index();
                let (c, list) = self.cursor(exwb, from);
                let overwritten = list.get(c).is_some_and(|a| a.at() < now);
                if overwritten {
                    [None; 3]
                } else {
                    words
                }
            }
            None => [None; 3],
        };
        let latches = latch.into_iter().chain(exwb).zip(word::IDEX_A as u32..);
        let split = self
            .diff
            .partition_point(|&(p, _)| (p as usize) < word::IDEX_A);
        self.merged.clear();
        self.merged.extend_from_slice(&self.diff[..split]);
        self.merged
            .extend(latches.filter_map(|(v, p)| v.map(|v| (p, v))));
        self.merged.extend_from_slice(&self.diff[split..]);
        &self.merged
    }

    /// Events processed so far. An event is one instruction re-examined,
    /// not one executed: most events deposit or move a word.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Processes every event before instant `until`, leaving the diff as
    /// the faulty state at boundary `until`.
    ///
    /// # Errors
    ///
    /// The first event the diff cannot follow; the diff then describes the
    /// boundary before it.
    pub fn advance(&mut self, until: u64) -> Result<(), Fallback> {
        while self.step(until)?.is_some() {}
        Ok(())
    }

    /// Processes the next event if it comes before instant `until` and
    /// returns its instant; otherwise advances to boundary `until` and
    /// returns `None`.
    ///
    /// # Errors
    ///
    /// As [`DiffReplay::advance`].
    pub fn step(&mut self, until: u64) -> Result<Option<u64>, Fallback> {
        if let Some(fallback) = self.blocked {
            return Err(fallback);
        }
        self.refresh();
        let t = self.next.iter().copied().min().unwrap_or(u64::MAX);
        if t >= until {
            self.now = self.now.max(until);
            return Ok(None);
        }
        self.events += 1;
        // On a fallback the diff describes boundary `t`, latches included.
        self.now = t;
        self.event(t)?;
        self.now = t + 1;
        Ok(Some(t))
    }

    fn get(&self, pos: u32) -> Option<u32> {
        self.diff
            .binary_search_by_key(&pos, |&(p, _)| p)
            .ok()
            .map(|i| self.diff[i].1)
    }

    fn has(&self, pos: u32) -> bool {
        self.get(pos).is_some()
    }

    /// Records that the faulty value at `pos` is `faulty` where golden's
    /// is `golden`. Every position an event changes is one golden touches
    /// during it, so its next event is recomputed afterwards.
    fn set(&mut self, pos: u32, faulty: u32, golden: u32) {
        if faulty == golden {
            self.remove(pos);
        } else {
            self.put(pos, faulty);
        }
    }

    fn put(&mut self, pos: u32, v: u32) {
        match self.diff.binary_search_by_key(&pos, |&(p, _)| p) {
            Ok(i) => self.diff[i].1 = v,
            Err(i) => {
                self.diff.insert(i, (pos, v));
                self.next.insert(i, STALE);
                self.units.insert(
                    i,
                    units_of(pos).expect("replay creates only carried positions"),
                );
            }
        }
    }

    fn remove(&mut self, pos: u32) {
        if let Ok(i) = self.diff.binary_search_by_key(&pos, |&(p, _)| p) {
            self.diff.remove(i);
            self.next.remove(i);
            self.units.remove(i);
        }
    }

    /// Golden copied the word at `from` into `to`: the faulty copy carries
    /// `from`'s faulty value, or golden's when `from` is clean.
    fn copy(&mut self, from: u32, to: u32) {
        match self.get(from) {
            Some(v) => self.put(to, v),
            None => self.remove(to),
        }
    }

    /// The cursor of the unit of index `unit`, moved to its first access
    /// at or after `t` (`t >= now`, so the cursor stays a lower bound for
    /// later instants).
    #[inline]
    fn cursor(&mut self, unit: usize, t: u64) -> (usize, &'a [Recorded]) {
        let list = self.trace.recorded_at(unit);
        let slot = &mut self.scratch.cursors[unit];
        let c = *slot as usize;
        if list.get(c).is_none_or(|a| a.at() >= t) {
            return (c, list);
        }
        let i = seek(list, c, t, Recorded::at);
        *slot = i as u32;
        (i, list)
    }

    /// The faulty operand latch's differences from golden's at boundary
    /// `t`: slots `a` and `b` hold the last two shifts before it.
    fn latch_at(&self, t: u64) -> [Option<u32>; 2] {
        let j = self.trace.first_shift(t) as i64;
        [self.latch.slot(j - 2), self.latch.slot(j - 1)]
    }

    /// The operand-latch shifts of instant `t`, as a range of
    /// [`AccessTrace::shifts`].
    fn shifts_at(&self, t: u64) -> std::ops::Range<usize> {
        self.trace.first_shift(t)..self.trace.first_shift(t + 1)
    }

    /// Recomputes the next event of every entry whose event is past (or
    /// never computed): the first golden access at or after `now` of its
    /// units.
    fn refresh(&mut self) {
        let now = self.now;
        for i in 0..self.diff.len() {
            if self.next[i] != STALE && self.next[i] >= now {
                continue;
            }
            let mut next = u64::MAX;
            for u in self.units[i] {
                if u != NO_UNIT {
                    let (c, list) = self.cursor(u as usize, now);
                    next = next.min(list.get(c).map_or(u64::MAX, Recorded::at));
                }
            }
            self.next[i] = next;
        }
    }

    /// Golden's accesses to the unit of index `unit` during instruction `t`.
    #[inline]
    fn accesses(&mut self, unit: usize, t: u64) -> &'a [Recorded] {
        let (c, list) = self.cursor(unit, t);
        let n = list[c..].iter().take_while(|a| a.at() == t).count();
        &list[c..c + n]
    }

    fn event(&mut self, t: u64) -> Result<(), Fallback> {
        // Which diffed positions golden touches now, and whether only by
        // full writes (a flag is consulted by every access to its line, so
        // it always counts as read).
        let mut written: [(u32, u32); 8] = [(0, 0); 8];
        let mut n = 0;
        let mut reads = false;
        for i in 0..self.diff.len() {
            if self.next[i] != t {
                continue;
            }
            let pos = self.diff[i].0;
            let flags = (word::LINES..word::SBUF_ADDR).contains(&(pos as usize))
                && (pos as usize - word::LINES) % word::LINE_WORDS == 1;
            for u in self.units[i] {
                if u == NO_UNIT {
                    continue;
                }
                let acc = self.accesses(u as usize, t);
                if flags || acc.iter().any(|a| a.kind() != AccessKind::Write) {
                    reads |= !acc.is_empty();
                } else if let Some(last) = acc.last() {
                    if n < written.len() {
                        written[n] = (pos, last.value());
                        n += 1;
                    } else {
                        reads = true;
                    }
                }
            }
        }
        if !reads {
            for &(pos, value) in &written[..n] {
                if pos as usize == word::PSR {
                    // The compare deposits the two flag bits; the others
                    // keep their (golden: zero) contents.
                    let v = self.get(pos).unwrap_or(value);
                    self.set(pos, v & !3 | value & 3, value);
                } else {
                    self.remove(pos);
                }
            }
            return Ok(());
        }
        let step = self.trace.step(t);
        let slot = (step & 0xFFFF) as usize;
        let d = self
            .golden
            .predecoded(slot)
            .expect("golden executed a decodable word here");
        match d.op {
            Opcode::Ld | Opcode::St => self.memory_event(t, &d, step),
            // The only read at a `yield` is the harness sampling the
            // actuator port.
            Opcode::Yield => Err(Fallback {
                at: t,
                reason: FallbackReason::Output,
            }),
            _ => self.register_event(t, &d, mem::ROM_BASE + 4 * slot as u32),
        }
    }

    /// Re-executes register instruction `d` at `t` on golden's operands and
    /// on the diff-patched ones, and diffs the words it writes.
    fn register_event(&mut self, t: u64, d: &Decoded, ipc: u32) -> Result<(), Fallback> {
        let range = self.shifts_at(t);
        let shifts = &self.trace.shifts()[range.clone()];
        let before = &self.trace.shifts()[..range.start];
        let latch = OperandLatch {
            a: before.len().checked_sub(2).map_or(0, |i| before[i].value()),
            b: before.last().map_or(0, Shift::value),
        };
        let j = range.start as i64;
        // A branch samples golden's flags from the trace; a compare keeps
        // the upper PSR bits, which golden never sets.
        let psr = if d.op.is_branch() {
            let [eq, lt] = [0, 1].map(|b| TraceUnit::Vis(VisUnit::Psr(b)).index());
            let acc = self.accesses(eq, t);
            let acc = if acc.is_empty() {
                self.accesses(lt, t)
            } else {
                acc
            };
            acc.first().map_or(0, |a| a.value() as u8)
        } else {
            0
        };
        let out = usize::from(d.uimm16 as u16) % crate::machine::NUM_OUT_PORTS;
        let faulty_latch = OperandLatch {
            a: self.latch.slot(j - 2).unwrap_or(latch.a),
            b: self.latch.slot(j - 1).unwrap_or(latch.b),
        };
        let faulty_psr = self.get(word::PSR as u32).map_or(psr, |v| v as u8);
        let faulty_out = self.get((word::PORTS_OUT + out) as u32);
        // An instruction reads at most three registers (`chk`).
        let mut regs = [(0u8, 0u32, 0u32); 3];
        for (slot, s) in regs.iter_mut().zip(shifts) {
            *slot = (
                s.reg(),
                s.value(),
                self.get(reg(s.reg())).unwrap_or(s.value()),
            );
        }
        let regs = &regs[..shifts.len()];
        let seed = |m: &mut Machine, faulty: bool| {
            for &(r, g, f) in regs {
                m.core.regs[r as usize] = if faulty { f } else { g };
            }
            m.core.idex = if faulty { faulty_latch } else { latch };
            m.core.psr = if faulty { faulty_psr } else { psr };
            m.core.exwb = ResultLatch::default();
            m.core.pc = ipc.wrapping_add(4);
            m.core.sig = 0;
            m.core.ports_out[out] = if faulty { faulty_out.unwrap_or(0) } else { 0 };
        };
        let ReplayScratch { golden, faulty, .. } = &mut *self.scratch;
        seed(golden, false);
        seed(faulty, true);
        let (mut ge, mut gt, mut fe, mut ft) = (StepEvent::Normal, false, StepEvent::Normal, false);
        let g = golden.execute::<false>(d, ipc, &mut ge, &mut gt);
        debug_assert!(g.is_ok(), "golden's instruction at {t} cannot trap");
        if faulty.execute::<false>(d, ipc, &mut fe, &mut ft).is_err() {
            return Err(Fallback {
                at: t,
                reason: FallbackReason::Trap,
            });
        }
        if gt != ft || golden.core.pc != faulty.core.pc {
            return Err(Fallback {
                at: t,
                reason: FallbackReason::Branch,
            });
        }
        let (g, f) = (&golden.core, &faulty.core);
        let mut update: [(u32, u32, u32); 10] = [(0, 0, 0); 10];
        let mut n = 0;
        let mut push = |pos: usize, fv: u32, gv: u32| {
            update[n] = (pos as u32, fv, gv);
            n += 1;
        };
        let mut exwb = None;
        if g.exwb.we {
            let rd = usize::from(g.exwb.rd);
            push(rd, f.regs[rd], g.regs[rd]);
            let differ = |f: u32, g: u32| (f != g).then_some(f);
            exwb = Some([
                differ(f.exwb.value, g.exwb.value),
                differ(u32::from(f.exwb.rd), u32::from(g.exwb.rd)),
                differ(u32::from(f.exwb.we), u32::from(g.exwb.we)),
            ]);
        }
        match d.op {
            Opcode::Cmp | Opcode::Fcmp => push(word::PSR, u32::from(f.psr), u32::from(g.psr)),
            Opcode::Out => push(word::PORTS_OUT + out, f.ports_out[out], g.ports_out[out]),
            _ => {}
        }
        for &(pos, fv, gv) in &update[..n] {
            self.set(pos, fv, gv);
        }
        for (k, &(_, g, f)) in range.zip(regs) {
            if f != g {
                self.latch.taint(k, f);
            }
        }
        if let Some(words) = exwb {
            self.write_exwb(t, words);
        }
        Ok(())
    }

    /// Instruction `t` wrote the result latch with faulty `words`.
    fn write_exwb(&mut self, t: u64, words: [Option<u32>; 3]) {
        self.exwb = words.iter().any(Option::is_some).then_some((t + 1, words));
    }

    /// A load or store at `t` whose control inputs are golden's: golden's
    /// cache decisions stand, and the diff's words move with the data.
    fn memory_event(&mut self, t: u64, d: &Decoded, step: u32) -> Result<(), Fallback> {
        let fallback = |reason| Err(Fallback { at: t, reason });
        let range = self.shifts_at(t);
        let base = self.trace.shifts()[range.start];
        debug_assert_eq!(
            base.reg(),
            d.ra & 0xF,
            "a memory access first reads its base"
        );
        if self.has(reg(d.ra)) {
            return fallback(FallbackReason::Address);
        }
        let addr = base.value().wrapping_add(d.imm16 as u32);
        let line = cache::index_of(addr);
        if mem::region(addr) == Region::Stack
            && (self.has(word::STACK_LO as u32) || self.has(word::STACK_HI as u32))
        {
            let lo = self
                .get(word::STACK_LO as u32)
                .unwrap_or(self.golden.core.stack_lo);
            let hi = self
                .get(word::STACK_HI as u32)
                .unwrap_or(self.golden.core.stack_hi);
            if addr < lo || addr >= hi {
                return fallback(FallbackReason::Trap);
            }
        }
        let control = word::LINES + line * word::LINE_WORDS;
        if self.has(control as u32) || self.has(control as u32 + 1) {
            return fallback(FallbackReason::CacheControl);
        }
        if step & STEP_FILL != 0 && self.has(word::EDAC as u32) {
            return fallback(FallbackReason::Trap);
        }
        // The latch shifts the (clean) base in; a store then shifts its
        // data register in behind it.
        if d.op == Opcode::St {
            if let Some(v) = self.get(reg(d.rd)) {
                self.latch.taint(range.start + 1, v);
            }
        }
        if step & STEP_WRITEBACK != 0 {
            let tag = TraceUnit::Vis(VisUnit::CacheTag(line)).index();
            let tag = self.accesses(tag, t).first();
            let tag = tag.expect("a write-back reads its victim's tag").value();
            let victim = mem::word_key(cache::line_base(tag, line))
                .expect("golden writes back to data memory");
            for w in 0..WORDS_PER_LINE {
                self.copy(line_word(line, w), mem_word(victim + w));
            }
        }
        if step & STEP_FILL != 0 {
            let fill = mem::word_key(addr & !0xF).expect("golden fills from data memory");
            let last = mem_word(fill + WORDS_PER_LINE - 1);
            match self.get(last) {
                Some(v) => {
                    let word3 = TraceUnit::MemWord(fill + WORDS_PER_LINE - 1).index();
                    let g = self.accesses(word3, t);
                    let g = g.first().expect("a fill reads its last word").value();
                    self.set(
                        word::FBUF_PARITY as u32,
                        u32::from(mem::parity(v)),
                        u32::from(mem::parity(g)),
                    );
                }
                None => self.remove(word::FBUF_PARITY as u32),
            }
            self.copy(last, word::FBUF_DATA as u32);
            self.remove(word::FBUF_ADDR as u32);
            self.remove(word::FBUF_VALID as u32);
            for w in 0..WORDS_PER_LINE {
                self.copy(mem_word(fill + w), line_word(line, w));
            }
        }
        let data = line_word(line, cache::word_of(addr));
        match d.op {
            Opcode::Ld => {
                self.copy(data, reg(d.rd));
                self.write_exwb(t, [self.get(data), None, None]);
            }
            _ => {
                self.copy(reg(d.rd), data);
                self.copy(reg(d.rd), word::SBUF_DATA as u32);
                self.remove(word::SBUF_ADDR as u32);
                self.remove(word::SBUF_VALID as u32);
            }
        }
        Ok(())
    }
}
