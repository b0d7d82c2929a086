//! Diff replay (DESIGN.md §8l): a faulty run carried as the golden run
//! plus a diff, in [`Machine::sparse_diff`]'s `(position, value)` space,
//! advanced from one golden access of a diffed unit to the next.
//!
//! The golden [`AccessTrace`] records every semantic read and write with
//! its value, so an instruction that touches no diffed unit computes
//! exactly what golden computed and leaves the diff as it was. Each diff
//! entry caches the instant of golden's next access to its units, looked
//! up again only when an event touched the entry. Where that access
//! overwrites the entry whole without reading it, the entry *dies* there:
//! it leaves the diff once replay passes that instant, at no cost. Every
//! other such access is an *event*, and replay stops at it:
//!
//! * a register instruction re-executes through the machine's own
//!   `execute`, twice, on two scratch machines seeded with golden's traced
//!   operands and with the same operands patched by the diff; the written
//!   words whose results differ form the new entries (a compare into a PSR
//!   whose upper bits differ is one: it keeps them);
//! * a load or store whose address, cache tag, flags and EDAC syndrome are
//!   all golden's takes golden's hit, miss and write-back decisions, so the
//!   diff's data moves with it, a line at a time (cache ↔ memory ↔
//!   register).
//!
//! One register instruction is no event: an XOR accumulator step
//! `xor r, r, g` whose `g` is golden's leaves `r`'s difference from
//! golden (its *delta*) as it was. When a diffed register's next access
//! is such an xor, the entry skips golden's whole chain of them with one
//! `g`, its *guard*, and keeps the delta instead of the value; its next
//! access is where the chain stops, and the death rule applies there. An
//! event that creates or changes `g`'s entry ends the chain at once, so
//! the xor that reads a diffed `g` is an event. Whatever reads the state
//! in a chain's middle (an event's operands, [`DiffReplay::diff`]) first
//! ends it: the value is golden's `r` there plus the delta, and the
//! operand and result latches take the skipped xors' faulty read and
//! result as an event would have left them. Debug builds re-execute
//! every skipped xor and assert its delta.
//!
//! Whatever the diff cannot follow stops replay with a [`Fallback`]: the
//! caller materializes golden-at-that-instant plus the diff and hands the
//! machine to the interpreter.

use crate::access::{AccessKind, AccessTrace, Recorded, TraceUnit, STEP_FILL, STEP_WRITEBACK};
use crate::cache::{self, WORDS_PER_LINE};
use crate::isa::{Decoded, Opcode};
use crate::machine::{word, Machine, ResultLatch, StepEvent, CORE_WORDS};
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
/// instructions execute on, one trace cursor per unit, and the diff's
/// entries. Allocated once and reused by every [`DiffReplay`].
#[derive(Debug)]
pub struct ReplayScratch {
    golden: Machine,
    faulty: Machine,
    /// Per unit: the trace cursor and the unit's last long hop (see
    /// [`seek`]).
    cursors: Vec<[u32; 2]>,
    entries: Vec<Entry>,
    merged: Vec<(u32, u32)>,
    /// The positions in the diff since the stretch began (see
    /// [`DiffReplay::end_interval`]), with repeats.
    touched: Vec<u32>,
}

impl Default for ReplayScratch {
    fn default() -> Self {
        ReplayScratch {
            golden: Machine::new(),
            faulty: Machine::new(),
            cursors: vec![[0; 2]; TraceUnit::COUNT],
            entries: Vec::new(),
            merged: Vec::new(),
            touched: Vec::new(),
        }
    }
}

/// One diff entry: a position, its faulty value, the trace indices of the
/// (up to two) units whose golden accesses concern it, and the next one.
#[derive(Debug, Clone, Copy)]
struct Entry {
    pos: u32,
    /// The faulty value; in a chain, its difference from golden's.
    value: u32,
    units: [u32; 2],
    /// The instant of golden's first access to `units` at or after the
    /// current instant, [`STALE`] until looked up, `u64::MAX` for none.
    next: u64,
    /// That access overwrites the entry without reading it: the entry
    /// leaves the diff after instant `next`, without an event.
    dies: bool,
    /// [`NO_GUARD`], or the register `g` of the chain of `xor r, r, g`
    /// the entry skips from instant `from` up to `next` (see [`chain`]).
    guard: u8,
    from: u32,
}

impl Entry {
    fn new(pos: u32, value: u32, units: [u32; 2]) -> Self {
        Entry {
            pos,
            value,
            units,
            next: STALE,
            dies: false,
            guard: NO_GUARD,
            from: 0,
        }
    }
}

// The chain's guard and start fit in the padding after `dies`.
const _: () = assert!(std::mem::size_of::<Entry>() == 32);

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
    /// A chain ended late may taint a shift older than the latest taint.
    fn taint(&mut self, k: usize, value: u32) {
        let k = k as i64;
        if k > self.tainted[1].0 {
            self.tainted = [self.tainted[1], (k, value)];
        } else if k > self.tainted[0].0 {
            self.tainted[0] = (k, value);
        }
    }
}

/// The positions of the operand and result latches in a sparse diff.
pub const LATCHES: std::ops::RangeInclusive<u32> = word::IDEX_A as u32..=word::EXWB_WE as u32;

/// No unit, in [`units_of`].
const NO_UNIT: u32 = u32::MAX;

/// No chain, in [`Entry::guard`].
const NO_GUARD: u8 = u8::MAX;

/// The next access of an entry not yet looked up.
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

/// The bit of position `pos` in a mask of registers; none for the rest.
fn reg_bit(pos: u32) -> u16 {
    if pos < word::PC as u32 {
        1 << pos
    } else {
        0
    }
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
/// forward.
fn gallop(list: &[Recorded], from: usize, t: u64) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= list.len() && list[lo + step - 1].at() < t {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(list.len());
    lo + list[lo..hi].partition_point(|a| a.at() < t)
}

/// The first index after `from` of `list` whose instant is at least `t`,
/// given that `list[from]` and every entry before it are earlier. A hop of
/// up to three entries is a scan. A longer one first tries `stride`
/// entries on, the length of the unit's last long hop, which it then
/// records: a unit's accesses recur with the control loop, so a unit that
/// re-enters the diff every iteration skips about as many each time.
fn seek(list: &[Recorded], from: usize, t: u64, stride: &mut u32) -> usize {
    let near = list.len().min(from + 4);
    if let Some(i) = list[from + 1..near].iter().position(|a| a.at() >= t) {
        return from + 1 + i;
    }
    let guess = from + *stride as usize;
    let next = if *stride < 4 || guess >= list.len() {
        gallop(list, near, t)
    } else if list[guess - 1].at() < t {
        gallop(list, guess, t)
    } else {
        // Past it: gallop back towards `near`, to a bracket `lo..=hi`
        // whose last instant is at least `t`.
        let (mut lo, mut hi, mut step) = (guess - 1, guess - 1, 1);
        while lo > near && list[lo - 1].at() >= t {
            hi = lo - 1;
            lo = lo.saturating_sub(step).max(near);
            step *= 2;
        }
        lo + list[lo..=hi].partition_point(|a| a.at() < t)
    };
    *stride = (next - from) as u32;
    next
}

/// The first access at or after instant `t` of the unit of index `unit`,
/// as an index into its trace list, found from and stored in the unit's
/// cursor. A cursor past `t` is left over from an earlier run; within one
/// run instants only grow, so most lookups are a probe or two.
#[inline]
fn cursor<'t>(
    trace: &'t AccessTrace,
    cursors: &mut [[u32; 2]],
    unit: usize,
    t: u64,
) -> (usize, &'t [Recorded]) {
    let list = trace.recorded_at(unit);
    let [slot, stride] = &mut cursors[unit];
    let mut c = (*slot as usize).min(list.len());
    if c > 0 && list[c - 1].at() >= t {
        c = list[..c].partition_point(|a| a.at() < t);
    } else if list.get(c).is_some_and(|a| a.at() < t) {
        c = seek(list, c, t, stride);
    }
    *slot = c as u32;
    (c, list)
}

/// Golden's first access at or after instant `now` to the unit of index
/// `unit`: its instant (`u64::MAX` for none), whether every access at that
/// instant is a full write, and the value the last of them deposits.
#[inline]
fn first_access(
    trace: &AccessTrace,
    cursors: &mut [[u32; 2]],
    unit: u32,
    now: u64,
) -> (u64, bool, u32) {
    if unit == NO_UNIT {
        return (u64::MAX, false, 0);
    }
    let (c, list) = cursor(trace, cursors, unit as usize, now);
    let Some(a) = list.get(c) else {
        return (u64::MAX, false, 0);
    };
    let at = a.at();
    let (mut writes, mut last) = (a.kind() == AccessKind::Write, a.value());
    for b in list[c + 1..].iter().take_while(|b| b.at() == at) {
        writes &= b.kind() == AccessKind::Write;
        last = b.value();
    }
    (at, writes, last)
}

/// Looks up entry `e`'s next golden access at or after instant `now`, and
/// whether it kills the entry: every unit is fully written then and none
/// read, and the write leaves no part of the entry differing. A cache
/// line's flags never die (every access to the line consults them), nor
/// does a PSR whose upper bits differ from golden's (a compare keeps them).
fn schedule(trace: &AccessTrace, cursors: &mut [[u32; 2]], e: &mut Entry, now: u64) {
    let (at, writes, deposit) = first_access(trace, cursors, e.units[0], now);
    if e.units[1] == NO_UNIT {
        (e.next, e.dies) = (at, writes);
        return;
    }
    // The PSR's two flags, or a line's valid and dirty flags.
    let (at2, writes2, _) = first_access(trace, cursors, e.units[1], now);
    e.next = at.min(at2);
    e.dies = e.pos == word::PSR as u32
        && at == at2
        && writes
        && writes2
        && (e.value ^ deposit) & !3 == 0;
}

/// The register `g` of the instruction golden executed at instant `at`
/// when it is `xor r, r, g` with `g` not `r` (the position of `r`).
fn xor_guard(trace: &AccessTrace, golden: &Machine, at: u64, r: u32) -> Option<u8> {
    let d = golden.predecoded((trace.step(at) & 0xFFFF) as usize)?;
    (d.op == Opcode::Xor && reg(d.rd) == r && reg(d.ra) == r && reg(d.rb) != r)
        .then_some(d.rb & 0xF)
}

/// `true` when register entry `e`, just looked up, is next accessed by an
/// `xor r, r, g` (see [`chain`]). [`schedule`] left the unit's cursor at
/// that access.
fn reaches_xor(trace: &AccessTrace, cursors: &[[u32; 2]], golden: &Machine, e: &Entry) -> bool {
    if e.pos >= word::PC as u32 {
        return false;
    }
    // An xor reads `r`, then writes it in the same instruction.
    let list = trace.recorded_at(e.pos as usize);
    let i = cursors[e.pos as usize][0] as usize;
    matches!(list.get(i..i + 2), Some([a, b]) if a.kind() == AccessKind::Read && b.at() == a.at())
        && xor_guard(trace, golden, e.next, e.pos).is_some()
}

/// Extends register entry `e`, whose next access is an `xor r, r, g`
/// ([`reaches_xor`]), over golden's chain of them, provided `g` is not
/// in `live` (the registers with an entry that does not die: a dying
/// entry's unit is not read before its death). Each xor leaves `r`'s
/// delta as it was, so the entry keeps the delta, and its next access
/// becomes the first one to `r` that is not such an xor with the same
/// `g`. `pair` is the scratch machines debug builds re-execute every
/// skipped xor on.
// Called about once per chain, not per event: kept out of `settle`.
#[inline(never)]
fn chain(
    trace: &AccessTrace,
    cursors: &mut [[u32; 2]],
    golden: &Machine,
    e: &mut Entry,
    live: u16,
    pair: (&mut Machine, &mut Machine),
) {
    let r = e.pos;
    let Some(g) = xor_guard(trace, golden, e.next, r).filter(|&g| live & 1 << g == 0) else {
        return;
    };
    // The first xor reads golden's `r` as it stands now.
    let list = trace.recorded_at(r as usize);
    let mut i = cursors[r as usize][0] as usize;
    e.value ^= list[i].value();
    (e.guard, e.from) = (g, e.next as u32);
    // A loop runs its xor from one ROM slot: a step from that slot needs
    // no decoding.
    let slot = trace.step(e.next) & 0xFFFF;
    loop {
        if cfg!(debug_assertions) {
            check_xor(
                trace,
                golden,
                (&mut *pair.0, &mut *pair.1),
                list[i].at(),
                e.value,
            );
        }
        // The xor reads `r`, then writes it.
        i += 2;
        match list.get(i).map(Recorded::at) {
            Some(at)
                if trace.step(at) & 0xFFFF == slot
                    || xor_guard(trace, golden, at, r) == Some(g) => {}
            _ => break,
        }
    }
    cursors[r as usize][0] = i as u32;
    (e.next, e.dies, _) = first_access(trace, cursors, r, list[i - 1].at() + 1);
}

/// Re-executes the skipped `xor r, r, g` at instant `t` on golden's traced
/// operands and on them with `r` off by `delta`, as an event would, and
/// asserts that the results differ by `delta`.
fn check_xor(
    trace: &AccessTrace,
    golden: &Machine,
    pair: (&mut Machine, &mut Machine),
    t: u64,
    delta: u32,
) {
    let slot = (trace.step(t) & 0xFFFF) as usize;
    let d = golden.predecoded(slot).expect("golden executed it");
    assert_eq!(d.op, Opcode::Xor, "a skipped instruction at {t}");
    let ipc = mem::ROM_BASE + 4 * slot as u32;
    let shifts = &trace.shifts()[trace.first_shift(t)..trace.first_shift(t + 1)];
    let [a, b] = shifts else {
        panic!("an xor reads two registers at {t}")
    };
    let results = [(pair.0, 0), (pair.1, delta)].map(|(m, off)| {
        m.core.regs[a.reg() as usize] = a.value() ^ off;
        m.core.regs[b.reg() as usize] = b.value();
        m.core.exwb = ResultLatch::default();
        m.core.pc = ipc.wrapping_add(4);
        let (mut event, mut transferred) = (StepEvent::Normal, false);
        let done = m.execute::<false>(&d, ipc, &mut event, &mut transferred);
        assert!(done.is_ok(), "an xor cannot trap");
        m.core.exwb.value
    });
    assert_eq!(
        results[0] ^ results[1],
        delta,
        "the xor at {t} keeps the delta"
    );
}

/// The trace index of the result latch's unit.
fn exwb_unit() -> usize {
    TraceUnit::Vis(VisUnit::Exwb).index()
}

/// Ends chained entry `e`'s chain at boundary `u`, leaving what the
/// skipped xors before `u` would have left as events: `e`'s faulty value
/// (golden's `r` at `u` plus the delta), and in the operand latch and the
/// result latch the faulty `r` they read and the faulty result they wrote.
// Called about once per chain, not per event: kept out of its callers.
#[inline(never)]
fn commit(
    trace: &AccessTrace,
    cursors: &mut [[u32; 2]],
    latch: &mut Latch,
    exwb: &mut Option<(u64, [Option<u32>; 3])>,
    e: &mut Entry,
    u: u64,
) {
    let (r, delta) = (e.pos, e.value);
    let skipped = u64::from(e.from)..e.next;
    // The latch holds the last two shifts before `u`; a skipped xor
    // shifts in `r` (which differs), then `g` (which does not).
    let j = trace.first_shift(u);
    for k in j.saturating_sub(2)..j {
        let s = trace.shifts()[k];
        if u32::from(s.reg()) == r && skipped.contains(&s.at()) {
            latch.taint(k, s.value() ^ delta);
        }
    }
    // Golden's `r` at `u`: its last access before `u` left it, or, before
    // the first xor, that xor reads it.
    let (c, list) = cursor(trace, cursors, r as usize, u);
    let last = list[c.saturating_sub(1)];
    if c > 0 && skipped.contains(&last.at()) {
        let (w, writes) = cursor(trace, cursors, exwb_unit(), u);
        if writes[w - 1].at() == last.at() {
            *exwb = Some((last.at() + 1, [Some(last.value() ^ delta), None, None]));
        }
    }
    e.value = last.value() ^ delta;
    e.guard = NO_GUARD;
}

/// One faulty run under diff replay. See the module documentation.
pub struct DiffReplay<'a> {
    trace: &'a AccessTrace,
    golden: &'a Machine,
    /// Holds the diff's entries, unordered, each with its next access.
    scratch: &'a mut ReplayScratch,
    /// The operand and result latches are written by most instructions
    /// and read by none, so they stay out of the entries and their events:
    /// the operand latch holds the last two register reads, and `latch`
    /// the reads whose value differed; the result latch holds the last
    /// write.
    latch: Latch,
    /// The result latch's faulty words (value, rd, we), valid until golden
    /// next writes the latch at or after the instant kept with them.
    exwb: Option<(u64, [Option<u32>; 3])>,
    /// Every instruction before this instant is accounted for.
    now: u64,
    /// The least `next` of the entries that do not die there: the instant
    /// of the next event.
    next_event: u64,
    /// The least `next` of the entries that die there.
    first_death: u64,
    /// At most the least `next` of the chained entries, and at most
    /// [`STALE`] while there are any: `u64::MAX` means none.
    chain_stop: u64,
    events: u64,
    /// Every event since the stretch began was delta-determined (see
    /// [`DiffReplay::end_interval`]).
    determined: bool,
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
        scratch.entries.clear();
        scratch.entries.extend(
            diff.iter()
                .filter(|(p, _)| !LATCHES.contains(p))
                .map(|&(p, v)| Entry::new(p, v, units_of(p).unwrap_or([NO_UNIT; 2]))),
        );
        scratch.touched.clear();
        scratch
            .touched
            .extend(scratch.entries.iter().map(|e| e.pos));
        let mut replay = DiffReplay {
            trace,
            golden,
            scratch,
            latch,
            exwb: exwb.iter().any(Option::is_some).then_some((at, exwb)),
            now: at,
            next_event: u64::MAX,
            first_death: u64::MAX,
            chain_stop: u64::MAX,
            events: 0,
            determined: true,
            blocked: blocked.then_some(Fallback {
                at,
                reason: FallbackReason::ControlState,
            }),
        };
        replay.settle();
        replay
    }

    /// The faulty state's difference from golden's at the current instant,
    /// in [`Machine::sparse_diff`]'s form.
    pub fn diff(&mut self) -> &[(u32, u32)] {
        self.expire();
        // A chain pending here ends here; the rest of it starts anew.
        let restart = self.chain_stop != u64::MAX && self.end_chains(true);
        let now = self.now;
        let latch = self.latch_at(now);
        if let Some((from, _)) = self.exwb {
            // Golden overwrote the words if its last write before now is
            // at or after `from`: asked from now, the cursor only moves
            // forward within a run.
            let (c, list) = cursor(self.trace, &mut self.scratch.cursors, exwb_unit(), now);
            if c > 0 && list[c - 1].at() >= from {
                self.exwb = None;
            }
        }
        let exwb = self.exwb.map_or([None; 3], |(_, words)| words);
        let latches = latch.into_iter().chain(exwb).zip(word::IDEX_A as u32..);
        let ReplayScratch {
            entries, merged, ..
        } = &mut *self.scratch;
        merged.clear();
        merged.extend(entries.iter().map(|e| (e.pos, e.value)));
        merged.extend(latches.filter_map(|(v, p)| v.map(|v| (p, v))));
        merged.sort_unstable();
        if restart {
            self.settle();
        }
        &self.scratch.merged
    }

    /// Events processed so far. An event is one instruction re-examined,
    /// not one executed: most events move or recompute a word.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Ends a stretch of replay, a checkpoint interval, for the
    /// steady-delta rule (DESIGN.md §8l): appends to `units` the trace
    /// indices of the units of every position in the diff at some point
    /// since the stretch began (at the last call, or at
    /// [`DiffReplay::new`]), and returns whether every event since was
    /// *delta-determined*: its written words' differences from golden's
    /// depend only on the differences it read. Moves by loads, stores,
    /// fills and write-backs, `xor`, `mov` and `ori`, skipped chains and
    /// deaths are; any other register instruction and a stack-bound check
    /// against a diffed bound are not. Nor is a stretch with a PSR entry,
    /// whose death depends on golden's flags.
    pub fn end_interval(&mut self, units: &mut Vec<u32>) -> bool {
        self.expire();
        let ReplayScratch {
            entries, touched, ..
        } = &mut *self.scratch;
        let psr = touched.contains(&(word::PSR as u32));
        let of = |p: u32| units_of(p).unwrap_or([NO_UNIT; 2]);
        units.extend(
            touched
                .iter()
                .flat_map(|&p| of(p))
                .filter(|&u| u != NO_UNIT),
        );
        touched.clear();
        touched.extend(entries.iter().map(|e| e.pos));
        std::mem::replace(&mut self.determined, true) && !psr
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
        let t = self.next_event;
        if t >= until {
            self.now = self.now.max(until);
            return Ok(None);
        }
        self.events += 1;
        // On a fallback the diff describes boundary `t`, latches included.
        self.now = t;
        self.expire();
        if self.chain_stop <= t {
            self.end_chains(false);
        }
        self.event(t)?;
        self.now = t + 1;
        self.settle();
        Ok(Some(t))
    }

    /// Drops the entries that died before the current instant, ending
    /// their chains first.
    fn expire(&mut self) {
        let now = self.now;
        if self.first_death < now {
            if self.chain_stop < now {
                let ReplayScratch {
                    entries, cursors, ..
                } = &mut *self.scratch;
                for e in entries.iter_mut() {
                    if e.guard != NO_GUARD && e.dies && e.next < now {
                        commit(self.trace, cursors, &mut self.latch, &mut self.exwb, e, now);
                    }
                }
            }
            self.scratch.entries.retain(|e| !(e.dies && e.next < now));
            self.first_death = self
                .scratch
                .entries
                .iter()
                .filter(|e| e.dies)
                .map(|e| e.next)
                .min()
                .unwrap_or(u64::MAX);
        }
    }

    /// Ends at the current instant the chains of the entries whose next
    /// access is now (the event reads their values), or, with `restart`,
    /// of every entry, which [`DiffReplay::settle`] then looks up again.
    /// Whether it ended any.
    fn end_chains(&mut self, restart: bool) -> bool {
        let now = self.now;
        let ReplayScratch {
            entries, cursors, ..
        } = &mut *self.scratch;
        let mut ended = false;
        for e in entries.iter_mut() {
            if e.guard != NO_GUARD && (restart || e.next == now) {
                commit(self.trace, cursors, &mut self.latch, &mut self.exwb, e, now);
                if restart {
                    (e.next, e.dies) = (STALE, false);
                }
                ended = true;
            }
        }
        ended
    }

    /// Looks up the next access of every entry an event touched (its next
    /// access is past) or created, drops the entries that died in it, and
    /// caches the next event and the next death. A register entry looked
    /// up starts a chain where it can; an entry the event created or
    /// changed first ends every chain it guards, which is looked up again.
    fn settle(&mut self) {
        let now = self.now;
        let ReplayScratch {
            entries,
            cursors,
            golden,
            faulty,
            ..
        } = &mut *self.scratch;
        if self.chain_stop != u64::MAX {
            let changed = entries
                .iter()
                .filter(|e| e.next == STALE)
                .fold(0, |m, e| m | reg_bit(e.pos));
            for e in entries.iter_mut() {
                if e.guard != NO_GUARD && changed & 1 << e.guard != 0 {
                    commit(self.trace, cursors, &mut self.latch, &mut self.exwb, e, now);
                    (e.next, e.dies) = (STALE, false);
                }
            }
        }
        // The register entries just looked up whose next access is an xor
        // accumulator step, and the registers that stay diffed.
        let (mut xors, mut live) = (0, 0);
        let mut i = 0;
        while i < entries.len() {
            let e = &mut entries[i];
            if e.next < now || e.next == STALE {
                if e.dies {
                    entries.swap_remove(i);
                    continue;
                }
                schedule(self.trace, cursors, e, now);
                if !e.dies && reaches_xor(self.trace, cursors, self.golden, e) {
                    xors |= reg_bit(e.pos);
                }
            }
            if !e.dies {
                live |= reg_bit(e.pos);
            }
            i += 1;
        }
        if xors != 0 {
            for e in entries.iter_mut().filter(|e| xors & reg_bit(e.pos) != 0) {
                chain(self.trace, cursors, self.golden, e, live, (golden, faulty));
            }
        }
        let (mut next_event, mut first_death, mut chain_stop) = (u64::MAX, u64::MAX, u64::MAX);
        for e in entries.iter() {
            if e.dies {
                first_death = first_death.min(e.next);
            } else {
                next_event = next_event.min(e.next);
            }
            if e.guard != NO_GUARD {
                chain_stop = chain_stop.min(e.next.min(STALE));
            }
        }
        (self.next_event, self.first_death, self.chain_stop) =
            (next_event, first_death, chain_stop);
    }

    /// Records that the faulty value at `pos` is `faulty` where golden's
    /// is `golden`. Every position an event changes is one golden touches
    /// during it, so its next access is looked up afterwards.
    fn set(&mut self, pos: u32, faulty: u32, golden: u32) {
        let ReplayScratch {
            entries, touched, ..
        } = &mut *self.scratch;
        match entries.iter().position(|e| e.pos == pos) {
            Some(i) if faulty == golden => {
                entries.swap_remove(i);
            }
            Some(i) => entries[i] = Entry::new(pos, faulty, entries[i].units),
            None if faulty == golden => {}
            None => {
                entries.push(Entry::new(pos, faulty, carried(pos)));
                touched.push(pos);
            }
        }
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

    /// Golden's accesses to the unit of index `unit` during instruction `t`.
    #[inline]
    fn accesses(&mut self, unit: usize, t: u64) -> &'a [Recorded] {
        let (c, list) = cursor(self.trace, &mut self.scratch.cursors, unit, t);
        let n = list[c..].iter().take_while(|a| a.at() == t).count();
        &list[c..c + n]
    }

    fn event(&mut self, t: u64) -> Result<(), Fallback> {
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

    /// Re-executes register instruction `d` at `t` on golden's traced
    /// operands and on the diff-patched ones, and diffs the words it writes.
    fn register_event(&mut self, t: u64, d: &Decoded, ipc: u32) -> Result<(), Fallback> {
        let range = self.shifts_at(t);
        let shifts = &self.trace.shifts()[range.clone()];
        let out = usize::from(d.uimm16 as u16) % crate::machine::NUM_OUT_PORTS;
        let (psr_pos, out_pos) = (word::PSR as u32, (word::PORTS_OUT + out) as u32);
        // The registers read (at most three, for `chk`), with golden's and
        // the faulty value, and the faulty PSR and output port.
        let mut regs = [(0u8, 0u32, 0u32); 3];
        for (r, s) in regs.iter_mut().zip(shifts) {
            *r = (s.reg(), s.value(), s.value());
        }
        let regs = &mut regs[..shifts.len()];
        let (mut faulty_psr, mut faulty_out) = (None, None);
        for e in &self.scratch.entries {
            if e.pos == psr_pos {
                faulty_psr = Some(e.value);
            } else if e.pos == out_pos {
                faulty_out = Some(e.value);
            }
            for r in regs.iter_mut().filter(|r| u32::from(r.0) == e.pos) {
                r.2 = e.value;
            }
        }
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
        let faulty_psr = faulty_psr.map_or(psr, |v| v as u8);
        let regs = &*regs;
        let seed = |m: &mut Machine, faulty: bool| {
            for &(r, g, f) in regs {
                m.core.regs[r as usize] = if faulty { f } else { g };
            }
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
        // The words an instruction writes: its register (with the result
        // latch), and the PSR of a compare or the port of an `out`.
        let written = [
            g.exwb
                .we
                .then_some((u32::from(g.exwb.rd), f.exwb.value, g.exwb.value)),
            match d.op {
                Opcode::Cmp | Opcode::Fcmp => Some((psr_pos, u32::from(f.psr), u32::from(g.psr))),
                Opcode::Out => Some((out_pos, f.ports_out[out], g.ports_out[out])),
                _ => None,
            },
        ];
        for &(pos, fv, gv) in written.iter().flatten() {
            self.set(pos, fv, gv);
        }
        if let Some((_, fv, gv)) = written[0] {
            // Both wrote the same register, so only the value can differ.
            self.write_exwb(t, [(fv != gv).then_some(fv), None, None]);
        }
        for (k, &(_, g, f)) in range.zip(regs) {
            if f != g {
                self.latch.taint(k, f);
            }
        }
        self.determined &= matches!(d.op, Opcode::Xor | Opcode::Mov | Opcode::Ori);
        Ok(())
    }

    /// Instruction `t` wrote the result latch with faulty `words`.
    fn write_exwb(&mut self, t: u64, words: [Option<u32>; 3]) {
        self.exwb = words.iter().any(Option::is_some).then_some((t + 1, words));
    }

    /// A load or store at `t` whose control inputs are golden's: golden's
    /// cache decisions stand, and the diff's words move with the data. One
    /// pass over the entries reads the control inputs and what moves (the
    /// line's words, the filled memory words, the stored register); after
    /// the checks, a second drops every entry the instruction overwrites,
    /// and the moved words that differ go back in.
    fn memory_event(&mut self, t: u64, d: &Decoded, step: u32) -> Result<(), Fallback> {
        let fallback = |reason| Err(Fallback { at: t, reason });
        let first_shift = self.trace.first_shift(t);
        let base = self.trace.shifts()[first_shift];
        debug_assert_eq!(
            base.reg(),
            d.ra & 0xF,
            "a memory access first reads its base"
        );
        let addr = base.value().wrapping_add(d.imm16 as u32);
        let line = cache::index_of(addr);
        let (fill, store) = (step & STEP_FILL != 0, d.op == Opcode::St);
        // Where the line's words come from and go to.
        let cached = line_word(line, 0);
        let filled = fill.then(|| {
            let key = mem::word_key(addr & !0xF).expect("golden fills from data memory");
            mem_word(key)
        });
        let victim = (step & STEP_WRITEBACK != 0).then(|| {
            let tag = TraceUnit::Vis(VisUnit::CacheTag(line)).index();
            let tag = self.accesses(tag, t).first();
            let tag = tag.expect("a write-back reads its victim's tag").value();
            let key = mem::word_key(cache::line_base(tag, line));
            mem_word(key.expect("golden writes back to data memory"))
        });
        let control = (word::LINES + line * word::LINE_WORDS) as u32;
        let (base_reg, data_reg) = (reg(d.ra), reg(d.rd));
        let (mut line_words, mut fill_words) = ([None; WORDS_PER_LINE], [None; WORDS_PER_LINE]);
        let (mut stored, mut bounds) = (None, [None; 2]);
        let (mut address, mut tainted_control, mut syndrome) = (false, false, false);
        for e in &self.scratch.entries {
            let p = e.pos;
            if let Some(w) = word_in(p, Some(cached)) {
                line_words[w] = Some(e.value);
            } else if let Some(w) = word_in(p, filled) {
                fill_words[w] = Some(e.value);
            } else if p == control || p == control + 1 {
                tainted_control = true;
            } else if p == word::STACK_LO as u32 || p == word::STACK_HI as u32 {
                bounds[(p - word::STACK_LO as u32) as usize] = Some(e.value);
            } else if p == word::EDAC as u32 {
                syndrome = true;
            }
            address |= p == base_reg;
            if p == data_reg {
                stored = Some(e.value);
            }
        }
        if address {
            return fallback(FallbackReason::Address);
        }
        if mem::region(addr) == Region::Stack && bounds.iter().any(Option::is_some) {
            // The check's outcome depends on golden's address.
            self.determined = false;
            let lo = bounds[0].unwrap_or(self.golden.core.stack_lo);
            let hi = bounds[1].unwrap_or(self.golden.core.stack_hi);
            if addr < lo || addr >= hi {
                return fallback(FallbackReason::Trap);
            }
        }
        if tainted_control {
            return fallback(FallbackReason::CacheControl);
        }
        if fill && syndrome {
            return fallback(FallbackReason::Trap);
        }
        // The latch shifts the (clean) base in; a store then shifts its
        // data register in behind it.
        if let Some(v) = stored.filter(|_| store) {
            self.latch.taint(first_shift + 1, v);
        }
        // The line after the fill, if any, and the access.
        let at = cache::word_of(addr);
        let mut after = if fill { fill_words } else { line_words };
        if store {
            after[at] = stored;
        }
        let last = fill_words[WORDS_PER_LINE - 1];
        let parity = match (filled, last) {
            (Some(from), Some(v)) => {
                let unit = TraceUnit::MemWord((from as usize - CORE_WORDS) + WORDS_PER_LINE - 1);
                let g = self.accesses(unit.index(), t).first();
                let g = g.expect("a fill reads its last word").value();
                (mem::parity(v) != mem::parity(g)).then_some(u32::from(mem::parity(v)))
            }
            _ => None,
        };
        let accessed = cached + at as u32;
        let moved = |p: u32| {
            word_in(p, victim).is_some()
                || fill && word_in(p, Some(cached)).is_some()
                || fill && (word::FBUF_ADDR as u32..=word::FBUF_VALID as u32).contains(&p)
                || store
                    && (p == accessed
                        || (word::SBUF_ADDR as u32..=word::SBUF_VALID as u32).contains(&p))
                || !store && p == data_reg
        };
        let ReplayScratch {
            entries, touched, ..
        } = &mut *self.scratch;
        entries.retain(|e| !moved(e.pos));
        let mut put = |pos: u32, v: Option<u32>| {
            if let Some(v) = v {
                entries.push(Entry::new(pos, v, carried(pos)));
                touched.push(pos);
            }
        };
        if let Some(victim) = victim {
            for (w, &v) in (victim..).zip(&line_words) {
                put(w, v);
            }
        }
        if fill {
            for (w, &v) in (cached..).zip(&after) {
                put(w, v);
            }
            put(word::FBUF_DATA as u32, last);
            put(word::FBUF_PARITY as u32, parity);
        } else if store {
            put(accessed, stored);
        }
        if store {
            put(word::SBUF_DATA as u32, stored);
        } else {
            put(data_reg, after[at]);
            self.write_exwb(t, [after[at], None, None]);
        }
        Ok(())
    }
}

/// The word of a line whose first word is at position `first` that
/// position `pos` holds, if any.
fn word_in(pos: u32, first: Option<u32>) -> Option<usize> {
    let w = pos.wrapping_sub(first?) as usize;
    (w < WORDS_PER_LINE).then_some(w)
}

/// The units of a position an event creates.
fn carried(pos: u32) -> [u32; 2] {
    units_of(pos).expect("replay creates only carried positions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_finds_the_first_access_at_or_after_an_instant_from_any_state() {
        // A unit accessed at irregular instants, some several per instant.
        let mut trace = AccessTrace::new();
        let unit = TraceUnit::Reg(3);
        let mut at = 0;
        for i in 0..600u64 {
            at += (i % 7) / 3 * (1 + i % 5);
            trace.record(unit, at, AccessKind::Read, 0);
        }
        let list = trace.recorded(unit);
        let mut cursors = vec![[0; 2]; TraceUnit::COUNT];
        for from in (0..list.len()).step_by(13) {
            for t in (0..=at + 2).step_by(29) {
                for stride in [0, 3, 4, 9, 57, 1_000, u32::MAX / 2] {
                    cursors[unit.index()] = [from as u32, stride];
                    let (c, _) = cursor(&trace, &mut cursors, unit.index(), t);
                    let expect = list.partition_point(|a| a.at() < t);
                    assert_eq!(c, expect, "from {from}, instant {t}, stride {stride}");
                    assert_eq!(cursors[unit.index()][0] as usize, expect);
                }
            }
        }
    }
}
