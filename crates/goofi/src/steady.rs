//! The steady-delta jump of diff replay (DESIGN.md §8l): a run whose XOR
//! delta against golden (faulty ⊕ golden, word by word) stays fixed over a
//! streak of checkpoint intervals keeps it to the end of the run, when
//! every later interval repeats a verified one on the units the streak
//! touched. Replay then jumps to golden's last checkpoint with that delta
//! and replays only the tail.
//!
//! The rule, at checkpoint `c`, over the streak of consecutive intervals
//! that ended there:
//!
//! * (a) every event in each streak interval was delta-determined
//!   ([`DiffReplay::end_interval`]);
//! * (b) the delta list was non-empty and the same at both ends of each
//!   streak interval;
//! * (c) every interval after `c` has, on every unit the streak touched,
//!   the classes (`IntervalClasses`) some streak interval has.
//!
//! By induction over the later intervals, each replays event for event as
//! the streak interval it repeats did, so the delta holds at every later
//! checkpoint. The operand and result latches are read by no instruction,
//! so they stay out of the delta; the jump is taken only where the latches
//! at the last checkpoint were filled from units the streak never touched,
//! which keeps them golden's.

use crate::experiment::GoldenRun;
use bera_tcpu::access::{AccessKind, AccessTrace, TraceUnit};
use bera_tcpu::diff::{DiffReplay, LATCHES};
use bera_tcpu::vis::VisUnit;
use std::sync::OnceLock;

/// Per trace unit, its class in every golden checkpoint interval: two
/// intervals of a unit share a class when golden accesses the unit at the
/// same offsets from the interval's start, with the same kinds, from the
/// same ROM slots with the same fill and write-back flags. The table and
/// each unit's row are filled on first use, once per golden run, and
/// shared by every worker.
#[derive(Debug, Clone, Default)]
pub(crate) struct IntervalClasses {
    rows: OnceLock<Box<[Row]>>,
}

/// One unit's classes, by interval.
type Row = OnceLock<Box<[u32]>>;

/// The diff at golden's last checkpoint that replay may jump to.
pub type Jump = Vec<(u32, u32)>;

impl IntervalClasses {
    /// The row of the unit of trace index `unit`: its class in interval
    /// `j`, from checkpoint `j` to `j + 1`, at index `j`.
    fn row<'g>(&'g self, golden: &GoldenRun, unit: u32) -> &'g [u32] {
        let rows = self
            .rows
            .get_or_init(|| (0..TraceUnit::COUNT).map(|_| OnceLock::new()).collect());
        rows[unit as usize].get_or_init(|| {
            let starts: Vec<u64> = golden
                .checkpoints
                .iter()
                .map(|c| c.machine.instr_count())
                .collect();
            classes(&golden.trace, &starts, unit as usize)
        })
    }
}

/// The unit of index `unit`'s class in each interval between consecutive
/// instants of `starts`, numbered in order of first appearance.
fn classes(trace: &AccessTrace, starts: &[u64], unit: usize) -> Box<[u32]> {
    let list = trace.recorded_at(unit);
    // Each class's accesses, as offset, step word and kind.
    let mut seen: Vec<Vec<u64>> = Vec::new();
    let mut i = list.partition_point(|a| a.at() < starts.first().copied().unwrap_or(0));
    starts
        .windows(2)
        .map(|w| {
            let n = list[i..].partition_point(|a| a.at() < w[1]);
            let keys: Vec<u64> = list[i..i + n]
                .iter()
                .map(|a| {
                    let kind = match a.kind() {
                        AccessKind::Read => 0,
                        AccessKind::Write => 1,
                        AccessKind::PartialWrite => 2,
                    };
                    (a.at() - w[0]) << 24 | u64::from(trace.step(a.at())) << 2 | kind
                })
                .collect();
            i += n;
            let id = seen.iter().position(|k| *k == keys).unwrap_or_else(|| {
                seen.push(keys);
                seen.len() - 1
            });
            id as u32
        })
        .collect()
}

/// One replay segment's walk over golden's checkpoints under the
/// steady-delta rule. See the module documentation.
pub struct Steady<'g> {
    golden: &'g GoldenRun,
    /// The delta list at the last checkpoint, as `(position, faulty ⊕
    /// golden)`, latches left out; `known` once replay passed one.
    delta: Vec<(u32, u32)>,
    known: bool,
    /// The delta list at this checkpoint, while it is compared.
    next: Vec<(u32, u32)>,
    /// The streak's first interval, if there is a streak.
    streak: Option<usize>,
    /// The units the streak touched, sorted, with their class rows.
    units: Vec<u32>,
    rows: Vec<&'g [u32]>,
    /// One streak interval per distinct class tuple on `units`.
    verified: Vec<usize>,
    /// Every interval from the streak's end up to this one repeats a
    /// verified tuple.
    covered: usize,
    /// The units the interval that just ended touched.
    fresh: Vec<u32>,
}

impl<'g> Steady<'g> {
    /// A walk with no checkpoint passed yet.
    #[must_use]
    pub fn new(golden: &'g GoldenRun) -> Self {
        Steady {
            golden,
            delta: Vec::new(),
            known: false,
            next: Vec::new(),
            streak: None,
            units: Vec::new(),
            rows: Vec::new(),
            verified: Vec::new(),
            covered: 0,
            fresh: Vec::new(),
        }
    }

    /// Reads `r`'s diff at golden checkpoint `c`, where `r` stands, and
    /// returns it with the jump the rule allows there: the diff at golden's
    /// last checkpoint, from which replay may go on instead.
    ///
    /// # Panics
    ///
    /// In debug builds, if replaying the skipped intervals does not keep
    /// the delta, or does not reach the jumped diff.
    pub fn at_checkpoint<'d>(
        &mut self,
        c: usize,
        r: &'d mut DiffReplay<'_>,
    ) -> (&'d [(u32, u32)], Option<Jump>) {
        self.fresh.clear();
        let determined = r.end_interval(&mut self.fresh);
        let diff = r.diff();
        let jump = self.step(c, determined, diff);
        (diff, jump)
    }

    fn step(&mut self, c: usize, determined: bool, diff: &[(u32, u32)]) -> Option<Jump> {
        let golden = self.golden;
        let here = &golden.checkpoints[c].machine;
        self.next.clear();
        self.next.extend(
            diff.iter()
                .filter(|(p, _)| !LATCHES.contains(p))
                .map(|&(p, v)| (p, v ^ here.word(p))),
        );
        // (a) and (b) for the interval that ended here.
        let steady = self.known && determined && !self.next.is_empty() && self.next == self.delta;
        std::mem::swap(&mut self.delta, &mut self.next);
        self.known = true;
        if !steady {
            self.streak = None;
            return None;
        }
        let last = golden.checkpoints.len() - 1;
        let ended = c - 1;
        self.fresh.sort_unstable();
        self.fresh.dedup();
        let grew = self
            .fresh
            .iter()
            .any(|u| self.units.binary_search(u).is_err());
        let first = *self.streak.get_or_insert(ended);
        if first == ended || grew {
            if first == ended {
                self.units.clear();
            }
            self.units.extend_from_slice(&self.fresh);
            self.units.sort_unstable();
            self.units.dedup();
            self.rows = self
                .units
                .iter()
                .map(|&u| golden.classes.row(golden, u))
                .collect();
            self.verified.clear();
            for j in first..ended {
                if !self.repeats(j) {
                    self.verified.push(j);
                }
            }
            self.covered = c;
        }
        if !self.repeats(ended) {
            self.verified.push(ended);
        }
        if c == last {
            return None;
        }
        // (c): every later interval repeats a verified one.
        self.covered = self.covered.max(c);
        while self.covered < last && self.repeats(self.covered) {
            self.covered += 1;
        }
        if self.covered < last {
            return None;
        }
        let jumped = self.diff_at(last)?;
        if cfg!(debug_assertions) {
            self.check(c, diff);
        }
        Some(jumped)
    }

    /// The diff at checkpoint `j`, past the checkpoint [`Steady::
    /// at_checkpoint`] last allowed a jump from: golden's words there plus
    /// the delta, where the latches hold golden's (see
    /// [`Steady::latches_clean`]).
    pub(crate) fn diff_at(&self, j: usize) -> Option<Vec<(u32, u32)>> {
        if !self.latches_clean(j) {
            return None;
        }
        let there = &self.golden.checkpoints[j].machine;
        let diff = self.delta.iter().map(|&(p, d)| (p, d ^ there.word(p)));
        Some(diff.collect())
    }

    /// `true` when interval `j` has, on every unit of the streak, the
    /// classes of a verified interval.
    fn repeats(&self, j: usize) -> bool {
        self.verified
            .iter()
            .any(|&k| self.rows.iter().all(|row| row[j] == row[k]))
    }

    /// `true` when golden filled the operand and result latches at
    /// checkpoint `c` in the interval before it, from registers the streak
    /// never touched: their last two register reads, and the register of
    /// their last result write. That interval repeats a streak interval, in
    /// which only touched units ever differed, so the latches hold golden's.
    fn latches_clean(&self, c: usize) -> bool {
        let trace = &self.golden.trace;
        let [start, at] = [c - 1, c].map(|k| self.golden.checkpoints[k].machine.instr_count());
        let regs = self
            .units
            .iter()
            .filter(|&&u| u < 16)
            .fold(0u16, |m, &u| m | 1 << u);
        let j = trace.first_shift(at);
        let reads = &trace.shifts()[j.saturating_sub(2)..j];
        if reads.len() < 2
            || reads
                .iter()
                .any(|s| s.at() < start || regs & 1 << s.reg() != 0)
        {
            return false;
        }
        let writes = trace.recorded(TraceUnit::Vis(VisUnit::Exwb));
        let Some(w) = writes[..writes.partition_point(|a| a.at() < at)].last() else {
            return false;
        };
        w.at() >= start
            && (0..16).filter(|&r| regs & 1 << r != 0).all(|r| {
                let list = trace.recorded_at(r);
                let i = list.partition_point(|a| a.at() < w.at());
                !list[i..]
                    .iter()
                    .take_while(|a| a.at() == w.at())
                    .any(|a| a.kind() == AccessKind::Write)
            })
    }

    /// Replays from checkpoint `c`, where the diff is `diff`, over the
    /// skipped intervals, and asserts that the delta holds at every
    /// checkpoint, and the diff wherever [`Steady::diff_at`] gives one.
    fn check(&self, c: usize, diff: &[(u32, u32)]) {
        let golden = self.golden;
        let mut scratch = bera_tcpu::diff::ReplayScratch::default();
        let from = golden.checkpoints[c].machine.instr_count();
        let mut r = DiffReplay::new(
            &golden.trace,
            &golden.end_machine,
            &mut scratch,
            from,
            diff.to_vec(),
        );
        for (j, ckpt) in golden.checkpoints.iter().enumerate().skip(c + 1) {
            let m = &ckpt.machine;
            if let Err(f) = r.advance(m.instr_count()) {
                panic!("a steady delta from checkpoint {c} fell back: {f:?}");
            }
            let delta: Vec<(u32, u32)> = r
                .diff()
                .iter()
                .filter(|(p, _)| !LATCHES.contains(p))
                .map(|&(p, v)| (p, v ^ m.word(p)))
                .collect();
            assert_eq!(
                delta, self.delta,
                "the delta from checkpoint {c} holds at checkpoint {j}"
            );
            if let Some(at_j) = self.diff_at(j) {
                assert_eq!(r.diff(), at_j, "the diff from checkpoint {c} at {j}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_number_interval_access_patterns_by_first_appearance() {
        let mut trace = AccessTrace::new();
        for t in 0..50 {
            trace.record_step(t, (t % 10) as u32, false);
        }
        let unit = TraceUnit::Reg(3);
        // A read at offset 2, the same read again (its value does not
        // count), a write there, nothing, and a read at another offset.
        for (at, kind, value) in [
            (2, AccessKind::Read, 0),
            (12, AccessKind::Read, 7),
            (22, AccessKind::Write, 0),
            (43, AccessKind::Read, 0),
        ] {
            trace.record(unit, at, kind, value);
        }
        let starts = [0, 10, 20, 30, 40, 50];
        assert_eq!(&*classes(&trace, &starts, unit.index()), [0, 0, 1, 2, 3]);
    }
}
