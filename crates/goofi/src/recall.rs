//! Trajectory recall (DESIGN.md §8k): a worker's memo of the faulty states
//! its earlier experiments passed through at golden checkpoint boundaries,
//! each filed under how that trajectory ended.
//!
//! Convergence pruning ends a run whose state equals golden's at a
//! checkpoint. Recall ends a run whose state equals one an earlier run of
//! the same campaign reached at the same checkpoint: execution is
//! deterministic, so the two futures are identical, and the earlier run
//! already computed it. A key is exact — the checkpoint, the instruction
//! count and the sparse diff of the whole machine against the golden
//! checkpoint ([`Machine::sparse_diff`]); the plant must equal golden's and
//! the fault must be quiescent, so neither needs a place in it. Only tails
//! whose outputs equal golden's are filed, so a recalled run is completed
//! by golden's outputs up to the filed ending.

use crate::experiment::Ending;
use std::collections::HashMap;

/// A drive consults and feeds the memo at every this-many-th golden
/// checkpoint. At every 4th, the paper's Algorithm I campaign (`--threads
/// 1`) interprets 24 986 669 instructions instead of 24 998 621 and
/// replays 257 754 events instead of 285 778, but probes and files at
/// twice as many boundaries, and its peak resident set grows by about
/// 3 % (EXPERIMENTS.md "Plant-only stretches and shifted re-entry").
pub(crate) const RECALL_EVERY: usize = 8;

/// How a filed trajectory ends, seen from any boundary it was filed at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tail {
    pub(crate) ending: Ending,
    /// Outputs the run had logged when it ended. Those from the filed
    /// boundary on equal golden's.
    pub(crate) outputs: usize,
}

/// One state: `len` diff pairs from `start` in the pool (or the pending
/// pool, while the drive that passed it runs), at a checkpoint, with its
/// instruction count as an offset from the checkpoint's. Packed to 16
/// bytes: a paper-scale memo holds thousands of keys.
#[derive(Debug, Clone, Copy)]
struct Key {
    start: u32,
    len: u16,
    checkpoint: u16,
    instr_offset: i32,
    /// Index into `tails` once filed; the boundary iteration while pending.
    tail: u32,
}

/// A worker's trajectory memo. It lives in the worker's machine arena
/// slot, so it belongs to one golden run and is dropped with the slot.
#[derive(Default)]
pub(crate) struct TrajectoryMemo {
    /// Fingerprint → filed key. A fingerprint collision files only the
    /// first key; the later state simply is not recalled.
    index: HashMap<u32, u32>,
    keys: Vec<Key>,
    /// The filed diffs' positions and values (see [`Machine::sparse_diff`]),
    /// in two arrays so a pair takes six bytes. A key whose diff equals the
    /// one its run filed before shares that one's pairs.
    positions: Vec<u16>,
    values: Vec<u32>,
    tails: Vec<Tail>,
    /// States the running drive passed, filed or dropped when it ends.
    pending: Vec<(u32, Key)>,
    pending_pool: Vec<(u32, u32)>,
}

impl TrajectoryMemo {
    /// Looks up a state at the boundary of golden checkpoint
    /// `checkpoint`, reached at `iteration`, `offset` instructions after
    /// golden reached it, whose difference from the checkpoint is `diff`
    /// (see [`bera_tcpu::Machine::sparse_diff`]). On a miss the state is
    /// remembered as passed by the running drive.
    pub(crate) fn probe(
        &mut self,
        diff: &[(u32, u32)],
        checkpoint: usize,
        iteration: usize,
        offset: i128,
    ) -> Option<Tail> {
        // A state outside the packed ranges is neither recalled nor filed.
        let (Ok(instr_offset), Ok(len), Ok(checkpoint), Ok(iteration), Ok(start)) = (
            i32::try_from(offset),
            u16::try_from(diff.len()),
            u16::try_from(checkpoint),
            u32::try_from(iteration),
            u32::try_from(self.pending_pool.len()),
        ) else {
            return None;
        };
        let mut h = bera_tcpu::Fnv64::new();
        h.write_u32(u32::from(checkpoint));
        h.write_u32(instr_offset as u32);
        for &(pos, value) in diff {
            h.write_u32(pos);
            h.write_u32(value);
        }
        // The index keeps the low half; lookups compare the key exactly.
        let fp = h.finish() as u32;
        if let Some(&i) = self.index.get(&fp) {
            let key = self.keys[i as usize];
            let at = key.start as usize..key.start as usize + usize::from(key.len);
            if key.checkpoint == checkpoint
                && key.instr_offset == instr_offset
                && key.len == len
                && self.positions[at.clone()]
                    .iter()
                    .zip(&self.values[at])
                    .zip(diff)
                    .all(|((&p, &v), &(dp, dv))| u32::from(p) == dp && v == dv)
            {
                return Some(self.tails[key.tail as usize]);
            }
        }
        self.pending.push((
            fp,
            Key {
                start,
                len,
                checkpoint,
                instr_offset,
                tail: iteration,
            },
        ));
        self.pending_pool.extend_from_slice(diff);
        None
    }

    /// `true` when [`TrajectoryMemo::finish`] would file a state for a drive
    /// whose outputs equal golden's from iteration `golden_from` on.
    pub(crate) fn files_from(&self, golden_from: usize) -> bool {
        self.pending
            .last()
            .is_some_and(|(_, key)| key.tail as usize >= golden_from)
    }

    /// Ends the running drive. With its `outputs` and `ending`, files every
    /// state it passed at an iteration from which its outputs equal
    /// `golden`'s; without (the watchdog stopped it), files nothing.
    pub(crate) fn finish(&mut self, ended: Option<(&[u32], &[u32], Ending)>) {
        // The packed offsets must stay in range: past that, the memo is full.
        let room = |n: usize| u32::try_from(n).is_ok();
        let full = !(room(self.values.len() + self.pending_pool.len())
            && room(self.keys.len() + self.pending.len())
            && room(self.tails.len() + 1));
        if let Some((outputs, golden, ending)) = ended.filter(|_| !full) {
            let from = golden_from(outputs, golden);
            let tail = self.tails.len() as u32;
            let mut last: Option<(&[(u32, u32)], u32)> = None;
            for &(fp, key) in &self.pending {
                if (key.tail as usize) < from || self.index.contains_key(&fp) {
                    continue;
                }
                let diff = &self.pending_pool[key.start as usize..][..usize::from(key.len)];
                let start = match last {
                    Some((prev, start)) if prev == diff => start,
                    _ => {
                        let start = self.values.len() as u32;
                        self.positions.extend(diff.iter().map(|&(p, _)| {
                            u16::try_from(p)
                                .expect("positions index `Core` and data words, fewer than 2^16")
                        }));
                        self.values.extend(diff.iter().map(|&(_, v)| v));
                        start
                    }
                };
                last = Some((diff, start));
                self.index.insert(fp, self.keys.len() as u32);
                self.keys.push(Key { start, tail, ..key });
            }
            if last.is_some() {
                self.tails.push(Tail {
                    ending,
                    outputs: outputs.len(),
                });
            }
        }
        self.pending.clear();
        self.pending_pool.clear();
    }
}

/// The first iteration from which `outputs` equals `golden` to its end.
pub(crate) fn golden_from(outputs: &[u32], golden: &[u32]) -> usize {
    outputs
        .iter()
        .zip(golden)
        .rposition(|(o, g)| o != g)
        .map_or(0, |k| k + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{golden_run, LoopConfig};
    use crate::workload::Workload;
    use bera_tcpu::mem::RAM_BASE;

    #[test]
    fn only_tails_whose_outputs_equal_goldens_are_filed() {
        let golden = golden_run(&Workload::algorithm_one(), &LoopConfig::short(40));
        let c = 8;
        let ckpt = &golden.checkpoints[c];
        let k = ckpt.env.iteration();
        let mut faulty = ckpt.machine.clone();
        faulty.begin_dirty_log();
        assert!(faulty.poke_word(RAM_BASE + 0x400, 5));
        let mut memo = TrajectoryMemo::default();
        let diff_of = |m: &bera_tcpu::Machine| {
            let mut diff = Vec::new();
            m.sparse_diff(&ckpt.machine, &[], &mut diff);
            diff
        };
        let diff = diff_of(&faulty);
        let probe = |memo: &mut TrajectoryMemo| memo.probe(&diff, c, k, 0);
        let ended = |outputs: &[u32]| {
            let end = Ending::Completed { latent: true };
            Some((outputs.to_vec(), golden.outputs.clone(), end))
        };
        let finish = |memo: &mut TrajectoryMemo, e: Option<(Vec<u32>, Vec<u32>, Ending)>| {
            memo.finish(e.as_ref().map(|(o, g, e)| (o.as_slice(), g.as_slice(), *e)));
        };

        // The watchdog stopped the run: nothing is filed.
        assert!(probe(&mut memo).is_none());
        finish(&mut memo, None);
        // Its outputs left golden's after the boundary: not filed.
        assert!(probe(&mut memo).is_none());
        let mut outputs = golden.outputs.clone();
        outputs[k + 3] ^= 1;
        finish(&mut memo, ended(&outputs));
        assert!(probe(&mut memo).is_none(), "a deviating tail was filed");
        // They left golden's only before it: filed, and recalled.
        let mut outputs = golden.outputs.clone();
        outputs[k - 1] ^= 1;
        finish(&mut memo, ended(&outputs));
        let tail = probe(&mut memo).expect("the state was filed");
        assert!(matches!(tail.ending, Ending::Completed { latent: true }));
        assert_eq!(tail.outputs, golden.outputs.len());
        finish(&mut memo, None);

        // The key is exact: another checkpoint or diff misses.
        assert!(memo.probe(&diff, c + 1, k, 0).is_none());
        assert!(memo.probe(&diff, c, k, 1).is_none());
        let mut other = faulty.clone();
        other.begin_dirty_log();
        assert!(other.poke_word(RAM_BASE + 0x400, 6));
        assert!(memo.probe(&diff_of(&other), c, k, 0).is_none());
    }
}
