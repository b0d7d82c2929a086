//! The golden trace's derived units against the interpreter.
//!
//! The access trace records no events for the PC and the two fetch-latch
//! words: it derives them from one refetch bit per instant
//! (`bera_tcpu::access`). Here each golden run is re-executed one scalar
//! `step()` at a time on golden's inputs, and the three units' event
//! lists are rebuilt from what the machine shows around each step: the
//! fetch-valid bit before it (the instruction refilled the latch) and
//! after it (it prefetched rather than transferred control), checked
//! against the PC's advance. `accesses()` must equal the rebuilt lists,
//! and `first_at_or_after()` must agree with them at every instant.
//!
//! Each golden's count of recorded entries is pinned too, so a unit that
//! starts recording again fails here by name.

use bera_goofi::experiment::{golden_run, set_ports, LoopConfig};
use bera_goofi::workload::Workload;
use bera_tcpu::access::{Access, AccessKind, TraceUnit};
use bera_tcpu::machine::{Machine, StepEvent};
use bera_tcpu::scan::BitLocation;
use bera_tcpu::vis::VisUnit;

const DERIVED: [VisUnit; 3] = [VisUnit::Pc, VisUnit::FetchWord, VisUnit::FetchPc];

/// The three units' events, in `DERIVED` order, rebuilt by stepping
/// golden's run on an untraced copy of its first checkpoint.
fn rebuilt(workload: &Workload, cfg: &LoopConfig) -> (Vec<Vec<Access>>, u64) {
    use AccessKind::{Read, Write};
    let golden = golden_run(workload, cfg);
    let mut m: Machine = golden.checkpoints[0].machine.clone();
    assert_eq!(m.instr_count(), 0);
    let mut k = golden.checkpoints[0].env.iteration();
    let valid_pos = m.flip_diff(&[BitLocation::FetchValid])[0].0;
    let valid = |m: &Machine| m.word(valid_pos) != 0;
    let mut lists = vec![Vec::new(); DERIVED.len()];
    let mut push = |at: u64, kinds: [&[AccessKind]; 3]| {
        for (list, kinds) in lists.iter_mut().zip(kinds) {
            list.extend(kinds.iter().map(|&kind| Access { at, kind }));
        }
    };
    // A refill reads the PC, writes both latch words, then writes the PC.
    let refill: [&[AccessKind]; 3] = [&[Read, Write], &[Write], &[Write]];
    while m.instr_count() < golden.total_instructions {
        let at = m.instr_count();
        let (refetch, pc) = (!valid(&m), m.pc());
        let event = m.step().expect("golden never traps");
        if refetch {
            push(at, refill);
        }
        push(at, [&[], &[Read], &[Read]]);
        if valid(&m) {
            // A prefetch from the word after the executed one.
            let executed = if refetch { pc } else { pc - 4 };
            assert_eq!(m.pc(), executed + 8, "a prefetch at {at}");
            push(at, refill);
        } else {
            push(at, [&[Write], &[], &[]]);
        }
        if event == StepEvent::Yield {
            k += 1;
            if k < cfg.iterations {
                set_ports(&mut m, cfg, k, golden.speeds[k]);
            }
        }
    }
    assert_eq!(m.state_digest(), golden.end_machine.state_digest());

    let n = golden.total_instructions;
    for (vis, list) in DERIVED.iter().zip(&lists) {
        let unit = TraceUnit::Vis(*vis);
        assert!(unit.is_derived());
        assert!(
            golden.trace.accesses(unit) == *list,
            "{vis:?}: the derived events differ from the interpreter's"
        );
        for t in 0..=n + 1 {
            let expect = list.get(list.partition_point(|a| a.at < t)).copied();
            assert_eq!(
                golden.trace.first_at_or_after(unit, t),
                expect,
                "{vis:?} at or after {t}"
            );
        }
    }
    (lists, golden.trace.recorded_entries() as u64)
}

#[test]
fn derived_units_match_the_interpreter_and_the_trace_stays_small() {
    let cfg = LoopConfig::paper();
    for (workload, entries) in [
        (Workload::algorithm_one(), 773_741),
        (Workload::algorithm_two(), 861_927),
        (Workload::algorithm_three(), 882_077),
    ] {
        let (lists, recorded) = rebuilt(&workload, &cfg);
        assert!(lists.iter().all(|l| !l.is_empty()));
        assert_eq!(
            recorded,
            entries,
            "{}: recorded trace entries",
            workload.name()
        );
    }
}
