//! Diff replay (DESIGN.md §8l) against the interpreter.
//!
//! * **Lockstep.** A golden and a faulty machine single-step side by side
//!   from injection while replay carries the same fault as golden plus a
//!   diff: after every replay event and at every golden checkpoint the
//!   replayed diff must equal the pair's sparse diff, and replay must
//!   never process an instruction at or after the pair's first PC, output
//!   or trap divergence.
//!   Where the steady-delta rule lets a campaign's replay jump to golden's
//!   last checkpoint, the lockstep replay jumps too, and the jumped diff
//!   must equal the pair's there.
//! * **Fallbacks.** One adversarial fault per fallback reason: the reason
//!   must fire, and the campaign record must equal the reference
//!   configuration's (no checkpoints, no pruning, interpreter only).

use bera_goofi::campaign::{run_fault_list, run_fault_list_observed, CampaignConfig, FaultList};
use bera_goofi::experiment::{golden_run, set_ports, FaultModel, FaultSpec, GoldenRun, LoopConfig};
use bera_goofi::observer::CampaignObserver;
use bera_goofi::planner::records_equivalent;
use bera_goofi::steady::Steady;
use bera_goofi::workload::Workload;
use bera_tcpu::access::{AccessKind, TraceUnit, STEP_FILL, STEP_WRITEBACK};
use bera_tcpu::diff::{DiffReplay, FallbackReason, ReplayScratch, LATCHES};
use bera_tcpu::isa::{self, Decoded, Opcode};
use bera_tcpu::machine::{Machine, StepEvent, PORT_U};
use bera_tcpu::mem::ROM_BASE;
use bera_tcpu::scan::{self, BitLocation};
use bera_tcpu::vis::VisUnit;
use std::sync::{Mutex, OnceLock};

fn golden_for(workload: &Workload, cfg: &LoopConfig) -> &'static GoldenRun {
    static ALG1: OnceLock<GoldenRun> = OnceLock::new();
    static ALG2: OnceLock<GoldenRun> = OnceLock::new();
    static ALG1_REF: OnceLock<GoldenRun> = OnceLock::new();
    static ALG2_REF: OnceLock<GoldenRun> = OnceLock::new();
    let cell = match (workload.name().contains("II"), cfg.checkpoint_stride) {
        (false, 0) => &ALG1_REF,
        (true, 0) => &ALG2_REF,
        (false, _) => &ALG1,
        (true, _) => &ALG2,
    };
    cell.get_or_init(|| golden_run(workload, cfg))
}

/// A golden and a faulty machine stepped in lockstep on golden's inputs.
struct Pair<'g> {
    cfg: LoopConfig,
    golden: &'g GoldenRun,
    g: Machine,
    f: Machine,
    k: usize,
}

impl Pair<'_> {
    /// Steps both machines to boundary `to`, panicking at the first
    /// divergence of PC, trap or output: replay already processed these
    /// instructions, so it had to fall back before any of them.
    fn run_to(&mut self, to: u64) {
        while self.g.instr_count() < to {
            let at = self.g.instr_count();
            let event = self.g.step().expect("golden never traps");
            let faulty = self.f.step();
            assert!(faulty.is_ok(), "replay passed the trap at {at}: {faulty:?}");
            assert_eq!(
                self.f.pc(),
                self.g.pc(),
                "replay passed the PC divergence at {at}"
            );
            if event == StepEvent::Yield {
                assert_eq!(
                    self.f.port_out(PORT_U),
                    self.g.port_out(PORT_U),
                    "replay passed the output divergence at {at}"
                );
                self.k += 1;
                if self.k < self.cfg.iterations {
                    for m in [&mut self.g, &mut self.f] {
                        set_ports(m, &self.cfg, self.k, self.golden.speeds[self.k]);
                    }
                }
            }
        }
    }

    fn diff(&self) -> Vec<(u32, u32)> {
        let mut diff = Vec::new();
        let golden_writes = self.g.dirty_words().expect("logged");
        self.f.sparse_diff(&self.g, golden_writes, &mut diff);
        diff
    }
}

/// A boundary replay advanced to: the diff there and the events
/// processed by then.
#[derive(Debug)]
struct Boundary {
    at: u64,
    diff: Vec<(u32, u32)>,
    events: u64,
}

/// What a lockstep replay saw.
#[derive(Debug, Default)]
struct Trail {
    /// The diff the fault leaves at injection.
    initial: Vec<(u32, u32)>,
    /// How replay ended: `completed`, or the fallback's label.
    ending: String,
    /// Events processed.
    events: u64,
    /// The first few events: each one's instant and the diff after it.
    first_events: Vec<(u64, Vec<(u32, u32)>)>,
    /// Every boundary replay advanced to.
    boundaries: Vec<Boundary>,
    /// The fallback's instant, with the diff there and the events by then.
    fallback: Option<Boundary>,
    /// The checkpoints replay jumped from to golden's last one.
    jumps: Vec<u64>,
    /// The most entries the diff held after any event or at any boundary.
    widest: usize,
}

impl Trail {
    fn at_boundary(&self, n: u64) -> &Boundary {
        let b = self.boundaries.iter().find(|b| b.at == n);
        b.unwrap_or_else(|| panic!("replay never stopped at boundary {n}: {self:?}"))
    }
}

/// Replays a fault alongside a lockstep pair, from boundary `inject_at`,
/// where `corrupt` turns the faulty machine's copy of golden's state into
/// the fault's, to the end of the run or the first fallback. Replay stops
/// at every golden checkpoint after injection and at every boundary of
/// `extra`; the diff must equal the pair's there and after every event.
/// A second replay of the same diff then stops only where a campaign's
/// does (see [`quietly`]).
fn lockstep_with(
    golden: &GoldenRun,
    cfg: &LoopConfig,
    inject_at: u64,
    corrupt: impl FnOnce(&mut Machine),
    extra: &[u64],
) -> Trail {
    let c = golden
        .checkpoint_index_before(inject_at)
        .expect("checkpoint 0");
    let g = golden.checkpoints[c].machine.clone();
    let mut pair = Pair {
        cfg: cfg.clone(),
        golden,
        f: g.clone(),
        g,
        k: golden.checkpoints[c].env.iteration(),
    };
    // Golden's prefix on both; then corrupt the faulty one.
    pair.run_to(inject_at);
    pair.g.begin_dirty_log();
    pair.f.begin_dirty_log();
    corrupt(&mut pair.f);
    let mut trail = Trail {
        initial: pair.diff(),
        ..Trail::default()
    };
    let mut stops: Vec<u64> = golden
        .checkpoints
        .iter()
        .map(|c| c.machine.instr_count())
        .chain(extra.iter().copied())
        .chain([golden.total_instructions])
        .filter(|&n| n > inject_at)
        .collect();
    stops.sort_unstable();
    stops.dedup();
    let mut scratch = ReplayScratch::default();
    // Each segment replays from `from`: injection, or a steady-delta jump.
    let (mut from, mut carried, mut before) = (inject_at, trail.initial.clone(), 0);
    'segments: loop {
        let mut r = DiffReplay::new(
            &golden.trace,
            &golden.end_machine,
            &mut scratch,
            from,
            carried,
        );
        let mut steady = Steady::new(golden);
        for &until in stops.iter().filter(|&&n| n > from) {
            loop {
                match r.step(until) {
                    Ok(Some(t)) => {
                        pair.run_to(t + 1);
                        let diff = r.diff().to_vec();
                        assert_eq!(diff, pair.diff(), "diff after the event at {t}");
                        trail.widest = trail.widest.max(diff.len());
                        if trail.first_events.len() < 8 {
                            trail.first_events.push((t, diff));
                        }
                    }
                    Ok(None) => {
                        pair.run_to(until);
                        let (diff, jump) = match checkpoint_at(golden, until) {
                            Some(c) => steady.at_checkpoint(c, &mut r),
                            None => (r.diff(), None),
                        };
                        let diff = diff.to_vec();
                        assert_eq!(diff, pair.diff(), "diff at boundary {until}");
                        trail.widest = trail.widest.max(diff.len());
                        trail.boundaries.push(Boundary {
                            at: until,
                            diff,
                            events: before + r.events(),
                        });
                        if let Some(jumped) = jump {
                            let last = last_checkpoint(golden);
                            pair.run_to(last);
                            assert_eq!(jumped, pair.diff(), "the jump from {until}");
                            trail.jumps.push(until);
                            before += r.events();
                            (from, carried) = (last, jumped);
                            continue 'segments;
                        }
                        break;
                    }
                    Err(fallback) => {
                        pair.run_to(fallback.at);
                        let diff = r.diff().to_vec();
                        assert_eq!(diff, pair.diff(), "diff at the fallback");
                        trail.ending = fallback.reason.label().to_string();
                        trail.fallback = Some(Boundary {
                            at: fallback.at,
                            diff,
                            events: before + r.events(),
                        });
                        break 'segments;
                    }
                }
            }
        }
        trail.ending = "completed".to_string();
        trail.events = before + r.events();
        break;
    }
    if let Some(b) = &trail.fallback {
        trail.events = b.events;
    }
    quietly(golden, inject_at, &trail);
    trail
}

/// Replays `trail`'s fault again from `inject_at`, reading the diff only at
/// golden's checkpoints, the run's end and the fallback, as a campaign
/// does: nothing in between ends a pending xor chain. Each of those reads
/// must see what the lockstep replay saw there, after as many events, and
/// the steady-delta jumps must be the same.
fn quietly(golden: &GoldenRun, inject_at: u64, trail: &Trail) {
    let mut scratch = ReplayScratch::default();
    let (mut from, mut diff, mut before) = (inject_at, trail.initial.clone(), 0);
    let mut jumps = Vec::new();
    let checkpoint = |n: u64| n == golden.total_instructions || checkpoint_at(golden, n).is_some();
    loop {
        let mut r = DiffReplay::new(&golden.trace, &golden.end_machine, &mut scratch, from, diff);
        let mut steady = Steady::new(golden);
        let mut jumped = None;
        for b in trail
            .boundaries
            .iter()
            .filter(|b| b.at > from && checkpoint(b.at))
        {
            r.advance(b.at).expect("the lockstep replay got past it");
            let (diff, jump) = match checkpoint_at(golden, b.at) {
                Some(c) => steady.at_checkpoint(c, &mut r),
                None => (r.diff(), None),
            };
            assert_eq!(diff, b.diff, "quiet diff at boundary {}", b.at);
            assert_eq!(
                before + r.events(),
                b.events,
                "quiet events by boundary {}",
                b.at
            );
            if let Some(j) = jump {
                jumps.push(b.at);
                jumped = Some(j);
                break;
            }
        }
        if let Some(j) = jumped {
            (from, diff, before) = (last_checkpoint(golden), j, before + r.events());
            continue;
        }
        if let Some(b) = &trail.fallback {
            let fallback = r
                .advance(u64::MAX)
                .expect_err("the lockstep replay fell back");
            assert_eq!(fallback.at, b.at, "quiet fallback");
            assert_eq!(r.diff(), b.diff, "quiet diff at the fallback");
            assert_eq!(
                before + r.events(),
                b.events,
                "quiet events by the fallback"
            );
        }
        break;
    }
    assert_eq!(jumps, trail.jumps, "quiet jumps");
}

/// The index of the golden checkpoint at instant `n`, if any.
fn checkpoint_at(golden: &GoldenRun, n: u64) -> Option<usize> {
    golden
        .checkpoints
        .iter()
        .position(|c| c.machine.instr_count() == n)
}

/// The instant of golden's last checkpoint, where a steady-delta jump goes.
fn last_checkpoint(golden: &GoldenRun) -> u64 {
    let last = golden.checkpoints.last().expect("golden checkpoints");
    last.machine.instr_count()
}

/// Replays `fault` alongside a lockstep pair.
fn lockstep(golden: &GoldenRun, cfg: &LoopConfig, model: FaultModel, fault: FaultSpec) -> Trail {
    let locations: Vec<BitLocation> = model
        .locations(fault.location_index)
        .into_iter()
        .map(|i| scan::catalog()[i])
        .collect();
    let mut flipped = Vec::new();
    let corrupt = |m: &mut Machine| {
        flipped = m.flip_diff(&locations);
        locations.iter().for_each(|&loc| m.scan_flip(loc));
    };
    let trail = lockstep_with(golden, cfg, fault.inject_at, corrupt, &[]);
    assert_eq!(trail.initial, flipped, "replay starts from flip_diff");
    trail
}

fn lockstep_campaign(workload: &Workload, model: FaultModel, seed: u64, faults: usize) {
    let cfg = LoopConfig::paper();
    let golden = golden_for(workload, &cfg);
    let mut endings = Vec::new();
    for fault in FaultList::sample(faults, seed, golden.total_instructions).faults {
        let trail = lockstep(golden, &cfg, model, fault);
        endings.push((trail.ending, trail.events));
    }
    assert!(
        endings.iter().any(|(e, n)| e == "completed" && *n > 0),
        "some fault must replay to the end through events: {endings:?}"
    );
}

#[test]
fn replay_follows_lockstep_single_bit_faults() {
    lockstep_campaign(&Workload::algorithm_one(), FaultModel::SingleBit, 3, 12);
    lockstep_campaign(&Workload::algorithm_two(), FaultModel::SingleBit, 4, 12);
}

#[test]
fn replay_follows_lockstep_double_bit_faults() {
    let double = FaultModel::AdjacentDoubleBit;
    lockstep_campaign(&Workload::algorithm_one(), double, 5, 12);
    lockstep_campaign(&Workload::algorithm_two(), double, 6, 12);
}

#[test]
fn replay_follows_lockstep_burst_faults() {
    let burst = FaultModel::Burst { width: 3 };
    lockstep_campaign(&Workload::algorithm_one(), burst, 7, 12);
    lockstep_campaign(&Workload::algorithm_two(), burst, 8, 12);
}

/// The lockstep check at campaign scale: 400 sampled faults per model and
/// workload over the paper's 650 iterations. Run in release:
/// `cargo test --release --test replay_equivalence -- --ignored`.
#[test]
#[ignore = "campaign-scale sweep; run in release with --ignored"]
fn replay_follows_lockstep_over_400_faults_per_model() {
    let models = [
        FaultModel::SingleBit,
        FaultModel::AdjacentDoubleBit,
        FaultModel::Burst { width: 3 },
    ];
    let workloads = [Workload::algorithm_one(), Workload::algorithm_two()];
    for (w, workload) in workloads.iter().enumerate() {
        for (m, &model) in models.iter().enumerate() {
            lockstep_campaign(workload, model, 100 + 10 * w as u64 + m as u64, 400);
        }
    }
}

/// `true` when golden's instruction `t` fully writes `unit` and reads none
/// of it.
fn write_only(golden: &GoldenRun, unit: TraceUnit, t: u64) -> bool {
    let list = golden.trace.recorded(unit);
    let from = list.partition_point(|a| a.at() < t);
    let at_t = &list[from..from + list[from..].iter().take_while(|a| a.at() == t).count()];
    !at_t.is_empty() && at_t.iter().all(|a| a.kind() == AccessKind::Write)
}

fn positions(diff: &[(u32, u32)]) -> Vec<u32> {
    diff.iter().map(|&(p, _)| p).collect()
}

/// The instruction golden executed at instant `t`.
fn decoded_at(golden: &GoldenRun, t: u64) -> Decoded {
    let slot = golden.trace.step(t) & 0xFFFF;
    let word = golden.end_machine.memory().fetch(ROM_BASE + 4 * slot);
    isa::decode(word.expect("a ROM word")).expect("golden executed it")
}

#[test]
fn a_dead_write_stays_to_its_boundary_and_goes_one_instruction_later() {
    // Golden's checkpoints fall between the `yield` that ends an iteration
    // and a `jmp`, neither of which writes a unit replay carries; the
    // next instruction loads a register without reading it. A flip there
    // stays in the diff at the checkpoint and at the boundary right before
    // the write, leaves it at the boundary after, and costs no event.
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let b = golden.checkpoints[1].machine.instr_count();
    assert_eq!(decoded_at(golden, b - 1).op, Opcode::Yield);
    assert_eq!(decoded_at(golden, b).op, Opcode::Jmp);
    let w = b + 1;
    let r = (1..16)
        .find(|&r| write_only(golden, TraceUnit::Reg(r), w))
        .expect("the iteration opens by loading a register");
    let flip = |m: &mut Machine| m.scan_flip(BitLocation::Reg { index: r, bit: 3 });
    let trail = lockstep_with(golden, &cfg, b - 1, flip, &[w, w + 1]);
    assert_eq!(positions(&trail.initial), [u32::from(r)]);
    assert_eq!(
        trail.at_boundary(b).diff,
        trail.initial,
        "alive at the checkpoint"
    );
    assert_eq!(
        trail.at_boundary(w).diff,
        trail.initial,
        "alive up to its death"
    );
    assert_eq!(trail.at_boundary(w + 1).diff, [], "gone after it");
    assert_eq!(
        trail.at_boundary(w + 1).events,
        0,
        "a death is not an event"
    );
}

#[test]
fn a_dead_store_buffer_word_is_gone_one_instruction_after_the_store() {
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let sbuf = TraceUnit::Vis(VisUnit::Sbuf);
    let w = (golden.total_instructions / 3..golden.total_instructions)
        .find(|&w| write_only(golden, sbuf, w))
        .expect("golden stores");
    let flip = |m: &mut Machine| m.scan_flip(BitLocation::StoreBufData { bit: 9 });
    let trail = lockstep_with(golden, &cfg, w, flip, &[w + 1]);
    assert_eq!(trail.at_boundary(w + 1).diff, [], "dead at {w}");
    assert_eq!(
        trail.at_boundary(w + 1).events,
        0,
        "a death is not an event"
    );
}

#[test]
fn a_register_read_by_the_instruction_that_overwrites_it_is_an_event() {
    // `addi r, r, imm` reads r and then writes it: the write does not kill
    // the flip, the read carries it into the result.
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let (t, d) = find(golden, golden.total_instructions / 3, |d, _| {
        d.op == Opcode::Addi && d.rd == d.ra && d.ra != 0
    });
    let flip = |m: &mut Machine| {
        m.scan_flip(BitLocation::Reg {
            index: d.ra,
            bit: 2,
        })
    };
    let trail = lockstep_with(golden, &cfg, t, flip, &[]);
    let (at, after) = &trail.first_events[0];
    assert_eq!(*at, t, "the overwriting read is an event");
    assert!(
        positions(after).contains(&u32::from(d.ra)),
        "the sum differs"
    );
}

#[test]
fn a_compare_keeps_differing_upper_psr_bits() {
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let (t, _) = find(golden, golden.total_instructions / 3, |d, _| {
        d.op == Opcode::Cmp
    });
    // A flipped flag dies at the compare, which deposits golden's flags.
    let flag = |m: &mut Machine| m.scan_flip(BitLocation::Psr { bit: 0 });
    let trail = lockstep_with(golden, &cfg, t, flag, &[t + 1]);
    assert_eq!(trail.at_boundary(t + 1).diff, []);
    assert_eq!(trail.at_boundary(t + 1).events, 0);
    // A flipped upper bit outlives it: the compare is an event.
    let upper = |m: &mut Machine| m.scan_flip(BitLocation::Psr { bit: 5 });
    let trail = lockstep_with(golden, &cfg, t, upper, &[t + 1]);
    assert_eq!(trail.first_events[0].0, t, "the compare is an event");
    let psr = positions(&trail.initial);
    assert_eq!(positions(&trail.first_events[0].1), psr);
    assert_eq!(positions(&trail.at_boundary(t + 1).diff), psr);
}

#[test]
fn a_fill_and_a_write_back_move_a_diffed_line_in_one_event() {
    // A load or store that misses on a dirty line: the victim's words go
    // to memory and the missing line's words come in, in one event.
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let both = STEP_FILL | STEP_WRITEBACK;
    let t = (golden.total_instructions / 3..golden.total_instructions)
        .find(|&t| golden.trace.step(t) & both == both)
        .expect("golden writes dirty lines back");
    let d = decoded_at(golden, t);
    let base = golden.trace.shifts()[golden.trace.first_shift(t)].value();
    let addr = base.wrapping_add(d.imm16 as u32);
    let line = bera_tcpu::cache::index_of(addr) as u8;
    let accessed = bera_tcpu::cache::word_of(addr) as u32;
    let (victim_word, filled_word) = ((accessed + 2) % 4, (accessed + 1) % 4);
    let corrupt = |m: &mut Machine| {
        m.scan_flip(BitLocation::CacheData {
            line,
            bit: (32 * victim_word + 3) as u8,
        });
        let filled = (addr & !0xF) + 4 * filled_word;
        let (v, _) = m.memory().read_word(filled).expect("a data word");
        assert!(m.poke_word(filled, v ^ 0x10));
    };
    let trail = lockstep_with(golden, &cfg, t, corrupt, &[]);
    // The cache word sorts first: `Core` positions precede memory's.
    let [cached, memory] = trail.initial[..] else {
        panic!("two corrupted words: {:?}", trail.initial);
    };
    let (at, after) = &trail.first_events[0];
    assert_eq!(*at, t, "one event moves both words");
    // The victim's word went to memory, the missing line's came in; the
    // memory word it came from still differs.
    assert!(!positions(after).contains(&cached.0), "{after:?}");
    assert!(after.contains(&memory), "{after:?}");
    let values: Vec<u32> = after.iter().map(|&(_, v)| v).collect();
    assert!(values.contains(&cached.1) && values.contains(&memory.1));
    assert!(after.len() >= 3, "{after:?}");
}

#[test]
fn a_diff_wider_than_any_inline_array_replays() {
    // A flip in every data word of every cache line.
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let every_word = |m: &mut Machine| {
        for line in 0..bera_tcpu::cache::NUM_LINES as u8 {
            for w in 0..4 {
                m.scan_flip(BitLocation::CacheData {
                    line,
                    bit: 32 * w + 5,
                });
            }
        }
    };
    let at = golden.total_instructions / 2;
    let trail = lockstep_with(golden, &cfg, at, every_word, &[]);
    assert_eq!(trail.initial.len(), 32);
    assert!(trail.widest > 16 && trail.events > 0, "{trail:?}");
}

/// `Core` positions of the operand latch's `a` slot and of the result
/// latch's value, in a sparse diff.
const IDEX_A: u32 = 28;
const EXWB_VALUE: u32 = 30;

/// Golden's first scrub pass (the housekeeping checksum over the ring
/// buffer) that starts at or after instant `from`: the instants of its
/// `xor r10, r10, r11`s, each right after the `ld r11` of its ring word,
/// and the pass's `st r10` four instructions after the last.
fn scrub_pass(golden: &GoldenRun, from: u64) -> Vec<u64> {
    let is_xor = |t: u64| {
        let d = decoded_at(golden, t);
        d.op == Opcode::Xor && (d.rd, d.ra, d.rb) == (10, 10, 11)
    };
    let first = (from.max(5)..golden.total_instructions)
        .find(|&t| is_xor(t) && !is_xor(t - 5))
        .expect("golden scrubs");
    let pass: Vec<u64> = (first..).step_by(5).take_while(|&t| is_xor(t)).collect();
    assert_eq!(decoded_at(golden, first - 1).op, Opcode::Ld);
    assert_eq!(decoded_at(golden, pass[pass.len() - 1] + 4).op, Opcode::St);
    pass
}

/// The address golden's load or store at instant `t` accesses.
fn address_at(golden: &GoldenRun, t: u64) -> u32 {
    let base = golden.trace.shifts()[golden.trace.first_shift(t)].value();
    base.wrapping_add(decoded_at(golden, t).imm16 as u32)
}

/// Corrupts the ring word golden's `ld` at instant `t` reads, in memory
/// and, where the load hits, in the cache, so that it stays corrupted
/// across evictions.
fn corrupt_ring_word(golden: &GoldenRun, t: u64, bit: u8) -> impl Fn(&mut Machine) {
    let addr = address_at(golden, t);
    let hit = golden.trace.step(t) & STEP_FILL == 0;
    move |m: &mut Machine| {
        if hit {
            m.scan_flip(BitLocation::CacheData {
                line: bera_tcpu::cache::index_of(addr) as u8,
                bit: 32 * bera_tcpu::cache::word_of(addr) as u8 + bit,
            });
        }
        let (v, _) = m.memory().read_word(addr).expect("a data word");
        assert!(m.poke_word(addr, v ^ 1 << bit));
    }
}

#[test]
fn a_scrubbed_ring_word_rides_the_xor_chain_through_two_passes() {
    // The flipped word is the pass's first: its `ld` and `xor` are
    // events, the other 27 xors leave r10's delta alone and are skipped,
    // and the `st` of the checksum is the third event. Every boundary of
    // the pass checks the diff mid-chain, both latches included.
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let pass = scrub_pass(golden, golden.total_instructions / 3);
    let end = pass[pass.len() - 1] + 5;
    let next = scrub_pass(golden, end);
    let (next_start, next_end) = (next[0] - 1, next[next.len() - 1] + 5);
    let start = pass[0] - 1;
    let mut extra: Vec<u64> = (start + 1..=end).collect();
    extra.extend([next_start, next_end]);
    let trail = lockstep_with(
        golden,
        &cfg,
        start,
        corrupt_ring_word(golden, start, 7),
        &extra,
    );
    let skipped = pass[pass.len() / 2];
    let mid = positions(&trail.at_boundary(skipped + 1).diff);
    for pos in [10, IDEX_A, EXWB_VALUE] {
        assert!(
            mid.contains(&pos),
            "after the skipped xor at {skipped}: {mid:?}"
        );
    }
    assert_eq!(trail.at_boundary(end).events, 3, "ld, first xor, st");
    // The next pass reads the word again. Its only xor event is the
    // first; a fill there also writes back the checksum word the last
    // pass stored.
    let again: Vec<(u64, Opcode)> = trail
        .first_events
        .iter()
        .map(|&(t, _)| (t, decoded_at(golden, t).op))
        .filter(|&(t, _)| (next_start..next_end).contains(&t))
        .collect();
    let xors: Vec<u64> = again
        .iter()
        .filter(|&&(_, op)| op == Opcode::Xor)
        .map(|&(t, _)| t)
        .collect();
    assert_eq!(xors, [next[0]], "{again:?}");
    assert_eq!(again.len() as u64, {
        trail.at_boundary(next_end).events - trail.at_boundary(next_start).events
    });
    assert!(positions(&trail.at_boundary(next_end).diff).contains(&10));
}

#[test]
fn a_second_scrubbed_word_ends_the_chain_its_guard_reads() {
    // Two words of one pass: loading the second turns the chain's guard
    // r11 diffed while r10's chain is pending, so the xor that reads it
    // is an event, and a new chain starts after it.
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let pass = scrub_pass(golden, golden.total_instructions / 2);
    let (start, second) = (pass[0] - 1, pass[9] - 1);
    let end = pass[pass.len() - 1] + 5;
    let (first_word, second_word) = (
        corrupt_ring_word(golden, start, 3),
        corrupt_ring_word(golden, second, 12),
    );
    let corrupt = |m: &mut Machine| {
        first_word(m);
        second_word(m);
    };
    let extra: Vec<u64> = (start + 1..=end).collect();
    let trail = lockstep_with(golden, &cfg, start, corrupt, &extra);
    let events: Vec<u64> = trail.first_events.iter().map(|&(t, _)| t).collect();
    assert_eq!(
        events[..5],
        [start, pass[0], second, pass[9], end - 1],
        "ld, xor, ld, xor, st"
    );
    assert_eq!(trail.at_boundary(end).events, 5);
}

#[test]
fn a_fallback_inside_a_chain_sees_the_chained_register() {
    // A flipped tag of a later scrubbed line stops replay at that line's
    // `ld`, with r10's chain pending: the diff there is the faulty state.
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let pass = scrub_pass(golden, 2 * golden.total_instructions / 3);
    let (start, at) = (pass[0] - 1, pass[8] - 1);
    let line = bera_tcpu::cache::index_of(address_at(golden, at)) as u8;
    assert_ne!(
        usize::from(line),
        bera_tcpu::cache::index_of(address_at(golden, start))
    );
    let word = corrupt_ring_word(golden, start, 20);
    let corrupt = |m: &mut Machine| {
        word(m);
        m.scan_flip(BitLocation::CacheTag { line, bit: 2 });
    };
    let extra: Vec<u64> = (start + 1..=at).collect();
    let trail = lockstep_with(golden, &cfg, start, corrupt, &extra);
    assert_eq!(trail.ending, "cache-control");
    assert_eq!(trail.boundaries.last().map(|b| b.at), Some(at));
    assert!(positions(&trail.at_boundary(at).diff).contains(&10));
    assert_eq!(trail.events, 3, "ld, xor, and the fallback's");
}

/// An xor chain whose register is overwritten right after it, with no
/// store in between.
const CHAIN_THEN_OVERWRITE: &str = "
    .data 0x10000
    ring: .word 3, 5, 6, 9
    .text
start:
    nop
loop:
    li   r8, 0x10000
    ld   r11, [r8+0]
    xor  r10, r10, r11
    ld   r11, [r8+4]
    xor  r10, r10, r11
    ld   r11, [r8+8]
    xor  r10, r10, r11
    ld   r11, [r8+12]
    xor  r10, r10, r11
    li   r10, 0
    li   r2, 0
    out  r2, 2
    yield
    jmp  loop
";

#[test]
fn a_chain_that_ends_in_a_death_leaves_its_last_read_in_the_latch() {
    // A flipped r10 rides the four xors and dies at the `lui` that opens
    // `li r10, 0`, all without an event. One instruction after the death
    // the operand latch still holds the last xor's faulty read of r10:
    // the chain is ended there before the entry leaves the diff.
    let workload = Workload::from_source("xor chain", CHAIN_THEN_OVERWRITE).expect("assembles");
    let cfg = LoopConfig::paper();
    let golden = golden_run(&workload, &cfg);
    let (first, _) = find(&golden, golden.total_instructions / 2, |d, _| {
        d.op == Opcode::Ori && d.rd == 8
    });
    let xors = [first + 2, first + 4, first + 6, first + 8];
    for t in xors {
        assert_eq!(decoded_at(&golden, t).op, Opcode::Xor);
    }
    let death = first + 9;
    assert_eq!(decoded_at(&golden, death).op, Opcode::Lui);
    let flip = |m: &mut Machine| m.scan_flip(BitLocation::Reg { index: 10, bit: 6 });
    let trail = lockstep_with(&golden, &cfg, xors[0], flip, &[death + 1]);
    let after = trail.at_boundary(death + 1);
    assert_eq!(positions(&after.diff), [IDEX_A], "{after:?}");
    assert_eq!(after.events, 0, "a chain and a death are no events");
}

/// Fault `index` of the paper's Algorithm I campaign (9290 single-bit
/// faults at seed 20010701), checked against its pinned location and
/// instant.
fn paper_fault(index: usize, location_index: usize, inject_at: u64) -> FaultSpec {
    let golden = golden_paper();
    let list = FaultList::sample(9290, 20_010_701, golden.total_instructions);
    let pinned = FaultSpec {
        location_index,
        inject_at,
    };
    assert_eq!(list.faults[index], pinned, "paper fault {index}");
    pinned
}

/// The delta list (faulty ⊕ golden, word by word, latches left out) at
/// every golden checkpoint `trail` stopped at, by checkpoint index.
fn checkpoint_deltas(golden: &GoldenRun, trail: &Trail) -> Vec<(usize, Vec<(u32, u32)>)> {
    let deltas = |b: &Boundary| {
        let c = checkpoint_at(golden, b.at)?;
        let m = &golden.checkpoints[c].machine;
        let d = b.diff.iter().filter(|(p, _)| !LATCHES.contains(p));
        Some((c, d.map(|&(p, v)| (p, v ^ m.word(p))).collect()))
    };
    trail.boundaries.iter().filter_map(deltas).collect()
}

/// The checkpoint replay jumped from, and the one the delta list it
/// jumped with first held at: the streak's start.
fn jump_and_streak(golden: &GoldenRun, trail: &Trail) -> (usize, usize) {
    let [from] = trail.jumps[..] else {
        panic!("one jump: {:?}", trail.jumps)
    };
    let c = checkpoint_at(golden, from).expect("jumps leave from checkpoints");
    let deltas = checkpoint_deltas(golden, trail);
    let held = |k: usize| deltas.iter().find(|(j, _)| *j == k).map(|(_, d)| d);
    let mut s = c;
    while s > 0 && held(s - 1).is_some() && held(s - 1) == held(c) {
        s -= 1;
    }
    (c, s)
}

/// Golden's accesses to `unit` in checkpoint interval `j`: offset from the
/// interval's start, kind, and step word.
fn interval_accesses(golden: &GoldenRun, unit: TraceUnit, j: usize) -> Vec<(u64, AccessKind, u32)> {
    let [start, end] = [j, j + 1].map(|k| golden.checkpoints[k].machine.instr_count());
    golden
        .trace
        .recorded(unit)
        .iter()
        .filter(|a| (start..end).contains(&a.at()))
        .map(|a| (a.at() - start, a.kind(), golden.trace.step(a.at())))
        .collect()
}

/// The cache word the scrub's checksum is stored to.
fn checksum_word(golden: &GoldenRun) -> (TraceUnit, u32) {
    let pass = scrub_pass(golden, golden.total_instructions / 2);
    let addr = address_at(golden, pass[pass.len() - 1] + 4);
    let (line, word) = (
        bera_tcpu::cache::index_of(addr),
        bera_tcpu::cache::word_of(addr),
    );
    // Diff positions: 33 `Core` words, then six per cache line (tag,
    // flags, four data words).
    let pos = 33 + 6 * line + 2 + word;
    (TraceUnit::CacheWord { line, word }, pos as u32)
}

#[test]
fn a_scrubbed_ring_word_jumps_to_the_last_checkpoint() {
    // A flipped ring word in the cache: every scrub pass xors its delta
    // into r10 and stores r10 to the checksum, so from pass to pass the
    // delta list holds the ring word, r10 and the checksum. Replay jumps
    // from the checkpoint that proves it steady to golden's last one, where
    // the harness checks the jumped diff against the interpreter pair, and
    // replays only the last iterations.
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let trail = lockstep(
        golden,
        &cfg,
        FaultModel::SingleBit,
        paper_fault(41, 793, 30_090),
    );
    assert_eq!(trail.ending, "completed");
    let (c, _) = jump_and_streak(golden, &trail);
    let at_jump = checkpoint_deltas(golden, &trail)
        .into_iter()
        .find(|(k, _)| *k == c)
        .map(|(_, d)| positions(&d))
        .expect("the jump's checkpoint");
    let ring = trail.initial[0].0;
    let (_, cksum) = checksum_word(golden);
    for pos in [ring, 10, cksum] {
        assert!(at_jump.contains(&pos), "{pos} in {at_jump:?}");
    }
    // Nothing between the jump and golden's last checkpoint was replayed.
    let last = last_checkpoint(golden);
    let after: Vec<u64> = trail
        .boundaries
        .iter()
        .map(|b| b.at)
        .filter(|&n| n > trail.jumps[0])
        .collect();
    assert_eq!(after, [golden.total_instructions], "{c} → {last}");
}

#[test]
fn a_checksum_run_jumps_once_its_streak_covers_both_alternating_classes() {
    // Golden's accesses to the checksum's cache word differ between
    // consecutive checkpoint intervals, so a delta in the checksum is not
    // proved steady by one interval: the next repeats none it verified.
    // Replay jumps only after the streak has verified both.
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let trail = lockstep(
        golden,
        &cfg,
        FaultModel::SingleBit,
        paper_fault(42, 841, 125_690),
    );
    let (c, s) = jump_and_streak(golden, &trail);
    let (unit, cksum) = checksum_word(golden);
    let held = checkpoint_deltas(golden, &trail);
    assert!(held
        .iter()
        .any(|(k, d)| *k == c && positions(d).contains(&cksum)));
    for j in s..c - 1 {
        assert_ne!(
            interval_accesses(golden, unit, j),
            interval_accesses(golden, unit, j + 1),
            "the checksum's intervals {j} and {} alternate",
            j + 1
        );
    }
    assert!(
        c >= s + 2,
        "the streak from {s} covers both classes before {c}"
    );
}

#[test]
fn a_delta_that_changes_later_is_never_jumped_over() {
    // The delta list holds over a checkpoint interval, but a later interval
    // does not repeat it on the units it touched, and there the delta
    // changes, through an event that depends on golden's values. Replay
    // must not jump over the change.
    let golden = golden_paper();
    let cfg = LoopConfig::paper();
    let trail = lockstep(
        golden,
        &cfg,
        FaultModel::SingleBit,
        paper_fault(341, 701, 4_550),
    );
    let held = checkpoint_deltas(golden, &trail);
    let steady = held
        .windows(2)
        .position(|w| !w[0].1.is_empty() && w[0].1 == w[1].1)
        .expect("a steady interval");
    let changed = held[steady..]
        .windows(2)
        .rposition(|w| w[0].1 != w[1].1)
        .map(|i| held[steady + i + 1].0)
        .expect("a later change");
    for &from in &trail.jumps {
        let c = checkpoint_at(golden, from).expect("jumps leave from checkpoints");
        assert!(c >= changed, "jumped from {c} over the change at {changed}");
    }
}

/// A counter incremented by `addi` once per iteration, with the latches
/// refilled from an untouched register before each `yield`.
const COUNTER: &str = "
    .data 0x10000
    counter: .word 0
    .text
start:
    nop
loop:
    li   r1, 0x10000
    ld   r2, [r1+0]
    addi r2, r2, 1
    st   r2, [r1+0]
    li   r2, 0
    li   r3, 0
    out  r3, 2
    yield
    jmp  loop
";

#[test]
fn an_add_that_keeps_the_delta_for_an_interval_starts_no_streak() {
    // Bit 3 of the counter flipped: the faulty counter stays 8 off golden's,
    // so its XOR delta is 8 over some checkpoint intervals and changes over
    // others, as carries reach bit 3. Every interval repeats the one before
    // on the units the delta touches, so only the `addi`, which is not
    // delta-determined, keeps replay from jumping after an interval whose
    // delta held.
    let workload = Workload::from_source("counter", COUNTER).expect("assembles");
    let cfg = LoopConfig::paper();
    let golden = golden_run(&workload, &cfg);
    let (t, _) = find(
        &golden,
        golden.checkpoints[2].machine.instr_count(),
        |d, _| d.op == Opcode::Addi,
    );
    let flip = |m: &mut Machine| m.scan_flip(BitLocation::Reg { index: 2, bit: 3 });
    let trail = lockstep_with(&golden, &cfg, t, flip, &[]);
    assert_eq!(trail.ending, "completed");
    let held = checkpoint_deltas(&golden, &trail);
    assert!(held.windows(2).any(|w| w[0].1 == w[1].1), "a delta held");
    assert!(held.windows(2).any(|w| w[0].1 != w[1].1), "and changed");
    assert_eq!(trail.jumps, [], "no streak");
}

/// Every replay fallback a campaign reports.
#[derive(Default)]
struct Fallbacks(Mutex<Vec<FallbackReason>>);

impl CampaignObserver for Fallbacks {
    fn replay_fell_back(&self, _index: usize, _at: u64, reason: FallbackReason) {
        self.0.lock().unwrap().push(reason);
    }
}

/// The first instruction at or after instant `from` golden executes that
/// satisfies `pick`, with its instant and golden's first register operand.
fn find(golden: &GoldenRun, from: u64, pick: impl Fn(&Decoded, u32) -> bool) -> (u64, Decoded) {
    (from..golden.total_instructions)
        .find_map(|t| {
            let slot = golden.trace.step(t) & 0xFFFF;
            let word = golden.end_machine.memory().fetch(ROM_BASE + 4 * slot)?;
            let d = isa::decode(word)?;
            let operand = golden
                .trace
                .shifts()
                .get(golden.trace.first_shift(t))?
                .value();
            pick(&d, operand).then_some((t, d))
        })
        .expect("the workload executes such an instruction")
}

fn catalog_index(loc: BitLocation) -> usize {
    scan::catalog()
        .iter()
        .position(|&l| l == loc)
        .expect("scannable")
}

/// Runs `fault` through a default campaign and the reference one; asserts
/// that replay fell back first for `reason` and that the records agree.
fn assert_fallback(fault: FaultSpec, reason: FallbackReason) {
    let workload = Workload::algorithm_one();
    let mut cfg = CampaignConfig::paper(1, 0);
    cfg.threads = 1;
    let golden = golden_for(&workload, &cfg.loop_cfg);
    let fallbacks = Fallbacks::default();
    let replayed = run_fault_list_observed(&workload, &cfg, golden, &[fault], &fallbacks);
    let mut reference = cfg.clone();
    reference.prune = false;
    reference.loop_cfg.checkpoint_stride = 0;
    let reference_golden = golden_for(&workload, &reference.loop_cfg);
    let interpreted = run_fault_list(&workload, &reference, reference_golden, &[fault]);
    let seen = fallbacks.0.lock().unwrap().clone();
    assert_eq!(seen.first(), Some(&reason), "{fault:?}: fallbacks {seen:?}");
    assert!(
        records_equivalent(&replayed[0], &interpreted[0]),
        "replayed {:?}\ninterpreted {:?}",
        replayed[0],
        interpreted[0]
    );
}

fn golden_paper() -> &'static GoldenRun {
    golden_for(&Workload::algorithm_one(), &LoopConfig::paper())
}

#[test]
fn a_flipped_load_base_register_falls_back() {
    let golden = golden_paper();
    let (t, d) = find(golden, golden.total_instructions / 3, |d, _| {
        d.op == Opcode::Ld && d.ra != 0
    });
    let location_index = catalog_index(BitLocation::Reg {
        index: d.ra,
        bit: 4,
    });
    assert_fallback(
        FaultSpec {
            location_index,
            inject_at: t,
        },
        FallbackReason::Address,
    );
}

#[test]
fn a_flipped_cache_tag_falls_back() {
    let golden = golden_paper();
    let (t, d) = find(golden, golden.total_instructions / 3, |d, _| {
        d.op == Opcode::Ld
    });
    let base = golden.trace.shifts()[golden.trace.first_shift(t)].value();
    let line = bera_tcpu::cache::index_of(base.wrapping_add(d.imm16 as u32)) as u8;
    let location_index = catalog_index(BitLocation::CacheTag { line, bit: 0 });
    assert_fallback(
        FaultSpec {
            location_index,
            inject_at: t,
        },
        FallbackReason::CacheControl,
    );
}

#[test]
fn a_flag_flip_that_turns_a_branch_falls_back() {
    let golden = golden_paper();
    let (t, d) = find(golden, golden.total_instructions / 3, |d, _| {
        matches!(d.op, Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge)
    });
    let bit = u8::from(matches!(d.op, Opcode::Blt | Opcode::Bge));
    let location_index = catalog_index(BitLocation::Psr { bit });
    assert_fallback(
        FaultSpec {
            location_index,
            inject_at: t,
        },
        FallbackReason::Branch,
    );
}

#[test]
fn a_flipped_signature_register_falls_back() {
    // Flipped just before a signature check samples it.
    let golden = golden_paper();
    let (t, _) = find(golden, golden.total_instructions / 2, |d, _| {
        d.op == Opcode::Sig
    });
    let location_index = catalog_index(BitLocation::SigReg { bit: 5 });
    assert_fallback(
        FaultSpec {
            location_index,
            inject_at: t,
        },
        FallbackReason::ControlState,
    );
}

#[test]
fn an_overflowing_multiply_falls_back() {
    // A small non-negative multiplicand with bit 28 set, times at least 8,
    // no longer fits an i32: the faulty `mul` raises OVERFLOW CHECK.
    let golden = golden_paper();
    let (t, d) = find(golden, golden.total_instructions / 3, |d, a| {
        d.op == Opcode::Mul && a < 1 << 16
    });
    let b = golden.trace.shifts()[golden.trace.first_shift(t) + 1].value();
    assert!((8..1 << 16).contains(&b), "multiplier {b}");
    let location_index = catalog_index(BitLocation::Reg {
        index: d.ra,
        bit: 28,
    });
    assert_fallback(
        FaultSpec {
            location_index,
            inject_at: t,
        },
        FallbackReason::Trap,
    );
}
