//! Diff replay (DESIGN.md §8l) against the interpreter.
//!
//! * **Lockstep.** A golden and a faulty machine single-step side by side
//!   from injection while replay carries the same fault as golden plus a
//!   diff: after every replay event and at every golden checkpoint the
//!   replayed diff must equal the pair's sparse diff, and replay must
//!   never process an instruction at or after the pair's first PC, output
//!   or trap divergence.
//! * **Fallbacks.** One adversarial fault per fallback reason: the reason
//!   must fire, and the campaign record must equal the reference
//!   configuration's (no checkpoints, no pruning, interpreter only).

use bera_goofi::campaign::{run_fault_list, run_fault_list_observed, CampaignConfig, FaultList};
use bera_goofi::experiment::{golden_run, FaultModel, FaultSpec, GoldenRun, LoopConfig};
use bera_goofi::observer::CampaignObserver;
use bera_goofi::planner::records_equivalent;
use bera_goofi::workload::Workload;
use bera_tcpu::access::{AccessKind, TraceUnit, STEP_FILL, STEP_WRITEBACK};
use bera_tcpu::diff::{DiffReplay, FallbackReason, ReplayScratch};
use bera_tcpu::isa::{self, Decoded, Opcode};
use bera_tcpu::machine::{Machine, StepEvent, PORT_R, PORT_U, PORT_Y};
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
                    let t = self.k as f64 * self.cfg.sample_interval;
                    for m in [&mut self.g, &mut self.f] {
                        m.set_port_f32(PORT_R, self.cfg.profiles.reference(t) as f32);
                        m.set_port_f32(PORT_Y, self.golden.speeds[self.k] as f32);
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
        k: golden.checkpoints[c].iteration,
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
    let mut scratch = ReplayScratch::default();
    let mut r = DiffReplay::new(
        &golden.trace,
        &golden.end_machine,
        &mut scratch,
        inject_at,
        trail.initial.clone(),
    );
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
    for until in stops {
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
                    let diff = r.diff().to_vec();
                    assert_eq!(diff, pair.diff(), "diff at boundary {until}");
                    trail.widest = trail.widest.max(diff.len());
                    trail.boundaries.push(Boundary {
                        at: until,
                        diff,
                        events: r.events(),
                    });
                    break;
                }
                Err(fallback) => {
                    pair.run_to(fallback.at);
                    assert_eq!(r.diff(), pair.diff(), "diff at the fallback");
                    trail.ending = fallback.reason.label().to_string();
                    trail.events = r.events();
                    return trail;
                }
            }
        }
    }
    trail.ending = "completed".to_string();
    trail.events = r.events();
    trail
}

/// Replays `fault` alongside a lockstep pair; returns how it ended and
/// after how many events.
fn lockstep(
    golden: &GoldenRun,
    cfg: &LoopConfig,
    model: FaultModel,
    fault: FaultSpec,
) -> (String, u64) {
    let locations: Vec<BitLocation> = model
        .locations(fault.location_index)
        .into_iter()
        .map(|i| scan::catalog()[i])
        .collect();
    let mut flipped = Vec::new();
    let corrupt = |m: &mut Machine| flipped = m.flip_diff(&locations);
    let trail = lockstep_with(golden, cfg, fault.inject_at, corrupt, &[]);
    assert_eq!(trail.initial, flipped, "replay starts from flip_diff");
    (trail.ending, trail.events)
}

fn lockstep_campaign(workload: &Workload, model: FaultModel, seed: u64, faults: usize) {
    let cfg = LoopConfig::paper();
    let golden = golden_for(workload, &cfg);
    let mut endings = Vec::new();
    for fault in FaultList::sample(faults, seed, golden.total_instructions).faults {
        endings.push(lockstep(golden, &cfg, model, fault));
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
