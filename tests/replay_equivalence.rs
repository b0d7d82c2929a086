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
use bera_tcpu::diff::{DiffReplay, FallbackReason, ReplayScratch};
use bera_tcpu::isa::{self, Decoded, Opcode};
use bera_tcpu::machine::{Machine, StepEvent, PORT_R, PORT_U, PORT_Y};
use bera_tcpu::mem::ROM_BASE;
use bera_tcpu::scan::{self, BitLocation};
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

/// Replays `fault` alongside a lockstep pair; returns how it ended and
/// after how many events.
fn lockstep(
    golden: &GoldenRun,
    cfg: &LoopConfig,
    model: FaultModel,
    fault: FaultSpec,
) -> (String, u64) {
    let c = golden
        .checkpoint_index_before(fault.inject_at)
        .expect("checkpoint 0");
    let g = golden.checkpoints[c].machine.clone();
    let mut pair = Pair {
        cfg: cfg.clone(),
        golden,
        f: g.clone(),
        g,
        k: golden.checkpoints[c].iteration,
    };
    // Golden's prefix on both; then flip the faulty one.
    pair.run_to(fault.inject_at);
    pair.g.begin_dirty_log();
    pair.f.begin_dirty_log();
    let locations: Vec<BitLocation> = model
        .locations(fault.location_index)
        .into_iter()
        .map(|i| scan::catalog()[i])
        .collect();
    let diff = pair.f.flip_diff(&locations);
    let mut scratch = ReplayScratch::default();
    let mut r = DiffReplay::new(
        &golden.trace,
        &golden.end_machine,
        &mut scratch,
        fault.inject_at,
        diff,
    );
    let stops = golden
        .checkpoints
        .iter()
        .map(|c| c.machine.instr_count())
        .filter(|&n| n > fault.inject_at)
        .chain([golden.total_instructions]);
    for until in stops {
        loop {
            match r.step(until) {
                Ok(Some(t)) => {
                    pair.run_to(t + 1);
                    assert_eq!(
                        r.diff(),
                        pair.diff(),
                        "{fault:?}: diff after the event at {t}"
                    );
                }
                Ok(None) => {
                    pair.run_to(until);
                    assert_eq!(r.diff(), pair.diff(), "{fault:?}: diff at boundary {until}");
                    break;
                }
                Err(fallback) => {
                    pair.run_to(fallback.at);
                    assert_eq!(r.diff(), pair.diff(), "{fault:?}: diff at the fallback");
                    return (fallback.reason.label().to_string(), r.events());
                }
            }
        }
    }
    ("completed".to_string(), r.events())
}

fn lockstep_campaign(workload: &Workload, model: FaultModel, seed: u64) {
    let cfg = LoopConfig::paper();
    let golden = golden_for(workload, &cfg);
    let mut endings = Vec::new();
    for fault in FaultList::sample(6, seed, golden.total_instructions).faults {
        endings.push(lockstep(golden, &cfg, model, fault));
    }
    assert!(
        endings.iter().any(|(e, n)| e == "completed" && *n > 0),
        "some fault must replay to the end through events: {endings:?}"
    );
}

#[test]
fn replay_follows_lockstep_single_bit_faults() {
    lockstep_campaign(&Workload::algorithm_one(), FaultModel::SingleBit, 3);
    lockstep_campaign(&Workload::algorithm_two(), FaultModel::SingleBit, 4);
}

#[test]
fn replay_follows_lockstep_double_bit_faults() {
    lockstep_campaign(&Workload::algorithm_one(), FaultModel::AdjacentDoubleBit, 5);
    lockstep_campaign(&Workload::algorithm_two(), FaultModel::AdjacentDoubleBit, 6);
}

#[test]
fn replay_follows_lockstep_burst_faults() {
    let burst = FaultModel::Burst { width: 3 };
    lockstep_campaign(&Workload::algorithm_one(), burst, 7);
    lockstep_campaign(&Workload::algorithm_two(), burst, 8);
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
