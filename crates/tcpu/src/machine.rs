//! The CPU core: registers, pipeline fetch latch, PSR, signature register,
//! data cache, and every error detection mechanism of Table 1.
//!
//! # Execution model
//!
//! The simulator is behavioural, not cycle-accurate, but the *state* of the
//! four-stage pipeline is modelled explicitly so scan-chain fault injection
//! has an authentic surface:
//!
//! * the **fetch latch** holds the next instruction word (prefetched at the
//!   end of the previous step), so a flip between two instructions corrupts
//!   the instruction about to execute — exactly like a flip in Thor's IF/ID
//!   pipeline register;
//! * the **operand latch** and **result latch** hold the last consumed
//!   operands and the last committed result (flips there are usually
//!   overwritten or latent, as in the real pipeline);
//! * the **store buffer**, **fill buffer** and **EDAC syndrome** model the
//!   memory interface state.
//!
//! A trap (a detected error) freezes the machine: the experiment has
//! terminated, as in GOOFI's termination condition.

use crate::access::{AccessKind, AccessTrace, TraceSlot, TraceUnit};
use crate::cache::{DataCache, LINE_BYTES, WORDS_PER_LINE};
use crate::edm::{ErrorMechanism as Edm, Trap};
use crate::isa::{self, Decoded, Opcode};
use crate::mem::{self, Memory, Region};
use crate::vis::VisUnit;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The predecoded ROM image: the fast-replay engine's working set and the
/// scalar step's decode cache. `words` mirrors the ROM word-for-word,
/// `decoded` holds the predecoded form of every word, and `run_len[s]` is
/// the number of consecutive straight-line instructions starting at slot
/// `s` (zero when slot `s` itself is not straight-line; a run never
/// includes the last ROM slot, so the slot after a run is always a valid
/// fetch address). Built once per program load and shared between clones
/// through an `Arc`, so every machine cloned from a loaded one —
/// checkpoints, arena machines, convergence probes — starts warm. The
/// scalar step honours a `decoded` entry only when `words` holds the very
/// word being executed, so every way code can change under the table —
/// a host poke, a scan flip of the fetch latch — just decodes fresh.
/// Block replay detects staleness by two O(1) checks at entry: the fetched word must match the predecoded image (catches a
/// scan-flipped latch) and the memory's host ROM-write counter must still
/// equal the one recorded at build time (any later `load_rom_word`
/// invalidates every block — coarse, but runtime stores cannot reach ROM,
/// so only host pokes ever move it). A mismatch just falls back to the
/// scalar path.
#[derive(Debug, Default)]
struct BlockTable {
    words: Vec<u32>,
    decoded: Vec<Option<Decoded>>,
    run_len: Vec<u32>,
    rom_version: u64,
}

impl BlockTable {
    fn build(memory: &Memory) -> BlockTable {
        let words: Vec<u32> = memory.rom_words().to_vec();
        let n = words.len();
        let decoded: Vec<Option<Decoded>> = words.iter().map(|&w| isa::decode(w)).collect();
        let mut run_len = vec![0u32; n];
        for s in (0..n.saturating_sub(1)).rev() {
            if decoded[s].is_some_and(|d| d.op.is_straight_line()) {
                run_len[s] = run_len[s + 1] + 1;
            }
        }
        BlockTable {
            words,
            decoded,
            run_len,
            rom_version: memory.rom_version(),
        }
    }
}

/// Behaviourally inert [`BlockTable`] handle: equality ignores it, it
/// serializes as `null` and deserializes empty (no table means every
/// replay attempt falls back and every instruction decodes fresh, so a
/// deserialized machine runs scalar until re-enabled). `replay` gates the
/// block engine alone; the table keeps serving the scalar step's decode
/// with replay off. The `Option` lets the replay entry point move the
/// table out and back with plain pointer writes instead of an `Arc`
/// refcount round-trip — that entry point runs at every untraced
/// instruction boundary, where two atomic RMWs per attempt dominate the
/// whole campaign.
#[derive(Debug, Default, Clone)]
struct BlockCache {
    table: Option<Arc<BlockTable>>,
    replay: bool,
}

impl PartialEq for BlockCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl serde::Serialize for BlockCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for BlockCache {
    fn from_value(_v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(BlockCache::default())
    }
}

/// Lifetime telemetry counters for the fast-replay engine. Behaviourally
/// inert: equality ignores them and they serialize as `null`.
#[derive(Debug, Default, Clone, Copy)]
struct FastStats {
    block_instructions: u64,
}

impl PartialEq for FastStats {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl serde::Serialize for FastStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for FastStats {
    fn from_value(_v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(FastStats::default())
    }
}

/// Dense-key log of every data-memory word written since
/// [`Machine::begin_dirty_log`] — the dirty set that makes the O(touched)
/// checkpoint restore of [`Machine::restore_delta_from`] sound. The bitmap
/// deduplicates; `keys` preserves insertion for a cheap sparse walk.
#[derive(Debug, Default)]
struct DirtyLog {
    bitmap: [u64; mem::NUM_DATA_WORDS / 64],
    keys: Vec<u32>,
}

impl DirtyLog {
    #[inline]
    fn insert(&mut self, key: usize) {
        let (w, b) = (key / 64, key % 64);
        if self.bitmap[w] & (1 << b) == 0 {
            self.bitmap[w] |= 1 << b;
            self.keys.push(key as u32);
        }
    }

    fn clear(&mut self) {
        self.bitmap = [0; mem::NUM_DATA_WORDS / 64];
        self.keys.clear();
    }
}

/// Behaviourally inert [`DirtyLog`] slot. Clones do not inherit the log
/// (mirrors [`TraceSlot`]): a clone's memory matches its source, so its
/// dirty set starts undefined until the owner calls `begin_dirty_log`.
#[derive(Debug, Default)]
struct DirtySlot(Option<Box<DirtyLog>>);

impl Clone for DirtySlot {
    fn clone(&self) -> Self {
        DirtySlot(None)
    }
}

impl PartialEq for DirtySlot {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl serde::Serialize for DirtySlot {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for DirtySlot {
    fn from_value(_v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(DirtySlot::default())
    }
}

/// Number of host-writable input ports.
pub const NUM_IN_PORTS: usize = 4;
/// Number of host-readable output ports.
pub const NUM_OUT_PORTS: usize = 4;

/// Input port carrying the reference value `r`.
pub const PORT_R: u16 = 0;
/// Input port carrying the measured value `y`.
pub const PORT_Y: u16 = 1;
/// Output port carrying the actuator command `u_lim`.
pub const PORT_U: u16 = 2;

/// PSR flag bit: last compare was equal.
pub const PSR_EQ: u8 = 0b01;
/// PSR flag bit: last compare was less-than.
pub const PSR_LT: u8 = 0b10;

/// Default guarded stack window: the top 1 KiB of the stack segment.
pub const DEFAULT_STACK_LO: u32 = mem::STACK_BASE + mem::STACK_SIZE - 0x400;
/// One past the last valid stack address.
pub const DEFAULT_STACK_HI: u32 = mem::STACK_BASE + mem::STACK_SIZE;

/// The prefetched-instruction latch (IF/ID pipeline register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct FetchLatch {
    pub word: u32,
    pub pc: u32,
    pub valid: bool,
}

/// Last consumed operand pair (ID/EX pipeline register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct OperandLatch {
    pub a: u32,
    pub b: u32,
}

/// Last committed result (EX/WB pipeline register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct ResultLatch {
    pub value: u32,
    pub rd: u8,
    pub we: bool,
}

/// Last store accepted by the memory interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct StoreBuffer {
    pub addr: u32,
    pub data: u32,
    pub valid: bool,
}

/// Last word transferred by a cache-line fill, with its parity bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct FillBuffer {
    pub addr: u32,
    pub data: u32,
    pub parity: bool,
    pub valid: bool,
}

/// The outcome of one [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An ordinary instruction completed.
    Normal,
    /// A `yield` executed: one workload iteration finished; the host should
    /// exchange I/O data now.
    Yield,
}

/// How a fast-replay block attempt ended (see `Machine::run_block`).
enum BlockExit {
    /// At least one instruction retired; re-evaluate from the new state.
    Progress,
    /// Preconditions not met — execute the scalar step instead.
    Fallback,
    /// An EDM fired mid-run; the machine froze exactly as scalar would.
    Trapped(Trap),
    /// A `yield` retired (with the next instruction prefetched, as the
    /// scalar path leaves it); the run returns to the harness.
    Yielded,
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// A `yield` executed.
    Yield,
    /// An error detection mechanism fired; the machine is frozen.
    Trap(Trap),
    /// The instruction budget was exhausted.
    Budget,
}

/// The Thor-like processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    pub(crate) regs: [u32; isa::NUM_REGS],
    pub(crate) pc: u32,
    pub(crate) psr: u8,
    pub(crate) sig: u16,
    pub(crate) stack_lo: u32,
    pub(crate) stack_hi: u32,
    pub(crate) epc: u32,
    pub(crate) cause: u8,
    pub(crate) save: [u32; 2],
    pub(crate) fetch: FetchLatch,
    pub(crate) idex: OperandLatch,
    pub(crate) exwb: ResultLatch,
    pub(crate) cache: DataCache,
    pub(crate) sbuf: StoreBuffer,
    pub(crate) fbuf: FillBuffer,
    pub(crate) edac_syndrome: u8,
    pub(crate) ports_out: [u32; NUM_OUT_PORTS],
    ports_in: [u32; NUM_IN_PORTS],
    mem: Memory,
    instr_count: u64,
    trapped: Option<Trap>,
    /// Parity protection over the data cache (the custom-hardware
    /// alternative the paper rejects on cost grounds; modelled for the
    /// ablation study). When enabled, any cache state that was not written
    /// by the cache controller itself is detected on the next access.
    parity_cache: bool,
    shadow: [crate::cache::CacheLine; crate::cache::NUM_LINES],
    /// Optional golden-run access-trace recorder (see [`crate::access`]).
    trace: TraceSlot,
    /// The predecoded ROM image (fast replay and scalar decode).
    block_cache: BlockCache,
    /// Fast-replay telemetry counters.
    fast_stats: FastStats,
    /// Dirty-word log backing the delta checkpoint restore.
    dirty: DirtySlot,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// Creates a machine with zeroed state and empty memory.
    #[must_use]
    pub fn new() -> Self {
        Machine {
            regs: [0; isa::NUM_REGS],
            pc: mem::ROM_BASE,
            psr: 0,
            sig: 0,
            stack_lo: DEFAULT_STACK_LO,
            stack_hi: DEFAULT_STACK_HI,
            epc: 0,
            cause: 0,
            save: [0; 2],
            fetch: FetchLatch::default(),
            idex: OperandLatch::default(),
            exwb: ResultLatch::default(),
            cache: DataCache::new(),
            sbuf: StoreBuffer::default(),
            fbuf: FillBuffer::default(),
            edac_syndrome: 0,
            ports_out: [0; NUM_OUT_PORTS],
            ports_in: [0; NUM_IN_PORTS],
            mem: Memory::new(),
            instr_count: 0,
            trapped: None,
            parity_cache: false,
            shadow: [crate::cache::CacheLine::default(); crate::cache::NUM_LINES],
            trace: TraceSlot::default(),
            block_cache: BlockCache::default(),
            fast_stats: FastStats::default(),
            dirty: DirtySlot::default(),
        }
    }

    /// Starts recording an access trace (golden runs only). Any previous
    /// trace is discarded. Clones taken while tracing do not trace.
    pub fn start_access_trace(&mut self) {
        self.trace.0 = Some(Box::new(AccessTrace::new()));
    }

    /// Stops tracing and returns the recorded trace, if one was started.
    pub fn take_access_trace(&mut self) -> Option<AccessTrace> {
        self.trace.0.take().map(|b| *b)
    }

    /// Records the harness's read of an output port at a `yield` boundary
    /// (the closed-loop driver samples the actuator command there). The
    /// read belongs to the instruction that just yielded — `instr_count`
    /// has already advanced past it — so a fault injected exactly at the
    /// current boundary is *not* visible to it.
    pub fn trace_harness_port_read(&mut self, port: u16) {
        let at = self.instr_count.saturating_sub(1);
        if let Some(t) = self.trace.0.as_mut() {
            t.record(TraceUnit::PortOut(port as u8), at, AccessKind::Read);
        }
    }

    #[inline]
    fn trace(&mut self, unit: impl Into<TraceUnit>, kind: AccessKind) {
        if let Some(t) = self.trace.0.as_mut() {
            t.record(unit.into(), self.instr_count, kind);
        }
    }

    /// Enables or disables parity protection of the data cache. With
    /// parity on, a scan-chain bit-flip anywhere in a cache line (data,
    /// tag, or flags) raises DATA ERROR at the next access to that line —
    /// the custom-hardware alternative discussed in Section 4.3 of the
    /// paper.
    pub fn set_cache_parity(&mut self, enabled: bool) {
        self.parity_cache = enabled;
    }

    /// Resets all CPU and memory state and loads `program` (code into ROM,
    /// initialised data into RAM), leaving the PC at the entry point.
    pub fn load_program(&mut self, program: &crate::asm::Program) {
        *self = Machine::new();
        for (i, word) in program.code.iter().enumerate() {
            self.mem
                .load_rom_word(program.code_base + (i as u32) * 4, *word);
        }
        for &(addr, word) in &program.data {
            assert!(
                self.mem.poke(addr, word),
                "data word outside RAM: {addr:#x}"
            );
        }
        self.pc = program.entry;
        // ROM is immutable from here on, so decode the whole image once;
        // clones share the warm table through the `Arc`.
        self.set_fast_replay(true);
    }

    /// Enables or disables the predecoded fast-replay engine. Disabling
    /// stops block replay, so every instruction takes the scalar step
    /// path (the reference behaviour for the equivalence suite); enabling
    /// rebuilds the table from the current ROM image.
    pub fn set_fast_replay(&mut self, enabled: bool) {
        if enabled {
            self.block_cache.table = Some(Arc::new(BlockTable::build(&self.mem)));
        }
        self.block_cache.replay = enabled;
    }

    /// Instructions retired through the predecoded block engine over this
    /// machine's lifetime (telemetry; clones inherit their source's count,
    /// so callers measure deltas around a run).
    #[must_use]
    pub fn block_instructions(&self) -> u64 {
        self.fast_stats.block_instructions
    }

    /// Sets an input port to a raw word.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn set_port(&mut self, port: u16, value: u32) {
        self.ports_in[port as usize] = value;
    }

    /// Sets an input port to the bit pattern of an `f32`.
    pub fn set_port_f32(&mut self, port: u16, value: f32) {
        self.set_port(port, value.to_bits());
    }

    /// Reads an output port as a raw word.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    #[must_use]
    pub fn port_out(&self, port: u16) -> u32 {
        self.ports_out[port as usize]
    }

    /// Reads an output port as an `f32`.
    #[must_use]
    pub fn port_out_f32(&self, port: u16) -> f32 {
        f32::from_bits(self.port_out(port))
    }

    /// Number of instructions executed (including a trapping one).
    #[must_use]
    pub fn instr_count(&self) -> u64 {
        self.instr_count
    }

    /// The pending trap, if an EDM has fired.
    #[must_use]
    pub fn trap(&self) -> Option<Trap> {
        self.trapped
    }

    /// Current program counter (next fetch address).
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads a general-purpose register.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 16`.
    #[must_use]
    pub fn reg(&self, r: u8) -> u32 {
        self.regs[r as usize]
    }

    /// The main memory (for test assertions and end-state comparison).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Host-side write of one data word (RAM or stack), bypassing the
    /// cache — the SWIFI-style memory fault-injection hook. Parity is
    /// recomputed, so this models a *value* fault, not an EDAC-detectable
    /// one. Returns `false` when `addr` is not a writable data word.
    pub fn poke_word(&mut self, addr: u32, word: u32) -> bool {
        let ok = self.mem.poke(addr, word);
        if ok {
            self.note_data_write(addr);
        }
        ok
    }

    /// Host-side patch of one ROM word (program loading, test harness).
    /// Forwards to [`Memory::load_rom_word`], which bumps the ROM version
    /// counter — any predecoded block table goes stale and fast replay
    /// falls back to the scalar path until the program is reloaded.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside ROM or unaligned.
    pub fn poke_rom_word(&mut self, addr: u32, word: u32) {
        self.mem.load_rom_word(addr, word);
    }

    /// Starts (or restarts) the dirty-word log: every subsequent write to
    /// data memory — cache write-backs and host pokes — records its dense
    /// word key, enabling [`Machine::restore_delta_from`] and
    /// [`Machine::state_equals_sparse`].
    pub fn begin_dirty_log(&mut self) {
        match self.dirty.0.as_mut() {
            Some(log) => log.clear(),
            None => self.dirty.0 = Some(Box::new(DirtyLog::default())),
        }
    }

    /// The dense data-word keys written since [`Machine::begin_dirty_log`],
    /// or `None` when no log is active.
    #[must_use]
    pub fn dirty_words(&self) -> Option<&[u32]> {
        self.dirty.0.as_deref().map(|l| l.keys.as_slice())
    }

    #[inline]
    fn note_data_write(&mut self, addr: u32) {
        if let Some(log) = self.dirty.0.as_mut() {
            if let Some(key) = mem::word_key(addr) {
                log.insert(key);
            }
        }
    }

    /// Dirty-delta checkpoint restore: makes `self` architecturally
    /// identical to `src` without a deep clone. The fixed-size CPU state
    /// (registers, latches, cache, shadow, ports) is copied wholesale;
    /// data memory is copied only where the two images can differ — the
    /// words `self` dirtied since its own [`Machine::begin_dirty_log`]
    /// plus `extra` (the golden run's write sets between the checkpoint
    /// `self` was last restored from and `src`, supplied by the caller who
    /// knows the checkpoint schedule). Without an active log, or when the
    /// combined set reaches the size of data memory, the whole data image
    /// is copied instead. The log restarts empty; traces are cleared (as
    /// on clone). Returns the number of data words copied.
    pub fn restore_delta_from(&mut self, src: &Machine, extra: &[Vec<u32>]) -> usize {
        let copied = match self.dirty.0.take() {
            Some(mut log) => {
                let total = log.keys.len() + extra.iter().map(Vec::len).sum::<usize>();
                let copied = if total >= mem::NUM_DATA_WORDS {
                    self.mem.copy_data_from(&src.mem);
                    mem::NUM_DATA_WORDS
                } else {
                    for &k in log.keys.iter().chain(extra.iter().flatten()) {
                        self.mem.copy_data_word_from(&src.mem, k as usize);
                    }
                    total
                };
                log.clear();
                self.dirty.0 = Some(log);
                copied
            }
            None => {
                self.mem.copy_data_from(&src.mem);
                self.begin_dirty_log();
                mem::NUM_DATA_WORDS
            }
        };
        self.regs = src.regs;
        self.pc = src.pc;
        self.psr = src.psr;
        self.sig = src.sig;
        self.stack_lo = src.stack_lo;
        self.stack_hi = src.stack_hi;
        self.epc = src.epc;
        self.cause = src.cause;
        self.save = src.save;
        self.fetch = src.fetch;
        self.idex = src.idex;
        self.exwb = src.exwb;
        self.cache = src.cache.clone();
        self.sbuf = src.sbuf;
        self.fbuf = src.fbuf;
        self.edac_syndrome = src.edac_syndrome;
        self.ports_out = src.ports_out;
        self.ports_in = src.ports_in;
        self.instr_count = src.instr_count;
        self.trapped = src.trapped;
        self.parity_cache = src.parity_cache;
        self.shadow = src.shadow;
        self.trace = TraceSlot::default();
        self.block_cache = src.block_cache.clone();
        debug_assert!(
            self.state_equals(src),
            "dirty-delta restore must reproduce the checkpoint exactly"
        );
        copied
    }

    /// Sparse architectural equality for the convergence check: compares
    /// every CPU field exactly as [`Machine::state_equals`] does, but walks
    /// data memory only over this machine's dirty-log keys plus `extra`
    /// (the golden run's writes since the checkpoint this machine was
    /// restored from) instead of the full image — sound because ROM is
    /// immutable at run time and RAM/stack can differ only where one side
    /// wrote. Returns `None` when no dirty log is active — and also once
    /// the combined key set covers more than half of data memory, where a
    /// random-access key walk loses to the full comparison's sequential
    /// sweep; the caller must then fall back to the full comparison.
    #[must_use]
    pub fn state_equals_sparse(&self, other: &Machine, extra: &[u32]) -> Option<bool> {
        let log = self.dirty.0.as_deref()?;
        if log.keys.len() + extra.len() > mem::NUM_DATA_WORDS / 2 {
            return None;
        }
        let cpu = self.regs == other.regs
            && self.pc == other.pc
            && self.psr == other.psr
            && self.sig == other.sig
            && self.stack_lo == other.stack_lo
            && self.stack_hi == other.stack_hi
            && self.epc == other.epc
            && self.cause == other.cause
            && self.save == other.save
            && self.fetch == other.fetch
            && self.idex == other.idex
            && self.exwb == other.exwb
            && self.cache == other.cache
            && self.sbuf == other.sbuf
            && self.fbuf == other.fbuf
            && self.edac_syndrome == other.edac_syndrome
            && self.ports_out == other.ports_out
            && self.ports_in == other.ports_in
            && self.parity_cache == other.parity_cache
            && self.shadow == other.shadow;
        if !cpu {
            return Some(false);
        }
        Some(
            log.keys
                .iter()
                .chain(extra)
                .all(|&k| self.mem.data_word(k as usize) == other.mem.data_word(k as usize)),
        )
    }

    /// FNV-1a 64 digest of the architectural state: everything that
    /// determines future behaviour, *excluding* the instruction counter and
    /// the trap latch. Two machines with equal digests at an iteration
    /// boundary are *candidates* for having converged onto the same
    /// trajectory; confirm with [`Machine::state_equals`] before relying on
    /// it — the digest is a filter, not a proof.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = crate::digest::Fnv64::new();
        h.write_u32_slice(&self.regs);
        h.write_u32(self.pc);
        h.write_u8(self.psr);
        h.write_u32(u32::from(self.sig));
        h.write_u32(self.stack_lo);
        h.write_u32(self.stack_hi);
        h.write_u32(self.epc);
        h.write_u8(self.cause);
        h.write_u32_slice(&self.save);
        h.write_u32(self.fetch.word);
        h.write_u32(self.fetch.pc);
        h.write_bool(self.fetch.valid);
        h.write_u32(self.idex.a);
        h.write_u32(self.idex.b);
        h.write_u32(self.exwb.value);
        h.write_u8(self.exwb.rd);
        h.write_bool(self.exwb.we);
        for index in 0..crate::cache::NUM_LINES {
            for line in [self.cache.line(index), &self.shadow[index]] {
                h.write_u32(line.tag);
                h.write_bool(line.valid);
                h.write_bool(line.dirty);
                h.write_bytes(&line.data);
            }
        }
        h.write_u32(self.sbuf.addr);
        h.write_u32(self.sbuf.data);
        h.write_bool(self.sbuf.valid);
        h.write_u32(self.fbuf.addr);
        h.write_u32(self.fbuf.data);
        h.write_bool(self.fbuf.parity);
        h.write_bool(self.fbuf.valid);
        h.write_u8(self.edac_syndrome);
        h.write_u32_slice(&self.ports_out);
        h.write_u32_slice(&self.ports_in);
        h.write_bool(self.parity_cache);
        self.mem.digest_into(&mut h);
        h.finish()
    }

    /// Exact architectural equality, excluding only the instruction counter
    /// and the trap latch. When this holds at an iteration boundary between
    /// a faulty machine and the golden machine, determinism guarantees the
    /// two execute bit-identically from that point on (ROM is immutable, so
    /// full memory equality — checked here — covers the entire reachable
    /// state).
    #[must_use]
    pub fn state_equals(&self, other: &Machine) -> bool {
        self.regs == other.regs
            && self.pc == other.pc
            && self.psr == other.psr
            && self.sig == other.sig
            && self.stack_lo == other.stack_lo
            && self.stack_hi == other.stack_hi
            && self.epc == other.epc
            && self.cause == other.cause
            && self.save == other.save
            && self.fetch == other.fetch
            && self.idex == other.idex
            && self.exwb == other.exwb
            && self.cache == other.cache
            && self.sbuf == other.sbuf
            && self.fbuf == other.fbuf
            && self.edac_syndrome == other.edac_syndrome
            && self.ports_out == other.ports_out
            && self.ports_in == other.ports_in
            && self.parity_cache == other.parity_cache
            && self.shadow == other.shadow
            && self.mem == other.mem
    }

    /// Host-side write of a data word (campaign initialisation).
    pub fn poke_data(&mut self, addr: u32, word: u32) -> bool {
        let ok = self.mem.poke(addr, word);
        if ok {
            self.note_data_write(addr);
        }
        ok
    }

    /// The address and word of the instruction about to execute (from the
    /// fetch latch when it is primed, else from memory at the PC). Used by
    /// the detail-mode tracer; a word of `0xFFFF_FFFF` is reported when the
    /// PC points at unfetchable memory.
    #[must_use]
    pub fn peek_next_instruction(&self) -> (u32, u32) {
        if self.fetch.valid {
            (self.fetch.pc, self.fetch.word)
        } else {
            (self.pc, self.mem.fetch(self.pc).unwrap_or(0xFFFF_FFFF))
        }
    }

    /// Reads a data word as the CPU would see it: from the cache when the
    /// address hits, otherwise from memory. Used by detail-mode logging.
    #[must_use]
    pub fn peek_data(&self, addr: u32) -> Option<u32> {
        if self.cache.hits(addr) {
            Some(self.cache.read_word(addr))
        } else {
            self.mem.read_word(addr).map(|(w, _)| w)
        }
    }

    /// Configures the guarded stack window (supervisor operation, performed
    /// by the host before the workload starts).
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and both lie in the stack segment.
    pub fn set_stack_window(&mut self, lo: u32, hi: u32) {
        assert!(lo < hi, "empty stack window");
        assert_eq!(mem::region(lo), Region::Stack, "lo outside stack segment");
        assert_eq!(
            mem::region(hi - 4),
            Region::Stack,
            "hi outside stack segment"
        );
        self.stack_lo = lo;
        self.stack_hi = hi;
    }

    /// Executes at most `budget` instructions, returning early on a `yield`
    /// or a trap.
    pub fn run(&mut self, budget: u64) -> RunExit {
        // Monomorphise the step path on whether a trace is being
        // recorded: the untraced interpreter (every experiment) compiles
        // with all trace hooks removed entirely.
        if self.tracing() {
            self.run_gen::<true>(budget)
        } else {
            self.run_gen::<false>(budget)
        }
    }

    fn run_gen<const TRACING: bool>(&mut self, budget: u64) -> RunExit {
        // Every successful scalar step and every replayed block advance
        // `instr_count` by exactly the number of instructions retired, so
        // a budget is just a stop position.
        let stop_at = self.instr_count.saturating_add(budget);
        self.run_until_gen::<TRACING>(stop_at)
    }

    /// Executes instructions until `instr_count` reaches `stop_at`,
    /// returning early on a `yield` or a trap. Used to position the machine
    /// at a fault-injection breakpoint.
    pub fn run_until(&mut self, stop_at: u64) -> RunExit {
        if self.tracing() {
            self.run_until_gen::<true>(stop_at)
        } else {
            self.run_until_gen::<false>(stop_at)
        }
    }

    fn run_until_gen<const TRACING: bool>(&mut self, stop_at: u64) -> RunExit {
        while self.instr_count < stop_at {
            if !TRACING {
                // Fast replay: retire a whole predecoded straight-line run
                // without per-instruction fetch/decode/latch bookkeeping.
                // Any precondition failure — trap pending, latch not
                // primed, scan-corrupted PC/latch, changed ROM, tracing —
                // falls through to the bit-identical scalar step.
                match self.run_block(stop_at) {
                    BlockExit::Progress => continue,
                    BlockExit::Trapped(trap) => return RunExit::Trap(trap),
                    BlockExit::Yielded => return RunExit::Yield,
                    BlockExit::Fallback => {}
                }
            }
            match self.step_gen::<TRACING>() {
                Ok(StepEvent::Normal) => {}
                Ok(StepEvent::Yield) => return RunExit::Yield,
                Err(trap) => return RunExit::Trap(trap),
            }
        }
        RunExit::Budget
    }

    /// Replays predecoded instructions, stopping at `stop_at`. Everything
    /// the table cannot prove equivalent to a scalar step — a
    /// scan-corrupted latch or PC, a fetch outside ROM, an undecodable or
    /// privileged word, a stale table — stops the replay where a scalar
    /// step can take over; any state this function leaves behind is one
    /// the scalar path would have produced at the same instruction
    /// boundary.
    fn run_block(&mut self, stop_at: u64) -> BlockExit {
        if self.trapped.is_some() {
            return BlockExit::Fallback;
        }
        // Move the table out for the duration of the replay — a pointer
        // move, not an `Arc` refcount round-trip, because this point is
        // reached at every untraced `run_until` — and put it back on every
        // exit.
        if !self.block_cache.replay {
            return BlockExit::Fallback;
        }
        let Some(table) = self.block_cache.table.take() else {
            return BlockExit::Fallback;
        };
        let exit = self.run_block_inner(&table, stop_at);
        self.block_cache.table = Some(table);
        exit
    }

    /// The table-driven interpreter loop: replays whole straight-line runs
    /// with the per-instruction fetch/decode/latch bookkeeping hoisted
    /// out, then executes each run's decodable terminator (branch, jump,
    /// call, return, `sig`, `yield`) from the same predecoded image,
    /// chaining across control transfers without returning to the scalar
    /// loop. Latch refills after a transfer reproduce `fill_latch`
    /// bit-for-bit (the ROM-version guard proves the table mirrors live
    /// ROM), so every intermediate state equals the scalar path's.
    fn run_block_inner(&mut self, table: &BlockTable, stop_at: u64) -> BlockExit {
        // Staleness guard: any host ROM write since the table was built
        // invalidates every block (see [`BlockTable`]). Runtime stores
        // cannot reach ROM, so this is a never-taken branch mid-campaign.
        if table.rom_version != self.mem.rom_version() {
            return BlockExit::Fallback;
        }
        let mut progressed = false;
        loop {
            // Establish a primed latch the table can vouch for. An invalid
            // latch (after a control transfer) is refilled exactly as the
            // next scalar step's `fill_latch` would; a primed latch must
            // hold the predecoded word with `pc` one word ahead — anything
            // else (a scan flip landed) is the scalar path's business.
            let ipc = if self.fetch.valid {
                self.fetch.pc
            } else {
                self.pc
            };
            if !(mem::ROM_BASE..mem::ROM_BASE + mem::ROM_SIZE).contains(&ipc)
                || !ipc.is_multiple_of(4)
            {
                break;
            }
            let mut slot = ((ipc - mem::ROM_BASE) >> 2) as usize;
            if self.fetch.valid {
                if self.pc != ipc.wrapping_add(4) || table.words.get(slot) != Some(&self.fetch.word)
                {
                    break;
                }
            } else {
                let Some(&word) = table.words.get(slot) else {
                    break;
                };
                self.fetch = FetchLatch {
                    word,
                    pc: ipc,
                    valid: true,
                };
                self.pc = ipc.wrapping_add(4);
            }
            let mut ipc0 = ipc;
            // Replay the straight-line run starting here, if any. Mirrors
            // `step_inner` with the latch bookkeeping hoisted out of the
            // loop: the signature accumulates before execution (a trapping
            // word still hashes in), and straight-line ops never transfer
            // control or yield.
            let len = u64::from(table.run_len[slot]);
            if len > 0 {
                let n = len.min(stop_at - self.instr_count) as usize;
                let base = self.instr_count;
                let run = table.words[slot..slot + n]
                    .iter()
                    .zip(&table.decoded[slot..slot + n]);
                for (i, (&word, d)) in run.enumerate() {
                    let d = d.as_ref().expect("straight-line runs are fully decoded");
                    let ipc = ipc0 + (i as u32) * 4;
                    self.sig = isa::signature_step(self.sig, word);
                    let mut event = StepEvent::Normal;
                    let mut transferred = false;
                    if let Err(mechanism) =
                        self.execute::<false>(d, ipc, &mut event, &mut transferred)
                    {
                        // Re-materialise the latch state the scalar path
                        // would hold at this instruction, then freeze as
                        // `step_gen` does.
                        self.fetch = FetchLatch {
                            word,
                            pc: ipc,
                            valid: false,
                        };
                        self.pc = ipc.wrapping_add(4);
                        let trap = Trap {
                            mechanism,
                            at_instruction: base + i as u64,
                            pc: ipc,
                        };
                        self.instr_count = base + i as u64 + 1;
                        self.trapped = Some(trap);
                        self.epc = ipc;
                        self.cause =
                            Edm::ALL.iter().position(|m| *m == mechanism).unwrap_or(0) as u8;
                        self.fast_stats.block_instructions += i as u64 + 1;
                        return BlockExit::Trapped(trap);
                    }
                    debug_assert!(
                        !transferred && event == StepEvent::Normal,
                        "straight-line ops never transfer or yield"
                    );
                }
                // The run exits with the next instruction prefetched,
                // exactly as the scalar path's end-of-step prefetch would
                // leave it (a run never includes the last ROM slot, so
                // `slot + n` is in range).
                self.fetch = FetchLatch {
                    word: table.words[slot + n],
                    pc: ipc0 + (n as u32) * 4,
                    valid: true,
                };
                self.pc = self.fetch.pc.wrapping_add(4);
                self.instr_count = base + n as u64;
                self.fast_stats.block_instructions += n as u64;
                progressed = true;
                if (n as u64) < len || self.instr_count >= stop_at {
                    return BlockExit::Progress;
                }
                slot += n;
                ipc0 = ipc0.wrapping_add((n as u32) * 4);
            }
            // The latch now holds this run's terminator (`run_len == 0`
            // here): execute it from the predecoded image, mirroring
            // `step_inner` — consume the latch, accumulate the signature
            // (except for `sig`, which samples it), execute, prefetch when
            // control did not transfer.
            let Some(d) = table.decoded[slot] else {
                break; // undecodable word: the scalar step raises the EDM
            };
            if d.op.is_privileged() {
                break; // ditto — rejected before execute on the scalar path
            }
            let word = table.words[slot];
            self.fetch.valid = false;
            if d.op != Opcode::Sig {
                self.sig = isa::signature_step(self.sig, word);
            }
            let mut event = StepEvent::Normal;
            let mut transferred = false;
            if let Err(mechanism) = self.execute::<false>(&d, ipc0, &mut event, &mut transferred) {
                // The latch was consumed and `execute` errors before
                // mutating the PC, so the state already matches the scalar
                // error path; freeze as `step_gen` does.
                let trap = Trap {
                    mechanism,
                    at_instruction: self.instr_count,
                    pc: ipc0,
                };
                self.instr_count += 1;
                self.trapped = Some(trap);
                self.epc = ipc0;
                self.cause = Edm::ALL.iter().position(|m| *m == mechanism).unwrap_or(0) as u8;
                self.fast_stats.block_instructions += 1;
                return BlockExit::Trapped(trap);
            }
            self.instr_count += 1;
            self.fast_stats.block_instructions += 1;
            progressed = true;
            if !transferred {
                // `try_prefetch` equivalent: prime the latch from the
                // table when the next slot exists; past the end of ROM the
                // scalar prefetch fails silently and leaves the latch
                // invalid, which is already our state.
                if let Some(&w) = table.words.get(slot + 1) {
                    self.fetch = FetchLatch {
                        word: w,
                        pc: self.pc,
                        valid: true,
                    };
                    self.pc = self.pc.wrapping_add(4);
                }
            }
            if event == StepEvent::Yield {
                return BlockExit::Yielded;
            }
            if self.instr_count >= stop_at {
                return BlockExit::Progress;
            }
        }
        if progressed {
            BlockExit::Progress
        } else {
            BlockExit::Fallback
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns the trap when an error detection mechanism fires; the machine
    /// freezes and every subsequent call returns the same trap.
    pub fn step(&mut self) -> Result<StepEvent, Trap> {
        if self.tracing() {
            self.step_gen::<true>()
        } else {
            self.step_gen::<false>()
        }
    }

    #[inline]
    fn tracing(&self) -> bool {
        self.trace.0.is_some()
    }

    fn step_gen<const TRACING: bool>(&mut self) -> Result<StepEvent, Trap> {
        if let Some(t) = self.trapped {
            return Err(t);
        }
        let idx = self.instr_count;
        match self.step_inner::<TRACING>() {
            Ok(ev) => {
                self.instr_count += 1;
                Ok(ev)
            }
            Err((mechanism, pc)) => {
                let trap = Trap {
                    mechanism,
                    at_instruction: idx,
                    pc,
                };
                if TRACING {
                    self.trace(VisUnit::EpcCause, AccessKind::Write);
                }
                self.instr_count += 1;
                self.trapped = Some(trap);
                self.epc = pc;
                self.cause = Edm::ALL.iter().position(|m| *m == mechanism).unwrap_or(0) as u8;
                Err(trap)
            }
        }
    }

    fn step_inner<const TRACING: bool>(&mut self) -> Result<StepEvent, (Edm, u32)> {
        // Consume the prefetched instruction (fetch now if the latch was
        // invalidated by a control transfer or a failed prefetch).
        if !self.fetch.valid {
            self.fill_latch::<TRACING>().map_err(|m| (m, self.pc))?;
        }
        if TRACING {
            self.trace(VisUnit::FetchWord, AccessKind::Read);
            self.trace(VisUnit::FetchPc, AccessKind::Read);
        }
        let word = self.fetch.word;
        let ipc = self.fetch.pc;
        self.fetch.valid = false;

        let d = self
            .decode_cached(word, ipc)
            .ok_or((Edm::InstructionError, ipc))?;
        if d.op.is_privileged() {
            return Err((Edm::InstructionError, ipc));
        }

        // The signature monitor hashes every executed word except the check
        // instruction itself (mirrors the assembler's static accumulation).
        if d.op != Opcode::Sig {
            self.sig = isa::signature_step(self.sig, word);
        }

        let mut event = StepEvent::Normal;
        let mut transferred = false;
        self.execute::<TRACING>(&d, ipc, &mut event, &mut transferred)
            .map_err(|m| (m, ipc))?;

        if !transferred {
            self.try_prefetch::<TRACING>();
        }
        Ok(event)
    }

    #[inline(always)]
    fn execute<const TRACING: bool>(
        &mut self,
        d: &Decoded,
        ipc: u32,
        event: &mut StepEvent,
        transferred: &mut bool,
    ) -> Result<(), Edm> {
        use Opcode::*;
        match d.op {
            Nop => {}
            Yield => *event = StepEvent::Yield,
            Halt | Setsb => unreachable!("privileged ops rejected in decode"),
            Sig => {
                // The compare samples the signature register; on success
                // it is zeroed (a deposit derived from the compare — the
                // preceding Read keeps a flipped signature live here).
                if TRACING {
                    self.trace(VisUnit::Sig, AccessKind::Read);
                }
                if self.sig != d.uimm16 as u16 {
                    return Err(Edm::ControlFlowError);
                }
                if TRACING {
                    self.trace(VisUnit::Sig, AccessKind::Write);
                }
                self.sig = 0;
            }
            Lui => self.write_reg::<TRACING>(d.rd, d.uimm16 << 16),
            Ori => {
                let a = self.read_reg::<TRACING>(d.ra);
                self.write_reg::<TRACING>(d.rd, a | d.uimm16);
            }
            Addi => {
                let a = self.read_reg::<TRACING>(d.ra) as i32;
                let v = a.checked_add(d.imm16).ok_or(Edm::OverflowCheck)?;
                self.write_reg::<TRACING>(d.rd, v as u32);
            }
            Ld => {
                let addr = self.read_reg::<TRACING>(d.ra).wrapping_add(d.imm16 as u32);
                let v = self.data_access::<TRACING>(addr, None)?;
                self.write_reg::<TRACING>(d.rd, v);
            }
            St => {
                let addr = self.read_reg::<TRACING>(d.ra).wrapping_add(d.imm16 as u32);
                let v = self.read_reg::<TRACING>(d.rd);
                self.data_access::<TRACING>(addr, Some(v))?;
            }
            Add | Sub | Mul => {
                let a = self.read_reg::<TRACING>(d.ra) as i32;
                let b = self.read_reg::<TRACING>(d.rb) as i32;
                let v = match d.op {
                    Add => a.checked_add(b),
                    Sub => a.checked_sub(b),
                    _ => a.checked_mul(b),
                }
                .ok_or(Edm::OverflowCheck)?;
                self.write_reg::<TRACING>(d.rd, v as u32);
            }
            Div => {
                let a = self.read_reg::<TRACING>(d.ra) as i32;
                let b = self.read_reg::<TRACING>(d.rb) as i32;
                if b == 0 {
                    return Err(Edm::DivisionCheck);
                }
                let v = a.checked_div(b).ok_or(Edm::OverflowCheck)?;
                self.write_reg::<TRACING>(d.rd, v as u32);
            }
            And | Or | Xor | Shl | Shr => {
                let a = self.read_reg::<TRACING>(d.ra);
                let b = self.read_reg::<TRACING>(d.rb);
                let v = match d.op {
                    And => a & b,
                    Or => a | b,
                    Xor => a ^ b,
                    Shl => a.wrapping_shl(b & 31),
                    _ => a.wrapping_shr(b & 31),
                };
                self.write_reg::<TRACING>(d.rd, v);
            }
            Fadd | Fsub | Fmul | Fdiv => {
                let a = f32::from_bits(self.read_reg::<TRACING>(d.ra));
                let b = f32::from_bits(self.read_reg::<TRACING>(d.rb));
                let v = self.float_binop(d.op, a, b)?;
                self.write_reg::<TRACING>(d.rd, v.to_bits());
            }
            Fcmp => {
                let a = f32::from_bits(self.read_reg::<TRACING>(d.ra));
                let b = f32::from_bits(self.read_reg::<TRACING>(d.rb));
                if a.is_nan() || b.is_nan() {
                    return Err(Edm::IllegalOperation);
                }
                self.set_flags::<TRACING>(a == b, a < b);
            }
            Cmp => {
                let a = self.read_reg::<TRACING>(d.ra) as i32;
                let b = self.read_reg::<TRACING>(d.rb) as i32;
                self.set_flags::<TRACING>(a == b, a < b);
            }
            Beq | Bne | Blt | Bge | Bgt | Ble => {
                // Each condition samples exactly the flag bits it
                // consults: EQ for beq/bne, LT for blt/bge, both for
                // bgt/ble. A flip in an unconsulted PSR bit stays
                // invisible to this branch.
                if TRACING {
                    if matches!(d.op, Beq | Bne | Bgt | Ble) {
                        self.trace(VisUnit::Psr(0), AccessKind::Read);
                    }
                    if matches!(d.op, Blt | Bge | Bgt | Ble) {
                        self.trace(VisUnit::Psr(1), AccessKind::Read);
                    }
                }
                let eq = self.psr & PSR_EQ != 0;
                let lt = self.psr & PSR_LT != 0;
                let taken = match d.op {
                    Beq => eq,
                    Bne => !eq,
                    Blt => lt,
                    Bge => !lt,
                    Bgt => !lt && !eq,
                    _ => lt || eq,
                };
                if taken {
                    let target = ipc
                        .wrapping_add(4)
                        .wrapping_add((d.imm16 as u32).wrapping_mul(4));
                    self.control_transfer::<TRACING>(target)?;
                    *transferred = true;
                }
            }
            Jmp => {
                self.control_transfer::<TRACING>(d.imm22.wrapping_mul(4))?;
                *transferred = true;
            }
            Call => {
                self.write_reg::<TRACING>(isa::REG_LR, ipc.wrapping_add(4));
                self.control_transfer::<TRACING>(d.imm22.wrapping_mul(4))?;
                *transferred = true;
            }
            Ret => {
                let target = self.read_reg::<TRACING>(isa::REG_LR);
                self.control_transfer::<TRACING>(target)?;
                *transferred = true;
            }
            In => {
                let port = d.uimm16 as usize;
                if port >= NUM_IN_PORTS {
                    return Err(Edm::AddressError);
                }
                self.write_reg::<TRACING>(d.rd, self.ports_in[port]);
            }
            Out => {
                let port = d.uimm16 as usize;
                if port >= NUM_OUT_PORTS {
                    return Err(Edm::AddressError);
                }
                let v = self.read_reg::<TRACING>(d.rd);
                if TRACING {
                    self.trace(TraceUnit::PortOut(port as u8), AccessKind::Write);
                }
                self.ports_out[port] = v;
            }
            Chk => {
                let v = f32::from_bits(self.read_reg::<TRACING>(d.rd));
                let lo = f32::from_bits(self.read_reg::<TRACING>(d.ra));
                let hi = f32::from_bits(self.read_reg::<TRACING>(d.rb));
                if v.is_nan() || lo.is_nan() || hi.is_nan() || v < lo || v > hi {
                    return Err(Edm::ConstraintError);
                }
            }
            Itof => {
                let a = self.read_reg::<TRACING>(d.ra) as i32;
                self.write_reg::<TRACING>(d.rd, (a as f32).to_bits());
            }
            Ftoi => {
                let a = f32::from_bits(self.read_reg::<TRACING>(d.ra));
                if a.is_nan() || !(-2147483648.0..2147483648.0).contains(&a) {
                    return Err(Edm::OverflowCheck);
                }
                self.write_reg::<TRACING>(d.rd, (a as i32) as u32);
            }
            Mov => {
                let a = self.read_reg::<TRACING>(d.ra);
                self.write_reg::<TRACING>(d.rd, a);
            }
        }
        Ok(())
    }

    fn float_binop(&mut self, op: Opcode, a: f32, b: f32) -> Result<f32, Edm> {
        // NaN and infinity both raise ILLEGAL OPERATION, so the two
        // classifications fuse into one finiteness test per operand.
        if !a.is_finite() || !b.is_finite() {
            return Err(Edm::IllegalOperation);
        }
        if op == Opcode::Fdiv && b == 0.0 {
            return Err(Edm::DivisionCheck);
        }
        let r = match op {
            Opcode::Fadd => a + b,
            Opcode::Fsub => a - b,
            Opcode::Fmul => a * b,
            Opcode::Fdiv => a / b,
            _ => unreachable!("not a float binop"),
        };
        // Non-finite results (overflow to ±inf; NaN is impossible from
        // finite operands with the zero-divisor case already rejected)
        // raise OVERFLOW CHECK; subnormals — nonzero by definition —
        // raise UNDERFLOW CHECK.
        if !r.is_finite() {
            return Err(Edm::OverflowCheck);
        }
        if r.is_subnormal() {
            return Err(Edm::UnderflowCheck);
        }
        Ok(r)
    }

    fn set_flags<const TRACING: bool>(&mut self, eq: bool, lt: bool) {
        // Both condition flags are deposited full-width from clean
        // compare inputs — the kill event for pending EQ/LT flips.
        if TRACING {
            self.trace(VisUnit::Psr(0), AccessKind::Write);
            self.trace(VisUnit::Psr(1), AccessKind::Write);
        }
        self.psr &= !(PSR_EQ | PSR_LT);
        if eq {
            self.psr |= PSR_EQ;
        }
        if lt {
            self.psr |= PSR_LT;
        }
    }

    /// Decodes through the predecoded ROM image. A hit is honoured only
    /// when the image holds the word actually being executed, so the fast
    /// path is bit-identical to calling [`isa::decode`] directly.
    fn decode_cached(&self, word: u32, ipc: u32) -> Option<Decoded> {
        if let Some(table) = &self.block_cache.table {
            if (mem::ROM_BASE..mem::ROM_BASE + mem::ROM_SIZE).contains(&ipc) {
                let slot = ((ipc - mem::ROM_BASE) >> 2) as usize;
                if table.words.get(slot) == Some(&word) {
                    return table.decoded[slot];
                }
            }
        }
        isa::decode(word)
    }

    fn read_reg<const TRACING: bool>(&mut self, r: u8) -> u32 {
        if TRACING {
            if let Some(t) = self.trace.0.as_mut() {
                t.record(TraceUnit::Reg(r & 0xF), self.instr_count, AccessKind::Read);
                // The operand latch shifts (a ← b, b ← value): record the
                // instant for the planner's value-level migration rule.
                t.record_shift(self.instr_count);
            }
        }
        let v = self.regs[(r & 0xF) as usize];
        self.idex.a = self.idex.b;
        self.idex.b = v;
        v
    }

    fn write_reg<const TRACING: bool>(&mut self, r: u8, v: u32) {
        if TRACING {
            self.trace(TraceUnit::Reg(r & 0xF), AccessKind::Write);
            // The whole result latch (value, rd, we) is deposited from
            // clean inputs.
            self.trace(VisUnit::Exwb, AccessKind::Write);
        }
        self.exwb = ResultLatch {
            value: v,
            rd: r & 0xF,
            we: true,
        };
        self.regs[(r & 0xF) as usize] = v;
    }

    /// Validates a jump/call/return/branch target and redirects fetch.
    fn control_transfer<const TRACING: bool>(&mut self, target: u32) -> Result<(), Edm> {
        if mem::region(target) != Region::Rom || !target.is_multiple_of(4) {
            return Err(Edm::JumpError);
        }
        if TRACING {
            // Both deposits are value-independent of the old contents:
            // the PC is replaced by the (clean-input) target and the
            // signature register is zeroed unconditionally — the only
            // sound kill for signature flips.
            self.trace(VisUnit::Pc, AccessKind::Write);
            self.trace(VisUnit::Sig, AccessKind::Write);
        }
        self.pc = target;
        self.fetch.valid = false;
        // Entering a new basic block: the signature monitor restarts.
        self.sig = 0;
        Ok(())
    }

    fn fetch_fault(pc: u32) -> Edm {
        match mem::region(pc) {
            Region::Bus => Edm::BusError,
            Region::Null => Edm::AccessCheck,
            _ => Edm::AddressError,
        }
    }

    fn fill_latch<const TRACING: bool>(&mut self) -> Result<(), Edm> {
        if TRACING {
            // The fetch address samples the PC. The subsequent deposits
            // (latch refill, PC increment) happen at the same instant and
            // *after* the read in per-unit order, so a pending PC flip is
            // observed here, never killed — the increment derives from
            // the flipped value.
            self.trace(VisUnit::Pc, AccessKind::Read);
        }
        match self.mem.fetch(self.pc) {
            Some(word) => {
                if TRACING {
                    self.trace(VisUnit::FetchWord, AccessKind::Write);
                    self.trace(VisUnit::FetchPc, AccessKind::Write);
                    self.trace(VisUnit::Pc, AccessKind::Write);
                }
                self.fetch = FetchLatch {
                    word,
                    pc: self.pc,
                    valid: true,
                };
                self.pc = self.pc.wrapping_add(4);
                Ok(())
            }
            None => Err(Self::fetch_fault(self.pc)),
        }
    }

    /// Prefetch at the end of a straight-line instruction; on failure the
    /// latch stays invalid and the fault is raised when the instruction is
    /// actually needed.
    fn try_prefetch<const TRACING: bool>(&mut self) {
        let _ = self.fill_latch::<TRACING>();
    }

    fn data_access<const TRACING: bool>(
        &mut self,
        addr: u32,
        write: Option<u32>,
    ) -> Result<u32, Edm> {
        if !addr.is_multiple_of(4) {
            return Err(Edm::AddressError);
        }
        match mem::region(addr) {
            Region::Null => Err(Edm::AccessCheck),
            Region::Rom | Region::Unmapped => Err(Edm::AddressError),
            Region::Bus => Err(Edm::BusError),
            Region::Stack => {
                // The storage-error EDM samples both bound registers.
                if TRACING {
                    self.trace(VisUnit::StackLo, AccessKind::Read);
                    self.trace(VisUnit::StackHi, AccessKind::Read);
                }
                if addr < self.stack_lo || addr >= self.stack_hi {
                    return Err(Edm::StorageError);
                }
                self.cached_access::<TRACING>(addr, write)
            }
            Region::Ram => self.cached_access::<TRACING>(addr, write),
        }
    }

    fn cached_access<const TRACING: bool>(
        &mut self,
        addr: u32,
        write: Option<u32>,
    ) -> Result<u32, Edm> {
        if self.parity_cache {
            let idx = crate::cache::index_of(addr);
            if *self.cache.line(idx) != self.shadow[idx] {
                return Err(Edm::DataError);
            }
        }
        if !TRACING {
            // Untraced hot path: one combined tag-check-and-access per
            // hit; a miss takes the ordinary write-back/fill route and
            // retries (the fill guarantees the second attempt hits). End
            // state is identical to the traced path below minus traces.
            if let Some(w) = self.cache.access_hit(addr, write) {
                if write.is_some() {
                    self.sbuf = StoreBuffer {
                        addr,
                        data: w,
                        valid: true,
                    };
                    self.update_shadow(addr);
                }
                return Ok(w);
            }
            if let Some((wb_addr, data)) = self.cache.pending_writeback(addr) {
                self.write_back::<TRACING>(wb_addr, &data)?;
            }
            self.fill_line::<TRACING>(addr)?;
            let w = self
                .cache
                .access_hit(addr, write)
                .expect("line just filled");
            if write.is_some() {
                self.sbuf = StoreBuffer {
                    addr,
                    data: w,
                    valid: true,
                };
                self.update_shadow(addr);
            }
            return Ok(w);
        }
        if TRACING {
            // The hit check mirrors the consult short-circuit: the valid
            // flag is sampled on every access, the tag only while the
            // line is valid. A replica whose valid-flag flip changes the
            // short-circuit splits off at this very Read, so conditioning
            // the tag sample on the *golden* flag is sound.
            let idx = crate::cache::index_of(addr);
            self.trace(VisUnit::CacheValid(idx), AccessKind::Read);
            if self.cache.line(idx).valid {
                self.trace(VisUnit::CacheTag(idx), AccessKind::Read);
            }
        }
        if !self.cache.hits(addr) {
            if TRACING {
                // The eviction decision samples the dirty flag of a valid
                // victim (pending_writeback short-circuits on valid).
                let idx = crate::cache::index_of(addr);
                if self.cache.line(idx).valid {
                    self.trace(VisUnit::CacheDirty(idx), AccessKind::Read);
                }
            }
            if let Some((wb_addr, data)) = self.cache.pending_writeback(addr) {
                // Evicting a dirty victim observes its whole line.
                if TRACING {
                    let line = crate::cache::index_of(addr);
                    for word in 0..WORDS_PER_LINE {
                        self.trace(TraceUnit::CacheWord { line, word }, AccessKind::Read);
                    }
                }
                self.write_back::<TRACING>(wb_addr, &data)?;
            }
            self.fill_line::<TRACING>(addr)?;
        }
        let unit = TraceUnit::CacheWord {
            line: crate::cache::index_of(addr),
            word: crate::cache::word_of(addr),
        };
        match write {
            Some(w) => {
                if TRACING {
                    self.trace(unit, AccessKind::Write);
                    // A store deposits the whole store buffer and forces
                    // the line's dirty flag to 1 — both value-independent
                    // of the previous contents.
                    self.trace(VisUnit::Sbuf, AccessKind::Write);
                    self.trace(
                        VisUnit::CacheDirty(crate::cache::index_of(addr)),
                        AccessKind::Write,
                    );
                }
                self.sbuf = StoreBuffer {
                    addr,
                    data: w,
                    valid: true,
                };
                self.cache.write_word(addr, w);
                self.update_shadow(addr);
                Ok(w)
            }
            None => {
                if TRACING {
                    self.trace(unit, AccessKind::Read);
                }
                Ok(self.cache.read_word(addr))
            }
        }
    }

    /// Records the legitimate cache state for the parity model.
    fn update_shadow(&mut self, addr: u32) {
        if self.parity_cache {
            let idx = crate::cache::index_of(addr);
            self.shadow[idx] = *self.cache.line(idx);
        }
    }

    fn write_back<const TRACING: bool>(
        &mut self,
        wb_addr: u32,
        data: &[u8; LINE_BYTES],
    ) -> Result<(), Edm> {
        if !TRACING {
            // Untraced: one region resolution (inside `write_line` — a
            // line never straddles regions) and one contiguous key range
            // for the dirty log; the error cases fall through to the
            // region match below.
            let words = [
                u32::from_le_bytes(data[0..4].try_into().unwrap()),
                u32::from_le_bytes(data[4..8].try_into().unwrap()),
                u32::from_le_bytes(data[8..12].try_into().unwrap()),
                u32::from_le_bytes(data[12..16].try_into().unwrap()),
            ];
            if self.mem.write_line(wb_addr, &words) {
                if let Some(log) = self.dirty.0.as_mut() {
                    if let Some(key) = mem::word_key(wb_addr) {
                        for i in 0..4 {
                            log.insert(key + i);
                        }
                    }
                }
                return Ok(());
            }
        }
        match mem::region(wb_addr) {
            Region::Ram | Region::Stack => {
                debug_assert!(TRACING, "write_line covers untraced RAM/stack lines");
                for i in 0..4 {
                    let a = wb_addr + (i as u32) * 4;
                    let w = u32::from_le_bytes(data[i * 4..i * 4 + 4].try_into().unwrap());
                    if TRACING {
                        if let Some(key) = mem::word_key(a) {
                            self.trace(TraceUnit::MemWord(key), AccessKind::Write);
                        }
                    }
                    self.mem.write_word(a, w);
                    self.note_data_write(a);
                }
                Ok(())
            }
            Region::Null => Err(Edm::AccessCheck),
            Region::Bus => Err(Edm::BusError),
            Region::Rom | Region::Unmapped => Err(Edm::AddressError),
        }
    }

    fn fill_line<const TRACING: bool>(&mut self, addr: u32) -> Result<(), Edm> {
        let base = addr & !0xF;
        if !TRACING {
            return self.fill_line_untraced(base);
        }
        let mut data = [0u8; LINE_BYTES];
        for i in 0..4 {
            let a = base + (i as u32) * 4;
            if TRACING {
                if let Some(key) = mem::word_key(a) {
                    self.trace(TraceUnit::MemWord(key), AccessKind::Read);
                }
                // The EDAC check samples the syndrome register per word;
                // each word then deposits a whole fill buffer.
                self.trace(VisUnit::EdacSyndrome, AccessKind::Read);
            }
            let (w, parity_ok) = self.mem.read_word(a).ok_or(Edm::AddressError)?;
            if !parity_ok || self.edac_syndrome != 0 {
                return Err(Edm::DataError);
            }
            if TRACING {
                self.trace(VisUnit::Fbuf, AccessKind::Write);
            }
            self.fbuf = FillBuffer {
                addr: a,
                data: w,
                parity: mem::parity(w),
                valid: true,
            };
            data[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        if TRACING {
            let line = crate::cache::index_of(base);
            for word in 0..WORDS_PER_LINE {
                self.trace(TraceUnit::CacheWord { line, word }, AccessKind::Write);
            }
            // The fill deposits the line's tag, valid and dirty flags.
            self.trace(VisUnit::CacheTag(line), AccessKind::Write);
            self.trace(VisUnit::CacheValid(line), AccessKind::Write);
            self.trace(VisUnit::CacheDirty(line), AccessKind::Write);
        }
        self.cache.fill(base, data);
        self.update_shadow(base);
        Ok(())
    }

    /// Untraced line fill: reads the whole line with one region
    /// resolution, then reproduces the traced path's observable effects
    /// bit-for-bit. The per-word fill-buffer deposits of the traced loop
    /// collapse to the last one that would have happened before returning:
    /// on success the buffer holds word 3; on a parity failure at word `i`
    /// it holds word `i - 1` (words before the failure each deposited);
    /// a nonzero EDAC syndrome fails at word 0 with the buffer untouched.
    fn fill_line_untraced(&mut self, base: u32) -> Result<(), Edm> {
        let Some((words, parity_ok)) = self.mem.read_line(base) else {
            return Err(Edm::AddressError);
        };
        if self.edac_syndrome != 0 {
            return Err(Edm::DataError);
        }
        for i in 0..4 {
            if !parity_ok[i] {
                if i > 0 {
                    let w = words[i - 1];
                    self.fbuf = FillBuffer {
                        addr: base + (i as u32 - 1) * 4,
                        data: w,
                        parity: mem::parity(w),
                        valid: true,
                    };
                }
                return Err(Edm::DataError);
            }
        }
        self.fbuf = FillBuffer {
            addr: base + 12,
            data: words[3],
            parity: mem::parity(words[3]),
            valid: true,
        };
        let mut data = [0u8; LINE_BYTES];
        for (i, w) in words.iter().enumerate() {
            data[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.cache.fill(base, data);
        self.update_shadow(base);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn machine_with(src: &str) -> Machine {
        let program = assemble(src).expect("test program must assemble");
        let mut m = Machine::new();
        m.load_program(&program);
        m
    }

    #[test]
    fn arithmetic_and_ports() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 6
                li r2, 7
                mul r3, r1, r2
                out r3, 2
                yield
            loop:
                jmp loop
            "#,
        );
        assert_eq!(m.run(100), RunExit::Yield);
        assert_eq!(m.port_out(2), 42);
    }

    #[test]
    fn float_pipeline() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x40490FDB    ; 3.14159274
                li r2, 0x40000000    ; 2.0
                fmul r3, r1, r2
                out r3, 2
                yield
            loop:
                jmp loop
            "#,
        );
        assert_eq!(m.run(100), RunExit::Yield);
        let v = m.port_out_f32(2);
        assert!((v - 6.283_185_5).abs() < 1e-5, "got {v}");
    }

    #[test]
    fn load_store_through_cache() {
        let mut m = machine_with(
            r#"
            .data 0x10000
            value: .float 10.5
            result: .word 0
            .text
            start:
                la r1, value
                ld r2, [r1+0]
                st r2, [r1+4]
                ld r3, [r1+4]
                out r3, 2
                yield
            loop:
                jmp loop
            "#,
        );
        assert_eq!(m.run(100), RunExit::Yield);
        assert_eq!(m.port_out_f32(2), 10.5);
    }

    #[test]
    fn input_ports_reach_the_program() {
        let mut m = machine_with(
            r#"
            .text
            start:
                in r1, 0
                in r2, 1
                fsub r3, r1, r2
                out r3, 2
                yield
            loop:
                jmp loop
            "#,
        );
        m.set_port_f32(PORT_R, 2000.0);
        m.set_port_f32(PORT_Y, 1850.0);
        assert_eq!(m.run(100), RunExit::Yield);
        assert_eq!(m.port_out_f32(PORT_U), 150.0);
    }

    #[test]
    fn branches_and_compare() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 5
                li r2, 9
                cmp r1, r2
                blt less
                li r3, 0
                jmp done
            less:
                li r3, 1
            done:
                out r3, 2
                yield
            loop:
                jmp loop
            "#,
        );
        assert_eq!(m.run(100), RunExit::Yield);
        assert_eq!(m.port_out(2), 1);
    }

    #[test]
    fn loop_counts_iterations() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0
                li r2, 10
            loop:
                addi r1, r1, 1
                yield
                cmp r1, r2
                blt loop
            forever:
                jmp forever
            "#,
        );
        let mut yields = 0;
        loop {
            match m.run(10_000) {
                RunExit::Yield => yields += 1,
                RunExit::Budget => break,
                RunExit::Trap(t) => panic!("unexpected trap {t:?}"),
            }
            if yields > 20 {
                break;
            }
        }
        assert_eq!(yields, 10);
        assert_eq!(m.reg(1), 10);
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut m = Machine::new();
        let program = assemble(".text\nstart:\n nop\n").unwrap();
        m.load_program(&program);
        // Overwrite the nop at the entry point with an illegal opcode (0x3F).
        m.mem.load_rom_word(program.entry, 0xFC00_0000);
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::InstructionError),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn privileged_instruction_traps() {
        let mut m = machine_with(".text\nstart:\n halt\n");
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::InstructionError),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn null_pointer_access_check() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0
                ld r2, [r1+0]
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::AccessCheck),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn unmapped_address_error() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x30000
                ld r2, [r1+0]
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::AddressError),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn bus_error_on_external_bus() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x80000000
                ld r2, [r1+0]
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::BusError),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn stack_window_enforced() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x20000      ; stack segment, below the guarded window
                st r1, [r1+0]
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::StorageError),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn stack_access_inside_window_ok() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r14, 0x20FF0
                li r1, 77
                st r1, [r14-8]
                ld r2, [r14-8]
                out r2, 2
                yield
            loop:
                jmp loop
            "#,
        );
        assert_eq!(m.run(100), RunExit::Yield);
        assert_eq!(m.port_out(2), 77);
    }

    #[test]
    fn misaligned_access_traps() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x10002
                ld r2, [r1+0]
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::AddressError),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn integer_overflow_traps() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x7FFFFFFF
                addi r2, r1, 1
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::OverflowCheck),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn float_overflow_traps() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x7F7FFFFF   ; f32::MAX
                fadd r2, r1, r1
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::OverflowCheck),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn float_nan_input_is_illegal_operation() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x7FC00000   ; NaN
                li r2, 0x3F800000   ; 1.0
                fadd r3, r1, r2
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::IllegalOperation),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn float_division_by_zero_traps() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x3F800000   ; 1.0
                li r2, 0x00000000   ; +0.0
                fdiv r3, r1, r2
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::DivisionCheck),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn integer_division_by_zero_traps() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 10
                li r2, 0
                div r3, r1, r2
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::DivisionCheck),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn float_underflow_traps() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x00800000   ; smallest normal
                li r2, 0x3F000000   ; 0.5
                fmul r3, r1, r2
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::UnderflowCheck),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn jump_outside_rom_is_jump_error() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r15, 0x10000
                ret
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::JumpError),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn call_and_ret() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 1
                call fn
                out r1, 2
                yield
            loop:
                jmp loop
            fn:
                addi r1, r1, 41
                ret
            "#,
        );
        assert_eq!(m.run(100), RunExit::Yield);
        assert_eq!(m.port_out(2), 42);
    }

    #[test]
    fn chk_constraint_error() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x42CC0000   ; 102.0
                li r2, 0x00000000   ; 0.0
                li r3, 0x428C0000   ; 70.0
                chk r1, r2, r3
            "#,
        );
        match m.run(10) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::ConstraintError),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn chk_passes_in_range() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0x42200000   ; 40.0
                li r2, 0x00000000
                li r3, 0x428C0000   ; 70.0
                chk r1, r2, r3
                yield
            loop:
                jmp loop
            "#,
        );
        assert_eq!(m.run(10), RunExit::Yield);
    }

    #[test]
    fn itof_ftoi_roundtrip() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 123
                itof r2, r1
                ftoi r3, r2
                out r3, 2
                yield
            loop:
                jmp loop
            "#,
        );
        assert_eq!(m.run(100), RunExit::Yield);
        assert_eq!(m.port_out(2), 123);
    }

    #[test]
    fn trap_freezes_machine() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0
                ld r2, [r1+0]
            "#,
        );
        let RunExit::Trap(first) = m.run(10) else {
            panic!("expected trap");
        };
        // Further stepping returns the same trap and does not advance.
        let count = m.instr_count();
        assert_eq!(m.step(), Err(first));
        assert_eq!(m.instr_count(), count);
    }

    #[test]
    fn run_until_positions_exactly() {
        let mut m = machine_with(
            r#"
            .text
            start:
                li r1, 0
            loop:
                addi r1, r1, 1
                jmp loop
            "#,
        );
        assert_eq!(m.run_until(7), RunExit::Budget);
        assert_eq!(m.instr_count(), 7);
    }

    #[test]
    fn determinism_same_program_same_state() {
        let src = r#"
            .text
            start:
                li r1, 3
                li r2, 4
            loop:
                add r3, r1, r2
                mul r2, r3, r1
                st r2, [r4+0x7F00]
                yield
                jmp loop
        "#;
        // r4 = 0 is the null page... use a valid base instead.
        let src = &src.replace("st r2, [r4+0x7F00]", "li r4, 0x10000\n st r2, [r4+0]");
        let mut a = machine_with(src);
        let mut b = machine_with(src);
        for _ in 0..3 {
            a.run(1000);
            b.run(1000);
        }
        assert_eq!(a, b);
    }

    /// A workload with straight-line runs, branches, calls, loads/stores
    /// and yields, used by the fast-replay equivalence tests.
    const REPLAY_SRC: &str = r#"
        .data 0x10000
        acc: .word 1
        .text
        start:
            li r1, 0x10000
            li r2, 0
            li r3, 25
        loop:
            ld r4, [r1+0]
            addi r4, r4, 3
            mul r5, r4, r4
            and r5, r5, r4
            st r4, [r1+0]
            call bump
            cmp r2, r3
            blt loop
            yield
            li r2, 0
            jmp loop
        bump:
            addi r2, r2, 1
            ret
    "#;

    #[test]
    fn fast_replay_matches_scalar_step() {
        let mut fast = machine_with(REPLAY_SRC);
        let mut scalar = machine_with(REPLAY_SRC);
        scalar.set_fast_replay(false);
        for _ in 0..5 {
            assert_eq!(fast.run(1000), scalar.run(1000));
            assert!(fast.state_equals(&scalar));
            assert_eq!(fast.instr_count(), scalar.instr_count());
        }
        assert!(
            fast.block_instructions() > 0,
            "the block engine must actually engage"
        );
        assert_eq!(scalar.block_instructions(), 0);
    }

    #[test]
    fn fast_replay_trap_matches_scalar_step() {
        // An overflow fires in the middle of a straight-line run.
        let src = r#"
            .text
            start:
                li r1, 0x7FFFFFF0
                li r2, 7
            loop:
                add r1, r1, r2
                add r1, r1, r2
                add r1, r1, r2
                jmp loop
        "#;
        let mut fast = machine_with(src);
        let mut scalar = machine_with(src);
        scalar.set_fast_replay(false);
        let a = fast.run(1000);
        let b = scalar.run(1000);
        assert_eq!(a, b);
        assert!(matches!(a, RunExit::Trap(t) if t.mechanism == Edm::OverflowCheck));
        assert!(fast.state_equals(&scalar));
        assert_eq!(fast.instr_count(), scalar.instr_count());
        assert_eq!(fast.trap(), scalar.trap());
    }

    #[test]
    fn fast_replay_stops_exactly_at_run_until_position() {
        let mut fast = machine_with(REPLAY_SRC);
        let mut scalar = machine_with(REPLAY_SRC);
        scalar.set_fast_replay(false);
        for stop in [3, 7, 50, 51, 52, 200] {
            assert_eq!(fast.run_until(stop), scalar.run_until(stop));
            assert_eq!(fast.instr_count(), scalar.instr_count());
            assert!(fast.state_equals(&scalar));
        }
    }

    #[test]
    fn rom_change_invalidates_affected_block() {
        // Mutating program text after load must fall the affected run back
        // to the scalar path with identical outcomes (the scalar decode
        // re-validates per word, so it re-decodes fresh).
        let program =
            assemble(".text\nstart:\n nop\n nop\n nop\n nop\n yield\nloop:\n jmp loop\n").unwrap();
        let mut fast = Machine::new();
        fast.load_program(&program);
        let mut scalar = Machine::new();
        scalar.load_program(&program);
        scalar.set_fast_replay(false);
        // Overwrite the third nop with an illegal opcode in both images.
        fast.mem.load_rom_word(program.entry + 8, 0xFC00_0000);
        scalar.mem.load_rom_word(program.entry + 8, 0xFC00_0000);
        let a = fast.run(100);
        let b = scalar.run(100);
        assert_eq!(a, b);
        assert!(matches!(a, RunExit::Trap(t) if t.mechanism == Edm::InstructionError));
        assert!(fast.state_equals(&scalar));
        assert_eq!(fast.instr_count(), scalar.instr_count());
        assert_eq!(
            fast.block_instructions(),
            0,
            "the stale block must not replay"
        );
    }

    #[test]
    fn dirty_delta_restore_equals_deep_clone() {
        let mut golden = machine_with(REPLAY_SRC);
        assert_eq!(golden.run(10_000), RunExit::Yield);
        let checkpoint = golden.clone();
        let mut arena = checkpoint.clone();
        arena.begin_dirty_log();
        // Diverge: run on, then poke extra damage.
        assert_eq!(arena.run(10_000), RunExit::Yield);
        assert!(arena.poke_word(mem::RAM_BASE + 0x40, 0xDEAD_BEEF));
        assert!(!arena.state_equals(&checkpoint));
        let dirty = arena.dirty_words().unwrap().len();
        assert!(dirty > 0, "the run must have dirtied memory");
        let copied = arena.restore_delta_from(&checkpoint, &[]);
        assert_eq!(copied, dirty);
        assert!(arena.state_equals(&checkpoint));
        assert_eq!(arena.instr_count(), checkpoint.instr_count());
        // And the restored machine replays bit-identically to a clone.
        let mut cloned = checkpoint.clone();
        assert_eq!(arena.run(5_000), cloned.run(5_000));
        assert!(arena.state_equals(&cloned));
    }

    #[test]
    fn restore_applies_extra_golden_windows() {
        let mut golden = machine_with(REPLAY_SRC);
        assert_eq!(golden.run(10_000), RunExit::Yield);
        let early = golden.clone();
        assert_eq!(golden.run(10_000), RunExit::Yield);
        let late = golden.clone();
        // The words golden wrote between the two checkpoints.
        let window: Vec<u32> = (0..mem::NUM_DATA_WORDS as u32)
            .filter(|&k| {
                early.memory().data_word(k as usize) != late.memory().data_word(k as usize)
            })
            .collect();
        let mut arena = early.clone();
        arena.begin_dirty_log();
        // Diverge from the golden trajectory, then run on.
        assert!(arena.poke_word(mem::RAM_BASE, 9));
        assert_eq!(arena.run(10_000), RunExit::Yield);
        // Hop forward to the later checkpoint: dirty set + golden window.
        arena.restore_delta_from(&late, &[window]);
        assert!(arena.state_equals(&late));
    }

    #[test]
    fn sparse_equality_agrees_with_full_equality() {
        let mut golden = machine_with(REPLAY_SRC);
        assert_eq!(golden.run(10_000), RunExit::Yield);
        let checkpoint = golden.clone();
        let mut m = checkpoint.clone();
        assert!(m.state_equals_sparse(&checkpoint, &[]).is_none(), "no log");
        m.begin_dirty_log();
        assert_eq!(m.state_equals_sparse(&checkpoint, &[]), Some(true));
        // Diverge in memory only via a logged poke.
        assert!(m.poke_word(mem::RAM_BASE + 0x40, 0x1234_5678));
        assert_eq!(
            m.state_equals_sparse(&checkpoint, &[]),
            Some(m.state_equals(&checkpoint))
        );
        assert_eq!(m.state_equals_sparse(&checkpoint, &[]), Some(false));
    }
}

#[cfg(test)]
mod parity_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::scan::BitLocation;

    fn x_resident_machine() -> Machine {
        let program = assemble(
            r#"
            .data 0x10000
            x: .float 10.0
            .text
            start:
                li r1, 0x10000
                ld r2, [r1+0]
                yield
            loop:
                li r1, 0x10000
                ld r3, [r1+0]
                out r3, 2
                yield
                jmp loop
            "#,
        )
        .unwrap();
        let mut m = Machine::new();
        m.load_program(&program);
        m.set_cache_parity(true);
        m
    }

    #[test]
    fn parity_cache_detects_data_flip() {
        let mut m = x_resident_machine();
        assert_eq!(m.run(1000), RunExit::Yield);
        m.scan_flip(BitLocation::CacheData { line: 0, bit: 31 });
        match m.run(1000) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::DataError),
            other => panic!("parity must detect the flip, got {other:?}"),
        }
    }

    #[test]
    fn parity_cache_detects_tag_flip() {
        let mut m = x_resident_machine();
        assert_eq!(m.run(1000), RunExit::Yield);
        m.scan_flip(BitLocation::CacheTag { line: 0, bit: 3 });
        match m.run(1000) {
            RunExit::Trap(t) => assert_eq!(t.mechanism, Edm::DataError),
            other => panic!("parity must detect the flip, got {other:?}"),
        }
    }

    #[test]
    fn parity_cache_quiet_when_fault_free() {
        let mut m = x_resident_machine();
        for _ in 0..100 {
            assert_eq!(m.run(1000), RunExit::Yield, "no spurious detections");
        }
    }

    #[test]
    fn unprotected_cache_lets_the_flip_through() {
        let mut m = x_resident_machine();
        m.set_cache_parity(false);
        assert_eq!(m.run(1000), RunExit::Yield);
        m.scan_flip(BitLocation::CacheData { line: 0, bit: 31 });
        assert_eq!(m.run(1000), RunExit::Yield);
        assert_eq!(m.port_out_f32(2), -10.0, "corruption reaches the program");
    }
}
