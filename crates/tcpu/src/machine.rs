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

use crate::access::{AccessKind, AccessTrace, TraceUnit, STEP_FILL, STEP_WRITEBACK};
use crate::cache::{CacheLine, DataCache, LINE_BYTES, NUM_LINES, WORDS_PER_LINE};
use crate::edm::{ErrorMechanism as Edm, Trap};
use crate::isa::{self, Decoded, Opcode};
use crate::mem::{self, Memory, Region};
use crate::vis::VisUnit;
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

/// The machine's [`BlockTable`] handle. Not architectural state: state
/// equality and the digest never look at it. No table means every replay
/// attempt falls back and every instruction decodes fresh. `replay` gates
/// the block engine alone; the table keeps serving the scalar step's
/// decode with replay off. The `Option` lets the replay entry point move the
/// table out and back with plain pointer writes instead of an `Arc`
/// refcount round-trip — that entry point runs at every untraced
/// instruction boundary, where two atomic RMWs per attempt dominate the
/// whole campaign.
#[derive(Debug, Default, Clone)]
struct BlockCache {
    table: Option<Arc<BlockTable>>,
    replay: bool,
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

/// An optional per-machine recorder — the golden run's [`AccessTrace`] or
/// the arena's [`DirtyLog`] — that clones do not inherit. A checkpoint taken
/// mid-golden-run must not alias the recorder, and a clone's dirty set is
/// undefined until its owner calls [`Machine::begin_dirty_log`].
#[derive(Debug)]
struct Detached<T>(Option<Box<T>>);

impl<T> Default for Detached<T> {
    fn default() -> Self {
        Detached(None)
    }
}

impl<T> Clone for Detached<T> {
    fn clone(&self) -> Self {
        Detached(None)
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

/// A `Core` element as [`Words::WIDTH`] consecutive words of
/// [`Core::words`]: a narrow field widens to one word, an array lays out
/// element by element, a cache line as tag, flags, then its data words.
pub(crate) trait Words {
    /// Number of words the element occupies.
    const WIDTH: usize;

    /// Word `off` of the element, read alone.
    fn get(&self, off: usize) -> u32;

    /// Writes word `off` of the element: the inverse of reading it.
    fn set(&mut self, off: usize, v: u32);

    /// Writes the element's `WIDTH` words into `w`.
    fn put(&self, w: &mut [u32]) {
        for (off, w) in w.iter_mut().enumerate() {
            *w = self.get(off);
        }
    }
}

/// One-word elements: widened on read, truncated on write.
macro_rules! scalar_words {
    ($($t:ty: $v:ident => $from:expr),*) => {$(
        impl Words for $t {
            const WIDTH: usize = 1;

            fn get(&self, _: usize) -> u32 {
                u32::from(*self)
            }

            fn set(&mut self, _: usize, $v: u32) {
                *self = $from;
            }
        }
    )*};
}

scalar_words!(u32: v => v, u16: v => v as u16, u8: v => v as u8, bool: v => v != 0);

impl<T: Words, const N: usize> Words for [T; N] {
    const WIDTH: usize = N * T::WIDTH;

    #[inline]
    fn get(&self, off: usize) -> u32 {
        self[off / T::WIDTH].get(off % T::WIDTH)
    }

    #[inline]
    fn set(&mut self, off: usize, v: u32) {
        self[off / T::WIDTH].set(off % T::WIDTH, v);
    }

    fn put(&self, w: &mut [u32]) {
        for (x, w) in self.iter().zip(w.chunks_exact_mut(T::WIDTH)) {
            x.put(w);
        }
    }
}

/// Declares `Core` from one table, one row per field: type, reset value
/// and the name of its position in [`Core::words`], with `[..]` after a
/// field of several words. A latch row declares its struct inline, one
/// position per sub-field, and resets to zeros. From the table come the
/// latch structs, the struct, `new`, `words`, `word`, `set_word`, and the
/// positions in `mod word`. `word` and `set_word` are one `match` each,
/// with a constant arm per one-word row, a range per other row and the
/// last row as the wildcard, so they compile to a jump table.
macro_rules! core_table {
    ($(#[$sm:meta])* $svis:vis struct $name:ident { $($rows:tt)* }) => {
        core_table!(@rows {[$(#[$sm])* $svis struct $name] $name} [] [] [] [] $($rows)*);
    };
    // A latch row: its struct, one field of it, and a leaf per sub-field.
    (@rows $cfg:tt [$($fields:tt)*] [$($inits:tt)*] [$($leaves:tt)*] [$($latches:tt)*]
        $(#[$m:meta])* $vis:vis $f:ident: $t:ident { $($sf:ident: $st:ty => $sp:ident),* $(,)? },
        $($rest:tt)*
    ) => {
        core_table!(@rows $cfg
            [$($fields)* $vis $f: $t,]
            [$($inits)* $f: $t::default(),]
            [$($leaves)* $(($sp [$f.$sf] $st []))*]
            [$($latches)*
                $(#[$m])*
                #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
                pub(crate) struct $t { $(pub $sf: $st,)* }
            ]
            $($rest)*);
    };
    // A plain row: one field, one leaf (matched as a range if `[..]`).
    (@rows $cfg:tt [$($fields:tt)*] [$($inits:tt)*] [$($leaves:tt)*] $latches:tt
        $(#[$m:meta])* $vis:vis $f:ident: $t:ty = $init:expr => $p:ident $([$r:tt])?,
        $($rest:tt)*
    ) => {
        core_table!(@rows $cfg
            [$($fields)* $(#[$m])* $vis $f: $t,]
            [$($inits)* $f: $init,]
            [$($leaves)* ($p [$f] $t [$($r)?])]
            $latches
            $($rest)*);
    };
    // Every row read: walk the leaves, each ending where the next begins,
    // into positions, stores and match arms; the last leaf ends at
    // `CORE_WORDS` and takes the wildcard arm.
    (@rows $cfg:tt $fields:tt $inits:tt [($first:ident $($l0:tt)*) $($l:tt)*] $latches:tt) => {
        core_table!(@leaves [$cfg $fields $inits $latches $first] [] ($first $($l0)*) $($l)*);
    };
    (@leaves $all:tt [$($acc:tt)*] ($p:ident $pl:tt $t:ty [$($r:tt)?]) ($q:ident $($ql:tt)*)
        $($rest:tt)*
    ) => {
        core_table!(@leaves $all [$($acc)* ($p $q $pl $t [$p $($r $q)?])] ($q $($ql)*) $($rest)*);
    };
    (@leaves $all:tt [$($acc:tt)*] ($p:ident $pl:tt $t:ty [$($r:tt)?])) => {
        core_table!(@emit $all [$($acc)* ($p CORE_WORDS $pl $t [_])]);
    };
    (@emit [{[$($head:tt)*] $name:ident} [$($fields:tt)*] [$($inits:tt)*] [$($latches:tt)*]
        $first:ident]
        [$(($pos:ident $next:ident [$($place:tt)*] $ty:ty [$($pat:tt)*]))*]
    ) => {
        $($latches)*

        $($head)* { $($fields)* }

        /// Positions of [`Core::words`], which are also the `Core` positions
        /// of [`Machine::sparse_diff`].
        pub(crate) mod word {
            use super::*;
            /// Cache line `l` occupies `LINES + l * LINE_WORDS ..` (its
            /// shadow `SHADOW + l * LINE_WORDS ..`): tag, flags (valid |
            /// dirty << 1), then its data words.
            pub const LINE_WORDS: usize = <CacheLine as Words>::WIDTH;
            pub const $first: usize = 0;
            $(pub const $next: usize = $pos + <$ty as Words>::WIDTH;)*
        }

        pub(crate) use word::CORE_WORDS;

        impl $name {
            fn new() -> Self {
                $name { $($inits)* }
            }

            /// The state as [`CORE_WORDS`] words, row by row. Injective: two
            /// cores are equal iff their words are, which is what lets
            /// [`Machine::sparse_diff`] stand in for equality.
            pub(crate) fn words(&self) -> [u32; CORE_WORDS] {
                use word::*;
                let mut w = [0; CORE_WORDS];
                $(Words::put(&self.$($place)*, &mut w[$pos..$next]);)*
                w
            }

            /// Word `pos` of [`Core::words`], read alone.
            pub(crate) fn word(&self, pos: usize) -> u32 {
                use word::*;
                match pos {
                    $($($pat)* => Words::get(&self.$($place)*, pos - $pos),)*
                }
            }

            /// Writes word `pos` of [`Core::words`]: the inverse of reading it.
            pub(crate) fn set_word(&mut self, pos: usize, v: u32) {
                use word::*;
                match pos {
                    $($($pat)* => Words::set(&mut self.$($place)*, pos - $pos, v),)*
                }
            }
        }
    };
}

core_table! {
    /// Thor's architectural state: every element the scan chain reaches,
    /// plus the input ports, the parity switch and the parity model's
    /// shadow lines — everything that determines future behaviour apart
    /// from memory. Restore and both state equalities derive from the
    /// struct, the word map from the table; the row order is the
    /// comparison's short-circuit order and the order of [`Core::words`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct Core {
        pub(crate) regs: [u32; isa::NUM_REGS] = [0; isa::NUM_REGS] => REGS[..],
        pub(crate) pc: u32 = mem::ROM_BASE => PC,
        pub(crate) psr: u8 = 0 => PSR,
        pub(crate) sig: u16 = 0 => SIG,
        pub(crate) stack_lo: u32 = DEFAULT_STACK_LO => STACK_LO,
        pub(crate) stack_hi: u32 = DEFAULT_STACK_HI => STACK_HI,
        pub(crate) epc: u32 = 0 => EPC,
        pub(crate) cause: u8 = 0 => CAUSE,
        pub(crate) save: [u32; 2] = [0; 2] => SAVE[..],
        /// The prefetched-instruction latch (IF/ID pipeline register).
        pub(crate) fetch: FetchLatch {
            word: u32 => FETCH_WORD,
            pc: u32 => FETCH_PC,
            valid: bool => FETCH_VALID,
        },
        /// Last consumed operand pair (ID/EX pipeline register).
        pub(crate) idex: OperandLatch {
            a: u32 => IDEX_A,
            b: u32 => IDEX_B,
        },
        /// Last committed result (EX/WB pipeline register).
        pub(crate) exwb: ResultLatch {
            value: u32 => EXWB_VALUE,
            rd: u8 => EXWB_RD,
            we: bool => EXWB_WE,
        },
        pub(crate) cache: DataCache = DataCache::new() => LINES[..],
        /// Last store accepted by the memory interface.
        pub(crate) sbuf: StoreBuffer {
            addr: u32 => SBUF_ADDR,
            data: u32 => SBUF_DATA,
            valid: bool => SBUF_VALID,
        },
        /// Last word transferred by a cache-line fill, with its parity bit.
        pub(crate) fbuf: FillBuffer {
            addr: u32 => FBUF_ADDR,
            data: u32 => FBUF_DATA,
            parity: bool => FBUF_PARITY,
            valid: bool => FBUF_VALID,
        },
        pub(crate) edac_syndrome: u8 = 0 => EDAC,
        pub(crate) ports_out: [u32; NUM_OUT_PORTS] = [0; NUM_OUT_PORTS] => PORTS_OUT[..],
        ports_in: [u32; NUM_IN_PORTS] = [0; NUM_IN_PORTS] => PORTS_IN[..],
        /// Parity protection over the data cache (the custom-hardware
        /// alternative the paper rejects on cost grounds; modelled for the
        /// ablation study). When enabled, any cache state that was not
        /// written by the cache controller itself is detected on the next
        /// access.
        parity_cache: bool = false => PARITY,
        /// The legitimate cache state the parity model checks against.
        shadow: [CacheLine; NUM_LINES] = [CacheLine::default(); NUM_LINES] => SHADOW[..],
    }
}

impl Core {
    /// Absorbs the state into `h` in declaration order, except that each
    /// cache line is followed by its shadow line. The bytes and their order
    /// are a persisted format (see [`Machine::state_digest`]), which the
    /// table's word map cannot reproduce: `psr`, `cause` and the flags stay
    /// one byte wide here while `sig` widens to four, and the shadow lines
    /// are interleaved. So this list is written out, and a new row enters
    /// the digest only when added here, moving every stored `golden_digest`.
    fn digest_into(&self, h: &mut crate::digest::Fnv64) {
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
        for index in 0..NUM_LINES {
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
    }
}

/// The Thor-like processor: its architectural state (`Core` and memory),
/// the retirement counter and trap latch, and per-machine bookkeeping that
/// is not state (recorders, the predecoded ROM image, telemetry).
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) core: Core,
    mem: Memory,
    instr_count: u64,
    trapped: Option<Trap>,
    /// Optional golden-run access-trace recorder (see [`crate::access`]).
    trace: Detached<AccessTrace>,
    /// The predecoded ROM image (fast replay and scalar decode).
    block_cache: BlockCache,
    /// Instructions retired through the block engine (telemetry).
    block_instructions: u64,
    /// Dirty-word log backing the delta checkpoint restore.
    dirty: Detached<DirtyLog>,
}

/// Equal architectural state, retirement count and trap latch.
impl PartialEq for Machine {
    fn eq(&self, other: &Self) -> bool {
        self.state_equals(other)
            && self.instr_count == other.instr_count
            && self.trapped == other.trapped
    }
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
            core: Core::new(),
            mem: Memory::new(),
            instr_count: 0,
            trapped: None,
            trace: Detached::default(),
            block_cache: BlockCache::default(),
            block_instructions: 0,
            dirty: Detached::default(),
        }
    }

    /// Starts recording an access trace (golden runs only). Any previous
    /// trace is discarded. Clones taken while tracing do not trace.
    pub fn start_access_trace(&mut self) {
        self.trace.0 = Some(Box::new(AccessTrace::new()));
    }

    /// Stops tracing and returns the recorded trace, if one was started.
    pub fn take_access_trace(&mut self) -> Option<AccessTrace> {
        let mut trace = *self.trace.0.take()?;
        trace.record_end(!self.core.fetch.valid);
        Some(trace)
    }

    /// Records the harness's read of an output port at a `yield` boundary
    /// (the closed-loop driver samples the actuator command there). The
    /// read belongs to the instruction that just yielded — `instr_count`
    /// has already advanced past it — so a fault injected exactly at the
    /// current boundary is *not* visible to it.
    pub fn trace_harness_port_read(&mut self, port: u16) {
        let at = self.instr_count.saturating_sub(1);
        let value = self.core.ports_out[port as usize];
        if let Some(t) = self.trace.0.as_mut() {
            t.record(TraceUnit::PortOut(port as u8), at, AccessKind::Read, value);
        }
    }

    #[inline]
    fn trace(&mut self, unit: impl Into<TraceUnit>, kind: AccessKind, value: u32) {
        if let Some(t) = self.trace.0.as_mut() {
            t.record(unit.into(), self.instr_count, kind, value);
        }
    }

    /// Enables or disables parity protection of the data cache. With
    /// parity on, a scan-chain bit-flip anywhere in a cache line (data,
    /// tag, or flags) raises DATA ERROR at the next access to that line —
    /// the custom-hardware alternative discussed in Section 4.3 of the
    /// paper.
    pub fn set_cache_parity(&mut self, enabled: bool) {
        self.core.parity_cache = enabled;
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
        self.core.pc = program.entry;
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
        self.block_instructions
    }

    /// Sets an input port to a raw word.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn set_port(&mut self, port: u16, value: u32) {
        self.core.ports_in[port as usize] = value;
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
        self.core.ports_out[port as usize]
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
        self.core.pc
    }

    /// Reads a general-purpose register.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 16`.
    #[must_use]
    pub fn reg(&self, r: u8) -> u32 {
        self.core.regs[r as usize]
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
    /// word key, enabling [`Machine::restore_delta_from`] and the sparse
    /// walk of [`Machine::sparse_diff`].
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
    /// (`Core`: registers, latches, cache, shadow, ports) is copied
    /// wholesale, with the instruction counter and trap latch; data memory
    /// is copied only where the two images can differ — the words `self`
    /// dirtied since its own [`Machine::begin_dirty_log`] plus `extra` (the
    /// golden run's write sets between the checkpoint `self` was last
    /// restored from and `src`, supplied by the caller who knows the
    /// checkpoint schedule). Without an active log, or when the combined
    /// set reaches the size of data memory, the whole data image is copied
    /// instead. The log restarts empty; traces are cleared (as
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
        self.core.clone_from(&src.core);
        self.instr_count = src.instr_count;
        self.trapped = src.trapped;
        self.trace = Detached::default();
        self.block_cache = src.block_cache.clone();
        debug_assert!(
            self.state_equals(src),
            "dirty-delta restore must reproduce the checkpoint exactly"
        );
        copied
    }

    /// Sparse architectural difference from `base`: replaces `out` with
    /// every `(position, value)` at which this machine's state differs,
    /// sorted by position. Positions below the `Core` word count index the
    /// `Core` words (every register, latch, cache and shadow line, port and
    /// switch); the ones above index data words by dense key (see
    /// [`mem::word_key`]). Data memory is walked only over this machine's
    /// dirty log plus `extra` (the golden run's writes since the checkpoint
    /// this machine was restored from) — sound because ROM is immutable at
    /// run time and RAM/stack can differ only where one side wrote — and in
    /// full without a log or once those keys cover more than half of data
    /// memory. Parity is a function of the data words, so the diff is empty
    /// iff [`Machine::state_equals`] holds, and two machines with equal
    /// diffs against one base are themselves `state_equals`.
    pub fn sparse_diff(&self, base: &Machine, extra: &[u32], out: &mut Vec<(u32, u32)>) {
        out.clear();
        let theirs = base.core.words();
        for (i, (a, b)) in self.core.words().into_iter().zip(theirs).enumerate() {
            if a != b {
                out.push((i as u32, a));
            }
        }
        let mut data = |k: u32| {
            let a = self.mem.data_word(k as usize);
            if a != base.mem.data_word(k as usize) {
                out.push((CORE_WORDS as u32 + k, a));
            }
        };
        match self.dirty.0.as_deref() {
            Some(log) if log.keys.len() + extra.len() <= mem::NUM_DATA_WORDS / 2 => {
                log.keys.iter().chain(extra).for_each(|&k| data(k));
                out.sort_unstable();
                out.dedup();
            }
            _ => (0..mem::NUM_DATA_WORDS as u32).for_each(data),
        }
    }

    /// Overwrites the state at every `(position, value)` of `diff`, in
    /// [`Machine::sparse_diff`]'s position space: applied to a copy of the
    /// base, it reproduces the machine the diff was taken from. Data words
    /// are written with fresh parity and enter the dirty log.
    pub fn apply_diff(&mut self, diff: &[(u32, u32)]) {
        for &(pos, v) in diff {
            match (pos as usize).checked_sub(CORE_WORDS) {
                None => self.core.set_word(pos as usize, v),
                Some(key) => {
                    self.mem.set_data_word(key, v);
                    if let Some(log) = self.dirty.0.as_mut() {
                        log.insert(key);
                    }
                }
            }
        }
    }

    /// The word at position `pos` of [`Machine::sparse_diff`]'s position
    /// space.
    #[must_use]
    pub fn word(&self, pos: u32) -> u32 {
        match (pos as usize).checked_sub(CORE_WORDS) {
            None => self.core.word(pos as usize),
            Some(key) => self.mem.data_word(key),
        }
    }

    /// What flipping `locations` would change, in
    /// [`Machine::sparse_diff`]'s position space: the flipped value of every
    /// `Core` word they touch, sorted by position (scan flips never reach
    /// data memory). The machine itself is left as it is.
    #[must_use]
    pub fn flip_diff(&self, locations: &[crate::scan::BitLocation]) -> Vec<(u32, u32)> {
        let mut masks = std::collections::BTreeMap::new();
        for loc in locations {
            let (pos, mask) = loc.word_bit();
            *masks.entry(pos).or_insert(0) ^= mask;
        }
        masks
            .into_iter()
            .filter(|&(_, mask)| mask != 0)
            .map(|(pos, mask)| (pos as u32, self.core.word(pos) ^ mask))
            .collect()
    }

    /// The predecoded instruction in ROM slot `slot`, for diff replay.
    pub(crate) fn predecoded(&self, slot: usize) -> Option<Decoded> {
        match &self.block_cache.table {
            Some(table) => table.decoded.get(slot).copied().flatten(),
            None => self.mem.rom_words().get(slot).and_then(|&w| isa::decode(w)),
        }
    }

    /// FNV-1a 64 digest of the architectural state: everything that
    /// determines future behaviour, *excluding* the instruction counter and
    /// the trap latch. Two machines with equal digests at an iteration
    /// boundary are *candidates* for having converged onto the same
    /// trajectory; confirm with [`Machine::state_equals`] before relying on
    /// it — the digest is a filter, not a proof. The value is persisted:
    /// the `golden_digest` in every store header folds in the golden end
    /// state's digest, so the hashed bytes and their order must not change.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = crate::digest::Fnv64::new();
        self.core.digest_into(&mut h);
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
        self.core == other.core && self.mem == other.mem
    }

    /// The address and word of the instruction about to execute (from the
    /// fetch latch when it is primed, else from memory at the PC). Used by
    /// the detail-mode tracer; a word of `0xFFFF_FFFF` is reported when the
    /// PC points at unfetchable memory.
    #[must_use]
    pub fn peek_next_instruction(&self) -> (u32, u32) {
        if self.core.fetch.valid {
            (self.core.fetch.pc, self.core.fetch.word)
        } else {
            (
                self.core.pc,
                self.mem.fetch(self.core.pc).unwrap_or(0xFFFF_FFFF),
            )
        }
    }

    /// Executes at most `budget` instructions, returning early on a `yield`
    /// or a trap.
    pub fn run(&mut self, budget: u64) -> RunExit {
        // Every successful scalar step and every replayed block advance
        // `instr_count` by exactly the number of instructions retired, so
        // a budget is just a stop position.
        self.run_until(self.instr_count.saturating_add(budget))
    }

    /// Executes instructions until `instr_count` reaches `stop_at`,
    /// returning early on a `yield` or a trap. Used to position the machine
    /// at a fault-injection breakpoint.
    pub fn run_until(&mut self, stop_at: u64) -> RunExit {
        // Monomorphise the step path on whether a trace is being
        // recorded: the untraced interpreter (every experiment) compiles
        // with all trace hooks removed entirely.
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
            let ipc = if self.core.fetch.valid {
                self.core.fetch.pc
            } else {
                self.core.pc
            };
            if !(mem::ROM_BASE..mem::ROM_BASE + mem::ROM_SIZE).contains(&ipc)
                || !ipc.is_multiple_of(4)
            {
                break;
            }
            let mut slot = ((ipc - mem::ROM_BASE) >> 2) as usize;
            if self.core.fetch.valid {
                if self.core.pc != ipc.wrapping_add(4)
                    || table.words.get(slot) != Some(&self.core.fetch.word)
                {
                    break;
                }
            } else {
                let Some(&word) = table.words.get(slot) else {
                    break;
                };
                self.core.fetch = FetchLatch {
                    word,
                    pc: ipc,
                    valid: true,
                };
                self.core.pc = ipc.wrapping_add(4);
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
                    self.core.sig = isa::signature_step(self.core.sig, word);
                    let mut event = StepEvent::Normal;
                    let mut transferred = false;
                    if let Err(mechanism) =
                        self.execute::<false>(d, ipc, &mut event, &mut transferred)
                    {
                        // Re-materialise the latch state the scalar path
                        // would hold at this instruction, then freeze as
                        // `step_gen` does.
                        self.core.fetch = FetchLatch {
                            word,
                            pc: ipc,
                            valid: false,
                        };
                        self.core.pc = ipc.wrapping_add(4);
                        let trap = Trap {
                            mechanism,
                            at_instruction: base + i as u64,
                            pc: ipc,
                        };
                        self.instr_count = base + i as u64 + 1;
                        self.trapped = Some(trap);
                        self.core.epc = ipc;
                        self.core.cause =
                            Edm::ALL.iter().position(|m| *m == mechanism).unwrap_or(0) as u8;
                        self.block_instructions += i as u64 + 1;
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
                self.core.fetch = FetchLatch {
                    word: table.words[slot + n],
                    pc: ipc0 + (n as u32) * 4,
                    valid: true,
                };
                self.core.pc = self.core.fetch.pc.wrapping_add(4);
                self.instr_count = base + n as u64;
                self.block_instructions += n as u64;
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
            self.core.fetch.valid = false;
            if d.op != Opcode::Sig {
                self.core.sig = isa::signature_step(self.core.sig, word);
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
                self.core.epc = ipc0;
                self.core.cause = Edm::ALL.iter().position(|m| *m == mechanism).unwrap_or(0) as u8;
                self.block_instructions += 1;
                return BlockExit::Trapped(trap);
            }
            self.instr_count += 1;
            self.block_instructions += 1;
            progressed = true;
            if !transferred {
                // `try_prefetch` equivalent: prime the latch from the
                // table when the next slot exists; past the end of ROM the
                // scalar prefetch fails silently and leaves the latch
                // invalid, which is already our state.
                if let Some(&w) = table.words.get(slot + 1) {
                    self.core.fetch = FetchLatch {
                        word: w,
                        pc: self.core.pc,
                        valid: true,
                    };
                    self.core.pc = self.core.pc.wrapping_add(4);
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
                    self.trace(VisUnit::EpcCause, AccessKind::Write, pc);
                }
                self.instr_count += 1;
                self.trapped = Some(trap);
                self.core.epc = pc;
                self.core.cause = Edm::ALL.iter().position(|m| *m == mechanism).unwrap_or(0) as u8;
                Err(trap)
            }
        }
    }

    fn step_inner<const TRACING: bool>(&mut self) -> Result<StepEvent, (Edm, u32)> {
        // Consume the prefetched instruction (fetch now if the latch was
        // invalidated by a control transfer or a failed prefetch).
        let refetch = !self.core.fetch.valid;
        if refetch {
            self.fill_latch().map_err(|m| (m, self.core.pc))?;
        }
        let word = self.core.fetch.word;
        let ipc = self.core.fetch.pc;
        if TRACING {
            // The PC and fetch-latch events are not traced: the trace
            // derives them from `refetch` (see `access`).
            let at = self.instr_count;
            if let Some(t) = self.trace.0.as_mut() {
                t.record_step(at, (ipc.wrapping_sub(mem::ROM_BASE) >> 2) & 0xFFFF, refetch);
            }
        }
        self.core.fetch.valid = false;

        let d = self
            .decode_cached(word, ipc)
            .ok_or((Edm::InstructionError, ipc))?;
        if d.op.is_privileged() {
            return Err((Edm::InstructionError, ipc));
        }

        // The signature monitor hashes every executed word except the check
        // instruction itself (mirrors the assembler's static accumulation).
        if d.op != Opcode::Sig {
            self.core.sig = isa::signature_step(self.core.sig, word);
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
    pub(crate) fn execute<const TRACING: bool>(
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
                    self.trace(VisUnit::Sig, AccessKind::Read, u32::from(self.core.sig));
                }
                if self.core.sig != d.uimm16 as u16 {
                    return Err(Edm::ControlFlowError);
                }
                if TRACING {
                    self.trace(VisUnit::Sig, AccessKind::Write, 0);
                }
                self.core.sig = 0;
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
                    let psr = u32::from(self.core.psr);
                    if matches!(d.op, Beq | Bne | Bgt | Ble) {
                        self.trace(VisUnit::Psr(0), AccessKind::Read, psr);
                    }
                    if matches!(d.op, Blt | Bge | Bgt | Ble) {
                        self.trace(VisUnit::Psr(1), AccessKind::Read, psr);
                    }
                }
                let eq = self.core.psr & PSR_EQ != 0;
                let lt = self.core.psr & PSR_LT != 0;
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
                self.write_reg::<TRACING>(d.rd, self.core.ports_in[port]);
            }
            Out => {
                let port = d.uimm16 as usize;
                if port >= NUM_OUT_PORTS {
                    return Err(Edm::AddressError);
                }
                let v = self.read_reg::<TRACING>(d.rd);
                if TRACING {
                    self.trace(TraceUnit::PortOut(port as u8), AccessKind::Write, v);
                }
                self.core.ports_out[port] = v;
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
        self.core.psr &= !(PSR_EQ | PSR_LT);
        if eq {
            self.core.psr |= PSR_EQ;
        }
        if lt {
            self.core.psr |= PSR_LT;
        }
        // Both condition flags are deposited full-width from clean
        // compare inputs — the kill event for pending EQ/LT flips.
        if TRACING {
            let psr = u32::from(self.core.psr);
            self.trace(VisUnit::Psr(0), AccessKind::Write, psr);
            self.trace(VisUnit::Psr(1), AccessKind::Write, psr);
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
        let v = self.core.regs[(r & 0xF) as usize];
        if TRACING {
            if let Some(t) = self.trace.0.as_mut() {
                t.record(
                    TraceUnit::Reg(r & 0xF),
                    self.instr_count,
                    AccessKind::Read,
                    v,
                );
                // The operand latch shifts (a ← b, b ← value): record it
                // for the planner's value-level migration rule and for
                // diff replay.
                t.record_shift(self.instr_count, r & 0xF, v);
            }
        }
        self.core.idex.a = self.core.idex.b;
        self.core.idex.b = v;
        v
    }

    fn write_reg<const TRACING: bool>(&mut self, r: u8, v: u32) {
        if TRACING {
            self.trace(TraceUnit::Reg(r & 0xF), AccessKind::Write, v);
            // The whole result latch (value, rd, we) is deposited from
            // clean inputs.
            self.trace(VisUnit::Exwb, AccessKind::Write, v);
        }
        self.core.exwb = ResultLatch {
            value: v,
            rd: r & 0xF,
            we: true,
        };
        self.core.regs[(r & 0xF) as usize] = v;
    }

    /// Validates a jump/call/return/branch target and redirects fetch.
    fn control_transfer<const TRACING: bool>(&mut self, target: u32) -> Result<(), Edm> {
        if mem::region(target) != Region::Rom || !target.is_multiple_of(4) {
            return Err(Edm::JumpError);
        }
        if TRACING {
            // The signature register is zeroed unconditionally, a
            // value-independent deposit: the only sound kill for signature
            // flips. (The PC's write here is derived: the latch is left
            // empty.)
            self.trace(VisUnit::Sig, AccessKind::Write, 0);
        }
        self.core.pc = target;
        self.core.fetch.valid = false;
        // Entering a new basic block: the signature monitor restarts.
        self.core.sig = 0;
        Ok(())
    }

    fn fetch_fault(pc: u32) -> Edm {
        match mem::region(pc) {
            Region::Bus => Edm::BusError,
            Region::Null => Edm::AccessCheck,
            _ => Edm::AddressError,
        }
    }

    /// Refills the fetch latch from the PC and increments the PC. The
    /// fetch address samples the PC before the deposits, so a pending PC
    /// flip is observed here, never killed: the traced golden's derived PC
    /// events (see `access`) keep that read first.
    fn fill_latch(&mut self) -> Result<(), Edm> {
        match self.mem.fetch(self.core.pc) {
            Some(word) => {
                self.core.fetch = FetchLatch {
                    word,
                    pc: self.core.pc,
                    valid: true,
                };
                self.core.pc = self.core.pc.wrapping_add(4);
                Ok(())
            }
            None => Err(Self::fetch_fault(self.core.pc)),
        }
    }

    /// Prefetch at the end of a straight-line instruction; on failure the
    /// latch stays invalid and the fault is raised when the instruction is
    /// actually needed.
    ///
    /// # Panics
    ///
    /// Panics if a traced prefetch fails: the trace derives the fetch
    /// units' events on the rule that every golden prefetch succeeds.
    fn try_prefetch<const TRACING: bool>(&mut self) {
        let fetched = self.fill_latch().is_ok();
        assert!(
            !TRACING || fetched,
            "a traced prefetch failed at {:#x}",
            self.core.pc
        );
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
                    self.trace(VisUnit::StackLo, AccessKind::Read, addr);
                    self.trace(VisUnit::StackHi, AccessKind::Read, addr);
                }
                if addr < self.core.stack_lo || addr >= self.core.stack_hi {
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
        if self.core.parity_cache {
            let idx = crate::cache::index_of(addr);
            if *self.core.cache.line(idx) != self.core.shadow[idx] {
                return Err(Edm::DataError);
            }
        }
        if !TRACING {
            // Untraced hot path: one combined tag-check-and-access per
            // hit; a miss takes the ordinary write-back/fill route and
            // retries (the fill guarantees the second attempt hits). End
            // state is identical to the traced path below minus traces.
            if let Some(w) = self.core.cache.access_hit(addr, write) {
                if write.is_some() {
                    self.core.sbuf = StoreBuffer {
                        addr,
                        data: w,
                        valid: true,
                    };
                    self.update_shadow(addr);
                }
                return Ok(w);
            }
            if let Some((wb_addr, data)) = self.core.cache.pending_writeback(addr) {
                self.write_back::<TRACING>(wb_addr, &data)?;
            }
            self.fill_line::<TRACING>(addr)?;
            let w = self
                .core
                .cache
                .access_hit(addr, write)
                .expect("line just filled");
            if write.is_some() {
                self.core.sbuf = StoreBuffer {
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
            let line = *self.core.cache.line(idx);
            self.trace(
                VisUnit::CacheValid(idx),
                AccessKind::Read,
                u32::from(line.valid),
            );
            if line.valid {
                self.trace(VisUnit::CacheTag(idx), AccessKind::Read, line.tag);
            }
        }
        if !self.core.cache.hits(addr) {
            if TRACING {
                // The eviction decision samples the dirty flag of a valid
                // victim (pending_writeback short-circuits on valid).
                let idx = crate::cache::index_of(addr);
                let line = *self.core.cache.line(idx);
                if line.valid {
                    self.trace(
                        VisUnit::CacheDirty(idx),
                        AccessKind::Read,
                        u32::from(line.dirty),
                    );
                }
                if let Some(t) = self.trace.0.as_mut() {
                    t.mark_step(STEP_FILL);
                }
            }
            if let Some((wb_addr, data)) = self.core.cache.pending_writeback(addr) {
                // Evicting a dirty victim observes its whole line.
                if TRACING {
                    let line = crate::cache::index_of(addr);
                    for word in 0..WORDS_PER_LINE {
                        let v =
                            u32::from_le_bytes(data[word * 4..word * 4 + 4].try_into().unwrap());
                        self.trace(TraceUnit::CacheWord { line, word }, AccessKind::Read, v);
                    }
                    if let Some(t) = self.trace.0.as_mut() {
                        t.mark_step(STEP_WRITEBACK);
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
                    self.trace(unit, AccessKind::Write, w);
                    // A store deposits the whole store buffer and forces
                    // the line's dirty flag to 1 — both value-independent
                    // of the previous contents.
                    self.trace(VisUnit::Sbuf, AccessKind::Write, w);
                    self.trace(
                        VisUnit::CacheDirty(crate::cache::index_of(addr)),
                        AccessKind::Write,
                        1,
                    );
                }
                self.core.sbuf = StoreBuffer {
                    addr,
                    data: w,
                    valid: true,
                };
                self.core.cache.write_word(addr, w);
                self.update_shadow(addr);
                Ok(w)
            }
            None => {
                let w = self.core.cache.read_word(addr);
                if TRACING {
                    self.trace(unit, AccessKind::Read, w);
                }
                Ok(w)
            }
        }
    }

    /// Records the legitimate cache state for the parity model.
    fn update_shadow(&mut self, addr: u32) {
        if self.core.parity_cache {
            let idx = crate::cache::index_of(addr);
            self.core.shadow[idx] = *self.core.cache.line(idx);
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
                            self.trace(TraceUnit::MemWord(key), AccessKind::Write, w);
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
            let read = self.mem.read_word(a);
            if TRACING {
                if let Some(key) = mem::word_key(a) {
                    self.trace(
                        TraceUnit::MemWord(key),
                        AccessKind::Read,
                        read.map_or(0, |r| r.0),
                    );
                }
                // The EDAC check samples the syndrome register per word;
                // each word then deposits a whole fill buffer.
                let syndrome = u32::from(self.core.edac_syndrome);
                self.trace(VisUnit::EdacSyndrome, AccessKind::Read, syndrome);
            }
            let (w, parity_ok) = read.ok_or(Edm::AddressError)?;
            if !parity_ok || self.core.edac_syndrome != 0 {
                return Err(Edm::DataError);
            }
            if TRACING {
                self.trace(VisUnit::Fbuf, AccessKind::Write, w);
            }
            self.core.fbuf = FillBuffer {
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
                let v = u32::from_le_bytes(data[word * 4..word * 4 + 4].try_into().unwrap());
                self.trace(TraceUnit::CacheWord { line, word }, AccessKind::Write, v);
            }
            // The fill deposits the line's tag, valid and dirty flags.
            self.trace(
                VisUnit::CacheTag(line),
                AccessKind::Write,
                crate::cache::tag_of(base),
            );
            self.trace(VisUnit::CacheValid(line), AccessKind::Write, 1);
            self.trace(VisUnit::CacheDirty(line), AccessKind::Write, 0);
        }
        self.core.cache.fill(base, data);
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
        if self.core.edac_syndrome != 0 {
            return Err(Edm::DataError);
        }
        for i in 0..4 {
            if !parity_ok[i] {
                if i > 0 {
                    let w = words[i - 1];
                    self.core.fbuf = FillBuffer {
                        addr: base + (i as u32 - 1) * 4,
                        data: w,
                        parity: mem::parity(w),
                        valid: true,
                    };
                }
                return Err(Edm::DataError);
            }
        }
        self.core.fbuf = FillBuffer {
            addr: base + 12,
            data: words[3],
            parity: mem::parity(words[3]),
            valid: true,
        };
        let mut data = [0u8; LINE_BYTES];
        for (i, w) in words.iter().enumerate() {
            data[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.core.cache.fill(base, data);
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

    /// The digest is a persisted format: the `golden_digest` in every
    /// store header folds in the golden end state's digest, and
    /// `paranoid_members` seeds its member choice from that value, so a
    /// change to the hashed bytes or their order moves stored files. This pins it on a state that covers the
    /// cache, a scan-flipped line and its parity shadow. `REPLAY_SRC` uses
    /// integer operations only, so the value does not depend on the host's
    /// floating-point library.
    #[test]
    fn state_digest_is_pinned() {
        let mut m = machine_with(REPLAY_SRC);
        m.set_cache_parity(true);
        assert_eq!(m.run(10_000), RunExit::Yield);
        m.scan_flip(crate::scan::BitLocation::CacheData { line: 0, bit: 5 });
        assert_eq!(m.state_digest(), 0x827d_6e6c_0c06_ba1c);
    }

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
        // Convergence is "the sparse diff is empty": it must agree with
        // full equality with and without a dirty log.
        let mut golden = machine_with(REPLAY_SRC);
        assert_eq!(golden.run(10_000), RunExit::Yield);
        let checkpoint = golden.clone();
        let mut m = checkpoint.clone();
        let mut diff = Vec::new();
        m.sparse_diff(&checkpoint, &[], &mut diff);
        assert!(diff.is_empty() && m.state_equals(&checkpoint), "no log");
        m.begin_dirty_log();
        m.sparse_diff(&checkpoint, &[], &mut diff);
        assert!(diff.is_empty());
        // Diverge in memory only via a logged poke.
        assert!(m.poke_word(mem::RAM_BASE + 0x40, 0x1234_5678));
        m.sparse_diff(&checkpoint, &[], &mut diff);
        assert_eq!(diff.is_empty(), m.state_equals(&checkpoint));
        assert!(!diff.is_empty());
    }

    #[test]
    fn set_word_inverts_words() {
        let mut core = machine_with(REPLAY_SRC).core;
        for pos in 0..CORE_WORDS {
            for v in [0, 1] {
                core.set_word(pos, v);
                assert_eq!(core.word(pos), v, "position {pos}");
            }
        }
        // `words` is written out field by field for speed; it must read
        // what `word` reads at every position.
        let mut m = machine_with(REPLAY_SRC);
        assert_eq!(m.run(10_000), RunExit::Yield);
        for (pos, &w) in m.core.words().iter().enumerate() {
            assert_eq!(w, m.core.word(pos), "position {pos}");
        }
    }

    /// The word layout is the position space of every sparse diff, the
    /// steady-delta table and the scan chain's word map; a new `Core` field
    /// shows up here as the positions it moves.
    #[test]
    fn word_layout_is_pinned() {
        use word::*;
        let layout = [
            ("PC", PC, 16),
            ("PSR", PSR, 17),
            ("SIG", SIG, 18),
            ("STACK_LO", STACK_LO, 19),
            ("STACK_HI", STACK_HI, 20),
            ("EPC", EPC, 21),
            ("CAUSE", CAUSE, 22),
            ("SAVE", SAVE, 23),
            ("FETCH_WORD", FETCH_WORD, 25),
            ("FETCH_PC", FETCH_PC, 26),
            ("FETCH_VALID", FETCH_VALID, 27),
            ("IDEX_A", IDEX_A, 28),
            ("IDEX_B", IDEX_B, 29),
            ("EXWB_VALUE", EXWB_VALUE, 30),
            ("EXWB_RD", EXWB_RD, 31),
            ("EXWB_WE", EXWB_WE, 32),
            ("LINES", LINES, 33),
            ("LINE_WORDS", LINE_WORDS, 6),
            ("SBUF_ADDR", SBUF_ADDR, 81),
            ("EDAC", EDAC, 88),
            ("PORTS_OUT", PORTS_OUT, 89),
            ("PORTS_IN", PORTS_IN, 93),
            ("PARITY", PARITY, 97),
            ("SHADOW", SHADOW, 98),
            ("CORE_WORDS", CORE_WORDS, 146),
        ];
        for (name, at, want) in layout {
            assert_eq!(at, want, "{name}");
        }
    }

    #[test]
    fn applying_a_diff_reproduces_the_diffed_machine() {
        let mut golden = machine_with(REPLAY_SRC);
        assert_eq!(golden.run(10_000), RunExit::Yield);
        let base = golden.clone();
        let mut m = base.clone();
        m.begin_dirty_log();
        let flips = [crate::scan::catalog()[3], crate::scan::catalog()[1500]];
        let flipped = m.flip_diff(&flips);
        assert!(!flipped.is_empty());
        for &loc in &flips {
            m.scan_flip(loc);
        }
        let _ = m.run(500);
        let mut diff = Vec::new();
        m.sparse_diff(&base, &[], &mut diff);
        let mut rebuilt = base.clone();
        rebuilt.apply_diff(&diff);
        assert!(rebuilt.state_equals(&m));
        // The flips' own diff against the unflipped state.
        let mut again = base.clone();
        again.apply_diff(&flipped);
        let mut direct = base.clone();
        for &loc in &flips {
            direct.scan_flip(loc);
        }
        assert!(again.state_equals(&direct));
    }

    #[test]
    fn rom_poke_on_one_clone_leaves_the_other_intact() {
        let mut a = machine_with(REPLAY_SRC);
        let mut b = a.clone();
        let word = a.memory().fetch(mem::ROM_BASE).unwrap();
        b.poke_rom_word(mem::ROM_BASE, 0xFFFF_FFFF);
        assert_eq!(a.memory().fetch(mem::ROM_BASE), Some(word));
        assert_eq!(b.memory().fetch(mem::ROM_BASE), Some(0xFFFF_FFFF));
        // `a`'s blocks stay valid: it still replays through the table.
        let before = a.block_instructions();
        assert_eq!(a.run(10_000), RunExit::Yield);
        assert!(a.block_instructions() > before);
        assert_ne!(a.memory().rom_version(), b.memory().rom_version());
    }

    #[test]
    fn sparse_diff_is_empty_iff_states_are_equal() {
        let mut golden = machine_with(REPLAY_SRC);
        assert_eq!(golden.run(10_000), RunExit::Yield);
        let base = golden.clone();
        let mut diff = Vec::new();
        // Every scan-chain bit, flipped on a logged machine, shows up in the
        // diff; flipped back, the diff is empty again.
        let mut m = base.clone();
        m.begin_dirty_log();
        m.sparse_diff(&base, &[], &mut diff);
        assert!(diff.is_empty() && m.state_equals(&base));
        for &loc in crate::scan::catalog() {
            m.scan_flip(loc);
            m.sparse_diff(&base, &[], &mut diff);
            assert!(!diff.is_empty(), "{loc:?} must show in the diff");
            assert!(!m.state_equals(&base));
            m.scan_flip(loc);
            m.sparse_diff(&base, &[], &mut diff);
            assert!(diff.is_empty(), "{loc:?} flipped back must not");
        }
        // So do the state elements the scan chain does not reach.
        m.set_port(PORT_R, 7);
        m.sparse_diff(&base, &[], &mut diff);
        assert_eq!(diff.is_empty(), m.state_equals(&base));
        assert!(!diff.is_empty());
        // A data word, found through the dirty log (sparse walk) or the
        // full sweep alike.
        let mut m = base.clone();
        m.begin_dirty_log();
        assert!(m.poke_word(mem::STACK_BASE + 0x40, 0x1234_5678));
        m.sparse_diff(&base, &[], &mut diff);
        assert_eq!(diff.len(), 1);
        let mut unlogged = base.clone();
        assert!(unlogged.poke_word(mem::STACK_BASE + 0x40, 0x1234_5678));
        let mut full = Vec::new();
        unlogged.sparse_diff(&base, &[], &mut full);
        assert_eq!(diff, full);
    }

    #[test]
    fn equal_diffs_against_one_base_mean_equal_states() {
        let mut golden = machine_with(REPLAY_SRC);
        assert_eq!(golden.run(10_000), RunExit::Yield);
        let base = golden.clone();
        // Two runs that reach the same damaged state by different routes:
        // one pokes a RAM word the program never touches and then runs, the
        // other runs and then pokes.
        let addr = mem::RAM_BASE + 0x400;
        let mut a = base.clone();
        a.begin_dirty_log();
        assert!(a.poke_word(addr, 5));
        assert_eq!(a.run(10_000), RunExit::Yield);
        let mut b = base.clone();
        b.begin_dirty_log();
        assert_eq!(b.run(10_000), RunExit::Yield);
        assert!(b.poke_word(addr, 5));
        let (mut da, mut db) = (Vec::new(), Vec::new());
        a.sparse_diff(&base, &[], &mut da);
        b.sparse_diff(&base, &[], &mut db);
        assert!(!da.is_empty());
        assert_eq!(da, db);
        assert!(a.state_equals(&b));
        // One more word of difference on one side breaks both.
        assert!(b.poke_word(addr + 4, 6));
        b.sparse_diff(&base, &[], &mut db);
        assert_ne!(da, db);
        assert!(!a.state_equals(&b));
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
