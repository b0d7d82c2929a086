//! The scan chain: bit-level access to every internal state element.
//!
//! Thor's scan-chain logic gives the GOOFI tool read access to ~3000 and
//! write access to ~2700 of its internal state elements; the paper samples
//! 2250 of them (1824 in the data cache, 426 in the registers) as fault
//! locations. This module enumerates the simulator's state elements the same
//! way: [`catalog`] lists every scannable bit as a [`BitLocation`], each
//! attributed to a [`CpuPart`] matching the Cache/Registers split of
//! Tables 2 and 3. Each bit is one bit of a `Core` word
//! ([`BitLocation::word_bit`]), through which the machine reads and flips
//! it and counts the bits in which two machines differ.

use crate::cache::{LINE_BYTES, NUM_LINES, TAG_BITS};
use crate::machine::{Machine, CORE_WORDS, NUM_OUT_PORTS};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Which part of the CPU a state element belongs to — the two columns of
/// the paper's result tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CpuPart {
    /// The on-chip data cache and its interface buffers.
    Cache,
    /// Everything else: register file, PC, PSR, pipeline latches,
    /// supervisor state ("Registers" in the tables).
    Registers,
}

impl fmt::Display for CpuPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CpuPart::Cache => "Cache",
            CpuPart::Registers => "Registers",
        })
    }
}

/// One scannable state bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // the variant names describe the state elements
pub enum BitLocation {
    CacheData { line: u8, bit: u8 },
    CacheTag { line: u8, bit: u8 },
    CacheValid { line: u8 },
    CacheDirty { line: u8 },
    StoreBufAddr { bit: u8 },
    StoreBufData { bit: u8 },
    StoreBufValid,
    FillBufAddr { bit: u8 },
    FillBufData { bit: u8 },
    FillBufParity,
    FillBufValid,
    EdacSyndrome { bit: u8 },
    Reg { index: u8, bit: u8 },
    Pc { bit: u8 },
    Psr { bit: u8 },
    SigReg { bit: u8 },
    StackLo { bit: u8 },
    StackHi { bit: u8 },
    Epc { bit: u8 },
    Cause { bit: u8 },
    Save { index: u8, bit: u8 },
    FetchWord { bit: u8 },
    FetchPc { bit: u8 },
    FetchValid,
    OperandA { bit: u8 },
    OperandB { bit: u8 },
    ResultValue { bit: u8 },
    ResultRd { bit: u8 },
    ResultWe,
    PortOut { port: u8, bit: u8 },
}

impl BitLocation {
    /// The `Core` word this bit lives in and its one-bit mask there, in
    /// [`Machine::sparse_diff`]'s position space: the scan chain's one map
    /// onto the machine state. Reading, flipping, the latent test and flip
    /// diffs all go through it.
    #[must_use]
    pub fn word_bit(&self) -> (usize, u32) {
        use crate::machine::word::*;
        use BitLocation::*;
        let line = |l: u8, off: usize| LINES + usize::from(l) * LINE_WORDS + off;
        let (pos, bit) = match *self {
            CacheData { line: l, bit } => (
                line(l, 2 + crate::cache::word_of_data_bit(usize::from(bit))),
                bit % 32,
            ),
            CacheTag { line: l, bit } => (line(l, 0), bit),
            CacheValid { line: l } => (line(l, 1), 0),
            CacheDirty { line: l } => (line(l, 1), 1),
            StoreBufAddr { bit } => (SBUF_ADDR, bit),
            StoreBufData { bit } => (SBUF_DATA, bit),
            StoreBufValid => (SBUF_VALID, 0),
            FillBufAddr { bit } => (FBUF_ADDR, bit),
            FillBufData { bit } => (FBUF_DATA, bit),
            FillBufParity => (FBUF_PARITY, 0),
            FillBufValid => (FBUF_VALID, 0),
            EdacSyndrome { bit } => (EDAC, bit),
            Reg { index, bit } => (usize::from(index), bit),
            Pc { bit } => (PC, bit),
            Psr { bit } => (PSR, bit),
            SigReg { bit } => (SIG, bit),
            StackLo { bit } => (STACK_LO, bit),
            StackHi { bit } => (STACK_HI, bit),
            Epc { bit } => (EPC, bit),
            Cause { bit } => (CAUSE, bit),
            Save { index, bit } => (SAVE + usize::from(index), bit),
            FetchWord { bit } => (FETCH_WORD, bit),
            FetchPc { bit } => (FETCH_PC, bit),
            FetchValid => (FETCH_VALID, 0),
            OperandA { bit } => (IDEX_A, bit),
            OperandB { bit } => (IDEX_B, bit),
            ResultValue { bit } => (EXWB_VALUE, bit),
            ResultRd { bit } => (EXWB_RD, bit),
            ResultWe => (EXWB_WE, 0),
            PortOut { port, bit } => (PORTS_OUT + usize::from(port), bit),
        };
        (pos, 1 << bit)
    }

    /// The part of the CPU this bit belongs to: the cache lines, the
    /// store and fill buffers and the EDAC syndrome sit together in the
    /// word map.
    #[must_use]
    pub fn part(&self) -> CpuPart {
        use crate::machine::word::{LINES, PORTS_OUT};
        if (LINES..PORTS_OUT).contains(&self.word_bit().0) {
            CpuPart::Cache
        } else {
            CpuPart::Registers
        }
    }

    /// The access-trace unit governing this bit, or `None` for the two
    /// elements no trace can cover: the fetch-latch valid bit (consulted
    /// by every instruction to decide whether to fetch) and the operand
    /// latch (a shift register whose flips migrate between its slots; the
    /// planner resolves it from the trace's shift instants instead).
    ///
    /// Bits whose **every** semantic access flows through an explicit
    /// trace hook map to a def/use unit: the register file
    /// (`read_reg`/`write_reg`), cache data words (cached reads and
    /// writes, line fills, write-backs), the output ports (`out` plus the
    /// harness's sample at each `yield`), and the save registers (never
    /// touched at run time). Everything else is consulted implicitly —
    /// the fetch latch on every step, the signature register by the
    /// control-flow monitor, cache tags/flags by every hit check, the
    /// store/fill buffers by the memory interface, the PSR by branches,
    /// the stack bounds and EDAC syndrome by the EDMs — and maps to its
    /// visibility unit ([`TraceUnit::Vis`](crate::access::TraceUnit::Vis)),
    /// traced at those consult sites.
    #[must_use]
    pub fn trace_unit(&self) -> Option<crate::access::TraceUnit> {
        use crate::access::TraceUnit;
        match *self {
            BitLocation::Reg { index, .. } => Some(TraceUnit::Reg(index)),
            BitLocation::CacheData { line, bit } => Some(TraceUnit::CacheWord {
                line: line as usize,
                word: crate::cache::word_of_data_bit(bit as usize),
            }),
            BitLocation::PortOut { port, .. } => Some(TraceUnit::PortOut(port)),
            BitLocation::Save { index, .. } => Some(TraceUnit::Save(index)),
            _ => self.vis_unit().map(TraceUnit::Vis),
        }
    }
}

/// Per `Core` word (see [`Machine::sparse_diff`]), the bits the scan chain
/// reaches: the union of the catalog's [`BitLocation::word_bit`] masks.
fn scan_masks() -> &'static [u32; CORE_WORDS] {
    static MASKS: OnceLock<[u32; CORE_WORDS]> = OnceLock::new();
    MASKS.get_or_init(|| {
        let mut masks = [0; CORE_WORDS];
        for loc in catalog() {
            let (pos, mask) = loc.word_bit();
            masks[pos] |= mask;
        }
        masks
    })
}

/// Builds the complete, ordered list of scannable bits.
#[must_use]
pub fn catalog() -> &'static [BitLocation] {
    static CATALOG: OnceLock<Vec<BitLocation>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let mut v = Vec::new();
        // --- Cache part ---
        for line in 0..NUM_LINES as u8 {
            for bit in 0..(LINE_BYTES * 8) as u8 {
                v.push(BitLocation::CacheData { line, bit });
            }
            for bit in 0..TAG_BITS as u8 {
                v.push(BitLocation::CacheTag { line, bit });
            }
            v.push(BitLocation::CacheValid { line });
            v.push(BitLocation::CacheDirty { line });
        }
        for bit in 0..32 {
            v.push(BitLocation::StoreBufAddr { bit });
        }
        for bit in 0..32 {
            v.push(BitLocation::StoreBufData { bit });
        }
        v.push(BitLocation::StoreBufValid);
        for bit in 0..32 {
            v.push(BitLocation::FillBufAddr { bit });
        }
        for bit in 0..32 {
            v.push(BitLocation::FillBufData { bit });
        }
        v.push(BitLocation::FillBufParity);
        v.push(BitLocation::FillBufValid);
        for bit in 0..8 {
            v.push(BitLocation::EdacSyndrome { bit });
        }
        // --- Register part ---
        for index in 0..16u8 {
            for bit in 0..32 {
                v.push(BitLocation::Reg { index, bit });
            }
        }
        for bit in 0..32 {
            v.push(BitLocation::Pc { bit });
        }
        for bit in 0..8 {
            v.push(BitLocation::Psr { bit });
        }
        for bit in 0..16 {
            v.push(BitLocation::SigReg { bit });
        }
        for bit in 0..32 {
            v.push(BitLocation::StackLo { bit });
        }
        for bit in 0..32 {
            v.push(BitLocation::StackHi { bit });
        }
        for bit in 0..32 {
            v.push(BitLocation::Epc { bit });
        }
        for bit in 0..8 {
            v.push(BitLocation::Cause { bit });
        }
        for index in 0..2u8 {
            for bit in 0..32 {
                v.push(BitLocation::Save { index, bit });
            }
        }
        for bit in 0..32 {
            v.push(BitLocation::FetchWord { bit });
        }
        for bit in 0..32 {
            v.push(BitLocation::FetchPc { bit });
        }
        v.push(BitLocation::FetchValid);
        for bit in 0..32 {
            v.push(BitLocation::OperandA { bit });
        }
        for bit in 0..32 {
            v.push(BitLocation::OperandB { bit });
        }
        for bit in 0..32 {
            v.push(BitLocation::ResultValue { bit });
        }
        for bit in 0..4 {
            v.push(BitLocation::ResultRd { bit });
        }
        v.push(BitLocation::ResultWe);
        for port in 0..NUM_OUT_PORTS as u8 {
            for bit in 0..32 {
                v.push(BitLocation::PortOut { port, bit });
            }
        }
        v
    })
}

impl Machine {
    /// Reads one scannable bit.
    #[must_use]
    pub fn scan_read(&self, loc: BitLocation) -> bool {
        let (pos, mask) = loc.word_bit();
        self.core.word(pos) & mask != 0
    }

    /// Flips one scannable bit — the single-bit-flip fault model of the
    /// paper, injected exactly as SCIFI does: read the scan chain, invert
    /// the bit, write it back.
    pub fn scan_flip(&mut self, loc: BitLocation) {
        let (pos, mask) = loc.word_bit();
        self.core.set_word(pos, self.core.word(pos) ^ mask);
    }

    /// Forces one scannable bit to `value` — the stuck-at fault model:
    /// read the scan chain and write the bit back only if it differs, so
    /// re-applying the same stuck-at is idempotent.
    pub fn scan_set(&mut self, loc: BitLocation, value: bool) {
        if self.scan_read(loc) != value {
            self.scan_flip(loc);
        }
    }

    /// Number of scannable bits in which `self` and `other` differ.
    #[must_use]
    pub fn scan_diff_count(&self, other: &Machine) -> usize {
        scan_masks()
            .iter()
            .enumerate()
            .map(|(pos, &mask)| {
                ((self.core.word(pos) ^ other.core.word(pos)) & mask).count_ones() as usize
            })
            .sum()
    }

    /// `true` when this machine with `diff` applied (in
    /// [`Machine::sparse_diff`]'s position space) would differ from it in a
    /// scannable bit or a data word: the latent test of a run's end state,
    /// decided from the diff without building that state.
    #[must_use]
    pub fn diff_is_latent(&self, diff: &[(u32, u32)]) -> bool {
        let masks = scan_masks();
        diff.iter().any(|&(pos, v)| {
            // Every bit of a data word counts.
            let mask = masks.get(pos as usize).copied().unwrap_or(u32::MAX);
            (v ^ self.word(pos)) & mask != 0
        })
    }

    /// Writes a full 32-bit word into the cache copy of `addr` via the scan
    /// chain, without changing the line's dirty/valid bits. Returns `false`
    /// when the address is not cache-resident. (GOOFI can write scan chains
    /// arbitrarily; this is the multi-bit corruption used to reproduce the
    /// in-range state error of Figure 10.)
    pub fn scan_write_cached(&mut self, addr: u32, word: u32) -> bool {
        if !self.core.cache.hits(addr) {
            return false;
        }
        let line = crate::cache::index_of(addr);
        let off = (addr & 0xC) as usize;
        let l = self.core.cache.line_mut(line);
        l.data[off..off + 4].copy_from_slice(&word.to_le_bytes());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::machine::RunExit;

    #[test]
    fn catalog_is_stable_and_sizeable() {
        let c1 = catalog();
        let c2 = catalog();
        assert_eq!(c1.len(), c2.len());
        // The paper samples 2250 state elements; we should be in the same
        // order of magnitude.
        assert!(
            (1500..4500).contains(&c1.len()),
            "catalog has {} bits",
            c1.len()
        );
    }

    #[test]
    fn diff_is_latent_matches_scan_diff_count_at_every_core_position() {
        let golden = Machine::new();
        let words = golden.core.words();
        let applied = |diff: &[(u32, u32)]| {
            let mut m = golden.clone();
            m.apply_diff(diff);
            m
        };
        let mut scannable = 0;
        for (pos, &word) in words.iter().enumerate() {
            for bit in 0..32 {
                let diff = [(pos as u32, word ^ 1 << bit)];
                let m = applied(&diff);
                if m.core.word(pos) != diff[0].1 {
                    continue; // wider than the field: no state holds it
                }
                let latent = m.scan_diff_count(&golden) != 0;
                assert_eq!(
                    golden.diff_is_latent(&diff),
                    latent,
                    "position {pos} bit {bit}"
                );
                scannable += usize::from(latent);
            }
        }
        assert_eq!(scannable, catalog().len(), "every scan bit is one word bit");
        let data = [(CORE_WORDS as u32 + 5, golden.memory().data_word(5) ^ 1)];
        assert!(!applied(&data).memory().data_equals(golden.memory()));
        assert!(golden.diff_is_latent(&data));
    }

    #[test]
    fn every_scan_bit_is_one_distinct_word_bit() {
        let mut m = Machine::new();
        let mut seen = std::collections::HashSet::new();
        for &loc in catalog() {
            let before = m.core.words();
            m.scan_flip(loc);
            let after = m.core.words();
            let changed: Vec<(usize, u32)> = (0..CORE_WORDS)
                .filter(|&p| after[p] != before[p])
                .map(|p| (p, after[p] ^ before[p]))
                .collect();
            let [(pos, mask)] = changed[..] else {
                panic!("{loc:?} changed words {changed:?}");
            };
            assert_eq!(mask.count_ones(), 1, "{loc:?}");
            assert!(seen.insert((pos, mask)), "{loc:?} shares its bit");
            assert_eq!(loc.word_bit(), (pos, mask), "{loc:?}");
            assert!(m.scan_read(loc) == (after[pos] & mask != 0), "{loc:?}");
            m.scan_flip(loc);
            assert!(m.scan_read(loc) == (before[pos] & mask != 0), "{loc:?}");
        }
        let ones: u32 = scan_masks().iter().map(|m| m.count_ones()).sum();
        assert_eq!(ones as usize, catalog().len());
        let count = |part| catalog().iter().filter(|l| l.part() == part).count();
        assert_eq!(count(CpuPart::Cache), 1379);
        assert_eq!(count(CpuPart::Registers), 1030);
    }

    #[test]
    fn catalog_has_both_parts() {
        let cache = catalog()
            .iter()
            .filter(|l| l.part() == CpuPart::Cache)
            .count();
        let regs = catalog()
            .iter()
            .filter(|l| l.part() == CpuPart::Registers)
            .count();
        assert!(cache > 1000, "cache bits: {cache}");
        assert!(regs > 500, "register bits: {regs}");
        // The cache dominates, as in Thor (1824 vs 426).
        assert!(cache > regs);
    }

    #[test]
    fn flip_is_involutive_everywhere() {
        let before = Machine::new();
        let mut m = before.clone();
        for &loc in catalog() {
            m.scan_flip(loc);
            m.scan_flip(loc);
        }
        assert_eq!(m.scan_diff_count(&before), 0);
    }

    #[test]
    fn single_flip_changes_exactly_one_bit() {
        let before = Machine::new();
        let mut m = before.clone();
        m.scan_flip(BitLocation::Reg { index: 3, bit: 17 });
        assert_eq!(m.scan_diff_count(&before), 1);
        assert_eq!(m.reg(3), 1 << 17);
    }

    #[test]
    fn scan_set_forces_and_is_idempotent() {
        let before = Machine::new();
        let mut m = before.clone();
        let loc = BitLocation::Reg { index: 4, bit: 9 };
        // Forcing the current value is a no-op.
        m.scan_set(loc, false);
        assert_eq!(m.scan_diff_count(&before), 0);
        // Forcing the opposite value flips exactly that bit; re-applying
        // the same stuck-at changes nothing further.
        m.scan_set(loc, true);
        assert_eq!(m.scan_diff_count(&before), 1);
        assert!(m.scan_read(loc));
        m.scan_set(loc, true);
        assert_eq!(m.scan_diff_count(&before), 1);
        assert_eq!(m.reg(4), 1 << 9);
    }

    #[test]
    fn flip_register_bit_observable_by_program() {
        let program = assemble(
            r#"
            .text
            start:
                li r1, 0
                out r1, 2
                yield
            loop:
                jmp loop
            "#,
        )
        .unwrap();
        let mut m = Machine::new();
        m.load_program(&program);
        // Run up to (but not including) the out; then corrupt r1. The entry
        // point starts at the lui (index 0), so the out is instruction 2.
        m.run_until(2);
        m.scan_flip(BitLocation::Reg { index: 1, bit: 5 });
        assert_eq!(m.run(100), RunExit::Yield);
        assert_eq!(m.port_out(2), 32);
    }

    #[test]
    fn cache_data_flip_corrupts_stored_variable() {
        let program = assemble(
            r#"
            .data 0x10000
            x: .float 10.0
            .text
            start:
                la r1, x
                ld r2, [r1+0]   ; brings x into the cache
                yield
                ld r3, [r1+0]   ; reads the (possibly corrupted) cache copy
                out r3, 2
                yield
            loop:
                jmp loop
            "#,
        )
        .unwrap();
        let mut m = Machine::new();
        m.load_program(&program);
        assert_eq!(m.run(100), RunExit::Yield);
        // x sits in line 0 (address 0x10000); flip its sign bit (bit 31 of
        // the first word).
        assert!(m.scan_read(BitLocation::CacheValid { line: 0 }));
        m.scan_flip(BitLocation::CacheData { line: 0, bit: 31 });
        assert_eq!(m.run(100), RunExit::Yield);
        assert_eq!(m.port_out_f32(2), -10.0, "sign flip visible to the load");
    }

    #[test]
    fn cache_tag_flip_causes_miss_and_stale_reload() {
        let program = assemble(
            r#"
            .data 0x10000
            x: .float 10.0
            .text
            start:
                la r1, x
                ld r2, [r1+0]
                li r3, 0x41A00000   ; 20.0
                st r3, [r1+0]       ; dirty cache copy = 20.0 (memory 10.0)
                yield
                ld r4, [r1+0]
                out r4, 2
                yield
            loop:
                jmp loop
            "#,
        )
        .unwrap();
        let mut m = Machine::new();
        m.load_program(&program);
        assert_eq!(m.run(1000), RunExit::Yield);
        // Flip a low tag bit of line 0: the next access misses; the dirty
        // line is written back to the *wrong* address and the stale value
        // (10.0) is reloaded from memory.
        m.scan_flip(BitLocation::CacheTag { line: 0, bit: 0 });
        match m.run(1000) {
            RunExit::Yield => {
                assert_eq!(m.port_out_f32(2), 10.0, "stale value reloaded");
            }
            RunExit::Trap(t) => {
                // Alternatively the write-back address fell into a protected
                // region; also a faithful outcome.
                assert!(
                    matches!(
                        t.mechanism,
                        crate::edm::ErrorMechanism::AddressError
                            | crate::edm::ErrorMechanism::AccessCheck
                    ),
                    "unexpected mechanism {t:?}"
                );
            }
            other => panic!("unexpected exit {other:?}"),
        }
    }

    #[test]
    fn edac_syndrome_flip_raises_data_error_on_next_fill() {
        let program = assemble(
            r#"
            .data 0x10000
            a: .word 1
            .data 0x10080
            b: .word 2
            .text
            start:
                la r1, a
                ld r2, [r1+0]
                yield
                la r3, b
                ld r4, [r3+0]   ; second fill after the flip
                yield
            loop:
                jmp loop
            "#,
        )
        .unwrap();
        let mut m = Machine::new();
        m.load_program(&program);
        assert_eq!(m.run(1000), RunExit::Yield);
        m.scan_flip(BitLocation::EdacSyndrome { bit: 3 });
        match m.run(1000) {
            RunExit::Trap(t) => {
                assert_eq!(t.mechanism, crate::edm::ErrorMechanism::DataError);
            }
            other => panic!("expected DataError, got {other:?}"),
        }
    }

    #[test]
    fn sig_register_flip_raises_control_flow_error() {
        let program = assemble(
            r#"
            .text
            start:
                nop
                nop
                yield
            after:
                nop
                jmp after
            "#,
        )
        .unwrap();
        let mut m = Machine::new();
        m.load_program(&program);
        assert_eq!(m.run(100), RunExit::Yield);
        m.scan_flip(BitLocation::SigReg { bit: 2 });
        match m.run(100) {
            RunExit::Trap(t) => {
                assert_eq!(t.mechanism, crate::edm::ErrorMechanism::ControlFlowError);
            }
            other => panic!("expected ControlFlowError, got {other:?}"),
        }
    }

    #[test]
    fn scan_write_cached_overwrites_in_place() {
        let program = assemble(
            r#"
            .data 0x10000
            x: .float 10.0
            .text
            start:
                la r1, x
                ld r2, [r1+0]
                yield
                ld r3, [r1+0]
                out r3, 2
                yield
            loop:
                jmp loop
            "#,
        )
        .unwrap();
        let mut m = Machine::new();
        m.load_program(&program);
        assert_eq!(m.run(1000), RunExit::Yield);
        assert!(m.scan_write_cached(0x10000, 69.0f32.to_bits()));
        assert_eq!(m.run(1000), RunExit::Yield);
        assert_eq!(m.port_out_f32(2), 69.0);
    }

    #[test]
    fn scan_diff_count_detects_state_divergence() {
        let mut a = Machine::new();
        let b = Machine::new();
        assert_eq!(a.scan_diff_count(&b), 0);
        a.scan_flip(BitLocation::Save { index: 1, bit: 0 });
        assert_eq!(a.scan_diff_count(&b), 1);
    }
}
