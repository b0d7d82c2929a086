//! The memory map and the EDAC-protected main memory.
//!
//! ```text
//! 0x0000_0000 .. 0x0000_0FFF   null page        (ACCESS CHECK)
//! 0x0000_1000 .. 0x0000_8FFF   code ROM         (fetch only; writes trap)
//! 0x0001_0000 .. 0x0001_0FFF   data RAM         (cacheable, EDAC parity)
//! 0x0002_0000 .. 0x0002_0FFF   stack segment    (cacheable, EDAC parity,
//!                                                bounds-checked in user mode)
//! 0x8000_0000 .. 0xFFFF_FFFF   external bus     (BUS ERROR: time-out)
//! everything else              unmapped         (ADDRESS ERROR)
//! ```
//!
//! Main memory carries one parity bit per 32-bit word (the EDAC of the
//! paper's DATA ERROR mechanism). The on-chip data cache is **unprotected** —
//! that asymmetry is the root cause of the paper's severe value failures.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Base address of the code ROM.
pub const ROM_BASE: u32 = 0x0000_1000;
/// Size of the code ROM in bytes.
pub const ROM_SIZE: u32 = 0x8000;
/// Base address of the data RAM.
pub const RAM_BASE: u32 = 0x0001_0000;
/// Size of the data RAM in bytes. Kept small (as on a memory-constrained
/// embedded target) so that most corrupted cache tags point at unmapped
/// space and trip ADDRESS ERROR on write-back, as in the paper's Table 2.
pub const RAM_SIZE: u32 = 0x1000;
/// Base address of the stack segment.
pub const STACK_BASE: u32 = 0x0002_0000;
/// Size of the stack segment in bytes.
pub const STACK_SIZE: u32 = 0x1000;
/// First address of the external bus hole.
pub const BUS_BASE: u32 = 0x8000_0000;

/// The memory region an address decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// The protected null page (catches null-pointer dereferences).
    Null,
    /// Code ROM.
    Rom,
    /// Cacheable data RAM.
    Ram,
    /// Cacheable, bounds-checked stack segment.
    Stack,
    /// External bus: accesses time out.
    Bus,
    /// No device decodes this address.
    Unmapped,
}

/// Decodes `addr` into its [`Region`].
#[must_use]
pub fn region(addr: u32) -> Region {
    match addr {
        0x0000_0000..=0x0000_0FFF => Region::Null,
        a if (ROM_BASE..ROM_BASE + ROM_SIZE).contains(&a) => Region::Rom,
        a if (RAM_BASE..RAM_BASE + RAM_SIZE).contains(&a) => Region::Ram,
        a if (STACK_BASE..STACK_BASE + STACK_SIZE).contains(&a) => Region::Stack,
        a if a >= BUS_BASE => Region::Bus,
        _ => Region::Unmapped,
    }
}

/// Even parity of a 32-bit word (the EDAC check bit).
#[must_use]
pub fn parity(word: u32) -> bool {
    word.count_ones() % 2 == 1
}

/// Number of addressable data words (RAM then stack) — the memory half of
/// the golden-run access trace.
pub const NUM_DATA_WORDS: usize = ((RAM_SIZE + STACK_SIZE) / 4) as usize;

/// Dense trace index of an aligned data word: RAM words first, stack words
/// after. `None` outside RAM/stack — only those regions back cached data.
#[must_use]
pub fn word_key(addr: u32) -> Option<usize> {
    match region(addr) {
        Region::Ram => Some(((addr - RAM_BASE) / 4) as usize),
        Region::Stack => Some((RAM_SIZE / 4 + (addr - STACK_BASE) / 4) as usize),
        _ => None,
    }
}

/// Main memory: ROM plus EDAC-protected RAM and stack.
#[derive(Debug, Clone)]
pub struct Memory {
    /// The ROM image, shared between clones: only host loads and pokes
    /// write it, and they copy it first when another clone holds it.
    rom: Arc<[u32]>,
    ram: Vec<u32>,
    ram_parity: Vec<bool>,
    stack: Vec<u32>,
    stack_parity: Vec<bool>,
    /// Count of host-level ROM writes since construction. Lets the
    /// fast-replay engine detect a stale predecoded image with one integer
    /// compare instead of re-reading the run it is about to replay.
    rom_version: u64,
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        // `rom_version` is a cache-coherence counter, not architectural
        // state: two memories holding identical images are equal no matter
        // how many ROM loads produced them.
        (Arc::ptr_eq(&self.rom, &other.rom) || self.rom == other.rom)
            && self.ram == other.ram
            && self.ram_parity == other.ram_parity
            && self.stack == other.stack
            && self.stack_parity == other.stack_parity
    }
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    /// Creates fresh memory: RAM/stack zeroed (with correct parity), ROM
    /// filled with `0xFFFF_FFFF` so falling through into unprogrammed code
    /// raises INSTRUCTION ERROR, as erased PROM would.
    #[must_use]
    pub fn new() -> Self {
        let rom_words = (ROM_SIZE / 4) as usize;
        let ram_words = (RAM_SIZE / 4) as usize;
        let stack_words = (STACK_SIZE / 4) as usize;
        Memory {
            rom: vec![0xFFFF_FFFF; rom_words].into(),
            ram: vec![0; ram_words],
            ram_parity: vec![parity(0); ram_words],
            stack: vec![0; stack_words],
            stack_parity: vec![parity(0); stack_words],
            rom_version: 0,
        }
    }

    /// Writes one instruction word into ROM (program loading only).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside ROM or unaligned.
    pub fn load_rom_word(&mut self, addr: u32, word: u32) {
        assert_eq!(region(addr), Region::Rom, "load_rom_word outside ROM");
        assert_eq!(addr % 4, 0, "unaligned ROM load");
        Arc::make_mut(&mut self.rom)[((addr - ROM_BASE) / 4) as usize] = word;
        self.rom_version += 1;
    }

    /// The host ROM-write counter — see the field doc. Predecoded block
    /// tables record it at build time and refuse to replay once it moves.
    #[must_use]
    pub fn rom_version(&self) -> u64 {
        self.rom_version
    }

    /// Fetches an instruction word from ROM; `None` if `addr` is outside
    /// ROM or unaligned (the caller raises the appropriate EDM).
    #[must_use]
    pub fn fetch(&self, addr: u32) -> Option<u32> {
        if region(addr) != Region::Rom || !addr.is_multiple_of(4) {
            return None;
        }
        Some(self.rom[((addr - ROM_BASE) / 4) as usize])
    }

    fn backing(&self, addr: u32) -> Option<(&Vec<u32>, &Vec<bool>, usize)> {
        match region(addr) {
            Region::Ram => Some((
                &self.ram,
                &self.ram_parity,
                ((addr - RAM_BASE) / 4) as usize,
            )),
            Region::Stack => Some((
                &self.stack,
                &self.stack_parity,
                ((addr - STACK_BASE) / 4) as usize,
            )),
            _ => None,
        }
    }

    /// Reads a data word together with its EDAC verdict (`true` = parity
    /// consistent). `None` if `addr` is not backed by RAM/stack or is
    /// unaligned.
    #[must_use]
    pub fn read_word(&self, addr: u32) -> Option<(u32, bool)> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        let (mem, par, idx) = self.backing(addr)?;
        let w = mem[idx];
        Some((w, parity(w) == par[idx]))
    }

    /// Reads the four words of the aligned 16-byte line at `base` together
    /// with their EDAC verdicts, resolving the backing region once. All
    /// regions are 16-byte aligned with 16-byte-multiple sizes, so a line
    /// never straddles two regions — the per-word result is exactly what
    /// four [`Memory::read_word`] calls would return. `None` if the line
    /// is not backed by RAM/stack.
    #[must_use]
    pub fn read_line(&self, base: u32) -> Option<([u32; 4], [bool; 4])> {
        debug_assert!(base.is_multiple_of(16), "read_line on unaligned base");
        let (mem, par, idx) = self.backing(base)?;
        let words: [u32; 4] = mem[idx..idx + 4].try_into().expect("line-sized slice");
        let pars: [bool; 4] = par[idx..idx + 4].try_into().expect("line-sized slice");
        let mut ok = [false; 4];
        for i in 0..4 {
            ok[i] = parity(words[i]) == pars[i];
        }
        Some((words, ok))
    }

    /// Writes the four words of the aligned 16-byte line at `base`,
    /// recomputing parity bits — the batched equivalent of four
    /// [`Memory::write_word`] calls (see [`Memory::read_line`] for why one
    /// region resolution is enough). Returns `false` if the line is not
    /// backed by writable data memory.
    pub fn write_line(&mut self, base: u32, words: &[u32; 4]) -> bool {
        debug_assert!(base.is_multiple_of(16), "write_line on unaligned base");
        let (mem, par, idx) = match region(base) {
            Region::Ram => (
                &mut self.ram,
                &mut self.ram_parity,
                ((base - RAM_BASE) / 4) as usize,
            ),
            Region::Stack => (
                &mut self.stack,
                &mut self.stack_parity,
                ((base - STACK_BASE) / 4) as usize,
            ),
            _ => return false,
        };
        mem[idx..idx + 4].copy_from_slice(words);
        for i in 0..4 {
            par[idx + i] = parity(words[i]);
        }
        true
    }

    /// Writes a data word, recomputing its parity bit. Returns `false` if
    /// the address is not writable data memory.
    pub fn write_word(&mut self, addr: u32, word: u32) -> bool {
        if !addr.is_multiple_of(4) {
            return false;
        }
        let (mem, par, idx) = match region(addr) {
            Region::Ram => (
                &mut self.ram,
                &mut self.ram_parity,
                ((addr - RAM_BASE) / 4) as usize,
            ),
            Region::Stack => (
                &mut self.stack,
                &mut self.stack_parity,
                ((addr - STACK_BASE) / 4) as usize,
            ),
            _ => return false,
        };
        mem[idx] = word;
        par[idx] = parity(word);
        true
    }

    /// Host-side initialisation of a data word (identical to
    /// [`Memory::write_word`], named for intent).
    pub fn poke(&mut self, addr: u32, word: u32) -> bool {
        self.write_word(addr, word)
    }

    /// `true` when the data contents (RAM + stack) of two memories are
    /// identical — used by the latent/overwritten classification.
    #[must_use]
    pub fn data_equals(&self, other: &Memory) -> bool {
        self.ram == other.ram && self.stack == other.stack
    }

    /// The full ROM image as a word slice, indexed by `(addr - ROM_BASE) / 4`.
    /// Used by the predecoded block engine to verify that the text it is
    /// about to replay still matches the image it was decoded from.
    #[must_use]
    pub(crate) fn rom_words(&self) -> &[u32] {
        &self.rom
    }

    /// The data word at dense index `key` (see [`word_key`]).
    ///
    /// # Panics
    ///
    /// Panics if `key >= NUM_DATA_WORDS`.
    #[must_use]
    pub(crate) fn data_word(&self, key: usize) -> u32 {
        let ram_words = (RAM_SIZE / 4) as usize;
        if key < ram_words {
            self.ram[key]
        } else {
            self.stack[key - ram_words]
        }
    }

    /// Writes the data word at dense index `key` (see [`word_key`]) with
    /// its parity bit.
    ///
    /// # Panics
    ///
    /// Panics if `key >= NUM_DATA_WORDS`.
    pub(crate) fn set_data_word(&mut self, key: usize, word: u32) {
        let ram_words = (RAM_SIZE / 4) as usize;
        let (mem, par, k) = if key < ram_words {
            (&mut self.ram, &mut self.ram_parity, key)
        } else {
            (&mut self.stack, &mut self.stack_parity, key - ram_words)
        };
        mem[k] = word;
        par[k] = parity(word);
    }

    /// Copies one data word (and its stored parity bit) from `other`,
    /// addressed by dense index `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key >= NUM_DATA_WORDS`.
    pub(crate) fn copy_data_word_from(&mut self, other: &Memory, key: usize) {
        let ram_words = (RAM_SIZE / 4) as usize;
        if key < ram_words {
            self.ram[key] = other.ram[key];
            self.ram_parity[key] = other.ram_parity[key];
        } else {
            let k = key - ram_words;
            self.stack[k] = other.stack[k];
            self.stack_parity[k] = other.stack_parity[k];
        }
    }

    /// Dense word keys (see [`word_key`]) at which the data state of `self`
    /// and `other` differ. ROM and parity are excluded — parity is a pure
    /// function of the data words. The campaign layer uses this to
    /// precompute per-checkpoint write windows for the arena restore and
    /// the sparse convergence compare.
    #[must_use]
    pub fn data_diff_keys(&self, other: &Memory) -> Vec<u32> {
        let ram_words = self.ram.len();
        let ram = self
            .ram
            .iter()
            .zip(&other.ram)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(k, _)| k as u32);
        let stack = self
            .stack
            .iter()
            .zip(&other.stack)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(k, _)| (k + ram_words) as u32);
        ram.chain(stack).collect()
    }

    /// Bulk-copies the entire data state (RAM + stack + parity) from
    /// `other` without reallocating. ROM is untouched.
    pub(crate) fn copy_data_from(&mut self, other: &Memory) {
        self.ram.copy_from_slice(&other.ram);
        self.ram_parity.copy_from_slice(&other.ram_parity);
        self.stack.copy_from_slice(&other.stack);
        self.stack_parity.copy_from_slice(&other.stack_parity);
    }

    /// Absorbs the mutable data state (RAM and stack) into `h`. ROM is
    /// skipped — it is written only by program loading, never at run time —
    /// and the parity vectors are skipped because they are a pure function
    /// of the data words.
    pub(crate) fn digest_into(&self, h: &mut crate::digest::Fnv64) {
        h.write_u32_slice(&self.ram);
        h.write_u32_slice(&self.stack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_decoding() {
        assert_eq!(region(0x0000_0000), Region::Null);
        assert_eq!(region(0x0000_0FFF), Region::Null);
        assert_eq!(region(ROM_BASE), Region::Rom);
        assert_eq!(region(ROM_BASE + ROM_SIZE - 4), Region::Rom);
        assert_eq!(region(ROM_BASE + ROM_SIZE), Region::Unmapped);
        assert_eq!(region(RAM_BASE), Region::Ram);
        assert_eq!(region(STACK_BASE), Region::Stack);
        assert_eq!(region(0x0003_0000), Region::Unmapped);
        assert_eq!(region(0x8000_0000), Region::Bus);
        assert_eq!(region(0xFFFF_FFFC), Region::Bus);
    }

    #[test]
    fn parity_function() {
        assert!(!parity(0));
        assert!(parity(1));
        assert!(!parity(3));
        assert!(parity(0x8000_0000));
    }

    #[test]
    fn ram_roundtrip_with_parity() {
        let mut m = Memory::new();
        assert!(m.write_word(RAM_BASE + 8, 0xDEAD_BEEF));
        let (w, ok) = m.read_word(RAM_BASE + 8).unwrap();
        assert_eq!(w, 0xDEAD_BEEF);
        assert!(ok, "freshly written word has consistent parity");
    }

    #[test]
    fn stack_roundtrip() {
        let mut m = Memory::new();
        assert!(m.write_word(STACK_BASE + 0x100, 42));
        assert_eq!(m.read_word(STACK_BASE + 0x100).unwrap().0, 42);
    }

    #[test]
    fn misaligned_access_rejected() {
        let mut m = Memory::new();
        assert!(!m.write_word(RAM_BASE + 2, 1));
        assert!(m.read_word(RAM_BASE + 2).is_none());
        assert!(m.fetch(ROM_BASE + 1).is_none());
    }

    #[test]
    fn rom_fetch_and_protection() {
        let mut m = Memory::new();
        m.load_rom_word(ROM_BASE, 0x1234_5678);
        assert_eq!(m.fetch(ROM_BASE), Some(0x1234_5678));
        assert!(!m.write_word(ROM_BASE, 0), "ROM must not be data-writable");
        assert!(m.fetch(RAM_BASE).is_none(), "RAM is not fetchable");
    }

    #[test]
    #[should_panic(expected = "outside ROM")]
    fn rom_load_bounds_checked() {
        Memory::new().load_rom_word(RAM_BASE, 0);
    }

    #[test]
    fn data_equality() {
        let mut a = Memory::new();
        let b = Memory::new();
        assert!(a.data_equals(&b));
        a.write_word(RAM_BASE, 7);
        assert!(!a.data_equals(&b));
    }

    #[test]
    fn unmapped_reads_fail() {
        let m = Memory::new();
        assert!(m.read_word(0x0003_0000).is_none());
        assert!(m.read_word(0x9000_0000).is_none());
    }
}
