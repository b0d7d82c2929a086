//! The 128-byte on-chip data cache.
//!
//! Thor's data cache sits inside the pipeline and is **not** parity
//! protected, so a bit-flip in a cache line holding the controller state
//! survives until the line is evicted or rewritten — the mechanism behind
//! the paper's severe value failures (Section 4.2). The cache here is
//! direct-mapped, write-back, write-allocate: 8 lines × 16 bytes.
//!
//! Address split (byte address): `offset = addr[3:0]`, `index = addr[6:4]`,
//! `tag = addr[31:7]` (25 bits stored per line).

use crate::machine::Words;

/// Number of cache lines.
pub const NUM_LINES: usize = 8;
/// Bytes per cache line.
pub const LINE_BYTES: usize = 16;
/// Number of tag bits stored per line.
pub const TAG_BITS: u32 = 25;
/// 32-bit words per cache line — the granularity of the access trace: a
/// data read or write touches one word, a fill or write-back all four.
pub const WORDS_PER_LINE: usize = LINE_BYTES / 4;

/// Extracts the line index of an address.
#[must_use]
pub fn index_of(addr: u32) -> usize {
    ((addr >> 4) & 0x7) as usize
}

/// Extracts the tag of an address.
#[must_use]
pub fn tag_of(addr: u32) -> u32 {
    (addr >> 7) & ((1 << TAG_BITS) - 1)
}

/// Word-within-line index of an address (`0..WORDS_PER_LINE`) — the trace
/// unit a cached word access belongs to.
#[must_use]
pub fn word_of(addr: u32) -> usize {
    ((addr >> 2) & 0x3) as usize
}

/// The word-within-line index containing a scan-chain data bit
/// (`bit` in `0..LINE_BYTES*8`). The scan catalog orders data bits
/// byte-by-byte little-endian, so word `w` covers bits `32*w..32*w+32`.
#[must_use]
pub fn word_of_data_bit(bit: usize) -> usize {
    bit / 32
}

/// Reconstructs the base byte address of a line from its tag and index —
/// the address a write-back targets. A corrupted tag therefore redirects
/// the write-back, which is how tag faults turn into address errors or
/// silent corruption of other memory.
#[must_use]
pub fn line_base(tag: u32, index: usize) -> u32 {
    (tag << 7) | ((index as u32) << 4)
}

/// One cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// Stored tag (25 bits significant).
    pub tag: u32,
    /// Line holds valid data.
    pub valid: bool,
    /// Line has been written since it was filled.
    pub dirty: bool,
    /// The data bytes.
    pub data: [u8; LINE_BYTES],
}

impl Default for CacheLine {
    fn default() -> Self {
        CacheLine {
            tag: 0,
            valid: false,
            dirty: false,
            data: [0; LINE_BYTES],
        }
    }
}

/// Tag, flags (valid | dirty << 1), then the data words.
impl Words for CacheLine {
    const WIDTH: usize = 2 + WORDS_PER_LINE;

    #[inline]
    fn get(&self, off: usize) -> u32 {
        match off {
            0 => self.tag,
            1 => u32::from(self.valid) | u32::from(self.dirty) << 1,
            w => {
                let b = &self.data[(w - 2) * 4..(w - 1) * 4];
                u32::from_le_bytes([b[0], b[1], b[2], b[3]])
            }
        }
    }

    #[inline]
    fn set(&mut self, off: usize, v: u32) {
        match off {
            0 => self.tag = v,
            1 => {
                self.valid = v & 1 != 0;
                self.dirty = v & 2 != 0;
            }
            w => self.data[(w - 2) * 4..(w - 1) * 4].copy_from_slice(&v.to_le_bytes()),
        }
    }
}

/// The direct-mapped write-back data cache.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataCache {
    lines: [CacheLine; NUM_LINES],
}

/// Its lines in index order.
impl Words for DataCache {
    const WIDTH: usize = NUM_LINES * CacheLine::WIDTH;

    #[inline]
    fn get(&self, off: usize) -> u32 {
        self.lines.get(off)
    }

    #[inline]
    fn set(&mut self, off: usize, v: u32) {
        self.lines.set(off, v);
    }

    fn put(&self, w: &mut [u32]) {
        self.lines.put(w);
    }
}

impl DataCache {
    /// An empty (all-invalid) cache.
    #[must_use]
    pub fn new() -> Self {
        DataCache::default()
    }

    /// `true` when `addr` hits in the cache.
    #[must_use]
    pub fn hits(&self, addr: u32) -> bool {
        let line = &self.lines[index_of(addr)];
        line.valid && line.tag == tag_of(addr)
    }

    /// If filling `addr` requires evicting a dirty line, returns the
    /// write-back address and data of the victim.
    #[must_use]
    pub fn pending_writeback(&self, addr: u32) -> Option<(u32, [u8; LINE_BYTES])> {
        let idx = index_of(addr);
        let line = &self.lines[idx];
        if line.valid && line.dirty && line.tag != tag_of(addr) {
            Some((line_base(line.tag, idx), line.data))
        } else {
            None
        }
    }

    /// Installs a freshly fetched line for `addr` (clean).
    pub fn fill(&mut self, addr: u32, data: [u8; LINE_BYTES]) {
        let idx = index_of(addr);
        self.lines[idx] = CacheLine {
            tag: tag_of(addr),
            valid: true,
            dirty: false,
            data,
        };
    }

    /// Reads the aligned 32-bit word containing `addr`. The address must
    /// hit — the machine fills first; debug builds panic on a miss.
    #[must_use]
    pub fn read_word(&self, addr: u32) -> u32 {
        debug_assert!(self.hits(addr), "read_word on a cache miss");
        let line = &self.lines[index_of(addr)];
        let off = (addr & 0xC) as usize;
        u32::from_le_bytes([
            line.data[off],
            line.data[off + 1],
            line.data[off + 2],
            line.data[off + 3],
        ])
    }

    /// Writes the aligned 32-bit word containing `addr` and marks the line
    /// dirty. The address must hit — write-allocate fills first; debug
    /// builds panic on a miss.
    pub fn write_word(&mut self, addr: u32, word: u32) {
        debug_assert!(self.hits(addr), "write_word on a cache miss");
        let line = &mut self.lines[index_of(addr)];
        let off = (addr & 0xC) as usize;
        line.data[off..off + 4].copy_from_slice(&word.to_le_bytes());
        line.dirty = true;
    }

    /// Combined hit-check and word access for the untraced hot path: if
    /// `addr` hits, performs the read (`write == None`) or write (marking
    /// the line dirty) with a single index/tag resolution and returns the
    /// word; `None` on a miss (the caller fills and retries). Equivalent
    /// to `hits` + `read_word`/`write_word`.
    pub fn access_hit(&mut self, addr: u32, write: Option<u32>) -> Option<u32> {
        let line = &mut self.lines[index_of(addr)];
        if !line.valid || line.tag != tag_of(addr) {
            return None;
        }
        let off = (addr & 0xC) as usize;
        match write {
            Some(w) => {
                line.data[off..off + 4].copy_from_slice(&w.to_le_bytes());
                line.dirty = true;
                Some(w)
            }
            None => Some(u32::from_le_bytes([
                line.data[off],
                line.data[off + 1],
                line.data[off + 2],
                line.data[off + 3],
            ])),
        }
    }

    /// Direct access to a line (scan chain, diagnostics).
    #[must_use]
    pub fn line(&self, index: usize) -> &CacheLine {
        &self.lines[index]
    }

    /// Mutable access to a line (scan-chain bit flips).
    pub fn line_mut(&mut self, index: usize) -> &mut CacheLine {
        &mut self.lines[index]
    }

    /// Iterates over all dirty valid lines as `(write-back address, data)`;
    /// used when flushing the cache at the end of a run to compare memory
    /// state.
    pub fn dirty_lines(&self) -> impl Iterator<Item = (u32, [u8; LINE_BYTES])> + '_ {
        self.lines.iter().enumerate().filter_map(|(idx, line)| {
            (line.valid && line.dirty).then_some((line_base(line.tag, idx), line.data))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::RAM_BASE;

    #[test]
    fn address_split_roundtrips() {
        for addr in [RAM_BASE, RAM_BASE + 0x14, RAM_BASE + 0x70, 0x2_0F00] {
            let base = line_base(tag_of(addr), index_of(addr));
            assert_eq!(base, addr & !0xF, "line base of {addr:#x}");
        }
    }

    #[test]
    fn distinct_lines_for_consecutive_blocks() {
        // Consecutive 16-byte blocks map to consecutive indices.
        assert_eq!(index_of(RAM_BASE), 0);
        assert_eq!(index_of(RAM_BASE + 0x10), 1);
        assert_eq!(index_of(RAM_BASE + 0x70), 7);
        assert_eq!(index_of(RAM_BASE + 0x80), 0, "wraps after 128 bytes");
    }

    #[test]
    fn fill_then_hit() {
        let mut c = DataCache::new();
        assert!(!c.hits(RAM_BASE));
        c.fill(RAM_BASE, [0xAB; 16]);
        assert!(c.hits(RAM_BASE));
        assert!(c.hits(RAM_BASE + 12), "whole line hits");
        assert!(!c.hits(RAM_BASE + 16), "next line misses");
        assert_eq!(c.read_word(RAM_BASE), 0xABAB_ABAB);
    }

    #[test]
    fn write_marks_dirty_and_readback() {
        let mut c = DataCache::new();
        c.fill(RAM_BASE, [0; 16]);
        assert!(!c.line(0).dirty);
        c.write_word(RAM_BASE + 4, 0x1122_3344);
        assert!(c.line(0).dirty);
        assert_eq!(c.read_word(RAM_BASE + 4), 0x1122_3344);
        assert_eq!(c.read_word(RAM_BASE), 0, "neighbouring word untouched");
    }

    #[test]
    fn conflicting_fill_requires_writeback_only_when_dirty() {
        let mut c = DataCache::new();
        let a = RAM_BASE; // index 0
        let b = RAM_BASE + 0x80; // also index 0, different tag
        c.fill(a, [1; 16]);
        assert!(c.pending_writeback(b).is_none(), "clean victim: no WB");
        c.write_word(a, 99);
        let (wb_addr, data) = c.pending_writeback(b).expect("dirty victim");
        assert_eq!(wb_addr, a);
        assert_eq!(u32::from_le_bytes(data[0..4].try_into().unwrap()), 99);
    }

    #[test]
    fn same_tag_never_writes_back() {
        let mut c = DataCache::new();
        c.fill(RAM_BASE, [0; 16]);
        c.write_word(RAM_BASE, 1);
        assert!(c.pending_writeback(RAM_BASE + 4).is_none());
    }

    #[test]
    fn corrupted_tag_redirects_writeback() {
        let mut c = DataCache::new();
        c.fill(RAM_BASE, [0; 16]);
        c.write_word(RAM_BASE, 7);
        // A scan-chain flip of a high tag bit...
        c.line_mut(0).tag ^= 1 << 20;
        let (wb_addr, _) = c.pending_writeback(RAM_BASE).expect("tag now mismatches");
        assert_ne!(wb_addr, RAM_BASE, "write-back goes to the wrong address");
    }

    #[test]
    fn dirty_lines_enumerated() {
        let mut c = DataCache::new();
        c.fill(RAM_BASE, [0; 16]);
        c.fill(RAM_BASE + 0x10, [0; 16]);
        c.write_word(RAM_BASE + 0x10, 5);
        let dirty: Vec<_> = c.dirty_lines().collect();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].0, RAM_BASE + 0x10);
    }

    // The miss check is a `debug_assert!` on the cache hot path, so it
    // exists only in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cache miss")]
    fn read_miss_panics() {
        let _ = DataCache::new().read_word(RAM_BASE);
    }
}
