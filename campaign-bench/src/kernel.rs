//! The calibration kernel: a fixed piece of work, timed between
//! campaigns, that tells how fast the host runs at that moment.
//!
//! On a shared host the campaigns' wall time swings 1.5-2x over seconds to
//! minutes as other tenants contend for the core, and the quiet speed
//! itself drifts by a fifth over tens of minutes. A campaign's time divided
//! by the kernel's time beside it cancels most of that. The end-to-end
//! times are reported in *reference seconds*: wall seconds scaled by
//! [`REFERENCE_S`] over the kernel's measured time, which is what the wall
//! time would have been on a host that runs the kernel in [`REFERENCE_S`].
//!
//! The kernel is a small interpreter running a fixed 256-operation loop
//! over a 4 KiB memory, the shape of the campaigns' own work: the
//! simulated control loop is about 250 instructions per iteration over
//! 4 KiB of RAM, and its dispatch is just as predictable. Contention hurts
//! such code through the branch predictors and caches a core shares, so
//! this kernel tracks the campaigns far better than an arithmetic or
//! pointer-chasing loop does. It shares no code with the engine: a change
//! to the engine never changes the yardstick. Any change to the kernel
//! does, so [`Kernel::run`]'s checksum is pinned by a test.

use std::hint::black_box;
use std::time::Instant;

/// Operations in the kernel's loop.
const PROGRAM_LEN: usize = 256;

/// Words of the kernel's memory (4 KiB).
const MEMORY_WORDS: usize = 512;

/// Operations one timed kernel run interprets: a few percent of a
/// campaign.
pub const TIMED_STEPS: u64 = 20_000_000;

/// Seconds a timed kernel run takes on the reference host, an undisturbed
/// 2-vCPU x86-64 VM (30-31 ms measured there). It sets the unit of
/// reference seconds and nothing else: on another host every value scales
/// by one factor, and comparisons between commits hold.
pub const REFERENCE_S: f64 = 0.030;

/// `wall_s` in reference seconds, given the kernel's time `kernel_s`
/// measured beside it.
#[must_use]
pub fn reference_seconds(wall_s: f64, kernel_s: f64) -> f64 {
    wall_s * REFERENCE_S / kernel_s
}

/// The fixed program.
pub struct Kernel {
    program: [u8; PROGRAM_LEN],
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// The kernel. Its program comes from a fixed xorshift seed, never
    /// from `--seed`, so every run and every commit times the same work.
    #[must_use]
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut program = [0; PROGRAM_LEN];
        for op in &mut program {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *op = (x >> 59) as u8;
        }
        Kernel { program }
    }

    /// Interprets `steps` operations and returns a checksum of the final
    /// state.
    #[must_use]
    pub fn run(&self, steps: u64) -> u64 {
        let program = black_box(&self.program);
        let mut regs = [1_u64; 8];
        let mut mem = [0_u64; MEMORY_WORDS];
        let addr = |v: u64| v as usize % MEMORY_WORDS;
        let mut pc = 0;
        for _ in 0..steps {
            let op = program[pc];
            let r = usize::from(op & 7);
            match op >> 1 {
                0 => regs[r] = regs[r].wrapping_add(regs[(r + 1) & 7]),
                1 => regs[r] ^= regs[r] << 7,
                2 => regs[r] = regs[r].rotate_left(13),
                3 => regs[r] = mem[addr(regs[r])],
                4 => mem[addr(regs[(r + 3) & 7])] = regs[r],
                5 => regs[r] = regs[r].wrapping_mul(0x9E37_79B9),
                6 => regs[r] = regs[r] >> 3 | 1,
                7 => regs[r] = regs[r].wrapping_sub(regs[(r + 5) & 7]),
                8 => regs[r] = !regs[r],
                9 => regs[r] = u64::from(regs[r].count_ones()) + regs[(r + 2) & 7],
                10 => {
                    if regs[r] > regs[(r + 1) & 7] {
                        regs.swap(r, (r + 1) & 7);
                    }
                }
                11 => regs[r] = regs[r].wrapping_add(pc as u64),
                12 => regs[r] |= 0x10,
                13 => regs[r] = regs[r].wrapping_add(mem[pc % MEMORY_WORDS]),
                14 => mem[pc % MEMORY_WORDS] ^= regs[r],
                _ => regs[r] = regs[r].wrapping_add(1),
            }
            pc = (pc + 1) % PROGRAM_LEN;
        }
        regs.iter()
            .chain(&mem)
            .fold(0, |h, &v| (h ^ v).wrapping_mul(0x0100_0000_01B3))
    }

    /// Wall-clock seconds of one run of [`TIMED_STEPS`] operations.
    #[must_use]
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        black_box(self.run(black_box(TIMED_STEPS)));
        start.elapsed().as_secs_f64()
    }
}
