//! # bera-tcpu — a Thor-like CPU with scan-chain fault injection access
//!
//! The paper runs its workload on the Saab Ericsson Space **Thor** CPU: a
//! 32-bit processor with a four-stage pipeline, a 128-byte on-chip data
//! cache, an extensive set of hardware error detection mechanisms (EDMs,
//! Table 1 of the paper) and scan chains exposing thousands of internal
//! state elements for fault injection. This crate is a behavioural simulator
//! of such a processor:
//!
//! * [`isa`] — a 32-bit RISC instruction set with integer and IEEE-754
//!   single-precision float operations, I/O ports, and a control-flow
//!   signature instruction;
//! * [`asm`] — a two-pass assembler (labels, data directives, pseudo-ops,
//!   automatic control-flow signature generation);
//! * [`mem`] — the memory map: protected code ROM, EDAC-protected data RAM,
//!   a guarded stack segment, a null page and an external-bus hole;
//! * [`cache`] — the 128-byte direct-mapped write-back data cache whose
//!   unprotected state elements are the source of the paper's severe value
//!   failures;
//! * [`machine`] — the CPU core with its pipeline fetch latch, PSR, signature
//!   register and all Table-1 EDMs;
//! * [`scan`] — the scan chain: a bit-addressable catalog of every state
//!   element, used by SCIFI to flip exactly one bit at an instruction
//!   boundary and to diff machine state against a golden run.
//!
//! # Example
//!
//! ```
//! use bera_tcpu::asm::assemble;
//! use bera_tcpu::machine::{Machine, RunExit};
//!
//! let program = assemble(r#"
//!     .text
//! start:
//!     li   r1, 5
//!     li   r2, 37
//!     add  r3, r1, r2
//!     out  r3, 2
//!     yield
//! halt_loop:
//!     jmp  halt_loop
//! "#).unwrap();
//! let mut m = Machine::new();
//! m.load_program(&program);
//! assert_eq!(m.run(10_000), RunExit::Yield);
//! assert_eq!(m.port_out(2), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod asm;
pub mod cache;
pub mod diff;
pub mod digest;
pub mod edm;
pub mod isa;
pub mod machine;
pub mod mem;
pub mod scan;
pub mod trace;
pub mod vis;

pub use access::{Access, AccessKind, AccessTrace, TraceUnit};
pub use asm::{assemble, AsmError, Program};
pub use digest::Fnv64;
pub use edm::ErrorMechanism;
pub use machine::{Machine, RunExit};
pub use scan::{BitLocation, CpuPart};
pub use vis::VisUnit;
