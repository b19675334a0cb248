//! # marshal-isa
//!
//! A from-scratch RV64IM implementation used as the common substrate of the
//! FireMarshal reproduction: instruction definitions, authentic binary
//! encoding/decoding, a two-pass assembler, a deterministic object format
//! (`MEXE`), and a functional interpreter core.
//!
//! Both the functional simulators (`marshal-sim-functional`) and the
//! cycle-exact simulator (`marshal-sim-rtl`) execute *exactly* the same
//! binaries through this crate, which is what lets the reproduction uphold
//! the paper's central claim: the same artifact behaves identically across
//! simulation platforms.
//!
//! ## Example
//!
//! ```rust
//! use marshal_isa::asm::assemble;
//! use marshal_isa::interp::{Cpu, StepOutcome};
//! use marshal_isa::mem::FlatMemory;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let exe = assemble(
//!     r#"
//!     .text
//!     .global _start
//! _start:
//!     li a0, 21
//!     slli a0, a0, 1     # a0 = 42
//!     li a7, 93          # SYS_EXIT
//!     ecall
//! "#,
//!     0x1_0000,
//! )?;
//! let mut mem = FlatMemory::new(1 << 20);
//! exe.load_into(&mut mem)?;
//! let mut cpu = Cpu::new(exe.entry());
//! loop {
//!     match cpu.step(&mut mem)? {
//!         StepOutcome::Retired(_) => {}
//!         StepOutcome::Ecall => break,
//!         other => panic!("unexpected: {other:?}"),
//!     }
//! }
//! assert_eq!(cpu.read_reg(marshal_isa::inst::Reg::A0), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod abi;
pub mod asm;
pub mod decode;
pub mod encode;
pub mod inst;
pub mod interp;
pub mod mem;
pub mod mexe;
pub mod predecode;

pub use asm::{assemble, AsmError};
pub use inst::{Inst, Reg};
pub use interp::{Cpu, StepOutcome, Trap};
pub use mexe::MexeFile;
pub use predecode::{BlockEnd, BlockSink, DecodeCache};
