//! Instruction and register definitions for the RV64IM subset.
//!
//! The instruction enum mirrors the base RV64I integer ISA plus the M
//! (multiply/divide) extension and the Zicsr CSR instructions — enough to
//! express real benchmark kernels with authentic encodings.

use std::fmt;

/// An architectural integer register (`x0`–`x31`).
///
/// Constructed via [`Reg::new`] (validated) or the ABI-name constants
/// (`Reg::A0`, `Reg::SP`, ...).
///
/// ```rust
/// use marshal_isa::inst::Reg;
/// assert_eq!(Reg::new(10).unwrap(), Reg::A0);
/// assert_eq!(Reg::A0.to_string(), "a0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The hard-wired zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// Return address `x1`.
    pub const RA: Reg = Reg(1);
    /// Stack pointer `x2`.
    pub const SP: Reg = Reg(2);
    /// Global pointer `x3`.
    pub const GP: Reg = Reg(3);
    /// Thread pointer `x4`.
    pub const TP: Reg = Reg(4);
    /// Temporary `x5`.
    pub const T0: Reg = Reg(5);
    /// Temporary `x6`.
    pub const T1: Reg = Reg(6);
    /// Temporary `x7`.
    pub const T2: Reg = Reg(7);
    /// Saved register / frame pointer `x8`.
    pub const S0: Reg = Reg(8);
    /// Saved register `x9`.
    pub const S1: Reg = Reg(9);
    /// Argument/return `x10`.
    pub const A0: Reg = Reg(10);
    /// Argument/return `x11`.
    pub const A1: Reg = Reg(11);
    /// Argument `x12`.
    pub const A2: Reg = Reg(12);
    /// Argument `x13`.
    pub const A3: Reg = Reg(13);
    /// Argument `x14`.
    pub const A4: Reg = Reg(14);
    /// Argument `x15`.
    pub const A5: Reg = Reg(15);
    /// Argument `x16`.
    pub const A6: Reg = Reg(16);
    /// Argument `x17` (syscall number by convention).
    pub const A7: Reg = Reg(17);
    /// Saved register `x18`.
    pub const S2: Reg = Reg(18);
    /// Saved register `x19`.
    pub const S3: Reg = Reg(19);
    /// Saved register `x20`.
    pub const S4: Reg = Reg(20);
    /// Saved register `x21`.
    pub const S5: Reg = Reg(21);
    /// Saved register `x22`.
    pub const S6: Reg = Reg(22);
    /// Saved register `x23`.
    pub const S7: Reg = Reg(23);
    /// Saved register `x24`.
    pub const S8: Reg = Reg(24);
    /// Saved register `x25`.
    pub const S9: Reg = Reg(25);
    /// Saved register `x26`.
    pub const S10: Reg = Reg(26);
    /// Saved register `x27`.
    pub const S11: Reg = Reg(27);
    /// Temporary `x28`.
    pub const T3: Reg = Reg(28);
    /// Temporary `x29`.
    pub const T4: Reg = Reg(29);
    /// Temporary `x30`.
    pub const T5: Reg = Reg(30);
    /// Temporary `x31`.
    pub const T6: Reg = Reg(31);

    /// Creates a register from its index, returning `None` when out of range.
    pub fn new(index: u8) -> Option<Reg> {
        if index < 32 {
            Some(Reg(index))
        } else {
            None
        }
    }

    /// Creates a register from the low five bits of `index`.
    ///
    /// Used by the decoder, where the field width already guarantees range.
    pub fn from_field(index: u32) -> Reg {
        Reg((index & 0x1f) as u8)
    }

    /// The register index (0–31).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Parses an ABI name (`a0`), numeric name (`x10`), or alias (`fp`).
    pub fn parse(name: &str) -> Option<Reg> {
        let abi = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        if let Some(pos) = abi.iter().position(|&n| n == name) {
            return Reg::new(pos as u8);
        }
        if name == "fp" {
            return Some(Reg::S0);
        }
        if let Some(num) = name.strip_prefix('x') {
            if let Ok(n) = num.parse::<u8>() {
                return Reg::new(n);
            }
        }
        None
    }

    /// The canonical ABI name of this register.
    pub fn abi_name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        NAMES[self.0 as usize]
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

/// Comparison condition for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `beq`: equal.
    Eq,
    /// `bne`: not equal.
    Ne,
    /// `blt`: signed less-than.
    Lt,
    /// `bge`: signed greater-or-equal.
    Ge,
    /// `bltu`: unsigned less-than.
    Ltu,
    /// `bgeu`: unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// Every condition.
    pub const ALL: [BranchCond; 6] = {
        use BranchCond::*;
        [Eq, Ne, Lt, Ge, Ltu, Geu]
    };

    /// The `funct3` field encoding for this condition.
    pub fn funct3(self) -> u32 {
        match self {
            BranchCond::Eq => 0b000,
            BranchCond::Ne => 0b001,
            BranchCond::Lt => 0b100,
            BranchCond::Ge => 0b101,
            BranchCond::Ltu => 0b110,
            BranchCond::Geu => 0b111,
        }
    }

    /// The mnemonic, e.g. `beq`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }

    /// Evaluates the condition on two operand values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Width and signedness of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// `lb`/`sb`: signed byte.
    B,
    /// `lh`/`sh`: signed halfword.
    H,
    /// `lw`/`sw`: signed word.
    W,
    /// `ld`/`sd`: doubleword.
    D,
    /// `lbu`: unsigned byte (loads only).
    Bu,
    /// `lhu`: unsigned halfword (loads only).
    Hu,
    /// `lwu`: unsigned word (loads only).
    Wu,
}

impl MemWidth {
    /// Every width; the first four are the store widths.
    pub const ALL: [MemWidth; 7] = {
        use MemWidth::*;
        [B, H, W, D, Bu, Hu, Wu]
    };

    /// The load mnemonic, e.g. `lbu`.
    pub fn load_mnemonic(self) -> &'static str {
        match self {
            MemWidth::B => "lb",
            MemWidth::H => "lh",
            MemWidth::W => "lw",
            MemWidth::D => "ld",
            MemWidth::Bu => "lbu",
            MemWidth::Hu => "lhu",
            MemWidth::Wu => "lwu",
        }
    }

    /// The store mnemonic, e.g. `sb` (unsigned widths store as `sd`).
    pub fn store_mnemonic(self) -> &'static str {
        match self {
            MemWidth::B => "sb",
            MemWidth::H => "sh",
            MemWidth::W => "sw",
            _ => "sd",
        }
    }

    /// Number of bytes accessed.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            MemWidth::B | MemWidth::Bu => 1,
            MemWidth::H | MemWidth::Hu => 2,
            MemWidth::W | MemWidth::Wu => 4,
            MemWidth::D => 8,
        }
    }

    /// The `funct3` field encoding (load flavour).
    pub fn load_funct3(self) -> u32 {
        match self {
            MemWidth::B => 0b000,
            MemWidth::H => 0b001,
            MemWidth::W => 0b010,
            MemWidth::D => 0b011,
            MemWidth::Bu => 0b100,
            MemWidth::Hu => 0b101,
            MemWidth::Wu => 0b110,
        }
    }
}

/// Register-register ALU operation (the `OP`/`OP-32` opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    // RV64 word forms
    Addw,
    Subw,
    Sllw,
    Srlw,
    Sraw,
    // M extension
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Mulw,
    Divw,
    Divuw,
    Remw,
    Remuw,
}

impl AluOp {
    /// Every operation.
    pub const ALL: [AluOp; 28] = {
        use AluOp::*;
        [
            Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And, Addw, Subw, Sllw, Srlw, Sraw, Mul,
            Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu, Mulw, Divw, Divuw, Remw, Remuw,
        ]
    };

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Addw => "addw",
            AluOp::Subw => "subw",
            AluOp::Sllw => "sllw",
            AluOp::Srlw => "srlw",
            AluOp::Sraw => "sraw",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Mulhsu => "mulhsu",
            AluOp::Mulhu => "mulhu",
            AluOp::Div => "div",
            AluOp::Divu => "divu",
            AluOp::Rem => "rem",
            AluOp::Remu => "remu",
            AluOp::Mulw => "mulw",
            AluOp::Divw => "divw",
            AluOp::Divuw => "divuw",
            AluOp::Remw => "remw",
            AluOp::Remuw => "remuw",
        }
    }
}

/// Immediate ALU operation (the `OP-IMM`/`OP-IMM-32` opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluImmOp {
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
}

impl AluImmOp {
    /// Every operation.
    pub const ALL: [AluImmOp; 13] = {
        use AluImmOp::*;
        [
            Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai, Addiw, Slliw, Srliw, Sraiw,
        ]
    };

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluImmOp::Addi => "addi",
            AluImmOp::Slti => "slti",
            AluImmOp::Sltiu => "sltiu",
            AluImmOp::Xori => "xori",
            AluImmOp::Ori => "ori",
            AluImmOp::Andi => "andi",
            AluImmOp::Slli => "slli",
            AluImmOp::Srli => "srli",
            AluImmOp::Srai => "srai",
            AluImmOp::Addiw => "addiw",
            AluImmOp::Slliw => "slliw",
            AluImmOp::Srliw => "srliw",
            AluImmOp::Sraiw => "sraiw",
        }
    }

    /// Whether the immediate is a shift amount (6-bit) rather than a 12-bit value.
    pub fn is_shift(self) -> bool {
        matches!(
            self,
            AluImmOp::Slli
                | AluImmOp::Srli
                | AluImmOp::Srai
                | AluImmOp::Slliw
                | AluImmOp::Srliw
                | AluImmOp::Sraiw
        )
    }
}

/// CSR access operation (Zicsr).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CsrOp {
    Rw,
    Rs,
    Rc,
}

impl CsrOp {
    /// Every operation.
    pub const ALL: [CsrOp; 3] = [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc];

    /// The register-source mnemonic, e.g. `csrrw` (the immediate form adds
    /// an `i`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CsrOp::Rw => "csrrw",
            CsrOp::Rs => "csrrs",
            CsrOp::Rc => "csrrc",
        }
    }

    /// The `funct3` encoding (register-source form).
    pub fn funct3(self) -> u32 {
        match self {
            CsrOp::Rw => 0b001,
            CsrOp::Rs => 0b010,
            CsrOp::Rc => 0b011,
        }
    }
}

/// A decoded RV64IM instruction.
///
/// Immediates are stored as sign-extended `i64` semantic values (byte offsets
/// for branches/jumps, not raw encoded fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `lui rd, imm20` — load upper immediate (`imm` is the full shifted value).
    Lui {
        /// Destination register.
        rd: Reg,
        /// The full (already shifted) immediate value.
        imm: i64,
    },
    /// `auipc rd, imm20` — add upper immediate to PC.
    Auipc {
        /// Destination register.
        rd: Reg,
        /// The full (already shifted) immediate value.
        imm: i64,
    },
    /// `jal rd, offset` — jump and link (PC-relative byte offset).
    Jal {
        /// Link register (receives PC+4).
        rd: Reg,
        /// PC-relative byte offset of the target.
        offset: i64,
    },
    /// `jalr rd, rs1, offset` — indirect jump and link.
    Jalr {
        /// Link register (receives PC+4).
        rd: Reg,
        /// Base register holding the target address.
        rs1: Reg,
        /// Byte offset added to the base.
        offset: i64,
    },
    /// Conditional branch (PC-relative byte offset).
    Branch {
        /// Comparison condition.
        cond: BranchCond,
        /// First source operand.
        rs1: Reg,
        /// Second source operand.
        rs2: Reg,
        /// PC-relative byte offset of the target.
        offset: i64,
    },
    /// Load from memory.
    Load {
        /// Access width and sign extension.
        width: MemWidth,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Byte offset from the base.
        offset: i64,
    },
    /// Store to memory. `width` must be one of `B`/`H`/`W`/`D`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Source register holding the value to store.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Byte offset from the base.
        offset: i64,
    },
    /// Register-immediate ALU operation.
    AluImm {
        /// The operation.
        op: AluImmOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Sign-extended immediate (shift amount for shift ops).
        imm: i64,
    },
    /// Register-register ALU operation.
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `fence` — memory ordering (no-op in this model).
    Fence,
    /// `ecall` — environment call.
    Ecall,
    /// `ebreak` — breakpoint.
    Ebreak,
    /// CSR register operation (`csrrw`/`csrrs`/`csrrc`).
    Csr {
        /// Read-write/set/clear flavour.
        op: CsrOp,
        /// Destination register (receives the old CSR value).
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// CSR number.
        csr: u16,
    },
    /// CSR immediate operation (`csrrwi`/`csrrsi`/`csrrci`), `zimm` in 0..32.
    CsrImm {
        /// Read-write/set/clear flavour.
        op: CsrOp,
        /// Destination register (receives the old CSR value).
        rd: Reg,
        /// 5-bit zero-extended immediate source.
        zimm: u8,
        /// CSR number.
        csr: u16,
    },
}

/// Well-known CSR numbers used by this model.
pub mod csr {
    /// Cycle counter (read-only shadow).
    pub const CYCLE: u16 = 0xC00;
    /// Wall-clock time counter (cycles in this model).
    pub const TIME: u16 = 0xC01;
    /// Retired-instruction counter.
    pub const INSTRET: u16 = 0xC02;
    /// Hart (core) ID.
    pub const MHARTID: u16 = 0xF14;
    /// Machine scratch register.
    pub const MSCRATCH: u16 = 0x340;
    /// The names the assembler accepts.
    pub const NAMES: [(u16, &str); 5] = [
        (CYCLE, "cycle"),
        (TIME, "time"),
        (INSTRET, "instret"),
        (MHARTID, "mhartid"),
        (MSCRATCH, "mscratch"),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_parse_abi_and_numeric() {
        assert_eq!(Reg::parse("a0"), Some(Reg::A0));
        assert_eq!(Reg::parse("x10"), Some(Reg::A0));
        assert_eq!(Reg::parse("zero"), Some(Reg::ZERO));
        assert_eq!(Reg::parse("fp"), Some(Reg::S0));
        assert_eq!(Reg::parse("x32"), None);
        assert_eq!(Reg::parse("q7"), None);
    }

    #[test]
    fn reg_roundtrip_names() {
        for i in 0..32u8 {
            let r = Reg::new(i).unwrap();
            assert_eq!(Reg::parse(r.abi_name()), Some(r));
            assert_eq!(Reg::parse(&format!("x{i}")), Some(r));
        }
    }

    #[test]
    fn reg_new_bounds() {
        assert!(Reg::new(31).is_some());
        assert!(Reg::new(32).is_none());
    }

    #[test]
    fn branch_cond_eval() {
        let neg1 = (-1i64) as u64;
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(!BranchCond::Eq.eval(5, 6));
        assert!(BranchCond::Ne.eval(5, 6));
        assert!(BranchCond::Lt.eval(neg1, 0)); // signed: -1 < 0
        assert!(!BranchCond::Ltu.eval(neg1, 0)); // unsigned: max > 0
        assert!(BranchCond::Ge.eval(0, neg1));
        assert!(BranchCond::Geu.eval(neg1, 0));
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::Hu.bytes(), 2);
        assert_eq!(MemWidth::Wu.bytes(), 4);
        assert_eq!(MemWidth::D.bytes(), 8);
    }
}
