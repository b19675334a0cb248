//! Instruction disassembly, for diagnostics and simulator trace logs.

use marshal_trace::bytes::Reader;

use crate::inst::{csr, Inst};

fn csr_name(num: u16) -> String {
    match csr::NAMES.iter().find(|(n, _)| *n == num) {
        Some((_, name)) => (*name).to_owned(),
        None => format!("{num:#x}"),
    }
}

/// Renders `inst` (located at `pc`) as assembler text.
///
/// Branch and jump targets are printed as absolute addresses.
///
/// ```rust
/// use marshal_isa::{decode::decode, disasm::disassemble};
/// let inst = decode(0x0010_0513).unwrap();
/// assert_eq!(disassemble(&inst, 0), "addi a0, zero, 1");
/// ```
pub fn disassemble(inst: &Inst, pc: u64) -> String {
    match *inst {
        Inst::Lui { rd, imm } => format!("lui {rd}, {:#x}", (imm >> 12) & 0xfffff),
        Inst::Auipc { rd, imm } => format!("auipc {rd}, {:#x}", (imm >> 12) & 0xfffff),
        Inst::Jal { rd, offset } => {
            format!("jal {rd}, {:#x}", pc.wrapping_add(offset as u64))
        }
        Inst::Jalr { rd, rs1, offset } => format!("jalr {rd}, {offset}({rs1})"),
        Inst::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => format!(
            "{} {rs1}, {rs2}, {:#x}",
            cond.mnemonic(),
            pc.wrapping_add(offset as u64)
        ),
        Inst::Load {
            width,
            rd,
            rs1,
            offset,
        } => format!("{} {rd}, {offset}({rs1})", width.load_mnemonic()),
        Inst::Store {
            width,
            rs2,
            rs1,
            offset,
        } => format!("{} {rs2}, {offset}({rs1})", width.store_mnemonic()),
        Inst::AluImm { op, rd, rs1, imm } => {
            format!("{} {rd}, {rs1}, {imm}", op.mnemonic())
        }
        Inst::Alu { op, rd, rs1, rs2 } => {
            format!("{} {rd}, {rs1}, {rs2}", op.mnemonic())
        }
        Inst::Fence => "fence".to_owned(),
        Inst::Ecall => "ecall".to_owned(),
        Inst::Ebreak => "ebreak".to_owned(),
        Inst::Csr { op, rd, rs1, csr } => {
            format!("{} {rd}, {}, {rs1}", op.mnemonic(), csr_name(csr))
        }
        Inst::CsrImm { op, rd, zimm, csr } => {
            format!("{}i {rd}, {}, {zimm}", op.mnemonic(), csr_name(csr))
        }
    }
}

/// Disassembles raw code bytes starting at `base`, one line per word.
pub fn disassemble_bytes(code: &[u8], base: u64) -> Vec<String> {
    let mut r = Reader::new(code);
    (base..)
        .step_by(4)
        .map_while(|pc| Some((pc, r.u32().ok()?)))
        .map(|(pc, word)| match crate::decode::decode(word) {
            Ok(inst) => format!("{pc:#10x}: {}", disassemble(&inst, pc)),
            Err(_) => format!("{pc:#10x}: .word {word:#010x}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn disassemble_roundtrip_text() {
        // Assemble, disassemble, re-assemble: the two binaries must match.
        let src = r#"
_start:
        addi    sp, sp, -16
        sd      ra, 8(sp)
        li      a0, 3
        mul     a0, a0, a0
        beqz    a0, _start
        ecall
"#;
        let exe = assemble(src, 0x1_0000).unwrap();
        let code = &exe.segments()[0].data;
        let lines = disassemble_bytes(code, 0x1_0000);
        assert_eq!(lines.len(), code.len() / 4);
        // Re-assemble each disassembled instruction in place and compare.
        for (i, line) in lines.iter().enumerate() {
            let text = line.split(": ").nth(1).unwrap();
            let pc = 0x1_0000 + 4 * i as u64;
            // Branch targets print as absolute hex, which the assembler
            // accepts as immediates relative to nothing — so only verify
            // non-control-flow lines byte-for-byte.
            if text.starts_with('b') || text.starts_with('j') {
                continue;
            }
            let re = assemble(&format!("{text}\n"), pc).unwrap();
            assert_eq!(
                re.segments()[0].data,
                code[4 * i..4 * i + 4].to_vec(),
                "line {i}: {text}"
            );
        }
    }

    #[test]
    fn unknown_words_render_as_data() {
        let lines = disassemble_bytes(&[0xff, 0xff, 0xff, 0xff], 0);
        assert!(lines[0].contains(".word"));
    }
}
