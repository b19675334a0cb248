//! A two-pass RV64IM assembler.
//!
//! Supports the standard directive set (`.text`, `.data`, `.global`,
//! `.align`, `.byte`/`.half`/`.word`/`.dword`, `.ascii`/`.asciiz`/`.string`,
//! `.space`, `.equ`), labels, the common pseudo-instructions (`li`, `la`,
//! `mv`, `j`, `call`, `ret`, `beqz`, `rdcycle`, ...), and character/hex/
//! binary literals. Output is a deterministic [`MexeFile`].
//!
//! This is the "cross-compiler" of the reproduction: workload `host-init`
//! hooks call into it the way the paper's workloads called Speckle/GCC.

use std::collections::BTreeMap;
use std::fmt;

use crate::encode::encode;
use crate::inst::{csr, AluImmOp, AluOp, BranchCond, CsrOp, Inst, MemWidth, Reg};
use crate::mexe::MexeFile;

/// Error produced while assembling, with a 1-based source line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl AsmError {
    fn new(line: usize, message: impl Into<String>) -> AsmError {
        AsmError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asm error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

#[derive(Debug, Clone)]
enum Operand {
    Reg(Reg),
    Imm(i64),
    Sym(String),
    /// `offset(base)` memory operand.
    Mem(i64, Reg),
}

#[derive(Debug, Clone)]
enum Item {
    Label(String),
    Inst {
        mnemonic: String,
        ops: Vec<Operand>,
    },
    Bytes(Vec<u8>),
    /// `.word`/`.dword` entries that may reference symbols.
    Words {
        size: usize,
        values: Vec<DataValue>,
    },
    Align(u64),
    Space(usize, u8),
}

#[derive(Debug, Clone)]
enum DataValue {
    Imm(i64),
    Sym(String),
}

#[derive(Debug, Clone)]
struct SourceItem {
    line: usize,
    section: Section,
    item: Item,
}

/// Assembles `source` into a [`MexeFile`] with its text section at `base`.
///
/// The data section is placed at the next 4 KiB boundary after the text
/// section. The entry point is the `_start` symbol if defined, otherwise
/// `base`.
///
/// # Errors
///
/// Returns [`AsmError`] (with a line number) for syntax errors, unknown
/// mnemonics or registers, undefined or duplicate labels, and out-of-range
/// immediates.
///
/// ```rust
/// # use marshal_isa::asm::assemble;
/// let exe = assemble(".text\n_start: li a0, 7\n ecall\n", 0x1_0000)?;
/// assert_eq!(exe.entry(), 0x1_0000);
/// # Ok::<(), marshal_isa::asm::AsmError>(())
/// ```
pub fn assemble(source: &str, base: u64) -> Result<MexeFile, AsmError> {
    let items = parse(source)?;
    layout_and_encode(&items, base)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse(source: &str) -> Result<Vec<SourceItem>, AsmError> {
    let mut items = Vec::new();
    let mut section = Section::Text;
    let mut equs: BTreeMap<String, i64> = BTreeMap::new();
    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        let mut rest: &str = &line;
        // Leading labels (possibly several).
        while let Some(colon) = find_label_colon(rest) {
            let name = rest[..colon].trim();
            if !is_ident(name) {
                break;
            }
            items.push(SourceItem {
                line: line_no,
                section,
                item: Item::Label(name.to_owned()),
            });
            rest = rest[colon + 1..].trim_start();
        }
        if rest.is_empty() {
            continue;
        }
        if let Some(dir) = rest.strip_prefix('.') {
            parse_directive(dir, line_no, &mut section, &mut items, &mut equs)?;
        } else {
            let (mnemonic, ops_str) = match rest.find(char::is_whitespace) {
                Some(sp) => (&rest[..sp], rest[sp..].trim()),
                None => (rest, ""),
            };
            let ops = parse_operands(ops_str, line_no, &equs)?;
            items.push(SourceItem {
                line: line_no,
                section,
                item: Item::Inst {
                    mnemonic: mnemonic.to_ascii_lowercase(),
                    ops,
                },
            });
        }
    }
    Ok(items)
}

fn strip_comment(line: &str) -> &str {
    // Respect string literals when searching for `#` / `//`.
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn find_label_colon(s: &str) -> Option<usize> {
    let colon = s.find(':')?;
    // Not inside a string literal and not part of an operand list.
    if s[..colon].contains('"') || s[..colon].contains(char::is_whitespace) {
        return None;
    }
    Some(colon)
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_' || c == '.')
        && s.chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '.' || c == '$')
}

fn parse_directive(
    dir: &str,
    line: usize,
    section: &mut Section,
    items: &mut Vec<SourceItem>,
    equs: &mut BTreeMap<String, i64>,
) -> Result<(), AsmError> {
    let (name, args) = match dir.find(char::is_whitespace) {
        Some(sp) => (&dir[..sp], dir[sp..].trim()),
        None => (dir, ""),
    };
    let push = |items: &mut Vec<SourceItem>, section: Section, item: Item| {
        items.push(SourceItem {
            line,
            section,
            item,
        })
    };
    match name {
        "text" => *section = Section::Text,
        "data" | "rodata" | "bss" => *section = Section::Data,
        "global" | "globl" => { /* all symbols are exported in MEXE */ }
        "align" => {
            let n = parse_int(args, line, equs)?;
            if !(0..=16).contains(&n) {
                return Err(AsmError::new(line, format!(".align {n} out of range")));
            }
            push(items, *section, Item::Align(1u64 << n));
        }
        "byte" | "half" | "word" | "dword" | "quad" => {
            let size = match name {
                "byte" => 1,
                "half" => 2,
                "word" => 4,
                _ => 8,
            };
            let mut values = Vec::new();
            for part in split_args(args) {
                let part = part.trim();
                if let Ok(v) = parse_int(part, line, equs) {
                    values.push(DataValue::Imm(v));
                } else if is_ident(part) {
                    values.push(DataValue::Sym(part.to_owned()));
                } else {
                    return Err(AsmError::new(line, format!("bad data value `{part}`")));
                }
            }
            push(items, *section, Item::Words { size, values });
        }
        "ascii" | "asciiz" | "string" => {
            let mut bytes = parse_string(args, line)?;
            if name != "ascii" {
                bytes.push(0);
            }
            push(items, *section, Item::Bytes(bytes));
        }
        "space" | "zero" | "skip" => {
            let parts: Vec<&str> = split_args(args);
            if parts.is_empty() {
                return Err(AsmError::new(line, ".space needs a size"));
            }
            let n = parse_int(parts[0].trim(), line, equs)?;
            let fill = if parts.len() > 1 {
                parse_int(parts[1].trim(), line, equs)? as u8
            } else {
                0
            };
            if n < 0 {
                return Err(AsmError::new(line, ".space size must be non-negative"));
            }
            push(items, *section, Item::Space(n as usize, fill));
        }
        "equ" | "set" => {
            let parts: Vec<&str> = split_args(args);
            if parts.len() != 2 {
                return Err(AsmError::new(line, ".equ needs `name, value`"));
            }
            let name = parts[0].trim();
            if !is_ident(name) {
                return Err(AsmError::new(line, format!("bad .equ name `{name}`")));
            }
            let value = parse_int(parts[1].trim(), line, equs)?;
            equs.insert(name.to_owned(), value);
        }
        "section" => {
            // .section .text / .section .data.foo — map by prefix.
            *section = if args.trim_start_matches('.').starts_with("text") {
                Section::Text
            } else {
                Section::Data
            };
        }
        _ => {
            return Err(AsmError::new(line, format!("unknown directive .{name}")));
        }
    }
    Ok(())
}

/// Splits a comma-separated operand list, respecting string literals and
/// parentheses.
fn split_args(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'(' if !in_str => depth += 1,
            b')' if !in_str => depth -= 1,
            b',' if !in_str && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < s.len() || !out.is_empty() {
        out.push(&s[start..]);
    } else if !s.trim().is_empty() {
        out.push(s);
    }
    out.retain(|p| !p.trim().is_empty());
    out
}

fn parse_string(s: &str, line: usize) -> Result<Vec<u8>, AsmError> {
    let s = s.trim();
    if !(s.starts_with('"') && s.ends_with('"') && s.len() >= 2) {
        return Err(AsmError::new(line, "expected a double-quoted string"));
    }
    let inner = &s[1..s.len() - 1];
    let mut out = Vec::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push(b'\n'),
                Some('t') => out.push(b'\t'),
                Some('r') => out.push(b'\r'),
                Some('0') => out.push(0),
                Some('\\') => out.push(b'\\'),
                Some('"') => out.push(b'"'),
                other => {
                    return Err(AsmError::new(line, format!("bad escape `\\{other:?}`")));
                }
            }
        } else {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
    }
    Ok(out)
}

fn parse_int(s: &str, line: usize, equs: &BTreeMap<String, i64>) -> Result<i64, AsmError> {
    let s = s.trim();
    if let Some(v) = equs.get(s) {
        return Ok(*v);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let body = body.trim();
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(&hex.replace('_', ""), 16)
            .ok()
            .or_else(|| {
                u64::from_str_radix(&hex.replace('_', ""), 16)
                    .ok()
                    .map(|v| v as i64)
            })
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        i64::from_str_radix(&bin.replace('_', ""), 2).ok()
    } else if body.starts_with('\'') && body.ends_with('\'') && body.len() >= 3 {
        let inner = &body[1..body.len() - 1];
        let c = match inner {
            "\\n" => '\n',
            "\\t" => '\t',
            "\\0" => '\0',
            "\\\\" => '\\',
            _ => inner.chars().next().unwrap(),
        };
        Some(c as i64)
    } else {
        // Parse the full signed literal directly so i64::MIN works.
        return s
            .replace('_', "")
            .parse::<i64>()
            .map_err(|_| AsmError::new(line, format!("bad integer `{s}`")));
    };
    match value {
        Some(v) => Ok(if neg { v.wrapping_neg() } else { v }),
        None => Err(AsmError::new(line, format!("bad integer `{s}`"))),
    }
}

fn parse_operands(
    s: &str,
    line: usize,
    equs: &BTreeMap<String, i64>,
) -> Result<Vec<Operand>, AsmError> {
    let mut ops = Vec::new();
    for part in split_args(s) {
        let part = part.trim();
        if let Some(r) = Reg::parse(part) {
            ops.push(Operand::Reg(r));
        } else if let Some(open) = part.find('(') {
            // offset(base)
            if !part.ends_with(')') {
                return Err(AsmError::new(line, format!("bad memory operand `{part}`")));
            }
            let off_str = part[..open].trim();
            let base_str = part[open + 1..part.len() - 1].trim();
            let offset = if off_str.is_empty() {
                0
            } else {
                parse_int(off_str, line, equs)?
            };
            let base = Reg::parse(base_str)
                .ok_or_else(|| AsmError::new(line, format!("bad base register `{base_str}`")))?;
            ops.push(Operand::Mem(offset, base));
        } else if let Ok(v) = parse_int(part, line, equs) {
            ops.push(Operand::Imm(v));
        } else if is_ident(part) {
            ops.push(Operand::Sym(part.to_owned()));
        } else {
            return Err(AsmError::new(line, format!("bad operand `{part}`")));
        }
    }
    Ok(ops)
}

// ---------------------------------------------------------------------------
// Layout and encoding
// ---------------------------------------------------------------------------

const DATA_ALIGN: u64 = 4096;

fn item_size(item: &SourceItem, cursor: u64) -> Result<u64, AsmError> {
    Ok(match &item.item {
        Item::Label(_) => 0,
        Item::Inst { mnemonic, ops } => 4 * expand_count(mnemonic, ops, item.line)? as u64,
        Item::Bytes(b) => b.len() as u64,
        Item::Words { size, values } => (size * values.len()) as u64,
        Item::Align(a) => {
            let rem = cursor % a;
            if rem == 0 {
                0
            } else {
                a - rem
            }
        }
        Item::Space(n, _) => *n as u64,
    })
}

/// Number of real instructions a (pseudo-)instruction expands to.
fn expand_count(mnemonic: &str, ops: &[Operand], line: usize) -> Result<usize, AsmError> {
    Ok(match mnemonic {
        "li" => {
            let imm = match ops.get(1) {
                Some(Operand::Imm(v)) => *v,
                _ => return Err(AsmError::new(line, "li needs `rd, imm`")),
            };
            materialize_li(Reg::T0, imm).len()
        }
        "la" => 2,
        _ => 1,
    })
}

fn layout_and_encode(items: &[SourceItem], base: u64) -> Result<MexeFile, AsmError> {
    // Pass 1: sizes and symbol addresses.
    let mut text_size = 0u64;
    for it in items.iter().filter(|i| i.section == Section::Text) {
        text_size += item_size(it, base + text_size)?;
    }
    let data_base = align_up(base + text_size, DATA_ALIGN);

    let mut symbols: BTreeMap<String, u64> = BTreeMap::new();
    let mut text_cursor = base;
    let mut data_cursor = data_base;
    for it in items {
        let cursor = match it.section {
            Section::Text => &mut text_cursor,
            Section::Data => &mut data_cursor,
        };
        if let Item::Label(name) = &it.item {
            if symbols.insert(name.clone(), *cursor).is_some() {
                return Err(AsmError::new(it.line, format!("duplicate label `{name}`")));
            }
        }
        *cursor += item_size(it, *cursor)?;
    }

    // Pass 2: encode.
    let mut text = Vec::new();
    let mut data = Vec::new();
    let mut text_cursor = base;
    let mut data_cursor = data_base;
    for it in items {
        let (buf, cursor) = match it.section {
            Section::Text => (&mut text, &mut text_cursor),
            Section::Data => (&mut data, &mut data_cursor),
        };
        match &it.item {
            Item::Label(_) => {}
            Item::Inst { mnemonic, ops } => {
                let insts = expand(mnemonic, ops, *cursor, &symbols, it.line)?;
                for (k, inst) in insts.iter().enumerate() {
                    let word = encode(inst).map_err(|e| AsmError::new(it.line, e.to_string()))?;
                    let _ = k;
                    buf.extend_from_slice(&word.to_le_bytes());
                    *cursor += 4;
                }
            }
            Item::Bytes(b) => {
                buf.extend_from_slice(b);
                *cursor += b.len() as u64;
            }
            Item::Words { size, values } => {
                for v in values {
                    let value = match v {
                        DataValue::Imm(i) => *i as u64,
                        DataValue::Sym(name) => *symbols.get(name).ok_or_else(|| {
                            AsmError::new(it.line, format!("undefined symbol `{name}`"))
                        })?,
                    };
                    buf.extend_from_slice(&value.to_le_bytes()[..*size]);
                    *cursor += *size as u64;
                }
            }
            Item::Align(a) => {
                let rem = *cursor % a;
                if rem != 0 {
                    let pad = (a - rem) as usize;
                    buf.extend(std::iter::repeat_n(0u8, pad));
                    *cursor += pad as u64;
                }
            }
            Item::Space(n, fill) => {
                buf.extend(std::iter::repeat_n(*fill, *n));
                *cursor += *n as u64;
            }
        }
    }

    let entry = symbols.get("_start").copied().unwrap_or(base);
    let mut file = MexeFile::new(entry);
    if !text.is_empty() {
        file.push_segment(base, text);
    }
    if !data.is_empty() {
        file.push_segment(data_base, data);
    }
    for (name, value) in symbols {
        file.define_symbol(name, value);
    }
    Ok(file)
}

fn align_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

// ---------------------------------------------------------------------------
// Instruction expansion
// ---------------------------------------------------------------------------

/// Materialises a 64-bit constant into `rd` as a real instruction sequence.
pub fn materialize_li(rd: Reg, imm: i64) -> Vec<Inst> {
    if (-2048..2048).contains(&imm) {
        return vec![alu_imm(AluImmOp::Addi, rd, Reg::ZERO, imm)];
    }
    let lo12 = (imm << 52) >> 52;
    let hi = imm.wrapping_sub(lo12);
    if hi == (hi as i32 as i64) && hi & 0xfff == 0 {
        let mut v = vec![Inst::Lui { rd, imm: hi }];
        if lo12 != 0 {
            v.push(alu_imm(AluImmOp::Addiw, rd, rd, lo12));
        }
        return v;
    }
    // 64-bit: build the upper bits, shift, add low 12, recursively.
    let upper = (imm.wrapping_sub(lo12)) >> 12;
    let mut v = materialize_li(rd, upper);
    v.push(alu_imm(AluImmOp::Slli, rd, rd, 12));
    if lo12 != 0 {
        v.push(alu_imm(AluImmOp::Addi, rd, rd, lo12));
    }
    v
}

fn alu_imm(op: AluImmOp, rd: Reg, rs1: Reg, imm: i64) -> Inst {
    Inst::AluImm { op, rd, rs1, imm }
}

fn alu(op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
    Inst::Alu { op, rd, rs1, rs2 }
}

fn jalr(rd: Reg, rs1: Reg, offset: i64) -> Inst {
    Inst::Jalr { rd, rs1, offset }
}

fn csr_access(op: CsrOp, rd: Reg, rs1: Reg, csr: u16) -> Inst {
    Inst::Csr { op, rd, rs1, csr }
}

/// The member of `all` whose mnemonic is `mnemonic`.
fn named<T: Copy>(all: &[T], name: fn(T) -> &'static str, mnemonic: &str) -> Option<T> {
    all.iter().copied().find(|&t| name(t) == mnemonic)
}

struct Ctx<'a> {
    pc: u64,
    symbols: &'a BTreeMap<String, u64>,
    line: usize,
}

impl Ctx<'_> {
    fn resolve(&self, op: &Operand) -> Result<i64, AsmError> {
        match op {
            Operand::Imm(v) => Ok(*v),
            Operand::Sym(name) => self
                .symbols
                .get(name)
                .map(|v| *v as i64)
                .ok_or_else(|| AsmError::new(self.line, format!("undefined symbol `{name}`"))),
            _ => Err(AsmError::new(self.line, "expected immediate or symbol")),
        }
    }

    fn branch_offset(&self, op: &Operand) -> Result<i64, AsmError> {
        Ok(self.resolve(op)? - self.pc as i64)
    }

    fn reg(&self, op: Option<&Operand>) -> Result<Reg, AsmError> {
        match op {
            Some(Operand::Reg(r)) => Ok(*r),
            _ => Err(AsmError::new(self.line, "expected register operand")),
        }
    }

    fn mem(&self, op: Option<&Operand>) -> Result<(i64, Reg), AsmError> {
        match op {
            Some(Operand::Mem(off, base)) => Ok((*off, *base)),
            Some(Operand::Reg(r)) => Ok((0, *r)),
            _ => Err(AsmError::new(
                self.line,
                "expected memory operand `off(reg)`",
            )),
        }
    }
}

fn parse_csr_operand(op: &Operand, line: usize) -> Result<u16, AsmError> {
    match op {
        Operand::Imm(v) if (0..4096).contains(v) => Ok(*v as u16),
        Operand::Sym(name) => csr::NAMES
            .iter()
            .find(|(_, n)| n == name)
            .map(|(num, _)| *num)
            .ok_or_else(|| AsmError::new(line, format!("unknown CSR `{name}`"))),
        _ => Err(AsmError::new(line, "expected a CSR name or number")),
    }
}

fn expand(
    mnemonic: &str,
    ops: &[Operand],
    pc: u64,
    symbols: &BTreeMap<String, u64>,
    line: usize,
) -> Result<Vec<Inst>, AsmError> {
    let ctx = Ctx { pc, symbols, line };
    let one = |i: Inst| Ok(vec![i]);
    let get = |i: usize| ops.get(i);
    let reg = |i: usize| ctx.reg(ops.get(i));
    let needs = |i: usize, what: &str| {
        ops.get(i)
            .ok_or_else(|| AsmError::new(line, format!("{mnemonic} needs {what}")))
    };
    let arity = |n: usize, shape: &str| {
        if ops.len() == n {
            Ok(())
        } else {
            Err(AsmError::new(line, format!("{mnemonic} needs `{shape}`")))
        }
    };
    let branch =
        |cond: BranchCond, rs1: Reg, rs2: Reg, target: &Operand| -> Result<Vec<Inst>, AsmError> {
            Ok(vec![Inst::Branch {
                cond,
                rs1,
                rs2,
                offset: ctx.branch_offset(target)?,
            }])
        };
    let jump = |rd: Reg, target: &Operand| -> Result<Vec<Inst>, AsmError> {
        Ok(vec![Inst::Jal {
            rd,
            offset: ctx.branch_offset(target)?,
        }])
    };

    if let Some(cond) = named(&BranchCond::ALL, BranchCond::mnemonic, mnemonic) {
        arity(3, "rs1, rs2, target")?;
        return branch(cond, reg(0)?, reg(1)?, &ops[2]);
    }
    if let Some(width) = named(&MemWidth::ALL, MemWidth::load_mnemonic, mnemonic) {
        let rd = reg(0)?;
        let (offset, rs1) = ctx.mem(get(1))?;
        return one(Inst::Load {
            width,
            rd,
            rs1,
            offset,
        });
    }
    if let Some(width) = named(&MemWidth::ALL[..4], MemWidth::store_mnemonic, mnemonic) {
        let rs2 = reg(0)?;
        let (offset, rs1) = ctx.mem(get(1))?;
        return one(Inst::Store {
            width,
            rs2,
            rs1,
            offset,
        });
    }
    if let Some(op) = named(&AluImmOp::ALL, AluImmOp::mnemonic, mnemonic) {
        arity(3, "rd, rs1, imm")?;
        return one(alu_imm(op, reg(0)?, reg(1)?, ctx.resolve(&ops[2])?));
    }
    if let Some(op) = named(&AluOp::ALL, AluOp::mnemonic, mnemonic) {
        arity(3, "rd, rs1, rs2")?;
        return one(alu(op, reg(0)?, reg(1)?, reg(2)?));
    }
    if let Some(op) = named(&CsrOp::ALL, CsrOp::mnemonic, mnemonic) {
        arity(3, "rd, csr, rs1")?;
        let (rd, csr) = (reg(0)?, parse_csr_operand(&ops[1], line)?);
        return one(csr_access(op, rd, reg(2)?, csr));
    }
    match mnemonic {
        // --- U / J types -------------------------------------------------
        "lui" => one(Inst::Lui {
            rd: reg(0)?,
            imm: ctx.resolve(needs(1, "imm")?)? << 12,
        }),
        "auipc" => one(Inst::Auipc {
            rd: reg(0)?,
            imm: ctx.resolve(needs(1, "imm")?)? << 12,
        }),
        "jal" => match ops.len() {
            1 => jump(Reg::RA, &ops[0]),
            2 => jump(reg(0)?, &ops[1]),
            _ => Err(AsmError::new(line, "jal needs `[rd,] target`")),
        },
        "jalr" => match ops.len() {
            1 => match &ops[0] {
                Operand::Reg(r) => one(jalr(Reg::RA, *r, 0)),
                _ => Err(AsmError::new(line, "jalr needs a register")),
            },
            2 => {
                let rd = reg(0)?;
                let (offset, rs1) = ctx.mem(get(1))?;
                one(jalr(rd, rs1, offset))
            }
            3 => one(jalr(reg(0)?, reg(1)?, ctx.resolve(&ops[2])?)),
            _ => Err(AsmError::new(line, "jalr needs 1-3 operands")),
        },
        // --- branches ----------------------------------------------------
        "bgt" | "ble" | "bgtu" | "bleu" => {
            let cond = match mnemonic {
                "bgt" => BranchCond::Lt,
                "ble" => BranchCond::Ge,
                "bgtu" => BranchCond::Ltu,
                _ => BranchCond::Geu,
            };
            arity(3, "rs1, rs2, target")?;
            // Swap operands: bgt a,b == blt b,a
            branch(cond, reg(1)?, reg(0)?, &ops[2])
        }
        "beqz" | "bnez" | "bltz" | "bgez" => {
            let cond = match mnemonic {
                "beqz" => BranchCond::Eq,
                "bnez" => BranchCond::Ne,
                "bltz" => BranchCond::Lt,
                _ => BranchCond::Ge,
            };
            arity(2, "rs, target")?;
            branch(cond, reg(0)?, Reg::ZERO, &ops[1])
        }
        "blez" | "bgtz" => {
            let cond = match mnemonic {
                "blez" => BranchCond::Ge,
                _ => BranchCond::Lt,
            };
            arity(2, "rs, target")?;
            branch(cond, Reg::ZERO, reg(0)?, &ops[1])
        }
        // --- system --------------------------------------------------------
        "ecall" => one(Inst::Ecall),
        "ebreak" => one(Inst::Ebreak),
        "fence" | "fence.i" => one(Inst::Fence),
        // --- pseudo-instructions ---------------------------------------------
        "nop" => one(alu_imm(AluImmOp::Addi, Reg::ZERO, Reg::ZERO, 0)),
        "li" => {
            let rd = reg(0)?;
            let imm = match get(1) {
                Some(Operand::Imm(v)) => *v,
                // `li rd, label` is rejected (size would depend on layout);
                // use `la` for addresses.
                _ => {
                    return Err(AsmError::new(
                        line,
                        "li needs `rd, imm` (use `la` for symbols)",
                    ))
                }
            };
            Ok(materialize_li(rd, imm))
        }
        "la" => {
            let rd = reg(0)?;
            let target = ctx.resolve(needs(1, "symbol")?)?;
            let rel = target - pc as i64;
            let lo12 = (rel << 52) >> 52;
            let hi = rel - lo12;
            Ok(vec![
                Inst::Auipc { rd, imm: hi },
                alu_imm(AluImmOp::Addi, rd, rd, lo12),
            ])
        }
        "mv" => one(alu_imm(AluImmOp::Addi, reg(0)?, reg(1)?, 0)),
        "not" => one(alu_imm(AluImmOp::Xori, reg(0)?, reg(1)?, -1)),
        "neg" => one(alu(AluOp::Sub, reg(0)?, Reg::ZERO, reg(1)?)),
        "negw" => one(alu(AluOp::Subw, reg(0)?, Reg::ZERO, reg(1)?)),
        "sext.w" => one(alu_imm(AluImmOp::Addiw, reg(0)?, reg(1)?, 0)),
        "seqz" => one(alu_imm(AluImmOp::Sltiu, reg(0)?, reg(1)?, 1)),
        "snez" => one(alu(AluOp::Sltu, reg(0)?, Reg::ZERO, reg(1)?)),
        "sltz" => one(alu(AluOp::Slt, reg(0)?, reg(1)?, Reg::ZERO)),
        "sgtz" => one(alu(AluOp::Slt, reg(0)?, Reg::ZERO, reg(1)?)),
        "j" => jump(Reg::ZERO, needs(0, "target")?),
        "jr" => one(jalr(Reg::ZERO, reg(0)?, 0)),
        "call" => jump(Reg::RA, needs(0, "target")?),
        "tail" => jump(Reg::ZERO, needs(0, "target")?),
        "ret" => one(jalr(Reg::ZERO, Reg::RA, 0)),
        "rdcycle" => one(csr_access(CsrOp::Rs, reg(0)?, Reg::ZERO, csr::CYCLE)),
        "rdtime" => one(csr_access(CsrOp::Rs, reg(0)?, Reg::ZERO, csr::TIME)),
        "rdinstret" => one(csr_access(CsrOp::Rs, reg(0)?, Reg::ZERO, csr::INSTRET)),
        "csrr" => {
            let rd = reg(0)?;
            let csr = parse_csr_operand(needs(1, "a CSR")?, line)?;
            one(csr_access(CsrOp::Rs, rd, Reg::ZERO, csr))
        }
        "csrw" => {
            let rs1 = reg(1)?;
            let csr = parse_csr_operand(needs(0, "a CSR")?, line)?;
            one(csr_access(CsrOp::Rw, Reg::ZERO, rs1, csr))
        }
        other => Err(AsmError::new(line, format!("unknown mnemonic `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Cpu, StepOutcome};
    use crate::mem::FlatMemory;

    fn run(source: &str) -> Cpu {
        let exe = assemble(source, 0x1_0000).expect("assemble");
        let mut mem = FlatMemory::new(1 << 21);
        exe.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(exe.entry());
        cpu.write_reg(Reg::SP, 0x10_0000);
        match cpu.run(&mut mem, 1_000_000).unwrap() {
            Some(StepOutcome::Ecall) => cpu,
            other => panic!("program did not ecall: {other:?}"),
        }
    }

    #[test]
    fn fibonacci() {
        let cpu = run(r#"
        .text
        .global _start
_start:
        li      t0, 10        # n
        li      a0, 0         # fib(0)
        li      a1, 1         # fib(1)
loop:
        beqz    t0, done
        add     t2, a0, a1
        mv      a0, a1
        mv      a1, t2
        addi    t0, t0, -1
        j       loop
done:
        ecall
"#);
        assert_eq!(cpu.read_reg(Reg::A0), 55);
    }

    #[test]
    fn data_section_and_la() {
        let cpu = run(r#"
        .text
_start:
        la      t0, values
        ld      a0, 0(t0)
        ld      a1, 8(t0)
        add     a0, a0, a1
        ecall
        .data
        .align  3
values:
        .dword  40, 2
"#);
        assert_eq!(cpu.read_reg(Reg::A0), 42);
    }

    #[test]
    fn string_data() {
        let exe = assemble(
            r#"
        .data
msg:    .asciiz "hi\n"
        .text
_start: ecall
"#,
            0x1_0000,
        )
        .unwrap();
        let addr = exe.symbol("msg").unwrap();
        let mut mem = FlatMemory::new(1 << 21);
        exe.load_into(&mut mem).unwrap();
        assert_eq!(mem.read_cstr(addr, 16).unwrap(), "hi\n");
    }

    #[test]
    fn li_large_constants() {
        for imm in [
            0i64,
            1,
            -1,
            2047,
            -2048,
            2048,
            0x1234,
            0x7fff_ffff,
            -0x8000_0000,
            0x8000_0000,
            0x1234_5678_9abc_def0,
            i64::MIN,
            i64::MAX,
            0x7ff,
            0x800,
            -0x801,
        ] {
            let cpu = run(&format!("_start:\n li a0, {imm}\n ecall\n"));
            assert_eq!(cpu.read_reg(Reg::A0) as i64, imm, "li {imm:#x}");
        }
    }

    #[test]
    fn call_and_ret() {
        let cpu = run(r#"
_start:
        li      a0, 5
        call    double
        call    double
        ecall
double:
        slli    a0, a0, 1
        ret
"#);
        assert_eq!(cpu.read_reg(Reg::A0), 20);
    }

    #[test]
    fn comparison_pseudos() {
        let cpu = run(r#"
_start:
        li      t0, 5
        li      t1, 9
        bgt     t1, t0, ok     # 9 > 5 -> taken
        li      a0, 0
        ecall
ok:
        seqz    a1, zero       # a1 = 1
        snez    a2, t0         # a2 = 1
        li      a0, 1
        ecall
"#);
        assert_eq!(cpu.read_reg(Reg::A0), 1);
        assert_eq!(cpu.read_reg(Reg::A1), 1);
        assert_eq!(cpu.read_reg(Reg::A2), 1);
    }

    #[test]
    fn equ_constants() {
        let cpu = run(r#"
        .equ    ANSWER, 42
_start:
        li      a0, ANSWER
        ecall
"#);
        assert_eq!(cpu.read_reg(Reg::A0), 42);
    }

    #[test]
    fn rdcycle_reads_counter() {
        let cpu = run("_start:\n nop\n nop\n rdcycle a0\n ecall\n");
        assert_eq!(cpu.read_reg(Reg::A0), 2);
    }

    #[test]
    fn word_table_with_symbols() {
        let cpu = run(r#"
_start:
        la      t0, table
        ld      t1, 0(t0)      # address of target
        jr      t1
dead:
        li      a0, 0
        ecall
target:
        li      a0, 7
        ecall
        .data
        .align  3
table:  .dword  target
"#);
        assert_eq!(cpu.read_reg(Reg::A0), 7);
    }

    #[test]
    fn errors_have_line_numbers() {
        let err = assemble("nop\n bogus a0\n", 0).unwrap_err();
        assert_eq!(err.line, 2);
        let err = assemble("beq a0, a1, missing\n", 0).unwrap_err();
        assert!(err.message.contains("undefined symbol"));
        let err = assemble("x:\nx:\n", 0).unwrap_err();
        assert!(err.message.contains("duplicate"));
        let err = assemble("blez a0\n", 0).unwrap_err();
        assert_eq!(err.message, "blez needs `rs, target`");
    }

    #[test]
    fn comments_and_blank_lines() {
        let exe = assemble(
            "# leading comment\n\n_start: nop // trailing\n ecall # done\n",
            0,
        )
        .unwrap();
        assert_eq!(exe.segments()[0].data.len(), 8);
    }

    #[test]
    fn deterministic_output() {
        let src = "_start: li a0, 123456789\n ecall\n .data\nx: .word 1,2,3\n";
        let a = assemble(src, 0x1_0000).unwrap().to_bytes();
        let b = assemble(src, 0x1_0000).unwrap().to_bytes();
        assert_eq!(a, b);
    }

    #[test]
    fn align_pads_correctly() {
        let exe = assemble(
            ".data\n .byte 1\n .align 3\nval: .dword 5\n .text\n_start: ecall\n",
            0x1_0000,
        )
        .unwrap();
        let val = exe.symbol("val").unwrap();
        assert_eq!(val % 8, 0);
    }

    #[test]
    fn char_literals() {
        let cpu = run("_start:\n li a0, 'A'\n ecall\n");
        assert_eq!(cpu.read_reg(Reg::A0), 65);
    }
}
