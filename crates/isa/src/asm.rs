//! The assembly language and two-pass assembler.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A register name, `r0`–`r31`. `r0` always reads as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Three-register ALU operation.
    Alu {
        /// Operation mnemonic index (see [`AluOp`]).
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
    },
    /// Register-immediate add (also the backing for `li`).
    Addi {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
        /// Immediate.
        imm: i32,
    },
    /// Load word: `rd = mem[rs + offset]`.
    Lw {
        /// Destination.
        rd: Reg,
        /// Base register.
        rs: Reg,
        /// Byte offset (must produce a word-aligned address).
        offset: i32,
    },
    /// Store word: `mem[rs + offset] = rt`.
    Sw {
        /// Value register.
        rt: Reg,
        /// Base register.
        rs: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Conditional branch to an instruction index.
    Branch {
        /// Condition.
        cond: Cond,
        /// First operand.
        rs: Reg,
        /// Second operand.
        rt: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Unconditional jump to an instruction index.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Call: store the return index in `r31`, jump.
    Jal {
        /// Target instruction index.
        target: usize,
    },
    /// Indirect jump through a register (returns use `jr r31`).
    Jr {
        /// Register holding an instruction index.
        rs: Reg,
    },
    /// No-operation.
    Nop,
    /// Stop execution.
    Halt,
}

/// Three-register ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Slt,
    Sll,
    Srl,
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
}

/// An assembled program: instructions plus the label table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsaProgram {
    pub(crate) instrs: Vec<Instr>,
    labels: HashMap<String, usize>,
}

impl IsaProgram {
    /// The instructions, in order.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True for a program with no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Instruction index of a label, if defined.
    #[must_use]
    pub fn label(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }
}

/// An assembly error, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn parse_reg(token: &str, line: usize) -> Result<Reg, AsmError> {
    let body = token
        .strip_prefix('r')
        .ok_or_else(|| err(line, format!("expected a register, got {token:?}")))?;
    let n: u8 = body
        .parse()
        .map_err(|_| err(line, format!("bad register number {token:?}")))?;
    if n > 31 {
        return Err(err(line, format!("register {token} out of range (r0-r31)")));
    }
    Ok(Reg(n))
}

fn parse_imm(token: &str, line: usize) -> Result<i32, AsmError> {
    let (digits, negative) = match token.strip_prefix('-') {
        Some(rest) => (rest, true),
        None => (token, false),
    };
    let value = if let Some(hex) = digits.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        digits.parse::<i64>()
    }
    .map_err(|_| err(line, format!("bad immediate {token:?}")))?;
    let value = if negative { -value } else { value };
    // Accept the full signed range plus unsigned 32-bit literals (addresses
    // like 0x8000_2000), wrapping the latter into the i32 carrier.
    if (-(1i64 << 31)..(1i64 << 32)).contains(&value) {
        Ok(value as u32 as i32)
    } else {
        Err(err(
            line,
            format!("immediate {token} does not fit in 32 bits"),
        ))
    }
}

/// Parse `offset(reg)` for loads and stores.
fn parse_mem(token: &str, line: usize) -> Result<(i32, Reg), AsmError> {
    let open = token
        .find('(')
        .ok_or_else(|| err(line, format!("expected offset(reg), got {token:?}")))?;
    let close = token
        .strip_suffix(')')
        .ok_or_else(|| err(line, format!("missing ')' in {token:?}")))?;
    let offset = if open == 0 {
        0
    } else {
        parse_imm(&token[..open], line)?
    };
    let reg = parse_reg(&close[open + 1..], line)?;
    Ok((offset, reg))
}

enum RawTarget {
    Label(String),
}

enum RawInstr {
    Done(Instr),
    Branch {
        cond: Cond,
        rs: Reg,
        rt: Reg,
        target: RawTarget,
    },
    Jump {
        target: RawTarget,
    },
    Jal {
        target: RawTarget,
    },
}

/// Assemble MIPS-flavoured source into an [`IsaProgram`].
///
/// Syntax: one instruction or `label:` per line; `;` and `#` start comments;
/// operands are comma-separated. Supported mnemonics: `add sub and or xor
/// slt sll srl addi li lw sw beq bne blt j jal jr nop halt`.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics, bad registers or immediates, and undefined labels.
pub fn assemble(source: &str) -> Result<IsaProgram, AsmError> {
    let mut raw: Vec<(usize, RawInstr)> = Vec::new();
    let mut labels: HashMap<String, usize> = HashMap::new();

    for (index, full_line) in source.lines().enumerate() {
        let line_no = index + 1;
        let mut text = full_line;
        if let Some(cut) = text.find([';', '#']) {
            text = &text[..cut];
        }
        let mut text = text.trim();
        // Labels (possibly followed by an instruction on the same line).
        while let Some(colon) = text.find(':') {
            let name = text[..colon].trim();
            if name.is_empty() || name.contains(char::is_whitespace) {
                return Err(err(line_no, format!("bad label {name:?}")));
            }
            if labels.insert(name.to_string(), raw.len()).is_some() {
                return Err(err(line_no, format!("duplicate label {name:?}")));
            }
            text = text[colon + 1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let mut parts = text.split_whitespace();
        let mnemonic = parts.next().expect("nonempty");
        let operands: Vec<String> = parts
            .collect::<Vec<_>>()
            .join(" ")
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let want = |n: usize| -> Result<(), AsmError> {
            if operands.len() == n {
                Ok(())
            } else {
                Err(err(
                    line_no,
                    format!("{mnemonic} expects {n} operands, got {}", operands.len()),
                ))
            }
        };
        let alu = |op: AluOp| -> Result<RawInstr, AsmError> {
            want(3)?;
            Ok(RawInstr::Done(Instr::Alu {
                op,
                rd: parse_reg(&operands[0], line_no)?,
                rs: parse_reg(&operands[1], line_no)?,
                rt: parse_reg(&operands[2], line_no)?,
            }))
        };
        let branch = |cond: Cond| -> Result<RawInstr, AsmError> {
            want(3)?;
            Ok(RawInstr::Branch {
                cond,
                rs: parse_reg(&operands[0], line_no)?,
                rt: parse_reg(&operands[1], line_no)?,
                target: RawTarget::Label(operands[2].clone()),
            })
        };
        let instr = match mnemonic {
            "add" => alu(AluOp::Add)?,
            "sub" => alu(AluOp::Sub)?,
            "and" => alu(AluOp::And)?,
            "or" => alu(AluOp::Or)?,
            "xor" => alu(AluOp::Xor)?,
            "slt" => alu(AluOp::Slt)?,
            "sll" => alu(AluOp::Sll)?,
            "srl" => alu(AluOp::Srl)?,
            "addi" => {
                want(3)?;
                RawInstr::Done(Instr::Addi {
                    rd: parse_reg(&operands[0], line_no)?,
                    rs: parse_reg(&operands[1], line_no)?,
                    imm: parse_imm(&operands[2], line_no)?,
                })
            }
            "li" => {
                want(2)?;
                RawInstr::Done(Instr::Addi {
                    rd: parse_reg(&operands[0], line_no)?,
                    rs: Reg(0),
                    imm: parse_imm(&operands[1], line_no)?,
                })
            }
            "lw" => {
                want(2)?;
                let (offset, rs) = parse_mem(&operands[1], line_no)?;
                RawInstr::Done(Instr::Lw {
                    rd: parse_reg(&operands[0], line_no)?,
                    rs,
                    offset,
                })
            }
            "sw" => {
                want(2)?;
                let (offset, rs) = parse_mem(&operands[1], line_no)?;
                RawInstr::Done(Instr::Sw {
                    rt: parse_reg(&operands[0], line_no)?,
                    rs,
                    offset,
                })
            }
            "beq" => branch(Cond::Eq)?,
            "bne" => branch(Cond::Ne)?,
            "blt" => branch(Cond::Lt)?,
            "j" => {
                want(1)?;
                RawInstr::Jump {
                    target: RawTarget::Label(operands[0].clone()),
                }
            }
            "jal" => {
                want(1)?;
                RawInstr::Jal {
                    target: RawTarget::Label(operands[0].clone()),
                }
            }
            "jr" => {
                want(1)?;
                RawInstr::Done(Instr::Jr {
                    rs: parse_reg(&operands[0], line_no)?,
                })
            }
            "nop" => {
                want(0)?;
                RawInstr::Done(Instr::Nop)
            }
            "halt" => {
                want(0)?;
                RawInstr::Done(Instr::Halt)
            }
            other => return Err(err(line_no, format!("unknown mnemonic {other:?}"))),
        };
        raw.push((line_no, instr));
    }

    // Second pass: resolve labels.
    let resolve = |target: &RawTarget, line: usize| -> Result<usize, AsmError> {
        let RawTarget::Label(name) = target;
        labels
            .get(name.as_str())
            .copied()
            .ok_or_else(|| err(line, format!("undefined label {name:?}")))
    };
    let mut instrs = Vec::with_capacity(raw.len());
    for (line, instr) in &raw {
        instrs.push(match instr {
            RawInstr::Done(done) => *done,
            RawInstr::Branch {
                cond,
                rs,
                rt,
                target,
            } => Instr::Branch {
                cond: *cond,
                rs: *rs,
                rt: *rt,
                target: resolve(target, *line)?,
            },
            RawInstr::Jump { target } => Instr::Jump {
                target: resolve(target, *line)?,
            },
            RawInstr::Jal { target } => Instr::Jal {
                target: resolve(target, *line)?,
            },
        });
    }
    Ok(IsaProgram { instrs, labels })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_every_mnemonic() {
        let program = assemble(
            "start: add r1, r2, r3
                    sub r1, r2, r3
                    and r1, r2, r3
                    or  r1, r2, r3
                    xor r1, r2, r3
                    slt r1, r2, r3
                    sll r1, r2, r3
                    srl r1, r2, r3
                    addi r1, r2, -5
                    li  r4, 0x10
                    lw  r5, 8(r4)
                    sw  r5, (r4)
                    beq r1, r0, start
                    bne r1, r0, start
                    blt r1, r2, start
                    j   start
                    jal start
                    jr  r31
                    nop
                    halt",
        )
        .expect("assembles");
        assert_eq!(program.len(), 20);
        assert_eq!(program.label("start"), Some(0));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let program = assemble("; nothing\n\n # also nothing\n nop ; trailing\n").unwrap();
        assert_eq!(program.len(), 1);
    }

    #[test]
    fn labels_may_share_a_line_with_code() {
        let program = assemble("a: b: nop\n j b").unwrap();
        assert_eq!(program.label("a"), Some(0));
        assert_eq!(program.label("b"), Some(0));
        assert_eq!(program.instrs()[1], Instr::Jump { target: 0 });
    }

    #[test]
    fn forward_references_resolve() {
        let program = assemble("j end\n nop\n end: halt").unwrap();
        assert_eq!(program.instrs()[0], Instr::Jump { target: 2 });
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\n frobnicate r1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("frobnicate"));
        let e = assemble("add r1, r2").unwrap_err();
        assert!(e.message.contains("expects 3"));
        let e = assemble("li r99, 0").unwrap_err();
        assert!(e.message.contains("out of range"));
        let e = assemble("beq r1, r0, nowhere").unwrap_err();
        assert!(e.message.contains("undefined label"));
        let e = assemble("x: nop\n x: nop").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let program = assemble("li r1, 0xff\n li r2, -0x10").unwrap();
        assert_eq!(
            program.instrs()[0],
            Instr::Addi {
                rd: Reg(1),
                rs: Reg(0),
                imm: 255
            }
        );
        assert_eq!(
            program.instrs()[1],
            Instr::Addi {
                rd: Reg(2),
                rs: Reg(0),
                imm: -16
            }
        );
    }
}
