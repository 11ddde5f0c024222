//! Compact binary encoding.
//!
//! A key advantage of application-specific ISAs the paper highlights is code
//! density: a customized instruction set "reduces the storage/control
//! overhead by generating more compact code". This encoding packs each
//! instruction into 1–8 bytes (opcode byte, register bytes, LEB128
//! addresses), versus the fixed 16-byte formats typical of general-purpose
//! SIMD encodings; the code-density bench quantifies the difference.

use crate::inst::{Instruction, MReg, VReg};
use crate::program::Program;
use crate::IsaError;

const OP_VLOAD: u8 = 0x01;
const OP_VSTORE: u8 = 0x02;
const OP_MVMUL: u8 = 0x03;
const OP_VADD: u8 = 0x04;
const OP_VSUB: u8 = 0x05;
const OP_VMUL: u8 = 0x06;
const OP_VMOV: u8 = 0x07;
const OP_VZERO: u8 = 0x08;
const OP_VONE: u8 = 0x09;
const OP_SIGMOID: u8 = 0x0A;
const OP_TANH: u8 = 0x0B;
const OP_RELU: u8 = 0x0C;
const OP_NOP: u8 = 0x0D;
const OP_HALT: u8 = 0x0E;

fn push_leb128(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_leb128(bytes: &[u8], offset: &mut usize) -> Result<u32, IsaError> {
    let mut result: u32 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*offset).ok_or_else(|| IsaError::Decode {
            offset: *offset,
            message: "truncated LEB128 value".into(),
        })?;
        *offset += 1;
        if shift >= 32 || (shift == 28 && (byte & 0x70) != 0) {
            return Err(IsaError::Decode {
                offset: *offset,
                message: "LEB128 value overflows u32".into(),
            });
        }
        result |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
}

/// Encodes a program into the compact binary format.
pub fn encode(program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(program.len() * 4);
    for inst in program {
        encode_inst(&mut out, inst);
    }
    out
}

fn encode_inst(out: &mut Vec<u8>, inst: &Instruction) {
    use Instruction::*;
    match *inst {
        VLoad { dst, addr } => {
            out.push(OP_VLOAD);
            out.push(dst.0);
            push_leb128(out, addr);
        }
        VStore { src, addr } => {
            out.push(OP_VSTORE);
            out.push(src.0);
            push_leb128(out, addr);
        }
        MvMul { dst, mat, src } => {
            out.push(OP_MVMUL);
            out.push(dst.0);
            out.extend_from_slice(&mat.0.to_le_bytes());
            out.push(src.0);
        }
        VAdd { dst, a, b } => {
            out.push(OP_VADD);
            out.extend_from_slice(&[dst.0, a.0, b.0]);
        }
        VSub { dst, a, b } => {
            out.push(OP_VSUB);
            out.extend_from_slice(&[dst.0, a.0, b.0]);
        }
        VMul { dst, a, b } => {
            out.push(OP_VMUL);
            out.extend_from_slice(&[dst.0, a.0, b.0]);
        }
        VMov { dst, src } => {
            out.push(OP_VMOV);
            out.extend_from_slice(&[dst.0, src.0]);
        }
        VZero { dst } => {
            out.push(OP_VZERO);
            out.push(dst.0);
        }
        VOne { dst } => {
            out.push(OP_VONE);
            out.push(dst.0);
        }
        Sigmoid { dst, src } => {
            out.push(OP_SIGMOID);
            out.extend_from_slice(&[dst.0, src.0]);
        }
        Tanh { dst, src } => {
            out.push(OP_TANH);
            out.extend_from_slice(&[dst.0, src.0]);
        }
        Relu { dst, src } => {
            out.push(OP_RELU);
            out.extend_from_slice(&[dst.0, src.0]);
        }
        Nop => out.push(OP_NOP),
        Halt => out.push(OP_HALT),
    }
}

/// The encoded size of a program in bytes, without materializing the
/// encoding.
pub fn encoded_size(program: &Program) -> usize {
    fn leb_len(v: u32) -> usize {
        match v {
            0..=0x7F => 1,
            0x80..=0x3FFF => 2,
            0x4000..=0x1F_FFFF => 3,
            0x20_0000..=0xFFF_FFFF => 4,
            _ => 5,
        }
    }
    use Instruction::*;
    program
        .iter()
        .map(|inst| match *inst {
            VLoad { addr, .. } | VStore { addr, .. } => 2 + leb_len(addr),
            MvMul { .. } => 5,
            VAdd { .. } | VSub { .. } | VMul { .. } => 4,
            VMov { .. } | Sigmoid { .. } | Tanh { .. } | Relu { .. } => 3,
            VZero { .. } | VOne { .. } => 2,
            Nop | Halt => 1,
        })
        .sum()
}

/// Decodes a binary stream produced by [`encode`].
///
/// # Errors
///
/// Returns [`IsaError::Decode`] on unknown opcodes or truncated streams.
pub fn decode(bytes: &[u8]) -> Result<Program, IsaError> {
    let mut insts = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        insts.push(decode_inst(bytes, &mut offset)?);
    }
    Ok(Program::new(insts))
}

fn take(bytes: &[u8], offset: &mut usize) -> Result<u8, IsaError> {
    let b = *bytes.get(*offset).ok_or_else(|| IsaError::Decode {
        offset: *offset,
        message: "truncated instruction".into(),
    })?;
    *offset += 1;
    Ok(b)
}

fn decode_inst(bytes: &[u8], offset: &mut usize) -> Result<Instruction, IsaError> {
    use Instruction::*;
    let op = take(bytes, offset)?;
    let inst = match op {
        OP_VLOAD => VLoad {
            dst: VReg(take(bytes, offset)?),
            addr: read_leb128(bytes, offset)?,
        },
        OP_VSTORE => VStore {
            src: VReg(take(bytes, offset)?),
            addr: read_leb128(bytes, offset)?,
        },
        OP_MVMUL => {
            let dst = VReg(take(bytes, offset)?);
            let lo = take(bytes, offset)?;
            let hi = take(bytes, offset)?;
            let src = VReg(take(bytes, offset)?);
            MvMul {
                dst,
                mat: MReg(u16::from_le_bytes([lo, hi])),
                src,
            }
        }
        OP_VADD => VAdd {
            dst: VReg(take(bytes, offset)?),
            a: VReg(take(bytes, offset)?),
            b: VReg(take(bytes, offset)?),
        },
        OP_VSUB => VSub {
            dst: VReg(take(bytes, offset)?),
            a: VReg(take(bytes, offset)?),
            b: VReg(take(bytes, offset)?),
        },
        OP_VMUL => VMul {
            dst: VReg(take(bytes, offset)?),
            a: VReg(take(bytes, offset)?),
            b: VReg(take(bytes, offset)?),
        },
        OP_VMOV => VMov {
            dst: VReg(take(bytes, offset)?),
            src: VReg(take(bytes, offset)?),
        },
        OP_VZERO => VZero {
            dst: VReg(take(bytes, offset)?),
        },
        OP_VONE => VOne {
            dst: VReg(take(bytes, offset)?),
        },
        OP_SIGMOID => Sigmoid {
            dst: VReg(take(bytes, offset)?),
            src: VReg(take(bytes, offset)?),
        },
        OP_TANH => Tanh {
            dst: VReg(take(bytes, offset)?),
            src: VReg(take(bytes, offset)?),
        },
        OP_RELU => Relu {
            dst: VReg(take(bytes, offset)?),
            src: VReg(take(bytes, offset)?),
        },
        OP_NOP => Nop,
        OP_HALT => Halt,
        other => {
            return Err(IsaError::Decode {
                offset: *offset - 1,
                message: format!("unknown opcode {other:#04x}"),
            })
        }
    };
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Instruction as I, MReg, VReg};

    fn all_instructions() -> Program {
        Program::new(vec![
            I::VLoad {
                dst: VReg(0),
                addr: 0,
            },
            I::VLoad {
                dst: VReg(1),
                addr: 0x0FFF_FFFF,
            },
            I::VStore {
                src: VReg(2),
                addr: 300,
            },
            I::MvMul {
                dst: VReg(3),
                mat: MReg(1023),
                src: VReg(4),
            },
            I::VAdd {
                dst: VReg(5),
                a: VReg(6),
                b: VReg(7),
            },
            I::VSub {
                dst: VReg(8),
                a: VReg(9),
                b: VReg(10),
            },
            I::VMul {
                dst: VReg(11),
                a: VReg(12),
                b: VReg(13),
            },
            I::VMov {
                dst: VReg(14),
                src: VReg(15),
            },
            I::VZero { dst: VReg(16) },
            I::VOne { dst: VReg(17) },
            I::Sigmoid {
                dst: VReg(18),
                src: VReg(19),
            },
            I::Tanh {
                dst: VReg(20),
                src: VReg(21),
            },
            I::Relu {
                dst: VReg(22),
                src: VReg(23),
            },
            I::Nop,
            I::Halt,
        ])
    }

    #[test]
    fn round_trip_every_opcode() {
        let p = all_instructions();
        let bytes = encode(&p);
        let q = decode(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn encoded_size_matches_encode() {
        let p = all_instructions();
        assert_eq!(encoded_size(&p), encode(&p).len());
    }

    #[test]
    fn compactness_beats_fixed_16_byte_encoding() {
        let p = all_instructions();
        assert!(encode(&p).len() < p.len() * 16 / 3);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let err = decode(&[0xFF]).unwrap_err();
        assert!(matches!(err, IsaError::Decode { offset: 0, .. }));
    }

    #[test]
    fn truncated_stream_rejected() {
        let p = Program::new(vec![I::MvMul {
            dst: VReg(0),
            mat: MReg(7),
            src: VReg(1),
        }]);
        let bytes = encode(&p);
        for cut in 1..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn leb128_boundaries() {
        for addr in [0u32, 0x7F, 0x80, 0x3FFF, 0x4000, u32::MAX] {
            let p = Program::new(vec![I::VLoad { dst: VReg(0), addr }]);
            let q = decode(&encode(&p)).unwrap();
            assert_eq!(p, q, "addr {addr:#x}");
        }
    }

    #[test]
    fn overlong_leb128_rejected() {
        // Six continuation bytes exceed u32.
        let bytes = [OP_VLOAD, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert!(decode(&bytes).is_err());
    }
}
