// The ASIMT instruction set — a 32-bit MIPS-I-like RISC with single-precision
// floating point.
//
// The paper evaluates on SimpleScalar, whose PISA is itself MIPS-derived.
// What the encoding technique needs from the ISA is only its bit-level
// structure: fixed 32-bit words with opcode/register/immediate fields in
// stable positions, which is exactly what produces the vertical bit
// correlations the transformations exploit. Field layout and numbering follow
// MIPS-I so the instruction words are realistic. Differences from real MIPS:
// no branch delay slots, no exceptions/TLB, FP registers are 32 independent
// singles.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace asimt::isa {

inline constexpr std::uint32_t kInstructionBytes = 4;

// Conventional MIPS register aliases (useful to tests and the assembler).
enum Reg : std::uint8_t {
  kZero = 0, kAt = 1, kV0 = 2, kV1 = 3,
  kA0 = 4, kA1 = 5, kA2 = 6, kA3 = 7,
  kT0 = 8, kT1 = 9, kT2 = 10, kT3 = 11, kT4 = 12, kT5 = 13, kT6 = 14, kT7 = 15,
  kS0 = 16, kS1 = 17, kS2 = 18, kS3 = 19, kS4 = 20, kS5 = 21, kS6 = 22, kS7 = 23,
  kT8 = 24, kT9 = 25, kK0 = 26, kK1 = 27,
  kGp = 28, kSp = 29, kFp = 30, kRa = 31,
};

enum class Op : std::uint8_t {
  kInvalid,
  // Shifts and integer R-type ALU.
  kSll, kSrl, kSra, kSllv, kSrlv, kSrav,
  kJr, kJalr, kSyscall, kBreak,
  kMfhi, kMthi, kMflo, kMtlo,
  kMult, kMultu, kDiv, kDivu,
  kAdd, kAddu, kSub, kSubu, kAnd, kOr, kXor, kNor, kSlt, kSltu,
  // Branches and jumps.
  kBltz, kBgez, kJ, kJal, kBeq, kBne, kBlez, kBgtz,
  // Immediate ALU.
  kAddi, kAddiu, kSlti, kSltiu, kAndi, kOri, kXori, kLui,
  // Memory.
  kLb, kLh, kLw, kLbu, kLhu, kSb, kSh, kSw, kLwc1, kSwc1,
  // FP single precision.
  kAddS, kSubS, kMulS, kDivS, kSqrtS, kAbsS, kMovS, kNegS,
  kCvtSW,    // int word in FP reg -> single
  kTruncWS,  // single -> int word in FP reg (truncate toward zero)
  kCEqS, kCLtS, kCLeS,  // set the FP condition flag
  kBc1f, kBc1t,          // branch on FP condition flag
  kMfc1, kMtc1,          // moves between integer and FP register files
};

// Decoded view of one instruction word. Field meaning depends on `op`;
// unused fields are zero.
struct Instruction {
  Op op = Op::kInvalid;
  std::uint8_t rs = 0, rt = 0, rd = 0, shamt = 0;  // integer fields
  std::uint8_t fs = 0, ft = 0, fd = 0;             // FP fields
  std::int32_t imm = 0;      // sign-extended 16-bit immediate
  std::uint32_t target = 0;  // raw 26-bit jump target field
};

// Binary encoding/decoding, both driven by the opcode table in
// isa/opcodes.h. encode() throws std::invalid_argument for kInvalid; decode()
// returns op == kInvalid for unknown words.
std::uint32_t encode(const Instruction& inst);
inline Instruction decode(std::uint32_t word);

// Text form, e.g. "addiu $t0, $t0, -1". `pc` resolves branch/jump targets to
// absolute addresses.
std::string disassemble(std::uint32_t word, std::uint32_t pc);

// Control-flow classification used by the CFG builder.
bool is_branch(Op op);           // conditional, PC-relative
bool is_jump(Op op);             // j/jal
bool is_indirect_jump(Op op);    // jr/jalr
bool is_halt(Op op);             // break
bool ends_basic_block(Op op);

// Absolute target of a PC-relative branch at `pc`.
std::uint32_t branch_target(std::uint32_t pc, const Instruction& inst);
// Absolute target of j/jal at `pc`.
std::uint32_t jump_target(std::uint32_t pc, const Instruction& inst);

// Canonical register names ("$t0", "$f12").
std::string reg_name(unsigned r);
std::string freg_name(unsigned r);
// Parses either form; returns nullopt for unknown names.
std::optional<unsigned> parse_reg(std::string_view name);
std::optional<unsigned> parse_freg(std::string_view name);

}  // namespace asimt::isa

// decode() is defined inline beside the opcode table it reads.
#include "isa/opcodes.h"
