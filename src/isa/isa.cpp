#include "isa/isa.h"

#include <array>
#include <stdexcept>
#include <string_view>

#include "isa/opcodes.h"

namespace asimt::isa {

namespace {

// The bits operand `arg` contributes to the word of `inst`.
std::uint32_t field_bits(Arg arg, const Instruction& inst) {
  const auto imm = static_cast<std::uint32_t>(inst.imm) & 0xFFFFu;
  switch (arg) {
    case Arg::kNone: return 0;
    case Arg::kRd: case Arg::kRdLink: return (inst.rd & 31u) << 11;
    case Arg::kRs: return (inst.rs & 31u) << 21;
    case Arg::kRt: return (inst.rt & 31u) << 16;
    case Arg::kFd: return (inst.fd & 31u) << 6;
    case Arg::kFs: return (inst.fs & 31u) << 11;
    case Arg::kFt: return (inst.ft & 31u) << 16;
    case Arg::kShamt: return (inst.shamt & 31u) << 6;
    case Arg::kSImm: case Arg::kZImm: case Arg::kUImm: case Arg::kBranch:
      return imm;
    case Arg::kMem: return ((inst.rs & 31u) << 21) | imm;
    case Arg::kJump: return inst.target & 0x03FFFFFFu;
  }
  return 0;
}

constexpr std::array<std::string_view, 32> kRegNames = {
    "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
    "$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
    "$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
    "$t8", "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra"};

// A register number spelled in decimal; at least one digit, below 32.
std::optional<unsigned> register_number(std::string_view digits) {
  if (digits.empty()) return std::nullopt;
  unsigned value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<unsigned>(c - '0');
  }
  if (value < 32) return value;
  return std::nullopt;
}

}  // namespace

std::uint32_t encode(const Instruction& inst) {
  const OpInfo* info = op_info(inst.op);
  if (info == nullptr) throw std::invalid_argument("encode: invalid instruction");
  std::uint32_t word = info->match;
  for (const Arg arg : info->args) word |= field_bits(arg, inst);
  return word;
}

bool is_branch(Op op) { return has_arg(op, Arg::kBranch); }

bool is_jump(Op op) { return has_arg(op, Arg::kJump); }

bool is_indirect_jump(Op op) { return op == Op::kJr || op == Op::kJalr; }

bool is_halt(Op op) { return op == Op::kBreak; }

bool ends_basic_block(Op op) {
  return is_branch(op) || is_jump(op) || is_indirect_jump(op) || is_halt(op);
}

std::uint32_t branch_target(std::uint32_t pc, const Instruction& inst) {
  return pc + kInstructionBytes +
         (static_cast<std::uint32_t>(inst.imm) << 2);
}

std::uint32_t jump_target(std::uint32_t pc, const Instruction& inst) {
  return ((pc + kInstructionBytes) & 0xF0000000u) | (inst.target << 2);
}

std::string reg_name(unsigned r) {
  return r < 32 ? std::string(kRegNames[r]) : "$?";
}

std::string freg_name(unsigned r) {
  return r < 32 ? "$f" + std::to_string(r) : "$f?";
}

std::optional<unsigned> parse_reg(std::string_view name) {
  for (unsigned r = 0; r < 32; ++r) {
    if (kRegNames[r] == name) return r;
  }
  if (name.empty() || name[0] != '$') return std::nullopt;
  return register_number(name.substr(1));
}

std::optional<unsigned> parse_freg(std::string_view name) {
  if (name.size() < 2 || name[0] != '$' || name[1] != 'f') return std::nullopt;
  return register_number(name.substr(2));
}

}  // namespace asimt::isa
