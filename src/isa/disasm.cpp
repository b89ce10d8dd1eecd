#include <cstdio>

#include "isa/isa.h"
#include "isa/opcodes.h"

namespace asimt::isa {

namespace {

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

std::string operand_text(Arg arg, const Instruction& i, std::uint32_t pc) {
  switch (arg) {
    case Arg::kRd: case Arg::kRdLink: return reg_name(i.rd);
    case Arg::kRs: return reg_name(i.rs);
    case Arg::kRt: return reg_name(i.rt);
    case Arg::kFd: return freg_name(i.fd);
    case Arg::kFs: return freg_name(i.fs);
    case Arg::kFt: return freg_name(i.ft);
    case Arg::kShamt: return std::to_string(i.shamt);
    case Arg::kSImm: case Arg::kZImm: return std::to_string(i.imm);
    case Arg::kUImm: return std::to_string(i.imm & 0xFFFF);
    case Arg::kMem: return std::to_string(i.imm) + "(" + reg_name(i.rs) + ")";
    case Arg::kBranch: return hex(branch_target(pc, i));
    case Arg::kJump: return hex(jump_target(pc, i));
    case Arg::kNone: break;
  }
  return {};
}

}  // namespace

std::string disassemble(std::uint32_t word, std::uint32_t pc) {
  const Instruction i = decode(word);
  const OpInfo* info = op_info(i.op);
  if (info == nullptr) return ".word " + hex(word);
  if (word == 0) return "nop";
  std::string text(info->name);
  for (std::size_t a = 0; a < info->arg_count(); ++a) {
    text += a == 0 ? " " : ", ";
    text += operand_text(info->args[a], i, pc);
  }
  return text;
}

}  // namespace asimt::isa
