// The opcode table: the one description of every ASIMT instruction.
//
// Each row gives an instruction's mnemonic (plus one alias the assembler also
// accepts), the fixed bits that identify it (primary opcode and the funct,
// fmt or rt selector), and its operand shape: the operands of its assembly
// text, in order, each naming the word field it occupies. encode(), decode(),
// disassemble() and the assembler are all driven by this table, so adding an
// instruction means one enum value in isa.h, one row here, and its
// semantics in sim/cpu.cpp and isa/effects.cpp.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "isa/isa.h"

namespace asimt::isa {

// One operand of an instruction's text and the field(s) it fills.
enum class Arg : std::uint8_t {
  kNone,
  kRd, kRs, kRt,  // integer register: bits 15..11, 25..21, 20..16
  kRdLink,        // kRd that the assembler lets the programmer omit ($ra)
  kFd, kFs, kFt,  // FP register: bits 10..6, 15..11, 20..16
  kShamt,         // shift amount 0..31, bits 10..6
  kSImm,          // 16-bit immediate, -32768..65535, listed signed
  kZImm,          // zero-extended 16-bit immediate, listed signed
  kUImm,          // zero-extended 16-bit immediate, listed unsigned
  kMem,           // off(base): signed 16-bit offset, base register in rs
  kBranch,        // label: PC-relative word offset in the immediate
  kJump,          // label: 26-bit word target
};

using Args = std::array<Arg, 3>;

// The operand shapes.
namespace shape {
inline constexpr Args kNone{};
inline constexpr Args kR3{Arg::kRd, Arg::kRs, Arg::kRt};
inline constexpr Args kShift{Arg::kRd, Arg::kRt, Arg::kShamt};
inline constexpr Args kShiftV{Arg::kRd, Arg::kRt, Arg::kRs};
inline constexpr Args kHiLo{Arg::kRs, Arg::kRt};
inline constexpr Args kRdOnly{Arg::kRd};
inline constexpr Args kRsOnly{Arg::kRs};
inline constexpr Args kJalr{Arg::kRdLink, Arg::kRs};
inline constexpr Args kImm{Arg::kRt, Arg::kRs, Arg::kSImm};
inline constexpr Args kImmZ{Arg::kRt, Arg::kRs, Arg::kZImm};
inline constexpr Args kLui{Arg::kRt, Arg::kUImm};
inline constexpr Args kMem{Arg::kRt, Arg::kMem};
inline constexpr Args kMemF{Arg::kFt, Arg::kMem};
inline constexpr Args kBranch2{Arg::kRs, Arg::kRt, Arg::kBranch};
inline constexpr Args kBranch1{Arg::kRs, Arg::kBranch};
inline constexpr Args kBranch0{Arg::kBranch};
inline constexpr Args kJump{Arg::kJump};
inline constexpr Args kF3{Arg::kFd, Arg::kFs, Arg::kFt};
inline constexpr Args kF2{Arg::kFd, Arg::kFs};
inline constexpr Args kFCmp{Arg::kFs, Arg::kFt};
inline constexpr Args kCop1Move{Arg::kRt, Arg::kFs};
}  // namespace shape

struct OpInfo {
  Op op = Op::kInvalid;
  std::string_view name;   // canonical mnemonic, as listed by disassemble()
  std::string_view alias;  // another spelling the assembler accepts, or empty
  std::uint32_t match = 0;  // the identifying bits of the word...
  std::uint32_t mask = 0;   // ...and which bits decode compares
  Args args{};

  constexpr std::size_t arg_count() const {
    std::size_t n = 0;
    while (n < args.size() && args[n] != Arg::kNone) ++n;
    return n;
  }
};

namespace table {

inline constexpr std::uint32_t kCop1 = 0x11;

// Primary opcode alone (I- and J-type).
constexpr OpInfo primary(Op op, std::string_view name, std::uint32_t opcode,
                         Args args, std::string_view alias = {}) {
  return {op, name, alias, opcode << 26, 0xFC000000u, args};
}
// SPECIAL (opcode 0), selected by funct.
constexpr OpInfo special(Op op, std::string_view name, std::uint32_t funct,
                         Args args, std::string_view alias = {}) {
  return {op, name, alias, funct, 0xFC00003Fu, args};
}
// REGIMM (opcode 1), selected by the rt field.
constexpr OpInfo regimm(Op op, std::string_view name, std::uint32_t rt) {
  return {op, name, {}, (1u << 26) | (rt << 16), 0xFC1F0000u, shape::kBranch1};
}
// COP1 arithmetic, selected by fmt and funct.
constexpr OpInfo cop1(Op op, std::string_view name, std::uint32_t fmt,
                      std::uint32_t funct, Args args) {
  return {op, name, {}, (kCop1 << 26) | (fmt << 21) | funct, 0xFFE0003Fu, args};
}
// COP1 register moves, selected by fmt alone.
constexpr OpInfo cop1_move(Op op, std::string_view name, std::uint32_t fmt) {
  return {op, name, {}, (kCop1 << 26) | (fmt << 21), 0xFFE00000u,
          shape::kCop1Move};
}
// COP1 condition branches (fmt 8), selected by the low bit of rt.
constexpr OpInfo cop1_branch(Op op, std::string_view name, std::uint32_t cond) {
  return {op, name, {}, (kCop1 << 26) | (0x08u << 21) | (cond << 16),
          0xFFE10000u, shape::kBranch0};
}

}  // namespace table

// Row i describes Op(i); row 0 is the kInvalid placeholder.
inline constexpr std::array kOpTable{
    OpInfo{},
    table::special(Op::kSll, "sll", 0x00, shape::kShift),
    table::special(Op::kSrl, "srl", 0x02, shape::kShift),
    table::special(Op::kSra, "sra", 0x03, shape::kShift),
    table::special(Op::kSllv, "sllv", 0x04, shape::kShiftV),
    table::special(Op::kSrlv, "srlv", 0x06, shape::kShiftV),
    table::special(Op::kSrav, "srav", 0x07, shape::kShiftV),
    table::special(Op::kJr, "jr", 0x08, shape::kRsOnly),
    table::special(Op::kJalr, "jalr", 0x09, shape::kJalr),
    table::special(Op::kSyscall, "syscall", 0x0c, shape::kNone),
    table::special(Op::kBreak, "break", 0x0d, shape::kNone, "halt"),
    table::special(Op::kMfhi, "mfhi", 0x10, shape::kRdOnly),
    table::special(Op::kMthi, "mthi", 0x11, shape::kRsOnly),
    table::special(Op::kMflo, "mflo", 0x12, shape::kRdOnly),
    table::special(Op::kMtlo, "mtlo", 0x13, shape::kRsOnly),
    table::special(Op::kMult, "mult", 0x18, shape::kHiLo),
    table::special(Op::kMultu, "multu", 0x19, shape::kHiLo),
    table::special(Op::kDiv, "div", 0x1a, shape::kHiLo),
    table::special(Op::kDivu, "divu", 0x1b, shape::kHiLo),
    table::special(Op::kAdd, "add", 0x20, shape::kR3),
    table::special(Op::kAddu, "addu", 0x21, shape::kR3),
    table::special(Op::kSub, "sub", 0x22, shape::kR3),
    table::special(Op::kSubu, "subu", 0x23, shape::kR3),
    table::special(Op::kAnd, "and", 0x24, shape::kR3),
    table::special(Op::kOr, "or", 0x25, shape::kR3),
    table::special(Op::kXor, "xor", 0x26, shape::kR3),
    table::special(Op::kNor, "nor", 0x27, shape::kR3),
    table::special(Op::kSlt, "slt", 0x2a, shape::kR3),
    table::special(Op::kSltu, "sltu", 0x2b, shape::kR3),
    table::regimm(Op::kBltz, "bltz", 0),
    table::regimm(Op::kBgez, "bgez", 1),
    table::primary(Op::kJ, "j", 0x02, shape::kJump),
    table::primary(Op::kJal, "jal", 0x03, shape::kJump),
    table::primary(Op::kBeq, "beq", 0x04, shape::kBranch2),
    table::primary(Op::kBne, "bne", 0x05, shape::kBranch2),
    table::primary(Op::kBlez, "blez", 0x06, shape::kBranch1),
    table::primary(Op::kBgtz, "bgtz", 0x07, shape::kBranch1),
    table::primary(Op::kAddi, "addi", 0x08, shape::kImm),
    table::primary(Op::kAddiu, "addiu", 0x09, shape::kImm),
    table::primary(Op::kSlti, "slti", 0x0a, shape::kImm),
    table::primary(Op::kSltiu, "sltiu", 0x0b, shape::kImm),
    table::primary(Op::kAndi, "andi", 0x0c, shape::kImmZ),
    table::primary(Op::kOri, "ori", 0x0d, shape::kImmZ),
    table::primary(Op::kXori, "xori", 0x0e, shape::kImmZ),
    table::primary(Op::kLui, "lui", 0x0f, shape::kLui),
    table::primary(Op::kLb, "lb", 0x20, shape::kMem),
    table::primary(Op::kLh, "lh", 0x21, shape::kMem),
    table::primary(Op::kLw, "lw", 0x23, shape::kMem),
    table::primary(Op::kLbu, "lbu", 0x24, shape::kMem),
    table::primary(Op::kLhu, "lhu", 0x25, shape::kMem),
    table::primary(Op::kSb, "sb", 0x28, shape::kMem),
    table::primary(Op::kSh, "sh", 0x29, shape::kMem),
    table::primary(Op::kSw, "sw", 0x2b, shape::kMem),
    table::primary(Op::kLwc1, "lwc1", 0x31, shape::kMemF, "l.s"),
    table::primary(Op::kSwc1, "swc1", 0x39, shape::kMemF, "s.s"),
    table::cop1(Op::kAddS, "add.s", 0x10, 0x00, shape::kF3),
    table::cop1(Op::kSubS, "sub.s", 0x10, 0x01, shape::kF3),
    table::cop1(Op::kMulS, "mul.s", 0x10, 0x02, shape::kF3),
    table::cop1(Op::kDivS, "div.s", 0x10, 0x03, shape::kF3),
    table::cop1(Op::kSqrtS, "sqrt.s", 0x10, 0x04, shape::kF2),
    table::cop1(Op::kAbsS, "abs.s", 0x10, 0x05, shape::kF2),
    table::cop1(Op::kMovS, "mov.s", 0x10, 0x06, shape::kF2),
    table::cop1(Op::kNegS, "neg.s", 0x10, 0x07, shape::kF2),
    table::cop1(Op::kCvtSW, "cvt.s.w", 0x14, 0x20, shape::kF2),
    table::cop1(Op::kTruncWS, "trunc.w.s", 0x10, 0x0d, shape::kF2),
    table::cop1(Op::kCEqS, "c.eq.s", 0x10, 0x32, shape::kFCmp),
    table::cop1(Op::kCLtS, "c.lt.s", 0x10, 0x3c, shape::kFCmp),
    table::cop1(Op::kCLeS, "c.le.s", 0x10, 0x3e, shape::kFCmp),
    table::cop1_branch(Op::kBc1f, "bc1f", 0),
    table::cop1_branch(Op::kBc1t, "bc1t", 1),
    table::cop1_move(Op::kMfc1, "mfc1", 0x00),
    table::cop1_move(Op::kMtc1, "mtc1", 0x04),
};

inline constexpr bool table_is_indexed_by_op() {
  for (std::size_t i = 0; i < kOpTable.size(); ++i) {
    if (static_cast<std::size_t>(kOpTable[i].op) != i) return false;
  }
  return true;
}
static_assert(table_is_indexed_by_op(), "kOpTable rows must follow enum Op");
static_assert(kOpTable.size() == static_cast<std::size_t>(Op::kMtc1) + 1,
              "every Op needs a row");

constexpr bool has_arg(Op op, Arg arg) {
  const auto i = static_cast<std::size_t>(op);
  if (i >= kOpTable.size()) return false;
  for (const Arg a : kOpTable[i].args) {
    if (a == arg) return true;
  }
  return false;
}

// decode()'s lookup, built from kOpTable at compile time. The top 11 bits of
// a word (opcode and rs/fmt) pick an entry. Where those bits decide the word
// the entry holds the op; otherwise it names the field that tells the rows
// sharing them apart (funct, rt or rt's low bit) and where that field's
// values start in `ops`. Words no row matches decode to kInvalid. The FP
// register fields alias rt/rd/shamt, by primary opcode: every COP1 word
// shows all three, and lwc1/swc1 keep ft where rt sits.
struct DecodeIndex {
  static constexpr std::uint32_t kTopBits = 0xFFE00000u;
  enum : std::uint8_t { kFt = 1, kFsFd = 2 };
  struct Entry {
    Op op = Op::kInvalid;  // when mask == 0
    std::uint8_t shift = 0;
    std::uint8_t mask = 0;
    std::uint8_t fp = 0;
    std::uint16_t base = 0;
  };
  std::array<Entry, 2048> entries{};
  std::array<Op, 512> ops{};
};

constexpr DecodeIndex build_decode_index() {
  DecodeIndex index;
  std::array<std::uint32_t, 2048> top_mask{};  // of the rows behind each entry
  std::uint16_t used = 1;
  for (std::size_t r = 1; r < kOpTable.size(); ++r) {
    const OpInfo& row = kOpTable[r];
    const std::uint32_t top = row.mask & DecodeIndex::kTopBits;
    const std::uint32_t selector = row.mask & ~DecodeIndex::kTopBits;
    const int shift = selector == 0 ? 0 : std::countr_zero(selector);
    const std::uint32_t mask = selector >> shift;
    if ((mask & (mask + 1)) != 0 || mask > 255) throw "selector must be one field";
    // The keys whose top bits match the row: one, or one per rs value.
    const std::uint32_t first = row.match >> 21;
    const std::uint32_t keys = top == DecodeIndex::kTopBits ? 1 : 32;
    if (keys == 32 && top != 0xFC000000u) throw "rows select on all of rs or none of it";
    std::uint16_t base = 0;
    for (std::uint32_t k = 0; k < keys; ++k) {
      DecodeIndex::Entry& e = index.entries[first + k];
      if (e.base == 0) {
        if (base == 0) {
          base = used;
          used = static_cast<std::uint16_t>(used + mask + 1);
          if (used > index.ops.size()) throw "decode index too small";
        }
        e.shift = static_cast<std::uint8_t>(shift);
        e.mask = static_cast<std::uint8_t>(mask);
        e.base = base;
        top_mask[first + k] = top;
      } else if (e.shift != shift || e.mask != mask || top_mask[first + k] != top) {
        throw "rows that share opcode bits must share a selector field";
      }
      Op& slot = index.ops[e.base + ((row.match & selector) >> shift)];
      if (slot != Op::kInvalid && slot != row.op) throw "two rows match the same words";
      slot = row.op;
      if (mask == 0) e.op = row.op;
      if (has_arg(row.op, Arg::kFt)) e.fp |= DecodeIndex::kFt;
    }
  }
  for (std::uint32_t k = 0; k < 32; ++k) {
    index.entries[(table::kCop1 << 5) + k].fp = DecodeIndex::kFt | DecodeIndex::kFsFd;
  }
  return index;
}

inline constexpr DecodeIndex kDecodeIndex = build_decode_index();

// Defined here, with the table it reads, so that the simulator's fetch loop
// inlines it.
inline Instruction decode(std::uint32_t word) {
  Instruction inst;
  inst.rs = static_cast<std::uint8_t>((word >> 21) & 31);
  inst.rt = static_cast<std::uint8_t>((word >> 16) & 31);
  inst.rd = static_cast<std::uint8_t>((word >> 11) & 31);
  inst.shamt = static_cast<std::uint8_t>((word >> 6) & 31);
  inst.imm = static_cast<std::int16_t>(word & 0xFFFFu);
  inst.target = word & 0x03FFFFFFu;
  const DecodeIndex::Entry& e = kDecodeIndex.entries[word >> 21];
  inst.op = e.mask == 0 ? e.op : kDecodeIndex.ops[e.base + ((word >> e.shift) & e.mask)];
  if (e.fp & DecodeIndex::kFt) inst.ft = inst.rt;
  if (e.fp & DecodeIndex::kFsFd) {
    inst.fs = inst.rd;
    inst.fd = inst.shamt;
  }
  return inst;
}

// The row of `op`; nullptr for kInvalid and out-of-range values.
inline const OpInfo* op_info(Op op) {
  const auto i = static_cast<std::size_t>(op);
  return i == 0 || i >= kOpTable.size() ? nullptr : &kOpTable[i];
}

// The row whose name or alias is `mnemonic` (lower case); nullptr if none.
inline const OpInfo* find_mnemonic(std::string_view mnemonic) {
  for (std::size_t i = 1; i < kOpTable.size(); ++i) {
    if (kOpTable[i].name == mnemonic || kOpTable[i].alias == mnemonic) {
      return &kOpTable[i];
    }
  }
  return nullptr;
}

}  // namespace asimt::isa
