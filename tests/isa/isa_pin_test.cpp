// Byte-identity pins for the ISA layer. Each digest was computed with the
// per-opcode switch implementation that the opcode table replaced; any change
// to decode fields, disassembly text, encoding, assembled images or assembler
// diagnostics moves a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "check/rng.h"
#include "fuzz_inputs.h"
#include "isa/assembler.h"
#include "isa/isa.h"
#include "workloads/workload.h"

namespace asimt::isa {
namespace {

// FNV-1a, 64-bit.
class Fnv {
 public:
  void bytes(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void hash_program(Fnv& f, const Program& p) {
  f.u64(p.text_base);
  f.u64(p.text.size());
  for (const std::uint32_t w : p.text) f.u64(w);
  f.u64(p.data_base);
  f.u64(p.data.size());
  f.bytes(std::string_view(reinterpret_cast<const char*>(p.data.data()),
                           p.data.size()));
  for (const auto& [name, addr] : p.symbols) {
    f.bytes(name);
    f.u64(addr);
  }
}

// Hashes the outcome of assembling `source`: the image, or the diagnostic.
void hash_outcome(Fnv& f, const std::string& source) {
  try {
    const Program p = assemble(source);
    f.bytes("ok");
    hash_program(f, p);
  } catch (const AssemblyError& e) {
    f.bytes("err");
    f.bytes(e.what());
  }
}

// (a) Every primary opcode x funct x rs x rt, with rd/shamt and the pc drawn
// from a seeded stream: decode fields, disassembly, and the re-encoding of
// every valid word.
TEST(IsaPin, DecodeDisassembleEncodeDigest) {
  check::Rng rng(0x15A7AB1E);
  Fnv f;
  for (std::uint32_t op = 0; op < 64; ++op) {
    for (std::uint32_t funct = 0; funct < 64; ++funct) {
      for (std::uint32_t rs = 0; rs < 32; ++rs) {
        for (std::uint32_t rt = 0; rt < 32; ++rt) {
          const std::uint64_t r = rng.next();
          const std::uint32_t word = (op << 26) | (rs << 21) | (rt << 16) |
                                     (static_cast<std::uint32_t>(r & 0x3FF) << 6) |
                                     funct;
          const std::uint32_t pc = static_cast<std::uint32_t>(r >> 32) & ~3u;
          const Instruction i = decode(word);
          f.u64(static_cast<std::uint64_t>(i.op));
          f.u64((std::uint64_t{i.rs} << 48) | (std::uint64_t{i.rt} << 40) |
                (std::uint64_t{i.rd} << 32) | (std::uint64_t{i.shamt} << 24) |
                (std::uint64_t{i.fs} << 16) | (std::uint64_t{i.ft} << 8) | i.fd);
          f.u64((std::uint64_t{static_cast<std::uint32_t>(i.imm)} << 32) | i.target);
          f.bytes(disassemble(word, pc));
          if (i.op != Op::kInvalid) f.u64(encode(i));
        }
      }
    }
  }
  EXPECT_EQ(f.value(), 0x42033FE9536765C4ull);
}

// (b) The assembled image of every kernel in src/workloads, at the default
// and the small problem sizes.
TEST(IsaPin, WorkloadImagesDigest) {
  Fnv f;
  for (const workloads::SizeConfig& config :
       {workloads::SizeConfig{}, workloads::SizeConfig::small()}) {
    for (const auto& set : {workloads::make_all(config), workloads::make_extra(config)}) {
      for (const workloads::Workload& w : set) {
        f.bytes(w.name);
        hash_program(f, assemble(w.source));
      }
    }
  }
  EXPECT_EQ(f.value(), 0x46905B614529337Dull);
}

// (c) The outcome of every seeded assembler_fuzz_test input. None of them
// reaches the .align/.space bounds, so no input's diagnostic moved when those
// directives were bounded.
TEST(IsaPin, FuzzInputDiagnosticsDigest) {
  Fnv f;
  for (const std::string& source : fuzz_inputs::random_garbage()) {
    hash_outcome(f, source);
  }
  for (const std::string& source : fuzz_inputs::mangled_operands()) {
    hash_outcome(f, source);
  }
  EXPECT_EQ(f.value(), 0x3BFF334AB87B1995ull);
}

// Every mnemonic against a matrix of operand spellings: pins the diagnostic
// text and the check order of each instruction form.
TEST(IsaPin, MnemonicOperandMatrixDigest) {
  const std::vector<std::string> mnemonics = {
      "add", "addu", "sub", "subu", "and", "or", "xor", "nor", "slt", "sltu",
      "sll", "srl", "sra", "sllv", "srlv", "srav", "mult", "multu", "div",
      "divu", "mfhi", "mflo", "mthi", "mtlo", "addi", "addiu", "slti",
      "sltiu", "andi", "ori", "xori", "lui", "lb", "lh", "lw", "lbu", "lhu",
      "sb", "sh", "sw", "lwc1", "l.s", "swc1", "s.s", "beq", "bne", "blez",
      "bgtz", "bltz", "bgez", "j", "jal", "jr", "jalr", "add.s", "sub.s",
      "mul.s", "div.s", "sqrt.s", "abs.s", "mov.s", "neg.s", "cvt.s.w",
      "trunc.w.s", "c.eq.s", "c.lt.s", "c.le.s", "bc1f", "bc1t", "mfc1",
      "mtc1", "syscall", "break", "halt", "nop", "move", "li", "la", "li.s",
      "b", "beqz", "bnez", "blt", "bge", "bgt", "ble", "mul", "neg", "not",
      "subi", "ADDU", "Lw", "L.S", "frob", ".word", ".float", ".globl",
      ".bogus"};
  const std::vector<std::string> operands = {
      "$t0", "$31", "$f2", "$f32", "$T0", "7", "-3", "40000", "-40000",
      "0x7fff", "1.5", "2.0", "8($sp)", "-4( $t1 )", "($a0)", "4($f1)",
      "4($t9x)", "99999(sp)", "start", "far", "lbl", "%hi(lbl)", "%lo(lbl)",
      "nope", "", "1e99", "8x", "$zero"};
  // Three-operand forms draw from a smaller set, one of each kind.
  const std::vector<std::string> third = {
      "$t0", "$f2", "7", "-3", "40000", "-40000", "8($sp)", "far", "%lo(lbl)", ""};
  Fnv f;
  for (const std::string& m : mnemonics) {
    std::vector<std::string> lines = {m};
    for (const std::string& a : operands) {
      lines.push_back(m + " " + a);
      for (const std::string& b : operands) lines.push_back(m + " " + a + ", " + b);
    }
    for (const std::string& line : lines) {
      hash_outcome(f, ".data\nlbl: .word 1\n.text\nstart: " + line + "\nfar: nop\n");
      hash_outcome(f, "start: " + line + "\n");
      hash_outcome(f, ".data\n" + line + "\n");
    }
    for (const std::string& a : third) {
      for (const std::string& b : third) {
        for (const std::string& c : third) {
          hash_outcome(f, ".data\nlbl: .word 1\n.text\nstart: " + m + " " + a +
                              ", " + b + ", " + c + "\nfar: nop\n");
        }
      }
    }
  }
  EXPECT_EQ(f.value(), 0xAB15CB308975FEE6ull);
}

}  // namespace
}  // namespace asimt::isa
