// The seeded assembler inputs shared by assembler_fuzz_test.cpp (which checks
// that each one ends in a program or a clean AssemblyError) and
// isa_pin_test.cpp (which pins the exact outcome of each).
#pragma once

#include <random>
#include <string>
#include <vector>

namespace asimt::isa::fuzz_inputs {

// Short multi-line sources of random printable characters.
inline std::vector<std::string> random_garbage() {
  std::mt19937 rng(0xFADE);
  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789$,.()-: \t#%";
  std::vector<std::string> sources;
  for (int trial = 0; trial < 300; ++trial) {
    std::string source;
    const int lines = 1 + static_cast<int>(rng() % 5);
    for (int l = 0; l < lines; ++l) {
      const int len = static_cast<int>(rng() % 40);
      for (int i = 0; i < len; ++i) {
        source.push_back(charset[rng() % charset.size()]);
      }
      source.push_back('\n');
    }
    sources.push_back(std::move(source));
  }
  return sources;
}

// One-line sources: a valid mnemonic with 0..3 mangled operands.
inline std::vector<std::string> mangled_operands() {
  std::mt19937 rng(0xBEAD);
  const char* mnemonics[] = {"addu", "lw",   "sw",    "beq",  "j",
                             "sll",  "mult", "mul.s", "lwc1", "li",
                             "la",   "jr",   "bne",   "lui",  "c.lt.s"};
  const char* operands[] = {"$t0",    "$f1",  "42",     "-1",   "0x10",
                            "4($t1)", "($t2)", "label",  "$zero", "",
                            "$t9x",   "99999999", "%hi(x)", "$32"};
  std::vector<std::string> sources;
  for (int trial = 0; trial < 500; ++trial) {
    std::string line = mnemonics[rng() % std::size(mnemonics)];
    const int count = static_cast<int>(rng() % 4);
    for (int i = 0; i < count; ++i) {
      line += i == 0 ? " " : ", ";
      line += operands[rng() % std::size(operands)];
    }
    line += "\n";
    sources.push_back(std::move(line));
  }
  return sources;
}

}  // namespace asimt::isa::fuzz_inputs
