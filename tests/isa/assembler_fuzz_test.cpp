// Robustness: the assembler must reject arbitrary garbage with a clean
// AssemblyError (never crash, never emit silently wrong code).
#include <gtest/gtest.h>

#include <string>

#include "isa/assembler.h"
#include "fuzz_inputs.h"

namespace asimt::isa {
namespace {

TEST(AssemblerFuzz, RandomPrintableGarbage) {
  for (const std::string& source : fuzz_inputs::random_garbage()) {
    try {
      const Program p = assemble(source);
      // Accepting is fine (comments, labels, blank lines) but anything
      // emitted must be decodable or an explicit .word.
      (void)p;
    } catch (const AssemblyError&) {
      // expected for most inputs
    }
  }
}

TEST(AssemblerFuzz, ValidMnemonicsWithMangledOperands) {
  for (const std::string& line : fuzz_inputs::mangled_operands()) {
    try {
      assemble(line);
    } catch (const AssemblyError& e) {
      EXPECT_EQ(e.line(), 1);
    }
  }
}

TEST(AssemblerFuzz, DeepLabelChainsAndComments) {
  std::string source;
  for (int i = 0; i < 200; ++i) {
    source += "l" + std::to_string(i) + ": # comment " + std::to_string(i) + "\n";
  }
  source += "        j l0\n";
  const Program p = assemble(source);
  EXPECT_EQ(p.text.size(), 1u);
  EXPECT_EQ(p.symbol("l0"), p.symbol("l199"));
}

TEST(AssemblerFuzz, HugePrograms) {
  std::string source;
  for (int i = 0; i < 20'000; ++i) source += "        addiu $t0, $t0, 1\n";
  source += "        halt\n";
  const Program p = assemble(source);
  EXPECT_EQ(p.text.size(), 20'001u);
}

}  // namespace
}  // namespace asimt::isa
