// Two-pass assembler for the ASIMT ISA.
//
// Stands in for the SimpleScalar cross-toolchain: the six paper workloads are
// written in this assembly dialect and assembled into binary images that the
// simulator executes and the encoder transforms.
//
// Dialect (MIPS-flavoured):
//   .text [addr]   switch to text section (default base 0x00400000)
//   .data [addr]   switch to data section (default base 0x10000000)
//   .word  v,...   32-bit values (numbers or labels)
//   .float f,...   IEEE-754 single values
//   .space n       n zero bytes (n >= 0)
//   .align n       pad to 2^n boundary (0 <= n <= kMaxAlignExponent)
//   label:         define a label in the current section
//   # or ;         comment to end of line
//
// Instructions are assembled from the opcode table (isa/opcodes.h).
// Pseudo-instructions: nop, move, li, la, li.s, b, beqz, bnez, blt, bgt,
// ble, bge, mul, neg, not, subi; `halt` is an alias of break.
//
// Neither image may exceed kMaxImageBytes; the layout pass checks this
// before either image is allocated.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace asimt::isa {

// An assembled binary image.
struct Program {
  std::uint32_t text_base = 0;
  std::vector<std::uint32_t> text;  // one word per instruction
  std::uint32_t data_base = 0;
  std::vector<std::uint8_t> data;
  std::map<std::string, std::uint32_t> symbols;

  std::uint32_t entry() const { return text_base; }
  std::uint32_t text_end() const {
    return text_base + 4 * static_cast<std::uint32_t>(text.size());
  }
  // Address of `label`; throws std::out_of_range if undefined.
  std::uint32_t symbol(const std::string& label) const;
};

inline constexpr std::uint64_t kMaxImageBytes = 16u << 20;
inline constexpr std::int64_t kMaxAlignExponent = 16;

struct AssemblerOptions {
  std::uint32_t text_base = 0x00400000;
  std::uint32_t data_base = 0x10000000;
};

// Thrown on any syntax or semantic error; carries the 1-based source line.
class AssemblyError : public std::runtime_error {
 public:
  AssemblyError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

Program assemble(std::string_view source, AssemblerOptions options = {});

}  // namespace asimt::isa
