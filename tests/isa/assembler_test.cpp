// Two-pass assembler tests: syntax, labels, pseudo-instruction expansion,
// data directives, and diagnostics.
#include "isa/assembler.h"

#include <gtest/gtest.h>

#include <string>

#include "isa/isa.h"

namespace asimt::isa {
namespace {

Instruction first_instruction(const Program& program, std::size_t index = 0) {
  return decode(program.text.at(index));
}

TEST(Assembler, EmptyProgram) {
  const Program p = assemble("");
  EXPECT_TRUE(p.text.empty());
  EXPECT_TRUE(p.data.empty());
}

TEST(Assembler, CommentsAndBlankLines) {
  const Program p = assemble(R"(
  # full-line comment
        nop       # trailing comment
        ; alt comment style
        nop
)");
  EXPECT_EQ(p.text.size(), 2u);
}

TEST(Assembler, BasicInstructions) {
  const Program p = assemble(R"(
        addu    $t0, $t1, $t2
        addiu   $t0, $t0, -5
        lw      $s0, 12($sp)
        sw      $s0, -8($gp)
        sll     $t3, $t4, 7
        mult    $t0, $t1
        mflo    $t2
)");
  ASSERT_EQ(p.text.size(), 7u);
  EXPECT_EQ(p.text[0], 0x012A4021u);
  const Instruction addiu = first_instruction(p, 1);
  EXPECT_EQ(addiu.op, Op::kAddiu);
  EXPECT_EQ(addiu.imm, -5);
  const Instruction lw = first_instruction(p, 2);
  EXPECT_EQ(lw.op, Op::kLw);
  EXPECT_EQ(lw.rs, kSp);
  EXPECT_EQ(lw.imm, 12);
  const Instruction sll = first_instruction(p, 4);
  EXPECT_EQ(sll.shamt, 7);
}

TEST(Assembler, BranchesResolveLabels) {
  const Program p = assemble(R"(
start:  addiu   $t0, $t0, 1
        bne     $t0, $t1, start
        beq     $t0, $t1, done
        nop
done:   halt
)");
  const Instruction bne = first_instruction(p, 1);
  EXPECT_EQ(bne.op, Op::kBne);
  // target = start = base; pc of bne = base+4; imm = (base - (base+8))/4 = -2
  EXPECT_EQ(bne.imm, -2);
  const Instruction beq = first_instruction(p, 2);
  EXPECT_EQ(beq.imm, 1);  // skips the nop
}

TEST(Assembler, ForwardAndBackwardJumps) {
  const Program p = assemble(R"(
main:   j       end
middle: jal     main
end:    jr      $ra
)");
  const Instruction j = first_instruction(p, 0);
  EXPECT_EQ(jump_target(p.text_base, j), p.symbol("end"));
  const Instruction jal = first_instruction(p, 1);
  EXPECT_EQ(jump_target(p.text_base + 4, jal), p.symbol("main"));
}

TEST(Assembler, LiExpansion) {
  const Program p = assemble(R"(
        li      $t0, 42
        li      $t1, -42
        li      $t2, 0xFFFF
        li      $t3, 0x12345678
)");
  // 42 and -42: one instruction; 0xFFFF: ori; 0x12345678: lui+ori.
  ASSERT_EQ(p.text.size(), 5u);
  EXPECT_EQ(first_instruction(p, 0).op, Op::kAddiu);
  EXPECT_EQ(first_instruction(p, 1).op, Op::kAddiu);
  EXPECT_EQ(first_instruction(p, 2).op, Op::kOri);
  EXPECT_EQ(first_instruction(p, 3).op, Op::kLui);
  EXPECT_EQ(first_instruction(p, 3).imm, 0x1234);
  EXPECT_EQ(first_instruction(p, 4).op, Op::kOri);
  EXPECT_EQ(first_instruction(p, 4).imm, 0x5678);
}

TEST(Assembler, LaLoadsDataAddress) {
  const Program p = assemble(R"(
        .data
value:  .word 7
        .text
        la      $t0, value
        lw      $t1, 0($t0)
        halt
)");
  EXPECT_EQ(p.symbol("value"), p.data_base);
  EXPECT_EQ(first_instruction(p, 0).op, Op::kLui);
  EXPECT_EQ(first_instruction(p, 1).op, Op::kOri);
}

TEST(Assembler, PseudoInstructions) {
  const Program p = assemble(R"(
        move    $t0, $t1
        nop
        beqz    $t0, out
        bnez    $t0, out
        b       out
        neg     $t2, $t3
        not     $t4, $t5
        subi    $t6, $t6, 3
out:    halt
)");
  EXPECT_EQ(first_instruction(p, 0).op, Op::kAddu);
  EXPECT_EQ(p.text[1], 0u);
  EXPECT_EQ(first_instruction(p, 2).op, Op::kBeq);
  EXPECT_EQ(first_instruction(p, 3).op, Op::kBne);
  EXPECT_EQ(first_instruction(p, 4).op, Op::kBeq);  // b = beq $0,$0
  EXPECT_EQ(first_instruction(p, 5).op, Op::kSubu);
  EXPECT_EQ(first_instruction(p, 6).op, Op::kNor);
  const Instruction subi = first_instruction(p, 7);
  EXPECT_EQ(subi.op, Op::kAddiu);
  EXPECT_EQ(subi.imm, -3);
}

TEST(Assembler, ComparePseudosExpandToSltPlusBranch) {
  const Program p = assemble(R"(
loop:   blt     $t0, $t1, loop
        bge     $t0, $t1, loop
        bgt     $t0, $t1, loop
        ble     $t0, $t1, loop
)");
  ASSERT_EQ(p.text.size(), 8u);
  for (std::size_t i = 0; i < 8; i += 2) {
    EXPECT_EQ(first_instruction(p, i).op, Op::kSlt);
    EXPECT_EQ(first_instruction(p, i).rd, kAt);
  }
  EXPECT_EQ(first_instruction(p, 1).op, Op::kBne);  // blt
  EXPECT_EQ(first_instruction(p, 3).op, Op::kBeq);  // bge
  // bgt/ble swap the slt operands.
  EXPECT_EQ(first_instruction(p, 4).rs, kT1);
  EXPECT_EQ(first_instruction(p, 4).rt, kT0);
}

TEST(Assembler, MulPseudo) {
  const Program p = assemble("mul $t0, $t1, $t2\n");
  ASSERT_EQ(p.text.size(), 2u);
  EXPECT_EQ(first_instruction(p, 0).op, Op::kMult);
  EXPECT_EQ(first_instruction(p, 1).op, Op::kMflo);
  EXPECT_EQ(first_instruction(p, 1).rd, kT0);
}

TEST(Assembler, FloatInstructions) {
  const Program p = assemble(R"(
        lwc1    $f1, 0($a0)
        add.s   $f2, $f1, $f1
        mul.s   $f3, $f2, $f1
        c.lt.s  $f1, $f2
        bc1t    skip
        swc1    $f3, 4($a0)
skip:   halt
)");
  EXPECT_EQ(first_instruction(p, 0).op, Op::kLwc1);
  EXPECT_EQ(first_instruction(p, 1).op, Op::kAddS);
  EXPECT_EQ(first_instruction(p, 3).op, Op::kCLtS);
  EXPECT_EQ(first_instruction(p, 4).op, Op::kBc1t);
}

TEST(Assembler, LiSLoadsFloatConstant) {
  const Program p = assemble("li.s $f5, 0.375\n");
  ASSERT_EQ(p.text.size(), 2u);
  const Instruction lui = first_instruction(p, 0);
  EXPECT_EQ(lui.op, Op::kLui);
  EXPECT_EQ(lui.rt, kAt);
  EXPECT_EQ(lui.imm, 0x3EC0);  // high half of 0.375f
  const Instruction mtc1 = first_instruction(p, 1);
  EXPECT_EQ(mtc1.op, Op::kMtc1);
  EXPECT_EQ(mtc1.fs, 5);
}

TEST(Assembler, LiSRejectsConstantsWithLowBits) {
  EXPECT_THROW(assemble("li.s $f0, 0.9\n"), AssemblyError);
}

TEST(Assembler, DataDirectives) {
  const Program p = assemble(R"(
        .data
ints:   .word 1, 2, -1
floats: .float 0.5, 1.5
gap:    .space 8
after:  .word 0xDEAD
)");
  EXPECT_EQ(p.symbol("ints"), p.data_base);
  EXPECT_EQ(p.symbol("floats"), p.data_base + 12);
  EXPECT_EQ(p.symbol("gap"), p.data_base + 20);
  EXPECT_EQ(p.symbol("after"), p.data_base + 28);
  ASSERT_EQ(p.data.size(), 32u);
  EXPECT_EQ(p.data[0], 1u);
  EXPECT_EQ(p.data[8], 0xFFu);  // -1 little-endian
  // 0.5f = 0x3F000000
  EXPECT_EQ(p.data[15], 0x3Fu);
}

TEST(Assembler, AlignDirective) {
  const Program p = assemble(R"(
        .data
        .space 3
        .align 2
v:      .word 5
)");
  EXPECT_EQ(p.symbol("v"), p.data_base + 4);
}

TEST(Assembler, WordDirectiveAcceptsLabels) {
  const Program p = assemble(R"(
        .text
entry:  halt
        .data
ptr:    .word entry
)");
  const std::uint32_t stored = static_cast<std::uint32_t>(p.data[0]) |
                               (p.data[1] << 8) | (p.data[2] << 16) |
                               (static_cast<std::uint32_t>(p.data[3]) << 24);
  EXPECT_EQ(stored, p.symbol("entry"));
}

TEST(Assembler, HiLoOperators) {
  const Program p = assemble(R"(
        .data
buf:    .word 0
        .text
        lui     $t0, %hi(buf)
        ori     $t0, $t0, %lo(buf)
)");
  const std::uint32_t addr = p.symbol("buf");
  EXPECT_EQ(static_cast<std::uint32_t>(first_instruction(p, 0).imm), addr >> 16);
  EXPECT_EQ(static_cast<std::uint32_t>(first_instruction(p, 1).imm), addr & 0xFFFFu);
}

TEST(Assembler, MultipleLabelsPerLine) {
  const Program p = assemble("a: b: c: nop\n");
  EXPECT_EQ(p.symbol("a"), p.symbol("b"));
  EXPECT_EQ(p.symbol("b"), p.symbol("c"));
}

TEST(AssemblerErrors, ReportLineNumbers) {
  try {
    assemble("nop\nnop\nbogus $t0\n");
    FAIL() << "expected AssemblyError";
  } catch (const AssemblyError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(AssemblerErrors, UndefinedLabel) {
  EXPECT_THROW(assemble("j nowhere\n"), AssemblyError);
}

TEST(AssemblerErrors, DuplicateLabel) {
  EXPECT_THROW(assemble("x: nop\nx: nop\n"), AssemblyError);
}

TEST(AssemblerErrors, BadRegister) {
  EXPECT_THROW(assemble("addu $t0, $t9x, $t2\n"), AssemblyError);
  EXPECT_THROW(assemble("add.s $f1, $t0, $f2\n"), AssemblyError);
}

TEST(AssemblerErrors, ImmediateRange) {
  EXPECT_THROW(assemble("addiu $t0, $t0, 70000\n"), AssemblyError);
  EXPECT_THROW(assemble("lw $t0, 40000($t1)\n"), AssemblyError);
}

TEST(AssemblerErrors, WrongOperandCount) {
  EXPECT_THROW(assemble("addu $t0, $t1\n"), AssemblyError);
  EXPECT_THROW(assemble("nop $t0\n"), AssemblyError);
}

// The line number of the AssemblyError `source` raises; 0 if it assembles
// or throws anything else.
int error_line(const std::string& source) {
  try {
    assemble(source);
  } catch (const AssemblyError& e) {
    return e.line();
  } catch (...) {
  }
  return 0;
}

// .align's exponent must be 0..16. It used to reach `1u << n` unchecked:
// `.align 36` shifted by more than the width (undefined) and `.align 24`
// built a 16 MiB text image of nops.
TEST(AssemblerErrors, AlignExponentOutOfRangeIsDiagnosed) {
  EXPECT_EQ(error_line(".data\n.word 1\n.align 36\n"), 3);
  EXPECT_EQ(error_line("nop\n.align 17\n"), 2);
  EXPECT_EQ(error_line(".data\n.align -1\n"), 2);
  EXPECT_EQ(error_line(".align\n"), 1);
  EXPECT_EQ(assemble("nop\n.align 16\nx: nop\n").symbol("x"), 0x00410000u);
}

// A negative .space used to wrap the layout pc and then fail inside
// std::vector with a length_error instead of an AssemblyError.
TEST(AssemblerErrors, NegativeSpaceIsDiagnosed) {
  EXPECT_EQ(error_line(".data\n.space -1\n"), 2);
  EXPECT_EQ(error_line(".data\n.space\n"), 2);
}

// Both images are capped at 16 MiB in the layout pass, before anything is
// allocated; `.space 1000000000` used to allocate a gigabyte. The 257th
// 64 KiB-aligned nop is the first word past the cap.
TEST(AssemblerErrors, ImageSizeIsCapped) {
  EXPECT_NO_THROW(assemble(".data\n.space 16777216\n"));
  EXPECT_EQ(error_line(".data\n.space 16777217\n"), 2);
  std::string text;
  for (int i = 0; i < 257; ++i) text += "nop\n.align 16\n";
  EXPECT_EQ(error_line(text), 513);
}

TEST(AssemblerErrors, InstructionInDataSection) {
  EXPECT_THROW(assemble(".data\nnop\n"), AssemblyError);
  EXPECT_THROW(assemble(".word 1\n"), AssemblyError);  // .word outside .data
}

// Strict literal parsing. The pre-fix strtoll/strtof silently saturated:
// an out-of-range integer literal became LLONG_MAX (then truncated to a
// plausible-looking word) and an overflowing float became +inf — both
// assembled "successfully" into a wrong image. Each rejection here fails
// against that implementation.
TEST(AssemblerErrors, IntegerLiteralOverflowIsDiagnosedNotSaturated) {
  EXPECT_THROW(assemble("li $t0, 99999999999999999999\n"), AssemblyError);
  EXPECT_THROW(assemble(".data\n.word 99999999999999999999\n"), AssemblyError);
  EXPECT_THROW(assemble("li $t0, 0x1FFFFFFFFFFFFFFFF\n"), AssemblyError);
  // INT64_MIN itself is fine (magnitude parse + explicit sign).
  const Program p = assemble("li $t0, -9223372036854775808\n");
  EXPECT_FALSE(p.text.empty());
}

TEST(AssemblerErrors, IntegerLiteralJunkIsDiagnosed) {
  // strtoll would have parsed the prefix and ignored the tail.
  EXPECT_THROW(assemble("li $t0, 12abc\n"), AssemblyError);
  EXPECT_THROW(assemble("li $t0, 0x\n"), AssemblyError);
  EXPECT_THROW(assemble(".data\n.word 1,2,3x\n"), AssemblyError);
  try {
    assemble("li $t0, 12abc\n");
    FAIL() << "expected AssemblyError";
  } catch (const AssemblyError& e) {
    EXPECT_EQ(e.line(), 1);  // the diagnostic names the offending line
  }
}

TEST(AssemblerErrors, FloatLiteralOverflowAndJunkAreDiagnosed) {
  // strtof turned 1e99 into +inf and stored a garbage IEEE pattern.
  EXPECT_THROW(assemble(".data\n.float 1e99\n"), AssemblyError);
  EXPECT_THROW(assemble(".data\n.float -1e99\n"), AssemblyError);
  EXPECT_THROW(assemble(".data\n.float 0.5x\n"), AssemblyError);
  EXPECT_THROW(assemble("li.s $f0, nope\n"), AssemblyError);
}

TEST(Assembler, StrictLiteralsStillAcceptTheFullDialect) {
  // Hex, octal, explicit signs, and float forms that must keep working.
  const Program p = assemble(
      ".data\n"
      "vals: .word 0x7FFFFFFF, -0x80000000, 017, +42\n"
      "fs:   .float 0.375, -1.5e2, +0.25\n"
      ".text\n"
      "  li $t0, 0xFF\n"
      "  li.s $f1, 2.5\n"
      "  halt\n");
  EXPECT_EQ(p.data.size(), 4u * 7u);
}

TEST(Assembler, SymbolLookupThrowsForUnknown) {
  const Program p = assemble("nop\n");
  EXPECT_THROW(p.symbol("missing"), std::out_of_range);
}

TEST(Assembler, TextLayoutIsSequential) {
  const Program p = assemble("a: nop\nb: nop\nc: nop\n");
  EXPECT_EQ(p.symbol("b"), p.symbol("a") + 4);
  EXPECT_EQ(p.symbol("c"), p.symbol("a") + 8);
  EXPECT_EQ(p.text_end(), p.text_base + 12);
  EXPECT_EQ(p.entry(), p.text_base);
}

}  // namespace
}  // namespace asimt::isa
