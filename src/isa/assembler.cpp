#include "isa/assembler.h"

#include <array>
#include <bit>
#include <cctype>
#include <optional>

#include "isa/isa.h"
#include "isa/opcodes.h"
#include "util/args.h"

namespace asimt::isa {

std::uint32_t Program::symbol(const std::string& label) const {
  auto it = symbols.find(label);
  if (it == symbols.end()) {
    throw std::out_of_range("undefined symbol: " + label);
  }
  return it->second;
}

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

bool is_label_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

char to_lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

// Lower-case copy, for diagnostics that quote a mnemonic.
std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = to_lower(c);
  return out;
}

// Directive names are compared case-insensitively.
enum class Directive { kNone, kText, kData, kWord, kFloat, kSpace, kAlign, kGlobl };

constexpr std::pair<std::string_view, Directive> kDirectives[] = {
    {".text", Directive::kText},   {".data", Directive::kData},
    {".word", Directive::kWord},   {".float", Directive::kFloat},
    {".space", Directive::kSpace}, {".align", Directive::kAlign},
    {".globl", Directive::kGlobl}, {".global", Directive::kGlobl},
};

// Pseudo-instructions: each row's expansion lives in Assembler::emit_pseudo,
// and `words` is what the layout pass reserves for it (0: sized by li's
// literal).
enum class Pseudo {
  kNop, kMove, kLi, kLa, kLiS, kB, kBeqz, kBnez,
  kBlt, kBge, kBgt, kBle, kMul, kNeg, kNot, kSubi,
};

struct PseudoInfo {
  std::string_view name;
  Pseudo pseudo;
  int words;
};

constexpr PseudoInfo kPseudos[] = {
    {"nop", Pseudo::kNop, 1},   {"move", Pseudo::kMove, 1},
    {"li", Pseudo::kLi, 0},     {"la", Pseudo::kLa, 2},
    {"li.s", Pseudo::kLiS, 2},  {"b", Pseudo::kB, 1},
    {"beqz", Pseudo::kBeqz, 1}, {"bnez", Pseudo::kBnez, 1},
    {"blt", Pseudo::kBlt, 2},   {"bge", Pseudo::kBge, 2},
    {"bgt", Pseudo::kBgt, 2},   {"ble", Pseudo::kBle, 2},
    {"mul", Pseudo::kMul, 2},   {"neg", Pseudo::kNeg, 1},
    {"not", Pseudo::kNot, 1},   {"subi", Pseudo::kSubi, 1},
};

// One source statement. Every view points into the source text.
struct Statement {
  int line = 0;
  std::string_view mnemonic;      // as written
  std::string_view operand_text;  // everything after the mnemonic, trimmed
  std::array<std::string_view, 3> op{};  // the first three operands
  std::size_t count = 0;                 // how many operands there are

  // What the mnemonic names; at most one of these is set.
  Directive directive = Directive::kNone;
  const OpInfo* info = nullptr;
  const PseudoInfo* pseudo = nullptr;
};

// Calls fn on each operand of `text`: split at commas outside parentheses,
// trimmed.
template <typename F>
void for_each_operand(std::string_view text, F&& fn) {
  if (text.empty()) return;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t j = 0; j <= text.size(); ++j) {
    if (j == text.size() || (text[j] == ',' && depth == 0)) {
      fn(trim(text.substr(start, j - start)));
      start = j + 1;
    } else if (text[j] == '(') {
      ++depth;
    } else if (text[j] == ')') {
      --depth;
    }
  }
}

// Resolves what `s.mnemonic` names. No table name is longer than the
// buffer, so a longer mnemonic names nothing.
void classify(Statement& s) {
  std::array<char, 16> buf{};
  if (s.mnemonic.size() > buf.size()) return;
  for (std::size_t i = 0; i < s.mnemonic.size(); ++i) buf[i] = to_lower(s.mnemonic[i]);
  const std::string_view m(buf.data(), s.mnemonic.size());
  if (m.front() == '.') {
    for (const auto& [name, directive] : kDirectives) {
      if (name == m) s.directive = directive;
    }
    return;
  }
  if ((s.info = find_mnemonic(m)) != nullptr) return;
  for (const PseudoInfo& p : kPseudos) {
    if (p.name == m) s.pseudo = &p;
  }
}

// Calls on_label for each label and on_statement for each statement of
// `source`, in order.
template <typename OnLabel, typename OnStatement>
void for_each_line(std::string_view source, OnLabel&& on_label,
                   OnStatement&& on_statement) {
  int number = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const std::size_t eol = source.find('\n', pos);
    std::string_view rest = source.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    ++number;
    rest = trim(rest.substr(0, rest.find_first_of("#;")));
    while (true) {
      std::size_t i = 0;
      while (i < rest.size() && is_label_char(rest[i])) ++i;
      if (i == 0 || i >= rest.size() || rest[i] != ':') break;
      on_label(number, rest.substr(0, i));
      rest = trim(rest.substr(i + 1));
    }
    if (!rest.empty()) {
      std::size_t i = 0;
      while (i < rest.size() && !is_space(rest[i])) ++i;
      Statement s;
      s.line = number;
      s.mnemonic = rest.substr(0, i);
      s.operand_text = trim(rest.substr(i));
      for_each_operand(s.operand_text, [&](std::string_view operand) {
        if (s.count < s.op.size()) s.op[s.count] = operand;
        ++s.count;
      });
      classify(s);
      on_statement(s);
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
}

// `pc` rounded up to a multiple of 2^exponent.
std::uint64_t align_up(std::uint64_t pc, std::int64_t exponent) {
  const std::uint64_t align = std::uint64_t{1} << exponent;
  return (pc + align - 1) & ~(align - 1);
}

class Assembler {
 public:
  explicit Assembler(AssemblerOptions options) : options_(options) {
    program_.text_base = options.text_base;
    program_.data_base = options.data_base;
  }

  Program run(std::string_view source) {
    layout_pass(source);
    emit_pass(source);
    return std::move(program_);
  }

 private:
  enum class Section { kText, kData };

  [[noreturn]] static void fail(int line, const std::string& msg) {
    throw AssemblyError(line, msg);
  }

  // ---- pass 1: layout ----------------------------------------------------

  static int li_words(std::int64_t v) {
    if (v >= -32768 && v <= 32767) return 1;  // addiu
    if (v >= 0 && v <= 65535) return 1;       // ori
    return 2;                                 // lui + ori
  }

  // Text words the statement occupies; literals of size-variable pseudos
  // must be plain integers. Unknown mnemonics count one word and are
  // reported by the emission pass.
  int words(const Statement& s) const {
    if (s.pseudo == nullptr) return 1;
    if (s.pseudo->pseudo != Pseudo::kLi) return s.pseudo->words;
    if (s.count != 2) fail(s.line, "li needs 2 operands");
    return li_words(parse_integer(s.line, s.op[1]));
  }

  std::int64_t space_bytes(const Statement& s) const {
    expect_operands(s, 1);
    const std::int64_t n = parse_integer(s.line, s.op[0]);
    if (n < 0) fail(s.line, "negative .space size: " + std::string(s.op[0]));
    return n;
  }

  std::int64_t align_exponent(const Statement& s) const {
    expect_operands(s, 1);
    const std::int64_t n = parse_integer(s.line, s.op[0]);
    if (n < 0 || n > kMaxAlignExponent) {
      fail(s.line, ".align exponent out of range 0.." +
                       std::to_string(kMaxAlignExponent) + ": " + std::string(s.op[0]));
    }
    return n;
  }

  void layout_pass(std::string_view source) {
    Section section = Section::kText;
    std::uint64_t text_pc = options_.text_base;
    std::uint64_t data_pc = options_.data_base;
    auto on_label = [&](int line, std::string_view label) {
      const std::uint64_t pc = section == Section::kText ? text_pc : data_pc;
      if (!program_.symbols.emplace(label, static_cast<std::uint32_t>(pc)).second) {
        fail(line, "duplicate label: " + std::string(label));
      }
    };
    auto on_statement = [&](const Statement& s) {
      switch (s.directive) {
        case Directive::kText:
        case Directive::kData:
          section = s.directive == Directive::kText ? Section::kText : Section::kData;
          if (s.count != 0) {
            fail(s.line, lower(s.mnemonic) + " with explicit address is unsupported");
          }
          break;
        case Directive::kWord:
        case Directive::kFloat:
          if (section != Section::kData) fail(s.line, "data directive outside .data");
          data_pc += 4 * s.count;
          break;
        case Directive::kSpace:
          if (section != Section::kData) fail(s.line, ".space outside .data");
          data_pc += static_cast<std::uint64_t>(space_bytes(s));
          break;
        case Directive::kAlign: {
          std::uint64_t& pc = section == Section::kText ? text_pc : data_pc;
          pc += padding(pc, align_exponent(s), section);
          break;
        }
        case Directive::kGlobl:
          break;  // accepted and ignored
        case Directive::kNone:
          if (s.mnemonic.front() == '.') {
            fail(s.line, "unknown directive: " + lower(s.mnemonic));
          }
          if (section != Section::kText) fail(s.line, "instruction outside .text");
          text_pc += 4 * static_cast<std::uint64_t>(words(s));
          break;
      }
      if (text_pc - options_.text_base > kMaxImageBytes ||
          data_pc - options_.data_base > kMaxImageBytes) {
        fail(s.line, "image larger than " + std::to_string(kMaxImageBytes) + " bytes");
      }
    };
    for_each_line(source, on_label, on_statement);
    program_.text.reserve((text_pc - options_.text_base) / 4);
    program_.data.reserve(data_pc - options_.data_base);
  }

  // Bytes that align `pc` to 2^exponent; whole nop words in text.
  static std::uint64_t padding(std::uint64_t pc, std::int64_t exponent, Section section) {
    const std::uint64_t bytes = align_up(pc, exponent) - pc;
    return section == Section::kText ? (bytes + 3) / 4 * 4 : bytes;
  }

  // ---- pass 2: emission --------------------------------------------------

  void emit_pass(std::string_view source) {
    Section section = Section::kText;
    auto on_statement = [&](const Statement& s) {
      switch (s.directive) {
        case Directive::kText: section = Section::kText; break;
        case Directive::kData: section = Section::kData; break;
        case Directive::kWord:
          for_each_operand(s.operand_text, [&](std::string_view op) {
            emit_data_word(static_cast<std::uint32_t>(parse_value(s.line, op)));
          });
          break;
        case Directive::kFloat:
          for_each_operand(s.operand_text, [&](std::string_view op) {
            emit_data_word(std::bit_cast<std::uint32_t>(parse_float(s.line, op)));
          });
          break;
        case Directive::kSpace:
          program_.data.resize(program_.data.size() + space_bytes(s));
          break;
        case Directive::kAlign:
          if (section == Section::kData) {
            const std::uint64_t pc = program_.data_base + program_.data.size();
            program_.data.resize(program_.data.size() + padding(pc, align_exponent(s), section));
          } else {
            program_.text.resize(program_.text.size() +
                                 padding(here(), align_exponent(s), section) / 4);
          }
          break;
        case Directive::kGlobl: break;
        case Directive::kNone: {
          const std::size_t before = program_.text.size();
          emit_statement(s);
          if (program_.text.size() - before != static_cast<std::size_t>(words(s))) {
            throw std::logic_error("assembler: line " + std::to_string(s.line) +
                                   " emitted a different size than laid out");
          }
          break;
        }
      }
    };
    for_each_line(source, [](int, std::string_view) {}, on_statement);
  }

  void emit(const Instruction& inst) { program_.text.push_back(encode(inst)); }

  void emit_data_word(std::uint32_t v) {
    program_.data.push_back(static_cast<std::uint8_t>(v));
    program_.data.push_back(static_cast<std::uint8_t>(v >> 8));
    program_.data.push_back(static_cast<std::uint8_t>(v >> 16));
    program_.data.push_back(static_cast<std::uint8_t>(v >> 24));
  }

  std::uint32_t here() const {
    return program_.text_base + 4 * static_cast<std::uint32_t>(program_.text.size());
  }

  // ---- operand parsing -----------------------------------------------------

  // Strict whole-string parses (util/args.h). strtoll/strtof would accept
  // the same prefixes but saturate out-of-range literals silently (LLONG_MAX
  // / +-inf), which then truncate into instruction words with no diagnostic;
  // here an overflowing literal is an AssemblyError like any other typo.
  static std::int64_t parse_integer(int line, std::string_view text) {
    const std::string_view t = trim(text);
    if (t.empty()) fail(line, "empty integer operand");
    const std::optional<long long> v = util::parse_integer_literal(t);
    if (!v) fail(line, "bad integer (junk or out of 64-bit range): " + std::string(t));
    return *v;
  }

  static float parse_float(int line, std::string_view text) {
    const std::string_view t = trim(text);
    if (t.empty()) fail(line, "empty float operand");
    const std::optional<float> v = util::parse_float_literal(t);
    if (!v) {
      fail(line, "bad float (junk or out of single-precision range): " + std::string(t));
    }
    return *v;
  }

  // Integer literal, label address, or %hi/%lo of a label.
  std::int64_t parse_value(int line, std::string_view text) const {
    const std::string_view t = trim(text);
    if (t.empty()) fail(line, "empty operand");
    if ((t.starts_with("%hi(") || t.starts_with("%lo(")) && t.back() == ')') {
      const std::uint32_t addr = resolve_label(line, t.substr(4, t.size() - 5));
      return t[1] == 'h' ? (addr >> 16) & 0xFFFF : addr & 0xFFFF;
    }
    if ((t[0] >= '0' && t[0] <= '9') || t[0] == '-' || t[0] == '+') {
      return parse_integer(line, t);
    }
    return resolve_label(line, t);
  }

  std::uint32_t resolve_label(int line, std::string_view name) const {
    auto it = program_.symbols.find(std::string(trim(name)));
    if (it == program_.symbols.end()) fail(line, "undefined label: " + std::string(name));
    return it->second;
  }

  static std::uint8_t reg_operand(int line, std::string_view text) {
    const auto r = parse_reg(trim(text));
    if (!r) fail(line, "expected integer register, got: " + std::string(text));
    return static_cast<std::uint8_t>(*r);
  }

  static std::uint8_t freg_operand(int line, std::string_view text) {
    const auto r = parse_freg(trim(text));
    if (!r) fail(line, "expected FP register, got: " + std::string(text));
    return static_cast<std::uint8_t>(*r);
  }

  // off($reg): sets the offset and the base register.
  void mem_operand(int line, std::string_view text, Instruction& inst) const {
    const std::string_view t = trim(text);
    const std::size_t open = t.find('(');
    if (open == std::string_view::npos || t.back() != ')') {
      fail(line, "expected mem operand off($reg), got: " + std::string(text));
    }
    const std::string_view off = trim(t.substr(0, open));
    const std::int64_t offset = off.empty() ? 0 : parse_value(line, off);
    if (offset < -32768 || offset > 32767) fail(line, "mem offset out of range");
    inst.imm = static_cast<std::int32_t>(offset);
    inst.rs = reg_operand(line, t.substr(open + 1, t.size() - open - 2));
  }

  std::int32_t imm16_operand(int line, std::string_view text, bool zero_ext) const {
    const std::int64_t v = parse_value(line, text);
    if (zero_ext ? (v < 0 || v > 65535) : (v < -32768 || v > 65535)) {
      fail(line, "immediate out of 16-bit range: " + std::string(text));
    }
    return static_cast<std::int32_t>(v);
  }

  std::int32_t branch_offset(int line, std::string_view label_text) const {
    const std::uint32_t target = static_cast<std::uint32_t>(parse_value(line, label_text));
    const std::int64_t delta =
        (static_cast<std::int64_t>(target) - (static_cast<std::int64_t>(here()) + 4)) >> 2;
    if (delta < -32768 || delta > 32767) fail(line, "branch target out of range");
    return static_cast<std::int32_t>(delta);
  }

  // Parses `text` as operand `arg` of `inst`.
  void set_operand(Instruction& inst, Arg arg, int line, std::string_view text) const {
    switch (arg) {
      case Arg::kRd: case Arg::kRdLink: inst.rd = reg_operand(line, text); break;
      case Arg::kRs: inst.rs = reg_operand(line, text); break;
      case Arg::kRt: inst.rt = reg_operand(line, text); break;
      case Arg::kFd: inst.fd = freg_operand(line, text); break;
      case Arg::kFs: inst.fs = freg_operand(line, text); break;
      case Arg::kFt: inst.ft = freg_operand(line, text); break;
      case Arg::kShamt: {
        const std::int64_t sh = parse_integer(line, text);
        if (sh < 0 || sh > 31) fail(line, "shift amount out of range");
        inst.shamt = static_cast<std::uint8_t>(sh);
        break;
      }
      case Arg::kSImm: inst.imm = imm16_operand(line, text, false); break;
      case Arg::kZImm: case Arg::kUImm: inst.imm = imm16_operand(line, text, true); break;
      case Arg::kMem: mem_operand(line, text, inst); break;
      case Arg::kBranch: inst.imm = branch_offset(line, text); break;
      case Arg::kJump:
        inst.target = (static_cast<std::uint32_t>(parse_value(line, text)) >> 2) & 0x03FFFFFFu;
        break;
      case Arg::kNone: break;
    }
  }

  // ---- instruction emission ------------------------------------------------

  static void expect_operands(const Statement& s, std::size_t n) {
    if (s.count != n) {
      fail(s.line, lower(s.mnemonic) + " expects " + std::to_string(n) + " operands");
    }
  }

  void emit_statement(const Statement& s) {
    if (s.info != nullptr) return emit_table_instruction(s, *s.info);
    if (s.pseudo != nullptr) return emit_pseudo(s, s.pseudo->pseudo);
    fail(s.line, "unknown mnemonic: " + lower(s.mnemonic));
  }

  // Operands in the row's order. An instruction without operands ignores
  // any it is given; jalr's link register may be left out.
  void emit_table_instruction(const Statement& s, const OpInfo& info) {
    Instruction inst;
    inst.op = info.op;
    const std::size_t n = info.arg_count();
    std::size_t skipped = 0;
    if (info.args[0] == Arg::kRdLink && s.count == 1) {
      inst.rd = kRa;
      skipped = 1;
    } else if (n > 0) {
      expect_operands(s, n);
    }
    for (std::size_t a = skipped; a < n; ++a) {
      set_operand(inst, info.args[a], s.line, s.op[a - skipped]);
    }
    emit(inst);
  }

  static Instruction make(Op op, unsigned rd, unsigned rs, unsigned rt, std::int32_t imm = 0) {
    Instruction i;
    i.op = op;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs = static_cast<std::uint8_t>(rs);
    i.rt = static_cast<std::uint8_t>(rt);
    i.imm = imm;
    return i;
  }

  // lui r, hi ; ori r, r, lo
  void emit_lui_ori(unsigned r, std::uint32_t value) {
    emit(make(Op::kLui, 0, 0, r, static_cast<std::int32_t>(value >> 16)));
    emit(make(Op::kOri, 0, r, r, static_cast<std::int32_t>(value & 0xFFFFu)));
  }

  void emit_pseudo(const Statement& s, Pseudo pseudo) {
    const int line = s.line;
    switch (pseudo) {
      case Pseudo::kNop:
        expect_operands(s, 0);
        return program_.text.push_back(0);
      case Pseudo::kMove: {
        expect_operands(s, 2);
        const unsigned rd = reg_operand(line, s.op[0]);
        return emit(make(Op::kAddu, rd, reg_operand(line, s.op[1]), 0));
      }
      case Pseudo::kLi: {
        expect_operands(s, 2);
        const unsigned rd = reg_operand(line, s.op[0]);
        const std::int64_t v = parse_integer(line, s.op[1]);
        if (v >= -32768 && v <= 32767) {
          return emit(make(Op::kAddiu, 0, 0, rd, static_cast<std::int32_t>(v)));
        }
        if (v >= 0 && v <= 65535) {
          return emit(make(Op::kOri, 0, 0, rd, static_cast<std::int32_t>(v)));
        }
        return emit_lui_ori(rd, static_cast<std::uint32_t>(v));
      }
      case Pseudo::kLa: {
        expect_operands(s, 2);
        const unsigned rd = reg_operand(line, s.op[0]);
        return emit_lui_ori(rd, static_cast<std::uint32_t>(parse_value(line, s.op[1])));
      }
      case Pseudo::kLiS: {
        // lui $at, hi ; mtc1 $at, fd — only constants whose low half is 0.
        expect_operands(s, 2);
        const std::uint8_t fd = freg_operand(line, s.op[0]);
        const auto bits = std::bit_cast<std::uint32_t>(parse_float(line, s.op[1]));
        if ((bits & 0xFFFFu) != 0) {
          fail(line, "li.s constant needs nonzero low bits; use .float data");
        }
        emit(make(Op::kLui, 0, 0, kAt, static_cast<std::int32_t>(bits >> 16)));
        Instruction mtc1 = make(Op::kMtc1, 0, 0, kAt);
        mtc1.fs = fd;
        return emit(mtc1);
      }
      case Pseudo::kB:
        expect_operands(s, 1);
        return emit(make(Op::kBeq, 0, 0, 0, branch_offset(line, s.op[0])));
      case Pseudo::kBeqz:
      case Pseudo::kBnez: {
        expect_operands(s, 2);
        const unsigned rs = reg_operand(line, s.op[0]);
        return emit(make(pseudo == Pseudo::kBeqz ? Op::kBeq : Op::kBne, 0, rs, 0,
                         branch_offset(line, s.op[1])));
      }
      case Pseudo::kBlt:  // slt $at, a, b ; bne
      case Pseudo::kBge:  // slt $at, a, b ; beq
      case Pseudo::kBgt:  // slt $at, b, a ; bne
      case Pseudo::kBle: {  // slt $at, b, a ; beq
        expect_operands(s, 3);
        const unsigned a = reg_operand(line, s.op[0]);
        const unsigned b = reg_operand(line, s.op[1]);
        const bool swap = pseudo == Pseudo::kBgt || pseudo == Pseudo::kBle;
        const bool on_set = pseudo == Pseudo::kBlt || pseudo == Pseudo::kBgt;
        emit(make(Op::kSlt, kAt, swap ? b : a, swap ? a : b));
        return emit(make(on_set ? Op::kBne : Op::kBeq, 0, kAt, 0,
                         branch_offset(line, s.op[2])));
      }
      case Pseudo::kMul: {
        expect_operands(s, 3);
        const unsigned rs = reg_operand(line, s.op[1]);
        emit(make(Op::kMult, 0, rs, reg_operand(line, s.op[2])));
        return emit(make(Op::kMflo, reg_operand(line, s.op[0]), 0, 0));
      }
      case Pseudo::kNeg: {
        expect_operands(s, 2);
        const unsigned rd = reg_operand(line, s.op[0]);
        return emit(make(Op::kSubu, rd, 0, reg_operand(line, s.op[1])));
      }
      case Pseudo::kNot: {
        expect_operands(s, 2);
        const unsigned rd = reg_operand(line, s.op[0]);
        return emit(make(Op::kNor, rd, reg_operand(line, s.op[1]), 0));
      }
      case Pseudo::kSubi: {
        expect_operands(s, 3);
        const unsigned rt = reg_operand(line, s.op[0]);
        const unsigned rs = reg_operand(line, s.op[1]);
        const std::int64_t v = parse_integer(line, s.op[2]);
        if (-v < -32768 || -v > 32767) fail(line, "subi immediate out of range");
        return emit(make(Op::kAddiu, 0, rs, rt, static_cast<std::int32_t>(-v)));
      }
    }
  }

  AssemblerOptions options_;
  Program program_;
};

}  // namespace

Program assemble(std::string_view source, AssemblerOptions options) {
  return Assembler(options).run(source);
}

}  // namespace asimt::isa
