#include "telemetry/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace asimt::json {

void Value::set(std::string_view key, Value v) {
  Object& obj = as_object();
  for (auto& [k, existing] : obj) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj.emplace_back(std::string(key), std::move(v));
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (!v) throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  return *v;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) {
    // ints and doubles compare numerically across types
    if (is_number() && other.is_number()) return as_double() == other.as_double();
    return false;
  }
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kInt: return int_ == other.int_;
    case Type::kDouble: return double_ == other.double_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
  }
  return false;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void dump_to(const Value& v, std::string& out, int indent, int depth) {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<std::size_t>(indent) *
                                                   (static_cast<std::size_t>(depth) + 1),
                                               ' ')
                                 : std::string();
  const std::string close_pad =
      pretty ? std::string(static_cast<std::size_t>(indent) *
                               static_cast<std::size_t>(depth),
                           ' ')
             : std::string();
  switch (v.type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Type::kInt: out += std::to_string(v.as_int()); break;
    case Type::kDouble: {
      const double d = v.as_double();
      if (!std::isfinite(d)) {
        out += "null";  // JSON has no inf/nan
        break;
      }
      // std::to_chars emits the shortest form that round-trips and, unlike
      // the printf family, never consults the global locale — a process
      // running under de_DE would otherwise write "3,14" and corrupt the
      // document.
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof buf, d);
      out.append(buf, res.ptr);
      break;
    }
    case Type::kString:
      out += '"';
      out += escape(v.as_string());
      out += '"';
      break;
    case Type::kArray: {
      const Array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        dump_to(a[i], out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      const Object& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        out += '"';
        out += escape(o[i].first);
        out += pretty ? "\": " : "\":";
        dump_to(o[i].second, out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw ParseError("json parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxParseDepth) {
          fail("nesting deeper than " + std::to_string(kMaxParseDepth));
        }
        Value v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value out = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.as_object().emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  Value parse_array() {
    expect('[');
    Value out = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) fail("unpaired low surrogate");
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!consume_literal("\\u")) fail("unpaired high surrogate");
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("unpaired high surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  // The four hex digits of a \u escape.
  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("bad number");
    const bool integral =
        tok.find('.') == std::string_view::npos &&
        tok.find('e') == std::string_view::npos &&
        tok.find('E') == std::string_view::npos;
    if (integral) {
      long long i = 0;
      const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc() && ptr == tok.data() + tok.size()) {
        // "-0" must stay the double -0.0: folding it to int 0 would make the
        // dumper emit "0" on the next trip and break byte-stability.
        if (i == 0 && tok.front() == '-') return Value(-0.0);
        return Value(i);
      }
    }
    double d = 0.0;
    const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || ptr != tok.data() + tok.size()) fail("bad number");
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(*this, out, indent, 0);
  return out;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::vector<Value> parse_lines(std::string_view text) {
  std::vector<Value> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    bool blank = true;
    for (const char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (!blank) out.push_back(parse(line));
  }
  return out;
}

}  // namespace asimt::json
