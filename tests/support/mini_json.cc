#include "tests/support/mini_json.h"

#include <cctype>
#include <cstdlib>

namespace skysr {

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    SKYSR_RETURN_NOT_OK(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != text_.size()) return Error("trailing content");
    return v;
  }

 private:
  Status Error(const char* what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        return ParseLiteral("true", [out] {
          out->kind = JsonValue::Kind::kBool;
          out->boolean = true;
        });
      case 'f':
        return ParseLiteral("false", [out] {
          out->kind = JsonValue::Kind::kBool;
          out->boolean = false;
        });
      case 'n':
        return ParseLiteral("null",
                            [out] { out->kind = JsonValue::Kind::kNull; });
      default:
        return ParseNumber(out);
    }
  }

  template <typename Fn>
  Status ParseLiteral(std::string_view word, Fn&& apply) {
    if (text_.substr(pos_, word.size()) != word) return Error("bad literal");
    pos_ += word.size();
    apply();
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->number = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Error("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            // The parsed outputs are ASCII; keep \uXXXX escapes verbatim
            // rather than transcoding (no reader needs them).
            if (text_.size() - pos_ < 4) return Error("bad \\u escape");
            *out += "\\u";
            out->append(text_.substr(pos_, 4));
            pos_ += 4;
            break;
          }
          default:
            return Error("bad escape");
        }
      } else {
        *out += c;
      }
    }
    return Error("unterminated string");
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string key;
      SKYSR_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      SKYSR_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      SKYSR_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
      SkipWs();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace skysr
