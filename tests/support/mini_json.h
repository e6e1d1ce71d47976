// A minimal recursive-descent JSON reader for the tests of the observability
// outputs (explain JSON, trace exports); linked only into obs_test and
// explain_test. Full JSON value model, no external dependencies, no
// streaming — files here are kilobytes. Not for untrusted input beyond what
// the depth cap guards.

#ifndef SKYSR_TESTS_SUPPORT_MINI_JSON_H_
#define SKYSR_TESTS_SUPPORT_MINI_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace skysr {

/// One parsed JSON value. Object members keep file order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Member lookup; null for non-objects and missing keys.
  const JsonValue* Find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Member's string value, or `def` when absent / not a string.
  std::string_view StringOr(std::string_view key, std::string_view def) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->is_string() ? std::string_view(v->string) : def;
  }
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Returns InvalidArgument with a byte offset on
/// malformed input.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace skysr

#endif  // SKYSR_TESTS_SUPPORT_MINI_JSON_H_
