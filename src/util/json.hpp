#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

/// Minimal JSON parser/serializer (no external dependencies).
///
/// The paper's services are configured through JSON files (§6, "Workers are
/// configured with a json file on startup, with the various policy options
/// (such as queuing), keep-alive, timeouts, ..."); core/config.hpp builds
/// WorkerConfig / OpenWhiskConfig / ClusterConfig from documents parsed
/// here. Supports the full JSON grammar except for \uXXXX escapes beyond
/// the Basic Latin range (mapped through UTF-8 for code points < 0x800).
namespace ilu {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// std::map keeps keys ordered for deterministic serialization.
using JsonObject = std::map<std::string, JsonValue>;

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& msg, std::size_t offset)
      : std::runtime_error(msg + " (at offset " + std::to_string(offset) +
                           ")"),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class JsonValue {
 public:
  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(int i) : v_(static_cast<double>(i)) {}
  JsonValue(std::int64_t i) : v_(static_cast<double>(i)) {}
  JsonValue(std::uint64_t i) : v_(static_cast<double>(i)) {}
  JsonValue(const char* s) : v_(std::string(s)) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(JsonArray a) : v_(std::move(a)) {}
  JsonValue(JsonObject o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(v_); }

  /// Typed accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  // ilu-lint: allow(test-only-api) - completes the typed accessors; tests walk dumped arrays
  const JsonArray& as_array() const;
  // ilu-lint: allow(test-only-api) - completes the typed accessors; tests walk dumped objects
  const JsonObject& as_object() const;

  /// Object field lookup; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Convenience getters with defaults (for config loading).
  double number_or(const std::string& key, double def) const;
  bool bool_or(const std::string& key, bool def) const;
  std::string string_or(const std::string& key,
                        const std::string& def) const;

  /// Serialize; indent > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  bool operator==(const JsonValue& other) const { return v_ == other.v_; }

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v_;
};

/// Parse a complete JSON document. Throws JsonError on malformed input or
/// trailing garbage.
JsonValue json_parse(std::string_view text);

/// Parse the contents of a file. Throws std::runtime_error / JsonError.
JsonValue json_parse_file(const std::string& path);

}  // namespace ilu
