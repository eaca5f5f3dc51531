#pragma once

#include <fstream>
#include <string>
#include <vector>

/// Minimal CSV writing for benchmark and report output. Fields never
/// contain commas or quotes in this project, so no quoting logic is
/// implemented; writing a field containing a comma is an error.
namespace ilu {

class CsvWriter {
 public:
  /// Opens `path` for writing (truncates). Throws std::runtime_error on
  /// failure.
  explicit CsvWriter(const std::string& path);

  /// Write a header / data row. Each element becomes one field.
  void write_row(const std::vector<std::string>& fields);

  /// Variadic convenience: accepts strings and arithmetic values.
  template <typename... Ts>
  void row(const Ts&... vs) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(vs));
    (fields.push_back(field(vs)), ...);
    write_row(fields);
  }

  void flush();

 private:
  static std::string field(const std::string& s) { return s; }
  static std::string field(const char* s) { return s; }
  template <typename T>
  static std::string field(const T& v) {
    return std::to_string(v);
  }

  std::ofstream out_;
};

}  // namespace ilu
