#include "util/csv.hpp"

#include <stdexcept>

namespace ilu {

CsvWriter::CsvWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].find(',') != std::string::npos) {
      throw std::runtime_error("CsvWriter: field contains comma: " + fields[i]);
    }
    if (i) out_ << ',';
    out_ << fields[i];
  }
  out_ << '\n';
}

void CsvWriter::flush() { out_.flush(); }

}  // namespace ilu
