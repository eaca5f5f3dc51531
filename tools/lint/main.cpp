// ilu-lint — determinism & concurrency static analysis for this repo.
//
//   ilu-lint [--root DIR]      lint <DIR>/src (default: .), reading
//                              <DIR>/{bench,examples,perfbench,tests,tools}
//                              for test-only-api's callers
//   ilu-lint --src DIR         lint DIR directly (no test-only-api)
//   ilu-lint --file F [F...]   lint individual files (pre-commit mode);
//                              paths outside a src/ tree are skipped, since
//                              the checks only govern simulation code. All
//                              staged files are analyzed as one batch, so
//                              the cross-TU checks see whatever lock/include
//                              facts the batch contains (single-TU facts
//                              when one file is staged); test-only-api is
//                              skipped, since callers are not staged.
//   ilu-lint --list-checks     print the check catalogue
//   ilu-lint --json            emit findings as a JSON array (stdout)
//   ilu-lint --sarif           emit SARIF 2.1.0 (stdout; CI annotation)
//   ilu-lint --dot FILE        also write the whole-repo lock acquisition
//                              graph as Graphviz to FILE (tree modes only)
//
// Exit status: 0 when the tree is clean, 1 when findings were reported,
// 2 on usage/IO errors. Registered as the `ilu_lint` ctest test so tier-1
// runs enforce the rules; see DESIGN.md §10/§15 for the catalogue and the
// suppression policy.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Path of `p` relative to its nearest `src` ancestor ("" when `p` is not
/// under one): check scopes and allowlists are src/-relative.
std::string src_relative(const fs::path& p) {
  fs::path abs = fs::absolute(p).lexically_normal();
  for (fs::path dir = abs.parent_path(); !dir.empty();
       dir = dir.parent_path()) {
    if (dir.filename() == "src") {
      return abs.lexically_relative(dir).generic_string();
    }
    if (dir == dir.parent_path()) break;
  }
  return {};
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
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

enum class Format { Text, Json, Sarif };

/// `display` maps a finding's src-relative path back to the path the user
/// passed (tree mode prefixes the src dir; file mode restores the argv
/// spelling so editors can jump to it).
void emit(const std::vector<ilu::lint::Finding>& findings, Format fmt,
          const std::vector<std::pair<std::string, std::string>>& display) {
  auto shown = [&](const std::string& rel) -> const std::string& {
    for (const auto& [r, d] : display) {
      if (r == rel) return d;
    }
    return rel;
  };
  if (fmt == Format::Text) {
    for (const auto& f : findings) {
      std::printf("%s:%d: [%s] %s\n", shown(f.path).c_str(), f.line,
                  f.check.c_str(), f.message.c_str());
    }
    return;
  }
  if (fmt == Format::Json) {
    std::printf("[");
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const auto& f = findings[i];
      std::printf(
          "%s\n  {\"path\": \"%s\", \"line\": %d, \"check\": \"%s\", "
          "\"message\": \"%s\"}",
          i ? "," : "", json_escape(shown(f.path)).c_str(), f.line,
          f.check.c_str(), json_escape(f.message).c_str());
    }
    std::printf("%s]\n", findings.empty() ? "" : "\n");
    return;
  }
  // SARIF 2.1.0: one run, rules from the catalogue, one result per finding.
  std::printf(
      "{\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"runs\": [{\n"
      "    \"tool\": {\"driver\": {\"name\": \"ilu-lint\", \"rules\": [");
  const auto& cat = ilu::lint::checks();
  for (std::size_t i = 0; i < cat.size(); ++i) {
    std::printf(
        "%s\n      {\"id\": \"%s\", \"shortDescription\": {\"text\": "
        "\"%s\"}}",
        i ? "," : "", cat[i].name, json_escape(cat[i].description).c_str());
  }
  std::printf("\n    ]}},\n    \"results\": [");
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& f = findings[i];
    std::printf(
        "%s\n      {\"ruleId\": \"%s\", \"level\": \"error\", "
        "\"message\": {\"text\": \"%s\"}, \"locations\": [{"
        "\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"%s\"}, "
        "\"region\": {\"startLine\": %d}}}]}",
        i ? "," : "", f.check.c_str(), json_escape(f.message).c_str(),
        json_escape(shown(f.path)).c_str(), f.line);
  }
  std::printf("%s]\n  }]\n}\n", findings.empty() ? "" : "\n    ");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string src;
  std::string dot_path;
  std::vector<std::string> files;
  Format fmt = Format::Text;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--src") == 0 && i + 1 < argc) {
      src = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      fmt = Format::Json;
    } else if (std::strcmp(argv[i], "--sarif") == 0) {
      fmt = Format::Sarif;
    } else if (std::strcmp(argv[i], "--dot") == 0 && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--file") == 0) {
      for (++i; i < argc && std::strncmp(argv[i], "--", 2) != 0; ++i) {
        files.emplace_back(argv[i]);
      }
      --i;
    } else if (std::strcmp(argv[i], "--list-checks") == 0) {
      for (const auto& c : ilu::lint::checks()) {
        std::printf("%-22s %s\n", c.name, c.description);
      }
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: ilu-lint [--root DIR | --src DIR | "
                   "--file F [F...] | --list-checks] "
                   "[--json | --sarif] [--dot FILE]\n");
      return 2;
    }
  }

  if (!files.empty()) {
    // Batch mode: stage every file into one lint_inputs() call so the
    // cross-TU checks run over the whole set at once.
    std::vector<ilu::lint::FileInput> ins;
    std::vector<std::pair<std::string, std::string>> display;
    std::size_t skipped = 0;
    for (const std::string& f : files) {
      if (!fs::is_regular_file(f)) {
        std::fprintf(stderr, "ilu-lint: no such file: %s\n", f.c_str());
        return 2;
      }
      std::string rel = src_relative(f);
      if (rel.empty()) {
        ++skipped;
        continue;
      }
      ilu::lint::FileInput in;
      in.rel_path = rel;
      in.content = slurp(f);
      fs::path p = f;
      if (p.extension() == ".cpp" || p.extension() == ".cc") {
        fs::path header = p;
        header.replace_extension(".hpp");
        if (fs::exists(header)) in.paired_header = slurp(header);
      }
      display.emplace_back(rel, f);
      ins.push_back(std::move(in));
    }
    auto findings = ilu::lint::lint_inputs(ins);
    emit(findings, fmt, display);
    std::fprintf(stderr,
                 "ilu-lint: %zu file(s) scanned, %zu skipped (outside src/), "
                 "%zu finding(s)\n",
                 ins.size(), skipped, findings.size());
    return findings.empty() ? 0 : 1;
  }

  // Tree mode: only --root knows where the callers of src/ live.
  std::vector<ilu::lint::FileInput> callers;
  const bool with_callers = src.empty();
  if (with_callers) {
    src = root + "/src";
    callers = ilu::lint::load_callers(root);
  }
  if (!fs::is_directory(src)) {
    std::fprintf(stderr, "ilu-lint: no such directory: %s\n", src.c_str());
    return 2;
  }

  auto ins = ilu::lint::load_tree(src);
  auto findings =
      ilu::lint::lint_inputs(ins, with_callers ? &callers : nullptr);
  std::vector<std::pair<std::string, std::string>> display;
  display.reserve(ins.size());
  for (const auto& in : ins) {
    display.emplace_back(in.rel_path, src + "/" + in.rel_path);
  }
  emit(findings, fmt, display);
  if (!dot_path.empty()) {
    std::ofstream out(dot_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "ilu-lint: cannot write %s\n", dot_path.c_str());
      return 2;
    }
    out << ilu::lint::lock_order_dot(ins);
  }
  std::fprintf(stderr,
               "ilu-lint: %zu file(s) scanned, %zu caller file(s) read, "
               "%zu finding(s)\n",
               ins.size(), callers.size(), findings.size());
  return findings.empty() ? 0 : 1;
}
