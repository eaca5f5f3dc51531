#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "lint/cross_checks.hpp"
#include "lint/lexer.hpp"
#include "lint/lint.hpp"
#include "lint/model.hpp"
#include "lint/support.hpp"

namespace ilu::lint {

namespace {

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

constexpr std::string_view kWallClockAllow[] = {
    "util/rng.", "runtime/real_runtime.", "exp/sweep.cpp", "obs/"};

/// Middle tier between the blanket allowlist above and a hard ban: files
/// that measure the live runtime (the open-loop load harness) may read the
/// wall clock, but every site must carry a reasoned
/// `// ilu-lint: allow(wall-clock) - <why>` annotation so each escape from
/// Runtime::now() is individually justified. Findings still fire here; the
/// message points at the annotation policy instead of the blanket ban.
constexpr std::string_view kWallClockAnnotatedAllow[] = {"exp/live_load."};

bool is_clock_type(std::string_view id) {
  return id == "steady_clock" || id == "system_clock" ||
         id == "high_resolution_clock";
}

bool is_ambient_time_fn(std::string_view id) {
  return id == "time" || id == "gettimeofday" || id == "clock_gettime" ||
         id == "localtime" || id == "gmtime" || id == "mktime" ||
         id == "rand" || id == "srand";
}

void check_wall_clock(const Tokens& ts, const std::string& rel,
                      std::vector<Finding>& out) {
  if (in_any(rel, kWallClockAllow)) return;
  const bool annotated_tier = in_any(rel, kWallClockAnnotatedAllow);
  auto emit = [&](int line, std::string msg) {
    if (annotated_tier) {
      msg +=
          " — this file is on the annotated-allow tier: wall-clock reads are "
          "permitted only with a per-site `// ilu-lint: allow(wall-clock) - "
          "<reason>`";
    }
    out.push_back({rel, line, "wall-clock", std::move(msg)});
  };
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].kind != Tok::Identifier) continue;
    std::string_view id = ts[i].text;
    if (is_clock_type(id) && i + 2 < ts.size() &&
        is_punct(ts[i + 1], "::") && is_id(ts[i + 2], "now")) {
      emit(ts[i].line, "std::chrono::" + std::string(id) +
                           "::now() reads the wall clock; sim code must take "
                           "time from Runtime::now()");
      continue;
    }
    if (id == "random_device") {
      emit(ts[i].line,
           "std::random_device is ambient entropy; draw from the "
           "seeded util/rng.* generators instead");
      continue;
    }
    if (is_ambient_time_fn(id) && i + 1 < ts.size() &&
        is_punct(ts[i + 1], "(")) {
      // Flag free calls and std::-qualified calls only: `x.time(...)`,
      // `Foo::time(...)`, and declarations `Duration time(...)` all have a
      // disqualifying previous token.
      bool flag = true;
      if (i > 0) {
        const Token& p = ts[i - 1];
        if (p.kind == Tok::Identifier || is_punct(p, ".") ||
            is_punct(p, "->")) {
          flag = false;
        } else if (is_punct(p, "::")) {
          flag = i >= 2 && is_id(ts[i - 2], "std");
        }
      }
      if (flag) {
        emit(ts[i].line, "`" + std::string(id) +
                             "()` reads ambient wall-clock/entropy state "
                             "outside the allowlisted real-time layers");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

constexpr std::string_view kUnorderedIterExempt[] = {"obs/", "util/", "exp/"};

bool is_unordered_name(std::string_view id) {
  return id == "unordered_map" || id == "unordered_set" ||
         id == "unordered_multimap" || id == "unordered_multiset";
}

/// Is ts[i] (an unordered container name) the target of a
/// `using Alias = [std::]unordered_xxx<...>` definition? Returns the alias.
std::string_view alias_being_defined(const Tokens& ts, std::size_t i) {
  std::size_t eq = 0;
  if (i >= 3 && is_punct(ts[i - 1], "::") && is_id(ts[i - 2], "std") &&
      is_punct(ts[i - 3], "=")) {
    eq = i - 3;
  } else if (i >= 1 && is_punct(ts[i - 1], "=")) {
    eq = i - 1;
  } else {
    return {};
  }
  if (eq >= 2 && ts[eq - 1].kind == Tok::Identifier &&
      is_id(ts[eq - 2], "using")) {
    return ts[eq - 1].text;
  }
  return {};
}

/// After a container type ends at ts[j], parse a declarator and record the
/// declared variable name. Handles `const`, `&`, `*`, and stops on
/// `::` (nested names like ...::iterator) or a function declaration
/// (identifier followed by `(`).
void record_declared_var(const Tokens& ts, std::size_t j, NameSet& vars) {
  while (j < ts.size() &&
         (is_id(ts[j], "const") || is_punct(ts[j], "&") ||
          is_punct(ts[j], "*"))) {
    ++j;
  }
  if (j + 1 >= ts.size() || ts[j].kind != Tok::Identifier) return;
  const Token& next = ts[j + 1];
  if (is_punct(next, ";") || is_punct(next, "=") || is_punct(next, "{") ||
      is_punct(next, ",") || is_punct(next, ")") || is_punct(next, ":")) {
    vars.insert(std::string(ts[j].text));
  }
}

/// Collect names of variables whose declared type is an unordered container
/// (directly or through a same-file `using` alias).
void collect_unordered_decls(const Tokens& ts, NameSet& vars) {
  NameSet aliases;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].kind == Tok::Identifier && is_unordered_name(ts[i].text)) {
      std::string_view alias = alias_being_defined(ts, i);
      if (!alias.empty()) aliases.insert(std::string(alias));
    }
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].kind != Tok::Identifier) continue;
    std::size_t j;
    if (is_unordered_name(ts[i].text)) {
      if (i + 1 >= ts.size() || !is_punct(ts[i + 1], "<")) continue;
      j = skip_template_args(ts, i + 1);
      if (!alias_being_defined(ts, i).empty()) continue;
    } else if (aliases.count(ts[i].text) > 0) {
      j = i + 1;
      if (j < ts.size() && is_punct(ts[j], "<")) j = skip_template_args(ts, j);
    } else {
      continue;
    }
    record_declared_var(ts, j, vars);
  }
}

void check_unordered_iter(const Tokens& ts, const std::string& rel,
                          const NameSet& vars, std::vector<Finding>& out) {
  if (in_any(rel, kUnorderedIterExempt)) return;
  auto flag = [&](const Token& at, std::string_view var, const char* how) {
    out.push_back({rel, at.line, "unordered-iter",
                   std::string(how) + " over unordered container `" +
                       std::string(var) +
                       "`: iteration order may escape into event/callback "
                       "order — use an ordered container or sort first"});
  };
  for (std::size_t i = 0; i < ts.size(); ++i) {
    // `var.begin()` / cbegin / rbegin / crbegin — iterator-style loops.
    if (ts[i].kind == Tok::Identifier && vars.count(ts[i].text) > 0 &&
        i + 3 < ts.size() && is_punct(ts[i + 1], ".") &&
        (is_id(ts[i + 2], "begin") || is_id(ts[i + 2], "cbegin") ||
         is_id(ts[i + 2], "rbegin") || is_id(ts[i + 2], "crbegin")) &&
        is_punct(ts[i + 3], "(")) {
      flag(ts[i], ts[i].text, "iterator loop");
      continue;
    }
    // Range-for whose range expression is exactly [this->]var.
    if (!(is_id(ts[i], "for") && i + 1 < ts.size() &&
          is_punct(ts[i + 1], "("))) {
      continue;
    }
    int depth = 0;
    std::size_t colon = 0, close = 0;
    for (std::size_t j = i + 1; j < ts.size(); ++j) {
      if (is_punct(ts[j], "(")) {
        ++depth;
      } else if (is_punct(ts[j], ")")) {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (depth == 1 && is_punct(ts[j], ":") && colon == 0) {
        colon = j;
      } else if (depth == 1 && is_punct(ts[j], ";")) {
        colon = 0;  // classic for loop, not range-for
        break;
      }
    }
    if (colon == 0 || close == 0) continue;
    std::size_t b = colon + 1;
    if (b + 1 < close && is_id(ts[b], "this") && is_punct(ts[b + 1], "->")) {
      b += 2;
    }
    if (close == b + 1 && ts[b].kind == Tok::Identifier &&
        vars.count(ts[b].text) > 0) {
      flag(ts[b], ts[b].text, "range-for");
    }
  }
}

// ---------------------------------------------------------------------------
// ptr-order
// ---------------------------------------------------------------------------

bool is_ordered_assoc(std::string_view id) {
  return id == "map" || id == "set" || id == "multimap" ||
         id == "multiset";
}

void check_ptr_order(const Tokens& ts, const std::string& rel,
                     std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (ts[i].kind != Tok::Identifier || !is_punct(ts[i + 1], "<")) continue;
    std::string_view id = ts[i].text;
    bool assoc = is_ordered_assoc(id) && std_qualified(ts, i);
    bool cmp = (id == "less" || id == "greater") && std_qualified(ts, i);
    if (!assoc && !cmp) continue;
    // Examine the first template argument: flag when its last token is `*`
    // (a raw pointer key orders by address, which varies run to run).
    int depth = 0;
    std::size_t last = 0;
    bool pointer_key = false;
    for (std::size_t j = i + 1; j < ts.size(); ++j) {
      if (is_punct(ts[j], "<")) {
        ++depth;
      } else if (is_punct(ts[j], ">")) {
        if (--depth == 0) break;
      } else if (depth == 1 && is_punct(ts[j], ",")) {
        break;
      } else if (is_punct(ts[j], ";") || is_punct(ts[j], "{")) {
        break;  // `a < b` comparison, not a template argument list
      }
      if (depth >= 1 && !is_punct(ts[j], "<")) last = j;
    }
    if (last != 0 && is_punct(ts[last], "*")) pointer_key = true;
    if (pointer_key) {
      out.push_back(
          {rel, ts[i].line, "ptr-order",
           "std::" + std::string(id) +
               " keyed by a raw pointer orders by address, which differs "
               "between runs; key by a stable id instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// raw-thread
// ---------------------------------------------------------------------------

constexpr std::string_view kRawThreadAllow[] = {
    "runtime/", "exp/", "obs/", "util/dcheck."};

bool is_threading_name(std::string_view id) {
  return id == "thread" || id == "jthread" || id == "mutex" ||
         id == "recursive_mutex" || id == "shared_mutex" ||
         id == "timed_mutex" || id == "recursive_timed_mutex" ||
         id == "condition_variable" || id == "condition_variable_any" ||
         id == "atomic" || id == "atomic_flag" || id == "atomic_ref" ||
         id == "future" || id == "promise" || id == "async" ||
         id == "packaged_task" || id == "barrier" || id == "latch" ||
         id == "counting_semaphore" || id == "binary_semaphore" ||
         id == "this_thread";
}

void check_raw_thread(const Tokens& ts, const std::string& rel,
                      std::vector<Finding>& out) {
  if (in_any(rel, kRawThreadAllow)) return;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].kind != Tok::Identifier || !is_threading_name(ts[i].text)) {
      continue;
    }
    if (!std_qualified(ts, i)) continue;
    out.push_back({rel, ts[i].line, "raw-thread",
                   "std::" + std::string(ts[i].text) +
                       " outside runtime//exp//obs/: simulation code is "
                       "single-threaded by contract; put concurrency in the "
                       "runtime or experiment layers"});
  }
}

// ---------------------------------------------------------------------------
// std-function-hotpath
// ---------------------------------------------------------------------------

constexpr std::string_view kHotpathDirs[] = {"runtime/", "queueing/", "core/"};

void check_std_function_hotpath(const Tokens& ts, const std::string& rel,
                                std::vector<Finding>& out) {
  if (!ends_with(rel, ".hpp") || !in_any(rel, kHotpathDirs)) return;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (is_id(ts[i], "function") && std_qualified(ts, i)) {
      out.push_back({rel, ts[i].line, "std-function-hotpath",
                     "std::function in a hot-path header: it heap-allocates "
                     "beyond a 16-byte capture and drags copy machinery — "
                     "use ilu::Task (runtime/task.hpp)"});
    }
  }
}

// ---------------------------------------------------------------------------
// const-ref-capture
// ---------------------------------------------------------------------------

/// The sweep machinery fans ref-capturing job lambdas into worker threads
/// and joins them before the enclosing scope exits, by design.
constexpr std::string_view kRefCaptureExempt[] = {"exp/"};

/// Callees that run their callback argument after the calling scope may
/// have returned (Runtime::schedule/post and friends).
bool is_deferral_callee(std::string_view id) {
  return id == "schedule" || id == "schedule_at" || id == "post" ||
         id == "send" || id == "defer";
}

/// Callees that stow their argument in a container, where it can outlive
/// the captured locals.
bool is_storage_callee(std::string_view id) {
  return id == "push_back" || id == "emplace_back" || id == "emplace" ||
         id == "push";
}

/// Does the capture list in (open, close) capture anything by reference?
/// A `&` right after `[` or `,` is a capture-default or `&name` capture;
/// `&` elsewhere is address-of inside an init-capture and stays legal.
bool has_ref_capture(const Tokens& ts, std::size_t open, std::size_t close) {
  for (std::size_t j = open + 1; j < close; ++j) {
    if (is_punct(ts[j], "&") &&
        (is_punct(ts[j - 1], "[") || is_punct(ts[j - 1], ","))) {
      return true;
    }
  }
  return false;
}

/// Find the callee identifier of the innermost function call enclosing
/// token `i` (scanning backward to the unmatched `(`), or "" when `i` is
/// not a call argument.
std::string_view enclosing_callee(const Tokens& ts, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j-- > 0;) {
    const Token& t = ts[j];
    if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) {
      ++depth;
    } else if (is_punct(t, "(")) {
      if (depth == 0) {
        return j > 0 && ts[j - 1].kind == Tok::Identifier ? ts[j - 1].text
                                                          : std::string_view{};
      }
      --depth;
    } else if (is_punct(t, "[") || is_punct(t, "{")) {
      if (depth == 0) return {};  // brace-init or subscript, not a call
      --depth;
    } else if (depth == 0 && is_punct(t, ";")) {
      return {};
    }
  }
  return {};
}

void check_const_ref_capture(const Tokens& ts, const std::string& rel,
                             std::vector<Finding>& out) {
  if (in_any(rel, kRefCaptureExempt)) return;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!is_punct(ts[i], "[")) continue;
    // Rule out attributes ([[...]]) and subscripts (previous token is a
    // value expression; `return` lexes as an identifier but introduces a
    // lambda, not a subscript).
    if (i + 1 < ts.size() && is_punct(ts[i + 1], "[")) continue;
    bool after_return = i > 0 && is_id(ts[i - 1], "return");
    if (!after_return && i > 0 &&
        (ts[i - 1].kind == Tok::Identifier || is_punct(ts[i - 1], "]") ||
         is_punct(ts[i - 1], ")"))) {
      continue;
    }
    // Find the introducer's closing `]`; a lambda follows it with `(` or
    // `{`.
    int depth = 0;
    std::size_t close = 0;
    for (std::size_t j = i; j < ts.size(); ++j) {
      if (is_punct(ts[j], "[")) {
        ++depth;
      } else if (is_punct(ts[j], "]")) {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (is_punct(ts[j], ";")) {
        break;
      }
    }
    if (close == 0 || close + 1 >= ts.size() ||
        !(is_punct(ts[close + 1], "(") || is_punct(ts[close + 1], "{"))) {
      continue;
    }
    if (!has_ref_capture(ts, i, close)) continue;

    if (after_return) {
      out.push_back({rel, ts[i].line, "const-ref-capture",
                     "returned lambda captures locals by reference; the "
                     "captures dangle once the function exits — capture by "
                     "value or a slab handle"});
      continue;
    }
    std::string_view callee = enclosing_callee(ts, i);
    if (is_deferral_callee(callee)) {
      out.push_back({rel, ts[i].line, "const-ref-capture",
                     "ref-capturing lambda passed to `" + std::string(callee) +
                         "(...)`, which defers execution past the current "
                         "scope — capture by value or a slab handle"});
    } else if (is_storage_callee(callee)) {
      out.push_back({rel, ts[i].line, "const-ref-capture",
                     "ref-capturing lambda stored via `" + std::string(callee) +
                         "(...)` can outlive the captured scope — capture by "
                         "value or a slab handle"});
    }
  }
}

// ---------------------------------------------------------------------------
// Directives (suppressions + pragmas)
// ---------------------------------------------------------------------------

bool known_check(std::string_view name) {
  for (const CheckInfo& c : checks()) {
    if (name == c.name) return true;
  }
  return false;
}

/// `reason` is the text after the closing `)`: mandatory, introduced by
/// ` - `, ` — `, or `: `. Returns the trimmed reason ("" when absent).
std::string_view parse_reason(std::string_view rest) {
  std::string_view reason = trim(rest);
  if (starts_with(reason, "\xe2\x80\x94")) {  // em dash
    return trim(reason.substr(3));
  }
  if (!reason.empty() && (reason.front() == '-' || reason.front() == ':')) {
    return trim(reason.substr(1));
  }
  return {};
}

}  // namespace

int order_rank(std::string_view name) {
  if (starts_with(name, "memory_order_")) name = name.substr(13);
  if (name == "relaxed") return 0;
  if (name == "consume") return 1;
  if (name == "acquire" || name == "release") return 2;
  if (name == "acq_rel") return 3;
  if (name == "seq_cst") return 4;
  return -1;
}

void parse_directive(const Comment& c, const std::string& rel,
                     std::vector<Suppression>& sups,
                     std::vector<FloorPragma>& floors,
                     std::vector<Finding>& out) {
  std::size_t pos = c.text.find("ilu-lint");
  if (pos == std::string_view::npos) return;
  auto malformed = [&](const std::string& why) {
    out.push_back({rel, c.line, "lint-suppression",
                   "malformed ilu-lint suppression: " + why});
  };
  std::string_view rest = c.text.substr(pos + 8);
  rest = trim(rest);
  if (rest.empty() || rest.front() != ':') {
    return malformed("expected `ilu-lint: allow(<check>) - <reason>`");
  }
  rest = trim(rest.substr(1));
  if (starts_with(rest, "atomics-floor")) {
    rest = trim(rest.substr(13));
    if (rest.empty() || rest.front() != '(') {
      return malformed("expected `(` after atomics-floor");
    }
    std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      return malformed("unterminated atomics-floor(");
    }
    std::string_view body = rest.substr(1, close - 1);
    FloorPragma p;
    p.line = c.line;
    std::size_t colon = body.find(':');
    std::string_view order = trim(body.substr(0, colon));
    p.rank = order_rank(order);
    if (p.rank < 0) {
      return malformed("unknown memory order `" + std::string(order) +
                       "` in atomics-floor()");
    }
    if (colon != std::string_view::npos) {
      std::string_view list = body.substr(colon + 1);
      while (!list.empty()) {
        std::size_t comma = list.find(',');
        std::string_view v = trim(list.substr(0, comma));
        if (v.empty()) return malformed("empty variable in atomics-floor()");
        p.vars.emplace_back(v);
        list = comma == std::string_view::npos ? std::string_view{}
                                               : list.substr(comma + 1);
      }
      if (p.vars.empty()) {
        return malformed("empty variable list in atomics-floor()");
      }
    }
    if (parse_reason(rest.substr(close + 1)).empty()) {
      return malformed(
          "a reason is required: `atomics-floor(<order>) - <why>`");
    }
    floors.push_back(std::move(p));
    return;
  }
  if (!starts_with(rest, "allow")) {
    return malformed(
        "only the `allow(...)` and `atomics-floor(...)` directives exist");
  }
  rest = trim(rest.substr(5));
  if (rest.empty() || rest.front() != '(') {
    return malformed("expected `(` after allow");
  }
  std::size_t close = rest.find(')');
  if (close == std::string_view::npos) {
    return malformed("unterminated allow(");
  }
  std::string_view list = rest.substr(1, close - 1);
  Suppression s;
  s.applies_to_line = c.own_line ? c.line + 1 : c.line;
  while (!list.empty()) {
    std::size_t comma = list.find(',');
    std::string_view name = trim(list.substr(0, comma));
    if (name.empty()) return malformed("empty check name in allow()");
    if (!known_check(name)) {
      return malformed("unknown check `" + std::string(name) + "`");
    }
    s.checks.insert(std::string(name));
    list = comma == std::string_view::npos ? std::string_view{}
                                           : list.substr(comma + 1);
  }
  if (s.checks.empty()) return malformed("empty allow() list");
  if (parse_reason(rest.substr(close + 1)).empty()) {
    return malformed(
        "a reason is required: `allow(<check>) - <why this is safe>`");
  }
  sups.push_back(std::move(s));
}

const std::vector<CheckInfo>& checks() {
  static const std::vector<CheckInfo> kChecks = {
      {"wall-clock",
       "no std::chrono clocks, time()/gettimeofday, or std::random_device "
       "outside util/rng.*, runtime/real_runtime.*, exp/sweep.cpp, obs/; "
       "exp/live_load.* is an annotated-allow tier: each site needs a "
       "reasoned allow(wall-clock) annotation"},
      {"unordered-iter",
       "no range-for or begin() iteration over std::unordered_{map,set} in "
       "sim-reachable code (everything except obs/, util/, exp/)"},
      {"ptr-order",
       "no std::{map,set,multimap,multiset}/std::less keyed by raw pointer "
       "values anywhere in src/"},
      {"raw-thread",
       "no std::thread/mutex/atomic/condition_variable outside runtime/, "
       "exp/, obs/, util/dcheck.*"},
      {"std-function-hotpath",
       "no std::function in runtime/, queueing/, core/ headers — use "
       "ilu::Task"},
      {"const-ref-capture",
       "no by-reference lambda captures that escape the scope — returned, "
       "passed to schedule/post/send/defer, or stored via "
       "push_back/emplace(_back) — outside exp/"},
      {"lock-order",
       "no two locks acquired in both orders anywhere in src/ (cycle "
       "detection over the whole-repo lock acquisition graph, through "
       "calls); findings print both witness paths"},
      {"atomics-discipline",
       "std::atomic loads/stores/RMWs only inside the concurrency zone "
       "(runtime/, obs/flight.*, util/dcheck.*) or in files declaring a "
       "`// ilu-lint: atomics-floor(<order>[: var,...]) - <reason>` pragma; "
       "explicit memory_order arguments below the declared floor are "
       "findings"},
      {"blocking-under-lock",
       "no allocation (new/make_unique/make_shared), container growth, "
       "or I/O while a lock is held; exempt obs/, exp/, util/ (locks "
       "there exist to serialize that work)"},
      {"include-layering",
       "project includes must follow util → common → obs/metrics → "
       "trace/runtime → containers/keepalive/queueing → core/lb/baseline "
       "→ exp; back-edges and include cycles are findings"},
      {"test-only-api",
       "every public function declared in a src/ header is named by code "
       "outside tests/ (src/, bench/, examples/, tools/, perfbench/); "
       "--root tree mode only, since --src and --file cannot see callers"},
  };
  return kChecks;
}

namespace {

/// The six per-file token checks.
void run_per_file_checks(const LexResult& lr, const FileInput& in,
                         std::vector<Finding>& raw) {
  const Tokens& ts = lr.tokens;
  NameSet unordered_vars;
  collect_unordered_decls(ts, unordered_vars);
  if (!in.paired_header.empty()) {
    LexResult paired = lex(in.paired_header);
    collect_unordered_decls(paired.tokens, unordered_vars);
  }
  check_wall_clock(ts, in.rel_path, raw);
  check_unordered_iter(ts, in.rel_path, unordered_vars, raw);
  check_ptr_order(ts, in.rel_path, raw);
  check_raw_thread(ts, in.rel_path, raw);
  check_std_function_hotpath(ts, in.rel_path, raw);
  check_const_ref_capture(ts, in.rel_path, raw);
}

}  // namespace

std::vector<Finding> lint_inputs(const std::vector<FileInput>& ins,
                                 const std::vector<FileInput>* callers) {
  std::vector<Finding> out;  // malformed directives: unsuppressible
  std::vector<Finding> raw;
  std::vector<FileModel> models;
  std::map<std::string, std::vector<Suppression>> sups_by_path;
  models.reserve(ins.size());
  for (const FileInput& in : ins) {
    LexResult lr = lex(in.content);
    run_per_file_checks(lr, in, raw);
    std::vector<Suppression> sups;
    std::vector<FloorPragma> floors;
    for (const Comment& c : lr.comments) {
      parse_directive(c, in.rel_path, sups, floors, out);
    }
    FileModel fm = extract_file(in, lr, out);
    fm.floors = std::move(floors);
    fm.suppressions = sups;
    sups_by_path[in.rel_path] = std::move(sups);
    models.push_back(std::move(fm));
  }

  RepoModel model = build_repo_model(std::move(models));
  run_cross_checks(model, raw);
  if (callers != nullptr) {
    std::vector<FileModel> caller_models;
    caller_models.reserve(callers->size());
    std::vector<Finding> sink;  // their directives govern nothing here
    for (const FileInput& in : *callers) {
      caller_models.push_back(extract_file(in, lex(in.content), sink));
    }
    check_test_only_api(model, caller_models, raw);
  }

  for (Finding& f : raw) {
    bool suppressed = false;
    auto it = sups_by_path.find(f.path);
    if (it != sups_by_path.end()) {
      for (const Suppression& s : it->second) {
        if (s.applies_to_line == f.line && s.checks.count(f.check) > 0) {
          suppressed = true;
          break;
        }
      }
    }
    if (!suppressed) out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.check < b.check;
  });
  return out;
}

std::vector<Finding> lint_file(const FileInput& in) {
  return lint_inputs({in});
}

namespace {

namespace fs = std::filesystem;

/// Every C++ source under `dir`, sorted by path.
std::vector<fs::path> source_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    fs::path p = e.path();
    if (p.extension() == ".hpp" || p.extension() == ".cpp" ||
        p.extension() == ".h" || p.extension() == ".cc") {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

std::vector<FileInput> load_tree(const std::string& src_root) {
  std::vector<FileInput> out;
  for (const fs::path& p : source_files(src_root)) {
    FileInput in;
    in.rel_path = p.lexically_relative(src_root).generic_string();
    in.content = slurp(p);
    if (p.extension() == ".cpp" || p.extension() == ".cc") {
      fs::path header = p;
      header.replace_extension(".hpp");
      if (fs::exists(header)) in.paired_header = slurp(header);
    }
    out.push_back(std::move(in));
  }
  return out;
}

std::vector<FileInput> load_callers(const std::string& root) {
  std::vector<FileInput> out;
  for (const char* dir : {"bench", "examples", "perfbench", "tests", "tools"}) {
    if (!fs::is_directory(fs::path(root) / dir)) continue;
    for (const fs::path& p : source_files(fs::path(root) / dir)) {
      out.push_back({p.lexically_relative(root).generic_string(), slurp(p),
                     {}});
    }
  }
  return out;
}

std::vector<Finding> lint_tree(const std::string& src_root,
                               std::size_t* files_scanned) {
  std::vector<FileInput> ins = load_tree(src_root);
  if (files_scanned != nullptr) *files_scanned = ins.size();
  return lint_inputs(ins);
}

std::string lock_order_dot(const std::vector<FileInput>& ins) {
  std::vector<FileModel> models;
  std::vector<Finding> sink;
  models.reserve(ins.size());
  for (const FileInput& in : ins) {
    LexResult lr = lex(in.content);
    models.push_back(extract_file(in, lr, sink));
  }
  RepoModel model = build_repo_model(std::move(models));
  Digraph g = build_lock_graph(model, nullptr);
  return g.dot("ilu-lock-order");
}

}  // namespace ilu::lint
