#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// ilu-lint: repo-specific determinism & concurrency static analysis.
///
/// The simulation's contract — a fixed seed produces a byte-identical
/// ExperimentReport at any thread/shard count — holds only because sim code
/// obeys rules that no compiler enforces: no ambient wall clock or entropy,
/// no order-escaping iteration over unordered containers, no ordering keyed
/// on raw pointer values, threads confined to the runtime/experiment layers,
/// and `ilu::Task` instead of `std::function` on the event hot paths. Those
/// rules lived in DESIGN.md prose; ilu-lint turns them into named,
/// machine-checked findings over the token stream (see lexer.hpp).
///
/// Checks (scopes are path prefixes relative to src/):
///   wall-clock            std::chrono::*_clock::now(), time()/gettimeofday/
///                         localtime/gmtime/mktime, std::random_device,
///                         rand()/srand() anywhere except util/rng.*,
///                         runtime/real_runtime.*, exp/sweep.cpp, obs/.
///   unordered-iter        range-for or .begin()/.cbegin()/.rbegin() over a
///                         variable declared std::unordered_{map,set,
///                         multimap,multiset} (including via local `using`
///                         aliases and the paired header of a .cpp file), in
///                         sim-reachable code (everything except obs/,
///                         util/, exp/).
///   ptr-order             std::{map,set,multimap,multiset} or std::less
///                         keyed on a raw pointer type, anywhere in src/.
///   raw-thread            std::thread/jthread/mutex/condition_variable/
///                         atomic/future/promise/async outside runtime/,
///                         exp/, obs/, util/dcheck.*.
///   std-function-hotpath  std::function in runtime/, queueing/, or core/
///                         headers — use ilu::Task (runtime/task.hpp).
///   const-ref-capture     lambdas with by-reference captures that escape
///                         the scope that owns the captured locals: returned,
///                         passed to a deferring callee (schedule,
///                         schedule_at, post, send, defer), or stored via
///                         push_back/emplace_back/emplace/push. Exempt:
///                         exp/ (the sweep machinery joins its ref-capturing
///                         jobs before the scope exits, by design).
///
/// Whole-repo checks (cross-TU; run over every staged file at once, so
/// `--file` mode sees only single-TU facts while `--root` sees the full
/// lock/include/call graph — see model.hpp and cross_checks.cpp):
///   lock-order            two locks acquired in both orders anywhere in
///                         src/, through calls; both witness paths printed.
///   atomics-discipline    atomic ops confined to runtime/, obs/flight.*,
///                         util/dcheck.*, or files with an atomics-floor
///                         pragma; explicit memory_order below the floor.
///   blocking-under-lock   allocation / container growth / I/O while a
///                         lock is held (exempt obs/, exp/, util/).
///   include-layering      project includes must follow the layer DAG
///                         util → common → obs/metrics → trace/runtime →
///                         containers/keepalive/queueing → core/lb/baseline
///                         → exp; back-edges and cycles are findings.
///   test-only-api         a public function (member, static member or
///                         namespace-scope; not a constructor, destructor or
///                         operator) declared in a src/ header that no
///                         identifier token outside tests/ names — in src/,
///                         bench/, examples/, tools/ or perfbench/, its own
///                         declaration and definition excluded. Bare names
///                         match, so overloads share fate. Runs only when
///                         the callers are loaded (`--root` tree mode).
///
/// Suppression: a finding on line L is suppressed by a comment on L (or a
/// comment-only line immediately above) of the form
///     // ilu-lint: allow(check-name[,check2]) - reason text
/// The reason is mandatory; an allow() without one (or naming an unknown
/// check) is itself reported under the reserved name `lint-suppression`,
/// which cannot be suppressed.
///
/// Atomics floor: a file owning atomics declares its minimum memory order
/// once, at the top:
///     // ilu-lint: atomics-floor(seq_cst: sleeping_) - Dekker handshake
///     // ilu-lint: atomics-floor(relaxed) - stats counters, monotone
/// `atomics-floor(ORDER)` sets the file default; `atomics-floor(ORDER:
/// var1, var2)` sets per-variable floors that override the default.
/// Explicit memory_order arguments weaker than the applicable floor are
/// findings; implicit ops are seq_cst and always pass. Outside the
/// concurrency zone, a pragma converts the file from blanket-banned to
/// floor-checked.
namespace ilu::lint {

struct Finding {
  std::string path;  // as passed in (tree walks use paths relative to root)
  int line = 0;
  std::string check;
  std::string message;
};

struct CheckInfo {
  const char* name;
  const char* description;
};

/// Catalogue of all checks, in reporting order.
const std::vector<CheckInfo>& checks();

struct FileInput {
  /// Path relative to src/ (decides scopes and allowlists), e.g.
  /// "core/worker.hpp". Used verbatim in findings.
  std::string rel_path;
  std::string content;
  /// Content of the same-stem header for a .cpp file ("" when none):
  /// member declarations live there, so unordered-iter resolves through it.
  std::string paired_header;
};

/// Lint a set of files together: per-file checks on each, then the four
/// cross-TU checks over the whole set (the lock graph, atomic visibility
/// and include graph span exactly these inputs), then test-only-api when
/// `callers` (the files outside src/, see load_callers) is given. Returns
/// unsuppressed findings plus any malformed directives, sorted by (path,
/// line, check).
std::vector<Finding> lint_inputs(const std::vector<FileInput>& ins,
                                 const std::vector<FileInput>* callers =
                                     nullptr);

/// Lint one file alone — `lint_inputs({in})`. Cross-TU checks degrade
/// gracefully to the facts visible in this single TU.
std::vector<Finding> lint_file(const FileInput& in);

/// Load every .hpp/.cpp under `src_root` as FileInputs with paths relative
/// to `src_root`, sorted by path, with paired headers attached.
std::vector<FileInput> load_tree(const std::string& src_root);

/// Load every .hpp/.cpp under `<root>/{bench,examples,perfbench,tests,
/// tools}` with paths relative to `root`: the code that may call into src/.
std::vector<FileInput> load_callers(const std::string& root);

/// Recursively lint every .hpp/.cpp under `src_root`. Findings carry paths
/// relative to `src_root` and are sorted by (path, line). `files_scanned`
/// (optional) receives the number of files visited.
std::vector<Finding> lint_tree(const std::string& src_root,
                               std::size_t* files_scanned = nullptr);

/// Render the whole-repo lock acquisition graph as deterministic Graphviz
/// (the committed tools/lint/lock_order.dot artifact; see DESIGN.md §15).
std::string lock_order_dot(const std::vector<FileInput>& ins);

}  // namespace ilu::lint
