#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lint/graph.hpp"
#include "lint/lint.hpp"
#include "lint/model.hpp"

/// The whole-repo checks run over a RepoModel: lock-order,
/// atomics-discipline, blocking-under-lock, include-layering, and (tree
/// mode only) test-only-api. See
/// cross_checks.cpp for the rules and DESIGN.md §15 for the rationale.
namespace ilu::lint {

/// Witness for one lock-graph edge A -> B: where B was acquired while A was
/// held, and the human-readable chain.
struct LockEdge {
  std::string file;
  int line = 0;
  std::string text;
};

/// Build the lock acquisition graph (nodes: canonical lock ids; edge A -> B:
/// somewhere B is acquired — directly or through calls — while A is held).
/// `edges`, when non-null, receives the witness per edge.
Digraph build_lock_graph(
    const RepoModel& m,
    std::map<std::pair<std::string, std::string>, LockEdge>* edges);

/// Run the four cross-TU checks that need no callers, appending findings
/// to `out`.
void run_cross_checks(const RepoModel& m, std::vector<Finding>& out);

/// test-only-api: every public function declared in a src/ header that no
/// identifier outside tests/ names. `callers` are the files outside src/
/// (root-relative paths; those under tests/ only word the message). Bare
/// names match, so overloads and same-named functions share fate.
void check_test_only_api(const RepoModel& m,
                         const std::vector<FileModel>& callers,
                         std::vector<Finding>& out);

}  // namespace ilu::lint
