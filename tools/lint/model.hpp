#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.hpp"
#include "lint/support.hpp"

/// The repo model: per-file facts extracted from the token stream (pass 1)
/// and stitched into whole-repo structures (pass 2) for the cross-TU checks
/// in cross_checks.cpp. Still not a compiler — extraction is shape-driven
/// over tokens, resolution is name-driven over the whole file set — but the
/// shapes are exactly the ones this codebase uses, and every ambiguity
/// resolves deterministically (sorted containers, first-witness-wins).
namespace ilu::lint {

/// One atomic load/store/RMW site. `orders` lists the explicit
/// memory_order arguments at the site (empty means implicit seq_cst).
struct AtomicOp {
  int line = 0;
  std::string var;     // receiver variable/member name ("" when unresolved)
  std::string method;  // load/store/fetch_add/..., or "=", "++", "--", "op="
  std::vector<std::pair<std::string, int>> orders;  // (name, order_rank)
};

/// A call made inside a function body. `receiver_type` is the statically
/// resolved class of `x` in `x.f()` / `x->f()` / `T::f()` when local or
/// member declarations reveal it; "" when unknown (then call resolution
/// falls back to matching every function with that bare name).
struct CallSite {
  std::size_t tok = 0;  // token index, for held-range attribution
  int line = 0;
  std::string callee;
  std::string receiver_type;
  /// The receiver variable of `x.f()` / `x->f()` ("" for `this->f()` and
  /// `T::f()`); when it names a member declared in another file (the
  /// class's header), pass 2 resolves receiver_type through it.
  std::string receiver_var;
  /// True for method-style calls (`x.f()`, `x->f()`, `T::f()`). A true
  /// flag with empty receiver_type means the receiver could not be
  /// resolved — such calls only match a repo-unique bare name (guessing
  /// across every class named `snapshot`/`count`/`merge` drowns the lock
  /// graph in false cycles).
  bool has_receiver = false;
};

/// A lexically-detectable blocking operation (allocation, container growth,
/// I/O) inside a function body.
struct BlockingOp {
  std::size_t tok = 0;
  int line = 0;
  std::string kind;  // "allocation" | "container-growth" | "io"
  std::string what;  // the operator or callee, e.g. "new", "push_back"
};

/// A lock acquisition: a lock_guard/unique_lock/scoped_lock/shared_lock
/// declaration or a raw `.lock()` call. The token range [tok_begin, tok_end)
/// spans the region the lock is held over (to the end of the enclosing
/// block, or to the matching `.unlock()`).
struct LockSite {
  int line = 0;
  std::size_t tok_begin = 0, tok_end = 0;
  std::string member;           // final member name, e.g. "mu", "g_out_mutex"
  std::string base_expr;        // receiver text, e.g. "s" ("" when plain)
  std::string base_type;        // resolved receiver class ("" when unknown)
  std::string enclosing_class;  // class of the enclosing method ("" if free)
  std::string enclosing_fn;     // bare name of the enclosing function
  std::string lock;             // canonical id, filled by build_repo_model
};

/// A function (or method) definition with the facts the cross checks need.
struct FunctionModel {
  std::string name;  // bare name
  std::string qual;  // "Class::name" when the class is known, else name
  std::string cls;   // declaring class ("" for free functions)
  int line = 0;
  std::size_t name_tok = 0;                // token index of `name`
  std::size_t tok_begin = 0, tok_end = 0;  // body token range
  std::vector<CallSite> calls;
  std::vector<BlockingOp> blocking;
  std::vector<LockSite> locks;
  /// Function-local lock declarations: name -> canonical id
  /// ("<rel>::<fn>::<name>"), consulted before member resolution.
  std::map<std::string, std::string> local_locks;
};

/// A function declared at class or namespace scope (outside any function
/// body), with or without a body. Constructors, destructors and operators
/// are not recorded.
struct FnDecl {
  std::string name;
  std::string cls;  // declaring class ("" at namespace scope)
  int line = 0;
  std::size_t tok = 0;  // token index of `name`
  /// Reachable from outside the class: declared at namespace scope, or in a
  /// public section of a class that is itself publicly reachable.
  bool is_public = false;
};

/// A mutex/SpinLock declaration at class or namespace scope.
struct LockDecl {
  std::string cls;   // declaring class; "" for file (namespace) scope
  std::string name;
  std::string type;  // mutex / recursive_mutex / SpinLock / ...
  int line = 0;
};

/// Per-file facts (pass 1).
struct FileModel {
  std::string rel_path;
  std::vector<std::pair<std::string, int>> includes;  // quoted includes
  std::vector<LockDecl> lock_decls;
  /// Class data members with a project-class type (`TimerWheel wheel_;`),
  /// for receiver-type resolution: class -> member -> type.
  std::map<std::string, std::map<std::string, std::string>> member_types;
  std::set<std::string> atomic_names;  // names declared std::atomic here
  std::vector<AtomicOp> atomic_ops;
  std::vector<FloorPragma> floors;
  std::vector<FunctionModel> functions;
  std::vector<FnDecl> fn_decls;
  /// Every identifier this file names, except where a function is being
  /// declared (fn_decls) or defined (functions): the uses test-only-api
  /// counts.
  std::set<std::string> used_names;
  std::vector<Suppression> suppressions;
};

/// The stitched whole-repo model (pass 2).
struct RepoModel {
  std::vector<FileModel> files;  // sorted by rel_path
  /// member lock name -> declaring classes, across the whole repo.
  std::map<std::string, std::set<std::string>> lock_member_classes;
  /// member lock name -> files declaring it at namespace scope.
  std::map<std::string, std::set<std::string>> lock_file_scope;
  /// All class names the model knows (declares members or methods of).
  std::set<std::string> known_classes;
  /// rel_path -> index into files, for include resolution.
  std::map<std::string, std::size_t> by_path;
};

/// Pass 1: extract one file's facts from its token stream. Malformed
/// directives are appended to `diags` as `lint-suppression` findings.
FileModel extract_file(const FileInput& in, const LexResult& lr,
                       std::vector<Finding>& diags);

/// Pass 2: stitch extracted files into a RepoModel — canonicalize lock
/// identities, resolve include-visible atomics (ops whose receiver is not
/// a visible atomic and that carry no explicit memory_order are dropped),
/// and index classes. `files` is consumed.
RepoModel build_repo_model(std::vector<FileModel> files);

}  // namespace ilu::lint
