// Tests for ilu-lint (tools/lint): every check must fire on its fixture,
// honor a reasoned allow() suppression, respect its path allowlist, and the
// real tree must lint clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/lint.hpp"

namespace {

using ilu::lint::Finding;
using ilu::lint::lint_file;
using ilu::lint::lint_tree;

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(ILU_LINT_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Lint fixture `name` as if it lived at `rel_path` under src/.
std::vector<Finding> lint_fixture_at(const std::string& name,
                                     const std::string& rel_path) {
  ilu::lint::FileInput in;
  in.rel_path = rel_path;
  in.content = read_fixture(name);
  return lint_file(in);
}

std::set<std::string> check_names(const std::vector<Finding>& fs) {
  std::set<std::string> out;
  for (const auto& f : fs) out.insert(f.check);
  return out;
}

int count_check(const std::vector<Finding>& fs, const std::string& check) {
  return static_cast<int>(std::count_if(
      fs.begin(), fs.end(),
      [&](const Finding& f) { return f.check == check; }));
}

TEST(IluLint, CatalogueListsAllChecks) {
  std::set<std::string> names;
  for (const auto& c : ilu::lint::checks()) names.insert(c.name);
  EXPECT_EQ(names, (std::set<std::string>{
                       "wall-clock", "unordered-iter", "ptr-order",
                       "raw-thread", "std-function-hotpath",
                       "const-ref-capture", "lock-order",
                       "atomics-discipline", "blocking-under-lock",
                       "include-layering", "test-only-api"}));
}

// ---- wall-clock ----------------------------------------------------------

TEST(IluLint, WallClockFires) {
  auto fs = lint_fixture_at("wall_clock.cpp", "core/fixture.cpp");
  EXPECT_EQ(count_check(fs, "wall-clock"), 4) << "clock::now x2, random_device, time()";
  EXPECT_EQ(check_names(fs), std::set<std::string>{"wall-clock"});
}

TEST(IluLint, WallClockSuppressed) {
  auto fs = lint_fixture_at("wall_clock_suppressed.cpp", "core/fixture.cpp");
  EXPECT_TRUE(fs.empty()) << fs.size() << " unsuppressed finding(s)";
}

TEST(IluLint, WallClockAllowlistedPaths) {
  // The real-time runtime, the RNG seed helper, the sweep driver, and the
  // observability layer legitimately read the wall clock.
  for (const char* path :
       {"runtime/real_runtime.cpp", "util/rng.cpp", "exp/sweep.cpp",
        "obs/metrics.cpp"}) {
    auto fs = lint_fixture_at("wall_clock.cpp", path);
    EXPECT_EQ(count_check(fs, "wall-clock"), 0) << "at " << path;
  }
}

TEST(IluLint, WallClockAnnotatedAllowTierStillFires) {
  // exp/live_load.* is NOT a blanket allowlist: unannotated wall-clock reads
  // still fire, and the message directs the author to the per-site
  // reasoned-annotation policy instead of the blanket ban.
  auto fs = lint_fixture_at("wall_clock.cpp", "exp/live_load.cpp");
  EXPECT_EQ(count_check(fs, "wall-clock"), 4);
  for (const auto& f : fs) {
    EXPECT_NE(f.message.find("annotated-allow tier"), std::string::npos)
        << f.message;
  }
}

TEST(IluLint, WallClockAnnotatedAllowTierCleanWhenAnnotated) {
  // With a reasoned allow(wall-clock) on every site, the tier lints clean —
  // exactly how the real harness' completion watchdog is written.
  auto fs =
      lint_fixture_at("wall_clock_live_harness.cpp", "exp/live_load.cpp");
  EXPECT_TRUE(fs.empty()) << fs.size() << " unsuppressed finding(s)";
}

TEST(IluLint, WallClockAnnotatedTierOutsideItIsUnaffected) {
  // The same annotated fixture at a banned path still lints clean (generic
  // suppression), and the tier suffix never leaks into ordinary findings.
  auto clean = lint_fixture_at("wall_clock_live_harness.cpp",
                               "core/fixture.cpp");
  EXPECT_TRUE(clean.empty());
  auto fs = lint_fixture_at("wall_clock.cpp", "core/fixture.cpp");
  for (const auto& f : fs) {
    EXPECT_EQ(f.message.find("annotated-allow tier"), std::string::npos)
        << f.message;
  }
}

// ---- unordered-iter ------------------------------------------------------

TEST(IluLint, UnorderedIterFires) {
  auto fs = lint_fixture_at("unordered_iter.cpp", "core/fixture.cpp");
  EXPECT_EQ(count_check(fs, "unordered-iter"), 3)
      << "two range-fors plus one .begin() loop";
}

TEST(IluLint, UnorderedIterSuppressed) {
  auto fs =
      lint_fixture_at("unordered_iter_suppressed.cpp", "core/fixture.cpp");
  EXPECT_TRUE(fs.empty());
}

TEST(IluLint, UnorderedIterAllowlistedPaths) {
  // Outside sim-reachable code (obs/, util/, exp/) iteration order feeds
  // only diagnostics, so the check stays quiet.
  for (const char* path :
       {"obs/fixture.cpp", "util/fixture.cpp", "exp/fixture.cpp"}) {
    auto fs = lint_fixture_at("unordered_iter.cpp", path);
    EXPECT_EQ(count_check(fs, "unordered-iter"), 0) << "at " << path;
  }
}

TEST(IluLint, UnorderedIterResolvesThroughPairedHeader) {
  ilu::lint::FileInput in;
  in.rel_path = "core/member.cpp";
  in.paired_header =
      "#include <unordered_map>\n"
      "class C {\n"
      "  std::unordered_map<int, int> by_id_;\n"
      "};\n";
  in.content =
      "#include \"core/member.hpp\"\n"
      "int C_sum(C& c) {\n"
      "  int s = 0;\n"
      "  for (auto& kv : by_id_) s += kv.second;\n"
      "  return s;\n"
      "}\n";
  auto fs = lint_file(in);
  EXPECT_EQ(count_check(fs, "unordered-iter"), 1)
      << "member declared in the paired header must still resolve";
}

// ---- ptr-order -----------------------------------------------------------

TEST(IluLint, PtrOrderFires) {
  auto fs = lint_fixture_at("ptr_order.cpp", "core/fixture.cpp");
  EXPECT_EQ(count_check(fs, "ptr-order"), 3)
      << "set<Node*>, map<const Node*,..>, multiset<int*> — value-typed "
         "containers stay clean";
}

TEST(IluLint, PtrOrderSuppressed) {
  auto fs = lint_fixture_at("ptr_order_suppressed.cpp", "core/fixture.cpp");
  EXPECT_TRUE(fs.empty());
}

TEST(IluLint, PtrOrderHasNoAllowlistedPaths) {
  // Pointer-keyed ordering is nondeterministic wherever it appears.
  auto fs = lint_fixture_at("ptr_order.cpp", "obs/fixture.cpp");
  EXPECT_EQ(count_check(fs, "ptr-order"), 3);
}

// ---- raw-thread ----------------------------------------------------------

TEST(IluLint, RawThreadFires) {
  auto fs = lint_fixture_at("raw_thread.cpp", "core/fixture.cpp");
  EXPECT_GE(count_check(fs, "raw-thread"), 3)
      << "atomic, mutex, thread (and the lock_guard's mutex argument)";
}

TEST(IluLint, RawThreadSuppressed) {
  auto fs = lint_fixture_at("raw_thread_suppressed.cpp", "core/fixture.cpp");
  EXPECT_TRUE(fs.empty());
}

TEST(IluLint, RawThreadAllowlistedPaths) {
  for (const char* path :
       {"runtime/sharded_runtime.cpp", "exp/sweep.cpp", "obs/flight.cpp",
        "util/dcheck.hpp"}) {
    auto fs = lint_fixture_at("raw_thread.cpp", path);
    EXPECT_EQ(count_check(fs, "raw-thread"), 0) << "at " << path;
  }
}

// ---- std-function-hotpath ------------------------------------------------

TEST(IluLint, StdFunctionHotpathFires) {
  for (const char* path : {"runtime/fixture.hpp", "queueing/fixture.hpp",
                           "core/fixture.hpp"}) {
    auto fs = lint_fixture_at("std_function_hotpath.hpp", path);
    EXPECT_EQ(count_check(fs, "std-function-hotpath"), 2) << "at " << path;
  }
}

TEST(IluLint, StdFunctionHotpathSuppressed) {
  auto fs = lint_fixture_at("std_function_hotpath_suppressed.hpp",
                            "core/fixture.hpp");
  EXPECT_TRUE(fs.empty());
}

TEST(IluLint, StdFunctionHotpathScopedToHotHeaders) {
  // Non-hot-path headers and .cpp files may use std::function freely.
  for (const char* path : {"exp/fixture.hpp", "obs/fixture.hpp",
                           "util/fixture.hpp", "core/fixture.cpp"}) {
    auto fs = lint_fixture_at("std_function_hotpath.hpp", path);
    EXPECT_EQ(count_check(fs, "std-function-hotpath"), 0) << "at " << path;
  }
}

// ---- const-ref-capture ---------------------------------------------------

TEST(IluLint, ConstRefCaptureFires) {
  auto fs = lint_fixture_at("const_ref_capture.cpp", "core/fixture.cpp");
  EXPECT_EQ(count_check(fs, "const-ref-capture"), 5)
      << "one returned, two deferred, two stored; value captures, "
         "address-of init-captures, std::sort callbacks, and IIFEs stay "
         "clean";
  EXPECT_EQ(check_names(fs), std::set<std::string>{"const-ref-capture"});
}

TEST(IluLint, ConstRefCaptureSuppressed) {
  auto fs = lint_fixture_at("const_ref_capture_suppressed.cpp",
                            "core/fixture.cpp");
  EXPECT_TRUE(fs.empty());
}

TEST(IluLint, ConstRefCaptureExemptsSweepMachinery) {
  // exp/ fans ref-capturing jobs into worker threads and joins them before
  // the scope exits, by design.
  auto fs = lint_fixture_at("const_ref_capture.cpp", "exp/fixture.cpp");
  EXPECT_EQ(count_check(fs, "const-ref-capture"), 0);
}

// ---- suppression grammar -------------------------------------------------

TEST(IluLint, MalformedSuppressionIsItselfAFinding) {
  auto fs = lint_fixture_at("bad_suppression.cpp", "core/fixture.cpp");
  // Two malformed allow() comments + the wall-clock finding the first one
  // failed to suppress (the second precedes a line whose finding it would
  // not have matched anyway).
  EXPECT_EQ(count_check(fs, "lint-suppression"), 2);
  EXPECT_GE(count_check(fs, "wall-clock"), 1)
      << "a malformed allow() must not suppress";
}

// ---- lexer regressions ---------------------------------------------------

TEST(IluLint, LexerDigitSeparatorsAreOneNumber) {
  auto lr = ilu::lint::lex("int x = 1'024 + 0xff'00;");
  int numbers = 0;
  for (const auto& t : lr.tokens) {
    if (t.kind == ilu::lint::Tok::Number) ++numbers;
    EXPECT_NE(t.kind, ilu::lint::Tok::CharLit)
        << "digit separator mis-lexed as char literal: " << t.text;
  }
  EXPECT_EQ(numbers, 2);
}

TEST(IluLint, LexerRawStringsAreOpaque) {
  auto lr = ilu::lint::lex(
      "const char* s = R\"(std::chrono::steady_clock::now())\";\n"
      "int after = 1;\n");
  for (const auto& t : lr.tokens) {
    EXPECT_NE(t.text, "chrono") << "raw string contents leaked as tokens";
  }
  // `after` must still be seen, on the right line.
  bool saw_after = false;
  for (const auto& t : lr.tokens) {
    if (t.text == "after") {
      saw_after = true;
      EXPECT_EQ(t.line, 2);
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(IluLint, LexerRawStringInsideDirectiveDoesNotLeak) {
  auto lr = ilu::lint::lex(
      "#define SQL R\"(select \"x\" from t)\"\n"
      "int live = 3;\n");
  for (const auto& t : lr.tokens) {
    EXPECT_NE(t.text, "select") << "directive raw string leaked";
    EXPECT_NE(t.text, "from") << "directive raw string leaked";
  }
  ASSERT_EQ(lr.tokens.size(), 5u);  // int live = 3 ;
  EXPECT_EQ(lr.tokens[1].text, "live");
  EXPECT_EQ(lr.tokens[1].line, 2);
}

TEST(IluLint, LexerSplicedStringKeepsLineNumbers) {
  auto lr = ilu::lint::lex(
      "const char* s = \"a\\\n"
      "b\";\n"
      "int third = 1;\n");
  for (const auto& t : lr.tokens) {
    if (t.text == "third") {
      EXPECT_EQ(t.line, 3);
    }
  }
}

// ---- cross-TU fixture trees ----------------------------------------------

/// Load `names` out of tests/lint_fixtures/<tree>/, lint them as one batch.
std::vector<Finding> lint_tree_fixture(const std::string& tree,
                                       const std::vector<std::string>& names) {
  std::vector<ilu::lint::FileInput> ins;
  for (const auto& n : names) {
    ilu::lint::FileInput in;
    in.rel_path = n;
    in.content = read_fixture(tree + "/" + n);
    ins.push_back(std::move(in));
  }
  return ilu::lint::lint_inputs(ins);
}

TEST(IluLint, LockOrderCycleAcrossTwoTUs) {
  const std::vector<std::string> files = {"runtime/alpha.cpp",
                                          "runtime/beta.cpp"};
  auto fs = lint_tree_fixture("tree_lock_cycle", files);
  ASSERT_EQ(count_check(fs, "lock-order"), 1) << "one inversion, one finding";
  const Finding& f = fs.front();
  EXPECT_EQ(f.check, "lock-order");
  // Both witness paths are printed, naming each acquisition site.
  EXPECT_NE(f.message.find("runtime/alpha.cpp::g_alpha_mu"),
            std::string::npos);
  EXPECT_NE(f.message.find("runtime/beta.cpp::g_beta_mu"),
            std::string::npos);
  EXPECT_NE(f.message.find("beta_leaf"), std::string::npos);
  EXPECT_NE(f.message.find("alpha_leaf"), std::string::npos);
  // Deterministic: same inputs, byte-identical output — in both orders.
  auto again = lint_tree_fixture("tree_lock_cycle", files);
  ASSERT_EQ(again.size(), fs.size());
  EXPECT_EQ(again.front().message, f.message);
  EXPECT_EQ(again.front().path, f.path);
  EXPECT_EQ(again.front().line, f.line);
  auto reversed = lint_tree_fixture(
      "tree_lock_cycle", {"runtime/beta.cpp", "runtime/alpha.cpp"});
  ASSERT_EQ(reversed.size(), fs.size());
  EXPECT_EQ(reversed.front().message, f.message)
      << "witness must not depend on input order";
}

TEST(IluLint, LockOrderSingleTUSeesNoCycle) {
  // --file-mode degradation: either TU alone holds only one order.
  for (const char* one : {"runtime/alpha.cpp", "runtime/beta.cpp"}) {
    auto fs = lint_tree_fixture("tree_lock_cycle", {one});
    EXPECT_EQ(count_check(fs, "lock-order"), 0) << one;
  }
}

TEST(IluLint, WeakPtrLockIsNotAMutexAcquisition) {
  // Read as a mutex, peer_.lock() would order peer_ and mu_ both ways.
  ilu::lint::FileInput in;
  in.rel_path = "runtime/fixture.cpp";
  in.content =
      "struct S {\n"
      "  std::mutex mu_;\n"
      "  std::weak_ptr<S> peer_;\n"
      "  void a() {\n"
      "    std::lock_guard<std::mutex> g(mu_);\n"
      "    if (auto p = peer_.lock()) p->poke();\n"
      "  }\n"
      "  void b() {\n"
      "    auto p = peer_.lock();\n"
      "    std::lock_guard<std::mutex> g(mu_);\n"
      "  }\n"
      "};\n";
  EXPECT_EQ(count_check(lint_file(in), "lock-order"), 0);
}

TEST(IluLint, LayeringBackEdgeAndCycle) {
  auto fs = lint_tree_fixture(
      "tree_layering",
      {"util/helper.hpp", "core/engine.hpp", "core/other.hpp"});
  ASSERT_EQ(count_check(fs, "include-layering"), 2);
  // Sorted by path: the core/ include cycle first, then the util/ back-edge.
  EXPECT_EQ(fs[0].path, "core/engine.hpp");
  EXPECT_NE(fs[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(fs[0].message.find("core/engine.hpp"), std::string::npos);
  EXPECT_NE(fs[0].message.find("core/other.hpp"), std::string::npos);
  EXPECT_EQ(fs[1].path, "util/helper.hpp");
  EXPECT_EQ(fs[1].line, 5);
  EXPECT_NE(fs[1].message.find("back-edge"), std::string::npos);
}

TEST(IluLint, AtomicsFloorViolationAndMissingFloor) {
  auto fs = lint_tree_fixture(
      "tree_atomics_floor", {"runtime/counter.hpp", "runtime/nofloor.hpp"});
  ASSERT_EQ(count_check(fs, "atomics-discipline"), 2);
  EXPECT_EQ(fs[0].path, "runtime/counter.hpp");
  EXPECT_EQ(fs[0].line, 14);
  EXPECT_NE(fs[0].message.find("memory_order_relaxed"), std::string::npos);
  EXPECT_NE(fs[0].message.find("below this file's declared atomics floor"),
            std::string::npos);
  EXPECT_EQ(fs[1].path, "runtime/nofloor.hpp");
  EXPECT_NE(fs[1].message.find("declares no ordering floor"),
            std::string::npos);
}

TEST(IluLint, AtomicsImplicitOpsPassTheFloor) {
  // Implicit operations are seq_cst — never below any floor. The acquire
  // load in counter.hpp also passes its own floor.
  ilu::lint::FileInput in;
  in.rel_path = "runtime/fixture.hpp";
  in.content =
      "// ilu-lint: atomics-floor(seq_cst) - fixture\n"
      "#include <atomic>\n"
      "std::atomic<int> g_n{0};\n"
      "int f() { return g_n.fetch_add(1) + g_n.load(); }\n";
  EXPECT_TRUE(lint_file(in).empty());
}

TEST(IluLint, AtomicsOutsideZoneWithoutPragmaFires) {
  ilu::lint::FileInput in;
  in.rel_path = "core/fixture.cpp";
  in.content =
      "#include <atomic>\n"
      "std::atomic<int> g_n{0};\n"
      "int f() { return g_n.load(); }\n";
  auto fs = lint_file(in);
  EXPECT_EQ(count_check(fs, "atomics-discipline"), 1);
  for (const auto& f : fs) {
    if (f.check != "atomics-discipline") continue;
    EXPECT_NE(f.message.find("outside the concurrency zone"),
              std::string::npos);
  }
}

TEST(IluLint, BlockingUnderLockFires) {
  auto fs = lint_tree_fixture("tree_alloc_under_lock", {"runtime/pool.cpp"});
  ASSERT_EQ(count_check(fs, "blocking-under-lock"), 1);
  const Finding& f = fs.front();
  EXPECT_EQ(f.line, 8);
  EXPECT_NE(f.message.find("push_back"), std::string::npos);
  EXPECT_NE(f.message.find("Pool::mu_"), std::string::npos);
}

TEST(IluLint, BlockingUnderLockHonorsSuppression) {
  ilu::lint::FileInput in;
  in.rel_path = "runtime/fixture.cpp";
  in.content =
      "#include <mutex>\n"
      "#include <vector>\n"
      "struct P {\n"
      "  void add(int v) {\n"
      "    std::lock_guard<std::mutex> lk(mu_);\n"
      "    // ilu-lint: allow(blocking-under-lock) - bounded, drained each tick\n"
      "    items_.push_back(v);\n"
      "  }\n"
      "  std::mutex mu_;\n"
      "  std::vector<int> items_;\n"
      "};\n";
  EXPECT_TRUE(lint_file(in).empty());
}

TEST(IluLint, LockIdentityResolvesOutOfLineMethods) {
  // Alpha::f holds Alpha::mu_ into Beta::g (takes Beta::mu_); Beta::h holds
  // Beta::mu_ into Alpha::k (takes Alpha::mu_). Both locks are named `mu_`
  // and every method body is out of line, so the lock's class must come
  // from the method being walked, or both collapse into one file-named
  // node and the inversion vanishes.
  ilu::lint::FileInput in;
  in.rel_path = "exp/ab.cpp";
  in.content =
      "#include <mutex>\n"
      "class Beta;\n"
      "class Alpha {\n"
      " public:\n"
      "  void f();\n"
      "  void k();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  Beta* beta_;\n"
      "};\n"
      "class Beta {\n"
      " public:\n"
      "  void g();\n"
      "  void h();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  Alpha* alpha_;\n"
      "};\n"
      "void Alpha::f() {\n"
      "  std::lock_guard<std::mutex> lk(mu_);\n"
      "  beta_->g();\n"
      "}\n"
      "void Beta::g() { std::lock_guard<std::mutex> lk(mu_); }\n"
      "void Beta::h() {\n"
      "  std::lock_guard<std::mutex> lk(mu_);\n"
      "  alpha_->k();\n"
      "}\n"
      "void Alpha::k() { std::lock_guard<std::mutex> lk(mu_); }\n";
  auto fs = lint_file(in);
  ASSERT_EQ(count_check(fs, "lock-order"), 1);
  EXPECT_NE(fs.front().message.find("Alpha::mu_"), std::string::npos);
  EXPECT_NE(fs.front().message.find("Beta::mu_"), std::string::npos);
}

/// The same inversion in the repo's usual layout: classes in a header,
/// methods in the .cpp, and a third class with same-named methods, so
/// `beta_->g()` resolves only through the member type the header declares
/// in `beta_decl`.
std::vector<Finding> lint_header_layout(const std::string& beta_decl) {
  std::vector<ilu::lint::FileInput> ins = {
      {"exp/ab.hpp",
       "#include <memory>\n"
       "#include <mutex>\n"
       "class Beta;\n"
       "class Alpha {\n"
       "  void f();\n"
       "  void k();\n"
       "  std::mutex mu_;\n" +
           beta_decl +
           "};\n"
           "class Beta {\n"
           "  void g();\n"
           "  void h();\n"
           "  std::mutex mu_;\n"
           "  Alpha* alpha_;\n"
           "};\n"
           "class Gamma {\n"
           "  void g();\n"
           "  void k();\n"
           "};\n",
       ""},
      {"exp/ab.cpp",
       "#include \"exp/ab.hpp\"\n"
       "void Alpha::f() {\n"
       "  std::lock_guard<std::mutex> lk(mu_);\n"
       "  beta_->g();\n"
       "}\n"
       "void Beta::g() { std::lock_guard<std::mutex> lk(mu_); }\n"
       "void Beta::h() {\n"
       "  std::lock_guard<std::mutex> lk(mu_);\n"
       "  alpha_->k();\n"
       "}\n"
       "void Alpha::k() { std::lock_guard<std::mutex> lk(mu_); }\n"
       "void Gamma::g() {}\n"
       "void Gamma::k() {}\n",
       ""}};
  return ilu::lint::lint_inputs(ins);
}

TEST(IluLint, LockIdentityResolvesMembersDeclaredInTheHeader) {
  auto fs = lint_header_layout("  Beta* beta_;\n");
  ASSERT_EQ(count_check(fs, "lock-order"), 1);
  EXPECT_NE(fs.front().message.find("Alpha::mu_"), std::string::npos);
  EXPECT_NE(fs.front().message.find("Beta::mu_"), std::string::npos);
}

TEST(IluLint, LockIdentityResolvesMembersHeldByStdSmartPointers) {
  for (const char* decl : {"  std::unique_ptr<Beta> beta_;\n",
                           "  std::shared_ptr<Beta> beta_;\n"}) {
    auto fs = lint_header_layout(decl);
    ASSERT_EQ(count_check(fs, "lock-order"), 1) << decl;
    EXPECT_NE(fs.front().message.find("Alpha::mu_"), std::string::npos);
    EXPECT_NE(fs.front().message.find("Beta::mu_"), std::string::npos);
  }
  // An array or a custom deleter is not recorded as holding a Beta.
  for (const char* decl : {"  std::unique_ptr<Beta[]> beta_;\n",
                           "  std::unique_ptr<Beta, Del> beta_;\n"}) {
    EXPECT_EQ(count_check(lint_header_layout(decl), "lock-order"), 0)
        << decl;
  }
}

// ---- test-only-api -------------------------------------------------------

/// A src/ header with public API, its .cpp, and callers outside src/.
struct ApiFixture {
  std::vector<ilu::lint::FileInput> src = {
      {"util/widget.hpp",
       "#pragma once\n"
       "#define WIDGET_POKE(w) (w).poke()\n"
       "class Widget {\n"
       " public:\n"
       "  Widget();\n"
       "  ~Widget();\n"
       "  int used() const;\n"
       "  int helper() const;\n"
       "  int probe() const;\n"
       "  void poke();\n"
       "  static int make(int x);\n"
       "  bool operator==(const Widget& o) const;\n"
       " private:\n"
       "  int hidden() const;\n"
       "};\n"
       "int free_probe(int x);\n",
       ""},
      {"util/widget.cpp",
       "#include \"util/widget.hpp\"\n"
       "int Widget::used() const { return helper(); }\n"
       "int Widget::helper() const { return hidden(); }\n"
       "int Widget::probe() const { return 1; }\n"
       "void Widget::poke() {}\n"
       "int Widget::make(int x) { return x; }\n"
       "int Widget::hidden() const { return 0; }\n"
       "int free_probe(int x) { return x; }\n",
       ""}};
  std::vector<ilu::lint::FileInput> callers = {
      {"bench/b.cpp",
       "int main() { Widget w; WIDGET_POKE(w); return w.used() + "
       "Widget::make(1); }\n",
       ""},
      {"tests/t.cpp",
       "void t() { Widget w; (void)w.probe(); /* free_probe */ }\n", ""}};
};

std::vector<Finding> api_findings(const std::vector<Finding>& fs) {
  std::vector<Finding> out;
  for (const auto& f : fs) {
    if (f.check == "test-only-api") out.push_back(f);
  }
  return out;
}

TEST(IluLint, TestOnlyApiFlagsAFunctionOnlyTestsName) {
  ApiFixture fx;
  auto fs = api_findings(ilu::lint::lint_inputs(fx.src, &fx.callers));
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].path, "util/widget.hpp");
  EXPECT_EQ(fs[0].line, 9);
  EXPECT_NE(fs[0].message.find("`Widget::probe`"), std::string::npos);
  EXPECT_NE(fs[0].message.find("named only by tests/"), std::string::npos);
  // A comment that names it in tests/ is not a use: named nowhere.
  EXPECT_EQ(fs[1].line, 16);
  EXPECT_NE(fs[1].message.find("`free_probe` is public but named nowhere"),
            std::string::npos);
}

TEST(IluLint, TestOnlyApiHonorsAllow) {
  ApiFixture fx;
  std::string& hdr = fx.src[0].content;
  const std::string decl = "  int probe() const;\n";
  hdr.replace(hdr.find(decl), decl.size(),
              "  // ilu-lint: allow(test-only-api) - fixture test hook\n" +
                  decl);
  auto fs = api_findings(ilu::lint::lint_inputs(fx.src, &fx.callers));
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("free_probe"), std::string::npos);
}

TEST(IluLint, TestOnlyApiCountsBenchCallers) {
  // `used`, the static `make` and `poke` (through a macro body) are named
  // only in bench/; without that caller all three are findings.
  ApiFixture fx;
  auto with_bench = api_findings(ilu::lint::lint_inputs(fx.src, &fx.callers));
  for (const auto& f : with_bench) {
    EXPECT_EQ(f.message.find("`Widget::used`"), std::string::npos);
    EXPECT_EQ(f.message.find("`Widget::make`"), std::string::npos);
    EXPECT_EQ(f.message.find("`Widget::poke`"), std::string::npos);
  }
  fx.callers.erase(fx.callers.begin());
  fx.src[0].content.erase(fx.src[0].content.find("#define"),
                          fx.src[0].content.find("class") -
                              fx.src[0].content.find("#define"));
  EXPECT_EQ(api_findings(ilu::lint::lint_inputs(fx.src, &fx.callers)).size(),
            with_bench.size() + 3);
}

TEST(IluLint, TestOnlyApiSkipsPrivateMethodsAndSpecialMembers) {
  // `hidden` is named by no caller at all, but private; the constructor,
  // destructor and operator== are exempt by kind.
  ApiFixture fx;
  for (const auto& f :
       api_findings(ilu::lint::lint_inputs(fx.src, &fx.callers))) {
    EXPECT_EQ(f.message.find("hidden"), std::string::npos);
    EXPECT_EQ(f.message.find("Widget::Widget"), std::string::npos);
    EXPECT_EQ(f.message.find("operator"), std::string::npos);
  }
}

TEST(IluLint, TestOnlyApiCountsSrcCallers) {
  // `helper` is public and named by no caller outside src/, but
  // Widget::used calls it. Its own declaration and definition do not
  // count: without that call it is a finding.
  ApiFixture fx;
  auto named = [](const std::vector<Finding>& fs, const std::string& s) {
    return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
      return f.message.find(s) != std::string::npos;
    });
  };
  EXPECT_FALSE(named(api_findings(ilu::lint::lint_inputs(fx.src, &fx.callers)),
                     "Widget::helper"));
  std::string& cpp = fx.src[1].content;
  cpp.replace(cpp.find("return helper();"), 16, "return 2;");
  EXPECT_TRUE(named(api_findings(ilu::lint::lint_inputs(fx.src, &fx.callers)),
                    "Widget::helper"));
}

TEST(IluLint, TestOnlyApiSilentInFileMode) {
  // --file (and --src) stage no callers, so the check cannot run.
  ApiFixture fx;
  EXPECT_TRUE(api_findings(ilu::lint::lint_inputs(fx.src)).empty());
  EXPECT_TRUE(api_findings(lint_file(fx.src[0])).empty());
}

// ---- whole tree ----------------------------------------------------------

TEST(IluLint, RealTreeIsClean) {
  std::size_t files = 0;
  auto fs = lint_tree(std::string(ILU_SOURCE_DIR) + "/src", &files);
  EXPECT_GT(files, 50u) << "tree walk found suspiciously few files";
  // test-only-api needs the callers outside src/, as `--root` loads them.
  const auto callers = ilu::lint::load_callers(ILU_SOURCE_DIR);
  EXPECT_GT(callers.size(), 50u);
  for (const auto& f : api_findings(ilu::lint::lint_inputs(
           ilu::lint::load_tree(std::string(ILU_SOURCE_DIR) + "/src"),
           &callers))) {
    fs.push_back(f);
  }
  for (const auto& f : fs) {
    ADD_FAILURE() << f.path << ":" << f.line << ": [" << f.check << "] "
                  << f.message;
  }
}

}  // namespace
