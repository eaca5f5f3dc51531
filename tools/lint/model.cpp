#include "lint/model.hpp"

#include <algorithm>
#include <cstddef>

namespace ilu::lint {

namespace {

const NameSet& cpp_keywords() {
  static const NameSet k = {
      "if",     "for",    "while",   "switch", "return", "sizeof",
      "alignof", "decltype", "static_assert", "catch",  "new",    "delete",
      "throw",  "do",     "else",    "case",   "goto",   "co_await",
      "co_return", "co_yield", "operator", "template", "typename", "using",
      "typedef", "constexpr", "consteval", "constinit", "static", "inline",
      "const",  "auto",   "void",    "int",    "bool",   "char",
      "unsigned", "signed", "long",  "short",  "float",  "double",
      "noexcept", "override", "final", "mutable", "explicit", "virtual",
      "public", "private", "protected", "friend", "namespace", "class",
      "struct", "union",  "enum",    "this",   "nullptr", "true", "false",
      "try",    "break",  "continue", "default", "assert",
  };
  return k;
}

bool is_lock_type(std::string_view id) {
  return id == "mutex" || id == "recursive_mutex" || id == "shared_mutex" ||
         id == "timed_mutex" || id == "recursive_timed_mutex" ||
         id == "SpinLock";
}

bool is_guard_type(std::string_view id) {
  return id == "lock_guard" || id == "unique_lock" || id == "scoped_lock" ||
         id == "shared_lock";
}

bool is_atomic_method(std::string_view id) {
  return id == "load" || id == "store" || id == "exchange" ||
         id == "compare_exchange_weak" || id == "compare_exchange_strong" ||
         id == "fetch_add" || id == "fetch_sub" || id == "fetch_and" ||
         id == "fetch_or" || id == "fetch_xor" || id == "test_and_set" ||
         id == "clear" || id == "test" || id == "wait" ||
         id == "notify_one" || id == "notify_all";
}

bool is_growth_method(std::string_view id) {
  return id == "push_back" || id == "emplace_back" || id == "emplace" ||
         id == "push" || id == "insert" || id == "resize" ||
         id == "reserve" || id == "append";
}

bool is_io_callee(std::string_view id) {
  return id == "printf" || id == "fprintf" || id == "vfprintf" ||
         id == "puts" || id == "fputs" || id == "fwrite" || id == "fread" ||
         id == "fopen" || id == "fclose" || id == "fflush" ||
         id == "getline" || id == "fsync";
}

/// Matching `(` index for the `)` at ts[i], scanning backward over balanced
/// (), [], {}. Returns SIZE_MAX when unbalanced.
std::size_t match_back(const Tokens& ts, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i + 1; j-- > 0;) {
    const Token& t = ts[j];
    if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) {
      ++depth;
    } else if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) {
      if (--depth == 0) return j;
    }
  }
  return static_cast<std::size_t>(-1);
}

/// Matching `)` index for the `(` at ts[i], scanning forward.
std::size_t match_fwd(const Tokens& ts, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < ts.size(); ++j) {
    const Token& t = ts[j];
    if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) {
      ++depth;
    } else if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) {
      if (--depth == 0) return j;
    }
  }
  return ts.size();
}

/// The identifier naming the postfix expression that ends at ts[i] (the
/// token just before a `.`/`->`): `n.word` -> "word", `directory_[c]` ->
/// "directory_", `get()` -> "get", anything else -> "".
std::string_view receiver_before(const Tokens& ts, std::size_t i) {
  if (i >= ts.size()) return {};
  std::size_t j = i;
  if (is_punct(ts[j], "]") || is_punct(ts[j], ")")) {
    std::size_t open = match_back(ts, j);
    if (open == static_cast<std::size_t>(-1) || open == 0) return {};
    j = open - 1;
  }
  return ts[j].kind == Tok::Identifier ? ts[j].text : std::string_view{};
}

/// Builtin type keywords that can end a declaration's return type
/// (`void f()`, `auto g() -> T`); other keywords before a name and `(` make
/// it a call, a cast or a specifier (`return f()`, `explicit Foo()`).
bool is_type_keyword(std::string_view id) {
  return id == "void" || id == "bool" || id == "char" || id == "int" ||
         id == "long" || id == "short" || id == "unsigned" ||
         id == "signed" || id == "float" || id == "double" || id == "auto" ||
         id == "const";
}

/// Scope stack entry. Only one function scope can be live at a time (braces
/// inside it — control flow, lambdas, local classes — classify as Block).
struct Scope {
  enum Kind { Ns, Class, Fn, Block, Opaque } kind = Block;
  std::string name;
  std::size_t fn_index = static_cast<std::size_t>(-1);
  bool pub = true;      // Class: the access of the current section
  bool exposed = true;  // Class: itself reachable from outside
};

class Extractor {
 public:
  Extractor(const FileInput& in, const LexResult& lr)
      : in_(in), ts_(lr.tokens) {}

  FileModel run() {
    out_.rel_path = in_.rel_path;
    scan_directives();
    walk();
    attach_orphan_orders();
    collect_used_names();
    return std::move(out_);
  }

 private:
  // -- directives (raw text: the lexer strips preprocessor lines) ---------
  /// Quoted includes, and the identifiers of `#define` bodies: a macro
  /// that calls a function is a use wherever the macro expands.
  void scan_directives() {
    const std::string& s = in_.content;
    int line = 1;
    std::size_t pos = 0;
    while (pos < s.size()) {
      const int first_line = line;
      std::string logical;  // `\`-continued physical lines, joined
      for (bool cont = true; cont && pos < s.size(); ++line) {
        std::size_t eol = s.find('\n', pos);
        if (eol == std::string::npos) eol = s.size();
        std::size_t end = eol;
        if (end > pos && s[end - 1] == '\r') --end;
        cont = end > pos && s[end - 1] == '\\';
        logical.append(s, pos, end - pos - (cont ? 1 : 0));
        pos = eol + 1;
      }
      std::string_view l = trim(logical);
      if (l.empty() || l.front() != '#') continue;
      l = trim(l.substr(1));
      if (starts_with(l, "include")) {
        l = trim(l.substr(7));
        std::size_t end = l.find('"', 1);
        if (!l.empty() && l.front() == '"' && end != std::string_view::npos) {
          out_.includes.emplace_back(std::string(l.substr(1, end - 1)),
                                     first_line);
        }
      } else if (starts_with(l, "define")) {
        LexResult body = lex(l.substr(6));
        for (std::size_t i = 1; i < body.tokens.size(); ++i) {  // [0]: name
          if (body.tokens[i].kind == Tok::Identifier) {
            out_.used_names.emplace(body.tokens[i].text);
          }
        }
      }
    }
  }

  // -- scope walk ----------------------------------------------------------
  bool in_function() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Fn) return true;
    }
    return false;
  }

  std::size_t current_fn() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Fn) return it->fn_index;
    }
    return static_cast<std::size_t>(-1);
  }

  /// The class whose members are in scope: the innermost class body, or,
  /// inside a function body, the walked function's own class (so an
  /// out-of-line `void C::f() { ... }` resolves `mu_` and `this` to C).
  std::string innermost_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Class) return it->name;
      if (it->kind == Scope::Fn) return out_.functions[it->fn_index].cls;
    }
    return {};
  }

  /// Would a declaration at the current position be reachable from
  /// outside: at namespace scope, or in a public section of an exposed
  /// class.
  bool at_public_scope() const {
    if (scopes_.empty() || scopes_.back().kind == Scope::Ns) return true;
    const Scope& s = scopes_.back();
    return s.kind == Scope::Class && s.pub && s.exposed;
  }

  void walk() {
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      const Token& t = ts_[i];
      if (is_punct(t, "{")) {
        Scope s = classify_brace(i);
        if (s.kind == Scope::Class) s.exposed = at_public_scope();
        scopes_.push_back(std::move(s));
        continue;
      }
      if (is_punct(t, "}")) {
        close_locks_at_depth(scopes_.size(), i);
        if (!scopes_.empty()) {
          if (scopes_.back().kind == Scope::Fn) {
            finalize_fn(scopes_.back().fn_index, i);
          }
          scopes_.pop_back();
        }
        continue;
      }
      if (t.kind != Tok::Identifier) continue;
      detect_atomic_decl(i);
      detect_atomic_op(i);
      if (in_function()) {
        detect_guard(i);
        detect_raw_lock(i);
        detect_call(i);
        detect_blocking(i);
        detect_local_type(i);
        detect_lock_decl(i, /*local=*/true);
      } else {
        detect_lock_decl(i, /*local=*/false);
        detect_member_type(i);
        detect_access(i);
        detect_fn_decl(i);
      }
    }
    // Unterminated file: close whatever is still open at EOF.
    close_locks_at_depth(0, ts_.size());
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Fn) finalize_fn(it->fn_index, ts_.size());
    }
  }

  // -- brace classification ------------------------------------------------
  Scope classify_brace(std::size_t i) {
    if (in_function() || i == 0) return {Scope::Block, {}, {}};
    std::size_t j = i - 1;
    // Skip trailing function specifiers.
    auto is_spec = [&](const Token& t) {
      return is_id(t, "const") || is_id(t, "noexcept") ||
             is_id(t, "override") || is_id(t, "final") || is_id(t, "mutable");
    };
    while (j > 0 && is_spec(ts_[j])) --j;
    // Trailing return type: `) -> T... {` — rewind to the `)`.
    if (!is_punct(ts_[j], ")")) {
      for (std::size_t k = j, n = 0; k > 0 && n < 24; --k, ++n) {
        const Token& t = ts_[k];
        if (is_punct(t, "->") && k > 0 && is_punct(ts_[k - 1], ")")) {
          j = k - 1;
          break;
        }
        if (t.kind != Tok::Identifier && t.kind != Tok::Number &&
            !is_punct(t, "::") && !is_punct(t, "<") && !is_punct(t, ">") &&
            !is_punct(t, "*") && !is_punct(t, "&") && !is_punct(t, "[") &&
            !is_punct(t, "]") && !is_punct(t, ",")) {
          break;
        }
      }
    }
    // Function body (possibly reached through a ctor-init list).
    while (is_punct(ts_[j], ")")) {
      std::size_t open = match_back(ts_, j);
      if (open == static_cast<std::size_t>(-1) || open == 0) {
        return {Scope::Block, {}, {}};
      }
      std::size_t k = open - 1;
      if (ts_[k].kind != Tok::Identifier) return {Scope::Block, {}, {}};
      const std::size_t name_tok = k;
      std::string name(ts_[k].text);
      std::string cls;
      while (k >= 2 && is_punct(ts_[k - 1], "::") &&
             ts_[k - 2].kind == Tok::Identifier) {
        cls = std::string(ts_[k - 2].text);  // innermost qualifier wins last
        k -= 2;
      }
      if (name == "if" || name == "for" || name == "while" ||
          name == "switch" || name == "catch") {
        return {Scope::Block, {}, {}};
      }
      if (k > 0 && (is_punct(ts_[k - 1], ":") || is_punct(ts_[k - 1], ","))) {
        // A ctor-init item like `free_head_(kNil)`: keep unwinding left.
        if (k < 2) return {Scope::Block, {}, {}};
        j = k - 2;
        continue;
      }
      if (cpp_keywords().count(name) > 0) return {Scope::Block, {}, {}};
      if (cls.empty()) cls = innermost_class();
      return open_fn(name, cls, ts_[k].line, name_tok, i);
    }
    // `namespace N {` / `class C {` / `struct S {` — scan back to the
    // statement boundary for the introducing keyword.
    for (std::size_t k = j + 1, n = 0; k-- > 0 && n < 64; ++n) {
      const Token& t = ts_[k];
      if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}")) break;
      if (is_id(t, "namespace")) {
        std::string name;
        if (k + 1 < ts_.size() && ts_[k + 1].kind == Tok::Identifier) {
          name = std::string(ts_[k + 1].text);
        }
        return {Scope::Ns, name, {}};
      }
      if (is_id(t, "class") || is_id(t, "struct") || is_id(t, "union")) {
        if (k > 0 && is_id(ts_[k - 1], "enum")) return {Scope::Opaque, {}, {}};
        std::size_t m = k + 1;
        if (m < ts_.size() && is_id(ts_[m], "alignas") &&
            m + 1 < ts_.size() && is_punct(ts_[m + 1], "(")) {
          m = match_fwd(ts_, m + 1) + 1;
        }
        std::string name;
        if (m < ts_.size() && ts_[m].kind == Tok::Identifier) {
          name = std::string(ts_[m].text);
        }
        Scope cs{Scope::Class, name, {}};
        cs.pub = !is_id(t, "class");
        return cs;
      }
      if (is_id(t, "enum")) return {Scope::Opaque, {}, {}};
    }
    return {Scope::Block, {}, {}};
  }

  Scope open_fn(const std::string& name, const std::string& cls, int line,
                std::size_t name_tok, std::size_t body_open) {
    FunctionModel fn;
    fn.name = name;
    fn.cls = cls;
    fn.qual = cls.empty() ? name : cls + "::" + name;
    fn.line = line;
    fn.name_tok = name_tok;
    fn.tok_begin = body_open;
    out_.functions.push_back(std::move(fn));
    local_types_.clear();
    guard_locks_.clear();
    return {Scope::Fn, name, out_.functions.size() - 1};
  }

  void finalize_fn(std::size_t idx, std::size_t end_tok) {
    if (idx == static_cast<std::size_t>(-1)) return;
    out_.functions[idx].tok_end = end_tok;
  }

  // -- lock scopes ---------------------------------------------------------
  struct OpenLock {
    std::size_t fn_index;
    std::size_t site_index;  // into functions[fn_index].locks
    std::size_t depth;       // scopes_.size() at acquisition
  };

  void close_locks_at_depth(std::size_t depth, std::size_t close_tok) {
    for (std::size_t k = open_locks_.size(); k-- > 0;) {
      if (open_locks_[k].depth >= depth) {
        auto& site = out_.functions[open_locks_[k].fn_index]
                         .locks[open_locks_[k].site_index];
        if (site.tok_end == 0) site.tok_end = close_tok;
        open_locks_.erase(open_locks_.begin() + static_cast<long>(k));
      }
    }
  }

  /// Parse the token range [b, e) as a lock operand: `mu_`, `s.mu`,
  /// `this->mu_`, `*p` — fills member/base and returns true.
  bool parse_lock_ref(std::size_t b, std::size_t e, LockSite& site) {
    // Strip leading `this ->` and `*`.
    bool this_ref = false;
    while (b < e && is_punct(ts_[b], "*")) ++b;
    if (b + 1 < e && is_id(ts_[b], "this") && is_punct(ts_[b + 1], "->")) {
      this_ref = true;
      b += 2;
    }
    // Find the last identifier and the access punct before it.
    std::size_t last = static_cast<std::size_t>(-1);
    for (std::size_t k = b; k < e; ++k) {
      if (ts_[k].kind == Tok::Identifier) last = k;
    }
    if (last == static_cast<std::size_t>(-1)) return false;
    site.member = std::string(ts_[last].text);
    site.line = ts_[last].line;
    if (last > b && (is_punct(ts_[last - 1], ".") ||
                     is_punct(ts_[last - 1], "->"))) {
      std::string_view base = receiver_before(ts_, last - 2);
      site.base_expr = std::string(base);
      site.base_type = resolve_type(base);
    } else if (this_ref) {
      site.base_type = innermost_class();
    }
    site.enclosing_class = innermost_class();
    return true;
  }

  std::string resolve_type(std::string_view var) const {
    if (var.empty()) return {};
    auto it = local_types_.find(std::string(var));
    if (it != local_types_.end()) return it->second;
    std::string cls = innermost_class();
    if (!cls.empty()) {
      auto ct = out_.member_types.find(cls);
      if (ct != out_.member_types.end()) {
        auto mt = ct->second.find(std::string(var));
        if (mt != ct->second.end()) return mt->second;
      }
    }
    return {};
  }

  void add_lock_site(std::size_t fn, LockSite site, std::size_t tok_begin) {
    site.tok_begin = tok_begin;
    site.enclosing_fn = out_.functions[fn].name;
    out_.functions[fn].locks.push_back(std::move(site));
    open_locks_.push_back({fn, out_.functions[fn].locks.size() - 1,
                           scopes_.size()});
  }

  void detect_guard(std::size_t i) {
    if (!is_guard_type(ts_[i].text)) return;
    std::size_t fn = current_fn();
    if (fn == static_cast<std::size_t>(-1)) return;
    std::size_t j = i + 1;
    if (j < ts_.size() && is_punct(ts_[j], "<")) {
      j = skip_template_args(ts_, j);
    }
    std::string guard_var;
    if (j < ts_.size() && ts_[j].kind == Tok::Identifier) {
      guard_var = std::string(ts_[j].text);
      ++j;
    }
    if (j >= ts_.size() || !is_punct(ts_[j], "(")) return;
    std::size_t close = match_fwd(ts_, j);
    if (close >= ts_.size()) return;
    // Split top-level commas.
    std::vector<std::pair<std::size_t, std::size_t>> args;
    {
      int depth = 0;
      std::size_t b = j + 1;
      for (std::size_t k = j; k <= close; ++k) {
        const Token& t = ts_[k];
        if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") ||
            is_punct(t, "<")) {
          ++depth;
        } else if (is_punct(t, ")") || is_punct(t, "]") ||
                   is_punct(t, "}") || is_punct(t, ">")) {
          --depth;
          if (depth == 0 && k == close && k > b) args.emplace_back(b, k);
        } else if (depth == 1 && is_punct(t, ",")) {
          if (k > b) args.emplace_back(b, k);
          b = k + 1;
        }
      }
    }
    bool deferred = false;
    std::vector<LockSite> refs;
    for (auto [b, e] : args) {
      std::string_view lastid;
      for (std::size_t k = b; k < e; ++k) {
        if (ts_[k].kind == Tok::Identifier) lastid = ts_[k].text;
      }
      if (lastid == "defer_lock") {
        deferred = true;
        continue;
      }
      if (lastid == "adopt_lock" || lastid == "try_to_lock") continue;
      LockSite site;
      if (parse_lock_ref(b, e, site)) refs.push_back(std::move(site));
    }
    if (deferred) {
      if (!guard_var.empty()) guard_locks_[guard_var] = refs;  // armed later
      return;
    }
    std::size_t begin = guard_var.empty() ? find_stmt_end(close) : close;
    for (LockSite& s : refs) {
      LockSite copy = s;
      if (guard_var.empty()) {
        // Unnamed temporary: held to the end of the full statement only.
        copy.tok_begin = close;
        copy.tok_end = begin;
        copy.enclosing_fn = out_.functions[fn].name;
        out_.functions[fn].locks.push_back(std::move(copy));
      } else {
        add_lock_site(fn, std::move(copy), close);
      }
    }
    if (!guard_var.empty()) guard_locks_[guard_var] = refs;
  }

  std::size_t find_stmt_end(std::size_t i) const {
    int depth = 0;
    for (std::size_t k = i + 1; k < ts_.size(); ++k) {
      const Token& t = ts_[k];
      if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) ++depth;
      if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) --depth;
      if (depth <= 0 && is_punct(t, ";")) return k;
    }
    return ts_.size();
  }

  void detect_raw_lock(std::size_t i) {
    std::string_view id = ts_[i].text;
    std::size_t fn = current_fn();
    if (fn == static_cast<std::size_t>(-1)) return;
    if (i == 0 || i + 2 >= ts_.size()) return;
    if (!is_punct(ts_[i - 1], ".") && !is_punct(ts_[i - 1], "->")) return;
    if (!is_punct(ts_[i + 1], "(") || !is_punct(ts_[i + 2], ")")) return;
    std::string_view base = receiver_before(ts_, i - 2);
    if (id == "lock") {
      auto git = guard_locks_.find(std::string(base));
      if (git != guard_locks_.end()) {
        // Re-arming a (deferred or unlocked) guard: acquires its locks.
        for (const LockSite& s : git->second) {
          LockSite copy = s;
          copy.line = ts_[i].line;
          add_lock_site(fn, std::move(copy), i + 2);
        }
        return;
      }
      // Raw `x.lock()` / `a.b.lock()` on a lock object. Mutex and guard
      // lock() return void, so a call whose value is used (std::weak_ptr's
      // lock() yields a shared_ptr) acquires nothing.
      if (i + 3 >= ts_.size() || !is_punct(ts_[i + 3], ";")) return;
      std::size_t e = i - 1;  // exclusive end: the `.`
      std::size_t b = e;
      {
        std::size_t k = e;
        while (k > 0) {
          std::size_t p = k - 1;
          if (is_punct(ts_[p], "]") || is_punct(ts_[p], ")")) {
            std::size_t open = match_back(ts_, p);
            if (open == static_cast<std::size_t>(-1)) break;
            k = open;
            continue;
          }
          if (ts_[p].kind == Tok::Identifier || is_punct(ts_[p], ".") ||
              is_punct(ts_[p], "->") || is_id(ts_[p], "this")) {
            k = p;
            continue;
          }
          break;
        }
        b = k;
      }
      LockSite site;
      if (parse_lock_ref(b, e, site)) {
        site.line = ts_[i].line;
        add_lock_site(fn, std::move(site), i + 2);
      }
      return;
    }
    if (id == "unlock") {
      // Truncate the most recent open site acquired through this receiver
      // (guard var or lock object).
      for (std::size_t k = open_locks_.size(); k-- > 0;) {
        auto& ol = open_locks_[k];
        if (ol.fn_index != fn) continue;
        auto& site = out_.functions[fn].locks[ol.site_index];
        auto git = guard_locks_.find(std::string(base));
        bool match = site.member == base ||
                     (git != guard_locks_.end() && !git->second.empty() &&
                      git->second.front().member == site.member);
        if (match) {
          site.tok_end = i;
          open_locks_.erase(open_locks_.begin() + static_cast<long>(k));
          return;
        }
      }
    }
  }

  // -- calls / blocking ----------------------------------------------------
  void detect_call(std::size_t i) {
    std::string_view id = ts_[i].text;
    if (cpp_keywords().count(id) > 0) return;
    std::size_t j = i + 1;
    if (j < ts_.size() && is_punct(ts_[j], "<")) {
      std::size_t k = skip_template_args(ts_, j);
      if (k < ts_.size() && is_punct(ts_[k], "(")) j = k;
    }
    if (j >= ts_.size() || !is_punct(ts_[j], "(")) return;
    CallSite c;
    c.tok = i;
    c.line = ts_[i].line;
    c.callee = std::string(id);
    if (i > 0 && (is_punct(ts_[i - 1], ".") || is_punct(ts_[i - 1], "->"))) {
      c.has_receiver = true;
      std::string_view base = i >= 2 && is_id(ts_[i - 2], "this")
                                  ? std::string_view{}
                                  : receiver_before(ts_, i - 2);
      if (base.empty() && i >= 2 && is_id(ts_[i - 2], "this")) {
        c.receiver_type = innermost_class();
      } else {
        c.receiver_type = resolve_type(base);
        c.receiver_var = std::string(base);
      }
    } else if (i >= 2 && is_punct(ts_[i - 1], "::") &&
               ts_[i - 2].kind == Tok::Identifier) {
      c.has_receiver = true;
      c.receiver_type = std::string(ts_[i - 2].text);
    }
    std::size_t fn = current_fn();
    out_.functions[fn].calls.push_back(std::move(c));
  }

  void detect_blocking(std::size_t i) {
    std::size_t fn = current_fn();
    std::string_view id = ts_[i].text;
    auto add = [&](const char* kind) {
      out_.functions[fn].blocking.push_back(
          {i, ts_[i].line, kind, std::string(id)});
    };
    bool access = i > 0 && (is_punct(ts_[i - 1], ".") ||
                            is_punct(ts_[i - 1], "->"));
    bool called = i + 1 < ts_.size() && is_punct(ts_[i + 1], "(");
    if (id == "new" && !access &&
        !(i > 0 && is_id(ts_[i - 1], "operator"))) {
      add("allocation");
      return;
    }
    if ((id == "make_unique" || id == "make_shared") && i + 1 < ts_.size() &&
        (is_punct(ts_[i + 1], "<") || is_punct(ts_[i + 1], "("))) {
      add("allocation");
      return;
    }
    if (is_growth_method(id) && access && called) {
      add("container-growth");
      return;
    }
    if (is_io_callee(id) && called &&
        (!access || std_qualified(ts_, i))) {
      add("io");
      return;
    }
    if ((id == "cout" || id == "cerr" || id == "clog" || id == "ofstream" ||
         id == "ifstream" || id == "fstream") &&
        std_qualified(ts_, i)) {
      add("io");
      return;
    }
  }

  // -- declarations --------------------------------------------------------
  /// `public:` / `protected:` / `private:` in a class body.
  void detect_access(std::size_t i) {
    if (scopes_.empty() || scopes_.back().kind != Scope::Class) return;
    if (i + 1 >= ts_.size() || !is_punct(ts_[i + 1], ":")) return;
    std::string_view id = ts_[i].text;
    if (id == "public") scopes_.back().pub = true;
    if (id == "protected" || id == "private") scopes_.back().pub = false;
  }

  /// `<type> name(` directly in a class or namespace body declares a
  /// function. Constructors (`Foo(`, `explicit Foo(`), destructors (`~Foo(`)
  /// and operators (`operator==(`) have no type before the name and are
  /// not recorded; neither are calls in initializers (`= make(`).
  void detect_fn_decl(std::size_t i) {
    if (!scopes_.empty() && scopes_.back().kind != Scope::Ns &&
        scopes_.back().kind != Scope::Class) {
      return;
    }
    if (i == 0 || i + 1 >= ts_.size() || !is_punct(ts_[i + 1], "(")) return;
    std::string_view id = ts_[i].text;
    if (cpp_keywords().count(id) > 0) return;
    const Token& p = ts_[i - 1];
    bool after_type =
        is_punct(p, ">") || is_punct(p, "*") || is_punct(p, "&") ||
        (p.kind == Tok::Identifier &&
         (cpp_keywords().count(p.text) == 0 || is_type_keyword(p.text)));
    if (!after_type) return;
    std::string cls = innermost_class();
    if (id == cls) return;
    out_.fn_decls.push_back(
        {std::string(id), cls, ts_[i].line, i, at_public_scope()});
  }

  void collect_used_names() {
    std::set<std::size_t> naming;
    for (const FnDecl& d : out_.fn_decls) naming.insert(d.tok);
    for (const FunctionModel& fn : out_.functions) naming.insert(fn.name_tok);
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      if (ts_[i].kind == Tok::Identifier && naming.count(i) == 0) {
        out_.used_names.emplace(ts_[i].text);
      }
    }
  }

  void detect_lock_decl(std::size_t i, bool local) {
    std::string_view id = ts_[i].text;
    if (!is_lock_type(id)) return;
    if (id != "SpinLock" && !std_qualified(ts_, i)) return;
    std::size_t j = i + 1;
    if (j < ts_.size() && (is_punct(ts_[j], "&") || is_punct(ts_[j], "*"))) {
      return;  // reference/pointer to a lock owned elsewhere
    }
    if (j + 1 >= ts_.size() || ts_[j].kind != Tok::Identifier) return;
    const Token& after = ts_[j + 1];
    if (!is_punct(after, ";") && !is_punct(after, "{") &&
        !is_punct(after, "=")) {
      return;
    }
    std::string name(ts_[j].text);
    if (local) {
      std::size_t fn = current_fn();
      out_.functions[fn].local_locks[name] =
          in_.rel_path + "::" + out_.functions[fn].name + "::" + name;
    } else {
      out_.lock_decls.push_back(
          {innermost_class(), name, std::string(id), ts_[j].line});
    }
  }

  void detect_member_type(std::size_t i) {
    std::string cls = innermost_class();
    if (cls.empty()) return;
    record_typed_decl(i, [&](const std::string& name, const std::string& ty) {
      out_.member_types[cls][name] = ty;
    });
  }

  void detect_local_type(std::size_t i) {
    record_typed_decl(i, [&](const std::string& name, const std::string& ty) {
      local_types_[name] = ty;
    });
  }

  /// Shape `[const] T[::T2][<...>] [const&*]* name <end>` where T is a
  /// project identifier (not std, not a keyword) — records name -> T's last
  /// component. `std::unique_ptr<T>` and `std::shared_ptr<T>` hold a T, so
  /// they record T too. Deliberately loose: consumers only act when the
  /// recorded type matches a class the repo model actually knows.
  template <typename F>
  void record_typed_decl(std::size_t i, F&& record) {
    std::string_view head = ts_[i].text;
    if (cpp_keywords().count(head) > 0) return;
    if (i > 0) {
      const Token& p = ts_[i - 1];
      if ((p.kind == Tok::Identifier && !is_id(p, "const")) ||
          is_punct(p, "::") || is_punct(p, ".") || is_punct(p, "->") ||
          is_punct(p, "<")) {
        return;  // mid-chain, member access, or template argument
      }
    }
    std::size_t j = i;
    if (head == "std") {
      if (!(i + 4 < ts_.size() && is_punct(ts_[i + 1], "::") &&
            (is_id(ts_[i + 2], "unique_ptr") ||
             is_id(ts_[i + 2], "shared_ptr")) &&
            is_punct(ts_[i + 3], "<") &&
            ts_[i + 4].kind == Tok::Identifier && !is_id(ts_[i + 4], "std"))) {
        return;
      }
      j = i + 4;
    }
    std::string type(ts_[j].text);
    while (j + 2 < ts_.size() && is_punct(ts_[j + 1], "::") &&
           ts_[j + 2].kind == Tok::Identifier) {
      j += 2;
      type = std::string(ts_[j].text);
    }
    std::size_t k = j + 1;
    if (head == "std") {
      // The pointee must close the argument list: `unique_ptr<T[]>` or a
      // deleter argument is not a T.
      if (k >= ts_.size() || !is_punct(ts_[k], ">")) return;
      ++k;
    } else if (k < ts_.size() && is_punct(ts_[k], "<")) {
      k = skip_template_args(ts_, k);
    }
    while (k < ts_.size() &&
           (is_id(ts_[k], "const") || is_punct(ts_[k], "&") ||
            is_punct(ts_[k], "*"))) {
      ++k;
    }
    if (k + 1 >= ts_.size() || ts_[k].kind != Tok::Identifier) return;
    const Token& after = ts_[k + 1];
    if (is_punct(after, ";") || is_punct(after, "=") ||
        is_punct(after, ":") || is_punct(after, ",") ||
        is_punct(after, ")") || is_punct(after, "{")) {
      record(std::string(ts_[k].text), type);
    }
  }

  void detect_atomic_decl(std::size_t i) {
    std::string_view id = ts_[i].text;
    bool is_atomic = (id == "atomic" &&
                      (std_qualified(ts_, i) ||
                       (i + 1 < ts_.size() && is_punct(ts_[i + 1], "<")))) ||
                     (id == "atomic_flag" && std_qualified(ts_, i));
    if (!is_atomic) return;
    std::size_t e = i + 1;
    if (e < ts_.size() && is_punct(ts_[e], "<")) {
      e = skip_template_args(ts_, e);
    }
    std::string name;
    int depth = 0;
    for (std::size_t k = e, n = 0; k < ts_.size() && n < 24; ++k, ++n) {
      const Token& t = ts_[k];
      if (is_punct(t, "(") && depth == 0) break;
      if (is_punct(t, "<") || is_punct(t, "[") || is_punct(t, "(")) {
        ++depth;
        continue;
      }
      if (is_punct(t, ">") || is_punct(t, "]") || is_punct(t, ")")) {
        if (depth > 0) --depth;
        continue;  // closing an outer decoration, e.g. unique_ptr<...[]>
      }
      if (depth > 0) continue;
      if (t.kind == Tok::Identifier && !is_id(t, "const")) {
        name = std::string(t.text);
        continue;
      }
      if (is_punct(t, ";") || is_punct(t, "=") || is_punct(t, "{") ||
          is_punct(t, ",")) {
        break;
      }
      if (is_punct(t, "&") || is_punct(t, "*")) continue;
      break;
    }
    if (!name.empty()) out_.atomic_names.insert(name);
  }

  void detect_atomic_op(std::size_t i) {
    std::string_view id = ts_[i].text;
    // Method-style: `x.load(...)`, `n.word.fetch_add(...)`.
    if (is_atomic_method(id) && i > 0 && i + 1 < ts_.size() &&
        (is_punct(ts_[i - 1], ".") || is_punct(ts_[i - 1], "->")) &&
        is_punct(ts_[i + 1], "(")) {
      std::size_t close = match_fwd(ts_, i + 1);
      AtomicOp op;
      op.line = ts_[i].line;
      op.var = std::string(receiver_before(ts_, i >= 2 ? i - 2 : 0));
      op.method = std::string(id);
      collect_orders(i + 1, close, op);
      op_ranges_.emplace_back(i + 1, close);
      out_.atomic_ops.push_back(std::move(op));
      return;
    }
    // Operator-style on a plain identifier: `x = v`, `x++`, `x += v`.
    if (i > 0) {
      const Token& p = ts_[i - 1];
      bool stmt_pos = is_punct(p, ";") || is_punct(p, "{") ||
                      is_punct(p, "}") || is_punct(p, "(") ||
                      is_punct(p, ")") || is_punct(p, ",");
      if (!stmt_pos && !(is_punct(p, "+") && i >= 2 &&
                         is_punct(ts_[i - 2], "+")) &&
          !(is_punct(p, "-") && i >= 2 && is_punct(ts_[i - 2], "-"))) {
        return;
      }
      if (is_punct(p, "+") || is_punct(p, "-")) {
        out_.atomic_ops.push_back({ts_[i].line, std::string(id),
                                   is_punct(p, "+") ? "++" : "--",
                                   {}});
        return;
      }
    } else {
      return;
    }
    if (i + 2 >= ts_.size()) return;
    const Token& n1 = ts_[i + 1];
    const Token& n2 = ts_[i + 2];
    if (is_punct(n1, "=") && !is_punct(n2, "=")) {
      out_.atomic_ops.push_back({ts_[i].line, std::string(id), "=", {}});
    } else if ((is_punct(n1, "+") && is_punct(n2, "+")) ||
               (is_punct(n1, "-") && is_punct(n2, "-"))) {
      out_.atomic_ops.push_back({ts_[i].line, std::string(id),
                                 is_punct(n1, "+") ? "++" : "--",
                                 {}});
    } else if ((is_punct(n1, "+") || is_punct(n1, "-") ||
                is_punct(n1, "&") || is_punct(n1, "|") ||
                is_punct(n1, "^")) &&
               is_punct(n2, "=")) {
      out_.atomic_ops.push_back({ts_[i].line, std::string(id), "op=", {}});
    }
  }

  void collect_orders(std::size_t b, std::size_t e, AtomicOp& op) {
    for (std::size_t k = b; k < e && k < ts_.size(); ++k) {
      if (ts_[k].kind != Tok::Identifier) continue;
      std::string_view id = ts_[k].text;
      if (starts_with(id, "memory_order_")) {
        std::string name(id.substr(13));
        op.orders.emplace_back(name, order_rank(name));
      } else if (id == "memory_order" && k + 2 < e &&
                 is_punct(ts_[k + 1], "::") &&
                 ts_[k + 2].kind == Tok::Identifier) {
        std::string name(ts_[k + 2].text);
        op.orders.emplace_back(name, order_rank(name));
        ++k;
      }
    }
  }

  /// memory_order tokens outside every detected op (fences and ops on
  /// receivers the shapes above missed) become synthetic ops so an explicit
  /// ordering can never dodge the floor check.
  void attach_orphan_orders() {
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      if (ts_[i].kind != Tok::Identifier ||
          !starts_with(ts_[i].text, "memory_order_")) {
        continue;
      }
      bool covered = false;
      for (auto [b, e] : op_ranges_) {
        if (i > b && i < e) {
          covered = true;
          break;
        }
      }
      if (covered) continue;
      std::string name(ts_[i].text.substr(13));
      AtomicOp op;
      op.line = ts_[i].line;
      op.method = "fence";
      op.orders.emplace_back(name, order_rank(name));
      out_.atomic_ops.push_back(std::move(op));
    }
  }

  const FileInput& in_;
  const Tokens& ts_;
  FileModel out_;
  std::vector<Scope> scopes_;
  std::vector<OpenLock> open_locks_;
  std::map<std::string, std::string> local_types_;
  std::map<std::string, std::vector<LockSite>> guard_locks_;
  std::vector<std::pair<std::size_t, std::size_t>> op_ranges_;
};

/// Resolve `inc` as written in `from` against the model's path set: exact
/// (src-relative, the repo convention) or relative to the including file.
std::size_t resolve_include(const RepoModel& m, const std::string& from,
                            const std::string& inc) {
  auto it = m.by_path.find(inc);
  if (it != m.by_path.end()) return it->second;
  std::size_t slash = from.rfind('/');
  if (slash != std::string::npos) {
    it = m.by_path.find(from.substr(0, slash + 1) + inc);
    if (it != m.by_path.end()) return it->second;
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

FileModel extract_file(const FileInput& in, const LexResult& lr,
                       std::vector<Finding>& diags) {
  (void)diags;  // directive diagnostics are parsed by the caller
  return Extractor(in, lr).run();
}

RepoModel build_repo_model(std::vector<FileModel> files) {
  RepoModel m;
  std::sort(files.begin(), files.end(),
            [](const FileModel& a, const FileModel& b) {
              return a.rel_path < b.rel_path;
            });
  m.files = std::move(files);
  for (std::size_t i = 0; i < m.files.size(); ++i) {
    m.by_path[m.files[i].rel_path] = i;
  }
  // Class -> member -> type over every file: a method defined in foo.cpp
  // reads the members foo.hpp declares.
  std::map<std::string, std::map<std::string, std::string>> member_types;
  for (const FileModel& f : m.files) {
    for (const auto& [cls, members] : f.member_types) {
      member_types[cls].insert(members.begin(), members.end());
    }
  }
  auto member_type = [&](const std::string& cls, const std::string& var) {
    auto ct = member_types.find(cls);
    if (ct == member_types.end()) return std::string();
    auto mt = ct->second.find(var);
    return mt == ct->second.end() ? std::string() : mt->second;
  };
  for (FileModel& f : m.files) {
    for (FunctionModel& fn : f.functions) {
      if (fn.cls.empty()) continue;
      for (CallSite& c : fn.calls) {
        if (c.receiver_type.empty() && !c.receiver_var.empty()) {
          c.receiver_type = member_type(fn.cls, c.receiver_var);
        }
      }
      for (LockSite& s : fn.locks) {
        if (s.base_type.empty() && !s.base_expr.empty()) {
          s.base_type = member_type(fn.cls, s.base_expr);
        }
      }
    }
  }
  for (const FileModel& f : m.files) {
    for (const LockDecl& d : f.lock_decls) {
      if (d.cls.empty()) {
        m.lock_file_scope[d.name].insert(f.rel_path);
      } else {
        m.lock_member_classes[d.name].insert(d.cls);
        m.known_classes.insert(d.cls);
      }
    }
    for (const auto& [cls, _] : f.member_types) m.known_classes.insert(cls);
    for (const FunctionModel& fn : f.functions) {
      if (!fn.cls.empty()) m.known_classes.insert(fn.cls);
    }
  }

  // Include-transitive atomic visibility, memoized per file.
  std::map<std::size_t, std::set<std::string>> visible;
  std::vector<int> state(m.files.size(), 0);  // 0 new, 1 visiting, 2 done
  // Iterative DFS to keep cycles (which layering flags anyway) harmless.
  for (std::size_t root = 0; root < m.files.size(); ++root) {
    if (state[root] == 2) continue;
    std::vector<std::size_t> stack{root};
    while (!stack.empty()) {
      std::size_t f = stack.back();
      if (state[f] == 0) {
        state[f] = 1;
        bool pushed = false;
        for (const auto& [inc, _] : m.files[f].includes) {
          std::size_t t = resolve_include(m, m.files[f].rel_path, inc);
          if (t != static_cast<std::size_t>(-1) && state[t] == 0) {
            stack.push_back(t);
            pushed = true;
          }
        }
        if (pushed) continue;
      }
      // All children resolved (or in-progress: skip, cycle).
      auto& vis = visible[f];
      vis.insert(m.files[f].atomic_names.begin(),
                 m.files[f].atomic_names.end());
      for (const auto& [inc, _] : m.files[f].includes) {
        std::size_t t = resolve_include(m, m.files[f].rel_path, inc);
        if (t != static_cast<std::size_t>(-1) && state[t] == 2) {
          vis.insert(visible[t].begin(), visible[t].end());
        }
      }
      state[f] = 2;
      stack.pop_back();
    }
  }

  for (std::size_t i = 0; i < m.files.size(); ++i) {
    FileModel& f = m.files[i];
    const auto& vis = visible[i];
    // Keep ops whose receiver is a visible atomic, or that carry an
    // explicit memory_order (explicit ordering proves atomicity).
    std::vector<AtomicOp> kept;
    for (AtomicOp& op : f.atomic_ops) {
      if (!op.orders.empty() || (!op.var.empty() && vis.count(op.var) > 0)) {
        kept.push_back(std::move(op));
      }
    }
    std::sort(kept.begin(), kept.end(),
              [](const AtomicOp& a, const AtomicOp& b) {
                return a.line < b.line;
              });
    f.atomic_ops = std::move(kept);

    // Canonicalize lock identities now that every declaration is known.
    for (FunctionModel& fn : f.functions) {
      for (LockSite& s : fn.locks) {
        if (!s.lock.empty()) continue;
        auto ll = fn.local_locks.find(s.member);
        if (ll != fn.local_locks.end()) {
          s.lock = ll->second;
          continue;
        }
        auto mc = m.lock_member_classes.find(s.member);
        if (!s.base_type.empty() && mc != m.lock_member_classes.end() &&
            mc->second.count(s.base_type) > 0) {
          s.lock = s.base_type + "::" + s.member;
        } else if (!s.enclosing_class.empty() &&
                   mc != m.lock_member_classes.end() &&
                   mc->second.count(s.enclosing_class) > 0) {
          s.lock = s.enclosing_class + "::" + s.member;
        } else if (mc != m.lock_member_classes.end() &&
                   mc->second.size() == 1) {
          s.lock = *mc->second.begin() + "::" + s.member;
        } else {
          auto fsit = m.lock_file_scope.find(s.member);
          if (fsit != m.lock_file_scope.end() && !fsit->second.empty()) {
            s.lock = *fsit->second.begin() + "::" + s.member;
          } else {
            s.lock = f.rel_path + "::" + s.member;
          }
        }
      }
    }
  }
  return m;
}

}  // namespace ilu::lint
