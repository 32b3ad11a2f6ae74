// gvm-lint parser: lowers a lexed file into the rule model.
//
// This is a structural parser, not a full C++ parser: it tracks namespaces,
// classes (with bases and members), function definitions, and inside bodies
// the lexical order of guard acquisitions/releases, gather scopes and call
// sites.  The tree's uniform style (one declaration per line, RAII guards,
// annotation macros) is what makes this tractable; anything the parser cannot
// classify it skips without emitting events, so unknown constructs can only
// cause missed diagnostics, never crashes.
#include "tools/lint/model.h"

#include <algorithm>
#include <cassert>

namespace gvmlint {
namespace {

using Toks = std::vector<Token>;

bool IsKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",      "while",    "switch",  "return", "sizeof",
      "catch",  "new",      "delete",   "case",    "goto",   "else",
      "do",     "alignof",  "decltype", "throw",   "co_await"};
  return kKeywords.count(s) != 0;
}

bool IsGuardType(const std::string& s) {
  return s == "MutexLock" || s == "WriterLock" || s == "ReaderLock" ||
         s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
         s == "shared_lock";
}

bool IsSharedGuardType(const std::string& s) {
  return s == "ReaderLock" || s == "shared_lock";
}

bool IsMutexType(const std::string& s) {
  return s == "Mutex" || s == "SharedMutex" || s == "mutex" ||
         s == "shared_mutex" || s == "recursive_mutex";
}

// Types that synchronize internally and are therefore exempt from the
// annotation-coverage rule when they appear as members.
bool IsInternallySyncedType(const std::string& head) {
  return head == "Mutex" || head == "SharedMutex" || head == "CondVar" ||
         head == "SleepQueue" || head == "std::mutex" ||
         head == "std::shared_mutex" || head == "std::condition_variable";
}

class Parser {
 public:
  Parser(const LexedFile& lexed, FileModel* file, Project* project)
      : toks_(lexed.tokens), file_(file), project_(project) {}

  void Run() {
    ParseOuter(/*class_name=*/"", toks_.size() - 1);
    for (size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind == Token::kIdent && toks_[i].text == "kRetry") {
        file_->kretry_lines.push_back(toks_[i].line);
      }
    }
  }

 private:
  const Toks& toks_;
  FileModel* file_;
  Project* project_;
  size_t pos_ = 0;

  const Token& Tok(size_t i) const {
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool Is(size_t i, const char* text) const { return Tok(i).text == text; }

  // Advances past a balanced group starting at an opener token; returns the
  // index one past the matching closer.
  size_t SkipBalanced(size_t i) const {
    const std::string& open = Tok(i).text;
    std::string close = open == "(" ? ")" : open == "{" ? "}" : "]";
    int depth = 0;
    for (; i < toks_.size() - 1; ++i) {
      const std::string& t = Tok(i).text;
      if (t == open) {
        ++depth;
      } else if (t == close) {
        if (--depth == 0) return i + 1;
      } else if (open != "{" && t == "{") {
        // Nested brace group inside parens (lambda body, brace-init).
        i = SkipBalanced(i) - 1;
      }
    }
    return toks_.size() - 1;
  }

  static std::string Textify(const Toks& toks, size_t from, size_t to) {
    std::string out;
    for (size_t i = from; i < to; ++i) {
      if (!out.empty() && toks[i].kind == Token::kIdent &&
          out.back() != ':' && out.back() != '.' && out.back() != '>' &&
          out.back() != '(' && out.back() != '*' && out.back() != '&') {
        out += ' ';
      }
      out += toks[i].text;
    }
    return out;
  }

  std::string LastIdentIn(size_t from, size_t to) const {
    for (size_t i = to; i-- > from;) {
      if (Tok(i).kind == Token::kIdent) return Tok(i).text;
    }
    return "";
  }

  // ---- outer (namespace / class) scope -----------------------------------

  // Parses declarations until the brace closing this scope (or EOF).
  void ParseOuter(const std::string& class_name, size_t hard_end) {
    while (pos_ < toks_.size() - 1 && pos_ < hard_end) {
      const Token& t = Tok(pos_);
      if (t.text == "}") {
        return;  // caller consumes
      }
      if (t.text == ";") {
        ++pos_;
        continue;
      }
      if (t.text == "namespace") {
        ParseNamespace(hard_end);
        continue;
      }
      if (t.text == "template") {
        ++pos_;
        if (Is(pos_, "<")) pos_ = SkipAngles(pos_);
        continue;  // the templated declaration follows
      }
      if ((t.text == "class" || t.text == "struct") && ClassHasBody()) {
        ParseClass();
        continue;
      }
      if (t.text == "enum") {
        SkipToSemicolonBalanced();
        continue;
      }
      if (t.text == "using" || t.text == "typedef" || t.text == "friend" ||
          t.text == "extern") {
        SkipToSemicolonBalanced();
        continue;
      }
      if ((t.text == "public" || t.text == "private" || t.text == "protected") &&
          Is(pos_ + 1, ":")) {
        pos_ += 2;
        continue;
      }
      ParseDeclaration(class_name);
    }
  }

  size_t SkipAngles(size_t i) const {
    int depth = 0;
    for (; i < toks_.size() - 1; ++i) {
      const std::string& t = Tok(i).text;
      if (t == "<") ++depth;
      else if (t == ">") { if (--depth == 0) return i + 1; }
      else if (t == ">>") { depth -= 2; if (depth <= 0) return i + 1; }
      else if (t == "(" || t == "[" || t == "{") i = SkipBalanced(i) - 1;
      else if (t == ";") return i;  // bail: not a template list after all
    }
    return toks_.size() - 1;
  }

  void ParseNamespace(size_t hard_end) {
    ++pos_;  // 'namespace'
    while (Tok(pos_).kind == Token::kIdent || Is(pos_, "::")) ++pos_;
    if (Is(pos_, "=")) {  // namespace alias
      SkipToSemicolonBalanced();
      return;
    }
    if (Is(pos_, "{")) {
      ++pos_;
      ParseOuter("", hard_end);
      if (Is(pos_, "}")) ++pos_;
    }
  }

  // After `class`/`struct`, does a body follow (vs. a forward declaration or
  // an elaborated type in a member declaration)?
  bool ClassHasBody() const {
    size_t i = pos_ + 1;
    while (i < toks_.size() - 1) {
      const std::string& t = Tok(i).text;
      if (t == "{") return true;
      if (t == ";" || t == ")" || t == ">" || t == ",") return false;
      if (t == "(") {  // alignas(...) / GVM_CAPABILITY(...)
        i = SkipBalanced(i);
        continue;
      }
      ++i;
    }
    return false;
  }

  void ParseClass() {
    ++pos_;  // class/struct
    std::string name;
    std::vector<std::string> bases;
    int line = Tok(pos_).line;
    bool in_bases = false;
    while (pos_ < toks_.size() - 1 && !Is(pos_, "{")) {
      const Token& t = Tok(pos_);
      if (t.text == "(") {
        pos_ = SkipBalanced(pos_);
        continue;
      }
      if (t.text == ":") {
        in_bases = true;
      } else if (t.kind == Token::kIdent && t.text != "final" &&
                 t.text != "public" && t.text != "private" &&
                 t.text != "protected" && t.text != "virtual" &&
                 t.text != "alignas") {
        if (in_bases) {
          // Take the last component of qualified bases.
          if (!Is(pos_ + 1, "::")) bases.push_back(t.text);
        } else {
          name = t.text;
        }
      } else if (t.text == "<") {
        pos_ = SkipAngles(pos_);
        continue;
      }
      ++pos_;
    }
    if (!Is(pos_, "{")) return;
    ++pos_;  // {
    ClassInfo& info = project_->classes[name];
    if (info.name.empty()) {
      info.name = name;
      info.file = file_->effective_path;
      info.line = line;
    }
    for (const std::string& b : bases) info.bases.push_back(b);
    ParseOuter(name, toks_.size() - 1);
    if (Is(pos_, "}")) ++pos_;
    // Optional trailing declarator (`} instance_;`).
    SkipToSemicolonBalanced();
  }

  void SkipToSemicolonBalanced() {
    while (pos_ < toks_.size() - 1) {
      const std::string& t = Tok(pos_).text;
      if (t == ";") {
        ++pos_;
        return;
      }
      if (t == "(" || t == "{" || t == "[") {
        pos_ = SkipBalanced(pos_);
        continue;
      }
      if (t == "}") return;  // scope closer reached without ';'
      ++pos_;
    }
  }

  // ---- one declaration at class / namespace scope ------------------------

  struct DeclScan {
    size_t start = 0;
    size_t param_open = 0;   // index of the parameter-list '(' (0 = none)
    size_t param_close = 0;  // one past its ')'
    size_t body_open = 0;    // index of the function-body '{' (0 = none)
    size_t end = 0;          // one past ';' for non-definitions
    bool has_operator = false;
  };

  // Scans one declaration without consuming it; classifies parameter list and
  // body.  Returns false if the construct is unparseable (caller skips it).
  bool ScanDeclaration(DeclScan* out) {
    size_t i = pos_;
    out->start = pos_;
    bool seen_params = false;
    bool in_init_list = false;
    while (i < toks_.size() - 1) {
      const std::string& t = Tok(i).text;
      if (t == "operator") out->has_operator = true;
      if (t == ";") {
        out->end = i + 1;
        return true;
      }
      if (t == "}") {
        out->end = i;  // malformed / scope end; consume nothing past it
        return true;
      }
      if (t == "<" && Tok(i - 1).kind == Token::kIdent) {
        size_t after = SkipAngles(i);
        if (after > i + 1) {
          i = after;
          continue;
        }
      }
      if (t == "[") {
        i = SkipBalanced(i);
        continue;
      }
      if (t == "(") {
        const Token& prev = Tok(i - 1);
        bool skippable_group =
            prev.text == "alignas" || prev.text == "decltype" ||
            prev.text == "noexcept" ||
            (prev.kind == Token::kIdent && prev.text.rfind("GVM_", 0) == 0);
        if (!seen_params && prev.kind == Token::kIdent && !skippable_group &&
            !out->has_operator) {
          out->param_open = i;
          out->param_close = SkipBalanced(i);
          seen_params = true;
          i = out->param_close;
          continue;
        }
        i = SkipBalanced(i);
        continue;
      }
      if (t == ":" && seen_params && Tok(i - 1).text != ":") {
        in_init_list = true;
        ++i;
        continue;
      }
      if (t == "{") {
        const std::string& prev = Tok(i - 1).text;
        if (seen_params &&
            (in_init_list ? (prev == ")" || prev == "}")
                          : true)) {
          // Function body (possibly after trailing specifiers / init list).
          out->body_open = i;
          return true;
        }
        if (!seen_params || prev == "=" || Tok(i - 1).kind == Token::kIdent ||
            prev == ">" || prev == "]" || prev == ",") {
          // Brace initializer.
          i = SkipBalanced(i);
          continue;
        }
        out->body_open = i;
        return true;
      }
      ++i;
    }
    out->end = toks_.size() - 1;
    return true;
  }

  // Extracts GVM_REQUIRES keys and allow notes between the parameter list and
  // the terminator.
  void ScanTrailing(const DeclScan& d, std::vector<std::string>* requires_keys,
                    bool* nodiscard_unused) {
    (void)nodiscard_unused;
    size_t stop = d.body_open != 0 ? d.body_open : d.end;
    for (size_t i = d.param_close; i < stop; ++i) {
      const Token& t = Tok(i);
      if (t.kind == Token::kIdent &&
          (t.text == "GVM_REQUIRES" || t.text == "GVM_REQUIRES_SHARED") &&
          Is(i + 1, "(")) {
        size_t close = SkipBalanced(i + 1);
        SplitArgsTrailing(i + 2, close - 1, requires_keys);
        i = close - 1;
      }
    }
  }

  // Splits [from, to) at top-level commas; appends each piece's trailing
  // identifier.
  void SplitArgsTrailing(size_t from, size_t to, std::vector<std::string>* out) {
    size_t piece_start = from;
    size_t i = from;
    while (i < to) {
      const std::string& t = Tok(i).text;
      if (t == "(" || t == "[" || t == "{") {
        i = SkipBalanced(i);
        continue;
      }
      if (t == ",") {
        std::string id = LastIdentIn(piece_start, i);
        if (!id.empty()) out->push_back(id);
        piece_start = i + 1;
      }
      ++i;
    }
    if (piece_start < to) {
      std::string id = LastIdentIn(piece_start, to);
      if (!id.empty()) out->push_back(id);
    }
  }

  // Leading return-type check: skips specifiers and attributes, returns the
  // first type token.
  std::string LeadingType(const DeclScan& d, bool* nodiscard) const {
    size_t i = d.start;
    size_t stop = d.param_open != 0 ? d.param_open : d.end;
    while (i < stop) {
      const Token& t = Tok(i);
      if (t.text == "[" && Is(i + 1, "[")) {
        size_t close = SkipBalanced(i);
        for (size_t k = i; k < close; ++k) {
          if (Tok(k).text == "nodiscard") *nodiscard = true;
        }
        i = close;
        continue;
      }
      if (t.kind == Token::kIdent &&
          (t.text == "virtual" || t.text == "inline" || t.text == "static" ||
           t.text == "explicit" || t.text == "constexpr" ||
           t.text == "friend" || t.text == "mutable")) {
        ++i;
        continue;
      }
      if (t.kind == Token::kIdent) return t.text;
      ++i;
    }
    return "";
  }

  // Name chain immediately before the parameter list: `A::B::name` or `~X`.
  void FunctionName(const DeclScan& d, std::string* name,
                    std::string* qualifier) const {
    size_t i = d.param_open;
    std::vector<std::string> parts;
    size_t k = i;
    while (k > d.start) {
      const Token& prev = Tok(k - 1);
      if (prev.kind == Token::kIdent) {
        parts.push_back(prev.text);
        if (k >= 2 && Is(k - 2, "~")) {
          parts.back() = "~" + parts.back();
          --k;
        }
        if (k >= 2 && Is(k - 2, "::")) {
          k -= 2;
          continue;
        }
      } else if (prev.text == ">") {
        // Templated qualifier; give up on the qualifier chain.
      }
      break;
    }
    if (parts.empty()) return;
    *name = parts.front();
    std::vector<std::string> quals(parts.begin() + 1, parts.end());
    std::reverse(quals.begin(), quals.end());
    std::string q;
    for (const std::string& part : quals) {
      if (!q.empty()) q += "::";
      q += part;
    }
    *qualifier = q;
  }

  // Detects a `MutexLock&` parameter.
  void GuardParam(const DeclScan& d, bool* has, std::string* name) const {
    if (d.param_open == 0) return;
    for (size_t i = d.param_open + 1; i + 2 < d.param_close; ++i) {
      if (Tok(i).text == "MutexLock" && Is(i + 1, "&") &&
          Tok(i + 2).kind == Token::kIdent) {
        *has = true;
        *name = Tok(i + 2).text;
        return;
      }
    }
  }

  // Directives attach on the flagged line itself or as a comment on the line
  // directly above it.
  std::set<std::string> AllowsAt(int line) const {
    std::set<std::string> out;
    for (int l : {line, line - 1}) {
      auto it = file_->notes.find(l);
      if (it != file_->notes.end()) {
        out.insert(it->second.allows.begin(), it->second.allows.end());
      }
    }
    return out;
  }

  void ParseDeclaration(const std::string& class_name) {
    DeclScan d;
    if (!ScanDeclaration(&d)) {
      SkipToSemicolonBalanced();
      return;
    }
    if (d.param_open != 0 && !d.has_operator) {
      bool nodiscard = false;
      std::string type_head = LeadingType(d, &nodiscard);
      std::string name, qualifier;
      FunctionName(d, &name, &qualifier);
      std::vector<std::string> requires_keys;
      ScanTrailing(d, &requires_keys, &nodiscard);
      bool has_guard_param = false;
      std::string guard_param;
      GuardParam(d, &has_guard_param, &guard_param);
      std::string owner = !qualifier.empty() ? qualifier : class_name;
      int line = Tok(d.start).line;

      if (d.body_open != 0) {
        auto fn = std::make_unique<FunctionInfo>();
        fn->name = name;
        fn->class_name = owner;
        fn->file = file_->effective_path;
        fn->line = line;
        fn->returns_status = (type_head == "Status");
        fn->requires_keys = requires_keys;
        fn->has_guard_param = has_guard_param;
        fn->guard_param_name = guard_param;
        fn->allows = AllowsAt(line);
        {
          auto sig_allows = AllowsAt(Tok(d.param_open).line);
          fn->allows.insert(sig_allows.begin(), sig_allows.end());
        }
        pos_ = d.body_open;
        ParseBody(fn.get());
        // In-class definitions double as their own declaration.
        if (!class_name.empty() || !qualifier.empty()) {
          MethodDecl decl;
          decl.name = name;
          decl.class_name = owner;
          decl.file = file_->effective_path;
          decl.line = line;
          decl.returns_status = fn->returns_status;
          decl.requires_keys = requires_keys;
          decl.has_guard_param = has_guard_param;
          decl.guard_param_name = guard_param;
          decl.allows = fn->allows;
          decl.nodiscard = nodiscard;
          project_->classes[owner].method_decls.push_back(decl);
        }
        file_->functions.push_back(std::move(fn));
        return;
      }
      // Pure declaration.
      MethodDecl decl;
      decl.name = name;
      decl.class_name = owner;
      decl.file = file_->effective_path;
      decl.line = line;
      decl.returns_status = (type_head == "Status");
      decl.requires_keys = requires_keys;
      decl.has_guard_param = has_guard_param;
      decl.guard_param_name = guard_param;
      decl.allows = AllowsAt(line);
      decl.nodiscard = nodiscard;
      project_->classes[owner].method_decls.push_back(decl);
      pos_ = d.end;
      return;
    }
    // Not a function: a member (at class scope) or a namespace-scope variable.
    if (!class_name.empty() && !d.has_operator && d.body_open == 0) {
      ParseMember(class_name, d);
    }
    pos_ = d.body_open != 0 ? SkipBalanced(d.body_open) : d.end;
  }

  // ---- members -----------------------------------------------------------

  void ParseMember(const std::string& class_name, const DeclScan& d) {
    size_t from = d.start;
    size_t to = d.end > 0 ? d.end - 1 : d.start;  // excludes ';'
    if (to <= from) return;
    MemberInfo m;
    m.file = file_->effective_path;

    bool is_static = false;
    size_t i = from;
    // Leading qualifiers.
    while (i < to) {
      const std::string& t = Tok(i).text;
      if (t == "mutable" || t == "inline") {
        ++i;
      } else if (t == "static" || t == "constexpr") {
        is_static = true;
        ++i;
      } else {
        break;
      }
    }
    if (is_static || i >= to) return;

    // Annotation macro + init stripping while locating the name.
    size_t name_idx = 0;
    size_t init_start = to;
    size_t scan = i;
    std::vector<size_t> top_idents;
    while (scan < to) {
      const Token& t = Tok(scan);
      if (t.text == "GVM_GUARDED_BY" || t.text == "GVM_PT_GUARDED_BY") {
        m.guarded_by = true;
        if (Is(scan + 1, "(")) {
          size_t close = SkipBalanced(scan + 1);
          m.guard_key = LastIdentIn(scan + 2, close - 1);
          scan = close;
          continue;
        }
      }
      if (t.text == "=") {
        init_start = scan;
        break;
      }
      if (t.text == "<" && Tok(scan - 1).kind == Token::kIdent) {
        size_t after = SkipAngles(scan);
        if (after > scan + 1) {
          scan = after;
          continue;
        }
      }
      if (t.text == "{") {
        // Brace init: the member name is the identifier right before it.
        init_start = scan;
        break;
      }
      if (t.text == "[") {
        // Array bound: the name precedes it, but annotations (GUARDED_BY)
        // follow it — skip the bound and keep scanning.
        scan = SkipBalanced(scan);
        continue;
      }
      if (t.text == "(") {
        scan = SkipBalanced(scan);
        continue;
      }
      if (t.kind == Token::kIdent && t.text.rfind("GVM_", 0) != 0) {
        top_idents.push_back(scan);
      }
      ++scan;
    }
    if (top_idents.empty()) return;
    name_idx = top_idents.back();
    m.name = Tok(name_idx).text;
    m.line = Tok(name_idx).line;

    // Type region: [i, name_idx).
    bool saw_star = false;
    size_t last_const = 0;
    bool has_const = false;
    for (size_t k = i; k < name_idx; ++k) {
      const std::string& t = Tok(k).text;
      if (t == "*") saw_star = true;
      if (t == "&") m.is_reference = true;
      if (t == "const") {
        has_const = true;
        last_const = k;
      }
    }
    // `const T x` or `T* const x` is an immutable member; `const T* x` is a
    // mutable pointer to const and stays in scope for the coverage rule.
    if (has_const) {
      bool star_after_const = false;
      for (size_t k = last_const; k < name_idx; ++k) {
        if (Tok(k).text == "*") star_after_const = true;
      }
      m.is_const = !star_after_const && (!saw_star || last_const > i);
      if (saw_star && last_const == i) m.is_const = false;
    }
    // Type head: leading identifier chain.
    {
      size_t k = i;
      while (k < name_idx && Tok(k).text == "const") ++k;
      std::string head;
      while (k < name_idx &&
             (Tok(k).kind == Token::kIdent || Tok(k).text == "::")) {
        if (Tok(k).kind == Token::kIdent && Tok(k).text.rfind("GVM_", 0) == 0) break;
        head += Tok(k).text;
        ++k;
        if (k < name_idx && Tok(k).text != "::" &&
            Tok(k - 1).text != "::") {
          break;
        }
      }
      m.type_head = head;
    }
    for (size_t k = i; k < to; ++k) {
      if (Tok(k).text == "atomic") m.is_atomic = true;
    }
    std::string bare_head = m.type_head;
    size_t colon = bare_head.rfind("::");
    std::string last_head =
        colon == std::string::npos ? bare_head : bare_head.substr(colon + 2);
    m.is_mutex = !m.is_reference && !saw_star && IsMutexType(last_head);
    m.is_internally_synced = IsInternallySyncedType(m.type_head) ||
                             IsInternallySyncedType(last_head);
    // Mutex rank from the brace initializer: `{Rank::kFoo, "name"}`.
    if (m.is_mutex && init_start < to && Tok(init_start).text == "{") {
      for (size_t k = init_start; k < to && Tok(k).text != ","; ++k) {
        if (Tok(k).kind == Token::kIdent && Tok(k).text.rfind("k", 0) == 0 &&
            k >= 2 && Is(k - 1, "::") && Tok(k - 2).text == "Rank") {
          m.rank = Tok(k).text;
        }
      }
    }
    m.allows = AllowsAt(m.line);
    project_->classes[class_name].members.push_back(m);
  }

  // ---- function bodies ---------------------------------------------------

  struct ChainInfo {
    size_t start = 0;     // first token of the receiver chain
    std::string receiver; // textified chain before the final member access
  };

  // Walks the call chain backwards from the callee identifier at `callee_idx`.
  ChainInfo WalkChain(size_t callee_idx) const {
    ChainInfo out;
    size_t i = callee_idx;
    while (i > 0) {
      const std::string& sep = Tok(i - 1).text;
      if (sep != "." && sep != "->" && sep != "::") break;
      size_t j = i - 1;  // separator
      // The element before the separator: ident, (...), [...] or `this`.
      size_t k = j;
      while (k > 0) {
        const std::string& p = Tok(k - 1).text;
        if (p == ")" || p == "]") {
          // Balanced backward skip.
          const std::string open = p == ")" ? "(" : "[";
          int depth = 0;
          size_t b = k - 1;
          while (b > 0) {
            if (Tok(b).text == p) ++depth;
            else if (Tok(b).text == open && --depth == 0) break;
            --b;
          }
          // A discarding cast is not part of the receiver chain.
          if (p == ")" && Tok(b + 1).text == "void") break;
          k = b;
          continue;
        }
        if (Tok(k - 1).kind == Token::kIdent || p == "this") {
          k = k - 1;
          break;
        }
        break;
      }
      if (k == j) break;
      i = k;
    }
    out.start = i;
    out.receiver = i < callee_idx ? Textify(toks_, i, callee_idx - 1) : "";
    return out;
  }

  bool StatementStartBefore(size_t chain_start) const {
    if (chain_start == 0) return true;
    const Token& prev = Tok(chain_start - 1);
    if (prev.text == ";" || prev.text == "{" || prev.text == "}" ||
        prev.text == "else" || prev.text == "do") {
      return true;
    }
    // `case X: Foo();` is a statement context, but a ternary's `:` is not —
    // only treat the colon as a boundary when a `case`/`default` label owns it.
    if (prev.text == ":" && chain_start >= 2) {
      for (size_t b = chain_start - 1; b-- > 0;) {
        const std::string& t = Tok(b).text;
        if (t == "case" || t == "default") return true;
        if (t == ";" || t == "{" || t == "}" || t == "?" || t == ")") break;
      }
    }
    if (prev.text == ")") {
      // `if (...) Foo();` — statement context when the group closes a
      // control-flow condition; `(void)Foo()` is an explicit discard.
      int depth = 0;
      size_t b = chain_start - 1;
      while (b > 0) {
        if (Tok(b).text == ")") ++depth;
        else if (Tok(b).text == "(" && --depth == 0) break;
        --b;
      }
      if (b > 0) {
        const std::string& before = Tok(b - 1).text;
        if (before == "if" || before == "for" || before == "while" ||
            before == "switch") {
          return true;
        }
      }
    }
    return false;
  }

  void ParseBody(FunctionInfo* fn) {
    assert(Is(pos_, "{"));
    size_t end = SkipBalanced(pos_);
    size_t i = pos_ + 1;
    int depth = 1;
    while (i < end - 1) {
      const Token& t = Tok(i);
      if (t.text == "{") {
        ++depth;
        Event open;
        open.kind = Event::kScopeOpen;
        open.line = t.line;
        fn->events.push_back(open);
        ++i;
        continue;
      }
      if (t.text == "}") {
        --depth;
        Event close;
        close.kind = Event::kScopeClose;
        close.line = t.line;
        fn->events.push_back(close);
        ++i;
        continue;
      }
      if ((t.text == "class" || t.text == "struct") && LocalClassAt(i)) {
        // Function-local type: skip entirely (its methods run elsewhere).
        while (i < end - 1 && !Is(i, "{")) ++i;
        if (i < end - 1) i = SkipBalanced(i);
        while (i < end - 1 && !Is(i, ";")) ++i;
        continue;
      }
      // RAII guard declaration.
      if (t.kind == Token::kIdent && IsGuardType(t.text)) {
        size_t after_type = i + 1;
        if (Is(after_type, "<")) after_type = SkipAngles(after_type);
        if (Tok(after_type).kind == Token::kIdent &&
            (Is(after_type + 1, "(") || Is(after_type + 1, "{"))) {
          size_t open = after_type + 1;
          size_t close = SkipBalanced(open);
          Event e;
          e.kind = Event::kGuardAcquire;
          e.line = t.line;
          e.var = Tok(after_type).text;
          e.lock_expr = Textify(toks_, open + 1, close - 1);
          e.lock_key = LastIdentIn(open + 1, close - 1);
          e.shared = IsSharedGuardType(t.text);
          fn->events.push_back(e);
          i = close;
          continue;
        }
      }
      // TlbGatherScope declaration.
      if (t.text == "TlbGatherScope" && Tok(i + 1).kind == Token::kIdent &&
          (Is(i + 2, "(") || Is(i + 2, "{"))) {
        size_t close = SkipBalanced(i + 2);
        Event e;
        e.kind = Event::kGatherOpen;
        e.line = t.line;
        e.var = Tok(i + 1).text;
        fn->events.push_back(e);
        i = close;
        continue;
      }
      // Local mutex declaration (fixtures and ad-hoc test mutexes).
      if (t.kind == Token::kIdent && IsMutexType(t.text) &&
          Tok(i + 1).kind == Token::kIdent &&
          (Is(i + 2, ";") || Is(i + 2, "{"))) {
        Event e;
        e.kind = Event::kLocalMutex;
        e.line = t.line;
        e.var = Tok(i + 1).text;
        if (Is(i + 2, "{")) {
          size_t close = SkipBalanced(i + 2);
          for (size_t k = i + 2; k < close; ++k) {
            if (Tok(k).kind == Token::kIdent && k >= 2 && Is(k - 1, "::") &&
                Tok(k - 2).text == "Rank") {
              e.rank = Tok(k).text;
              break;
            }
          }
          i = close;
        } else {
          i += 2;
        }
        fn->events.push_back(e);
        continue;
      }
      // Call site.
      if (t.kind == Token::kIdent && Is(i + 1, "(") && !IsKeyword(t.text)) {
        ChainInfo chain = WalkChain(i);
        size_t close = SkipBalanced(i + 1);
        Event e;
        e.line = t.line;
        e.callee = t.text;
        e.receiver = chain.receiver;
        SplitArgsTrailing(i + 2, close - 1, &e.args);
        if (!e.args.empty()) e.arg_key = e.args.back();
        std::string recv_key = TrailingIdent(chain.receiver);

        if ((t.text == "Lock" || t.text == "LockShared") &&
            !chain.receiver.empty() && e.args.empty()) {
          e.kind = Event::kGuardAcquire;
          e.lock_expr = chain.receiver;
          e.lock_key = recv_key;
          e.shared = (t.text == "LockShared");
        } else if ((t.text == "Unlock" || t.text == "UnlockShared") &&
                   !chain.receiver.empty() && e.args.empty()) {
          e.kind = Event::kGuardRelease;
          e.lock_expr = chain.receiver;
          e.lock_key = recv_key;
        } else if (t.text == "unlock" && !chain.receiver.empty() &&
                   e.args.empty()) {
          e.kind = Event::kGuardRelease;
          e.var = recv_key;
        } else if (t.text == "lock" && !chain.receiver.empty() &&
                   e.args.empty()) {
          e.kind = Event::kGuardReacquire;
          e.var = recv_key;
        } else if (t.text == "BeginGather") {
          e.kind = Event::kGatherOpen;
        } else if (t.text == "EndGather") {
          e.kind = Event::kGatherClose;
        } else {
          e.kind = Event::kCall;
          if (StatementStartBefore(chain.start) && Is(close, ";")) {
            // Discarded expression statement; rules check the Status set.
            e.var = "<discarded>";
          }
        }
        fn->events.push_back(e);
        ++i;  // keep scanning inside the argument list for nested calls
        continue;
      }
      // Lambda introducer: treat the body as a nested scope (handled by the
      // generic brace events); nothing to do beyond skipping the capture.
      if (t.text == "[") {
        const Token& prev = Tok(i - 1);
        bool index_context = prev.kind == Token::kIdent || prev.text == ")" ||
                             prev.text == "]";
        if (index_context) {
          i = SkipBalanced(i);
          continue;
        }
        i = SkipBalanced(i);  // capture list
        continue;
      }
      ++i;
    }
    (void)depth;
    pos_ = end;
  }

  bool LocalClassAt(size_t i) const {
    // `struct X { ... }` with a body inside a function.
    size_t k = i + 1;
    while (k < toks_.size() - 1) {
      const std::string& t = Tok(k).text;
      if (t == "{") return true;
      if (t == ";" || t == "(" || t == ")" || t == "=") return false;
      ++k;
    }
    return false;
  }
};

}  // namespace

std::string TrailingIdent(const std::string& expr) {
  size_t end = expr.size();
  while (end > 0 && !IsIdentChar(expr[end - 1])) --end;
  size_t start = end;
  while (start > 0 && IsIdentChar(expr[start - 1])) --start;
  return expr.substr(start, end - start);
}

void ParseFile(const std::string& path, const std::string& display_path,
               const std::string& contents, Project* project) {
  (void)path;
  LexedFile lexed = Lex(contents);
  auto file = std::make_unique<FileModel>();
  file->path = display_path;
  file->effective_path =
      lexed.pretend_path.empty() ? display_path : lexed.pretend_path;
  file->notes = std::move(lexed.notes);
  FileModel* raw = file.get();
  project->files.push_back(std::move(file));
  Parser parser(lexed, raw, project);
  parser.Run();
}

void ParseRankTable(const std::string& contents, Project* project) {
  LexedFile lexed = Lex(contents);
  const auto& toks = lexed.tokens;
  // Find `enum class Rank {`.
  size_t i = 0;
  for (; i + 3 < toks.size(); ++i) {
    if (toks[i].text == "enum" && toks[i + 1].text == "class" &&
        toks[i + 2].text == "Rank" &&
        (toks[i + 3].text == "{" || toks[i + 3].text == ":")) {
      break;
    }
  }
  while (i < toks.size() && toks[i].text != "{") ++i;
  if (i >= toks.size()) return;
  ++i;
  int next_value = 0;
  while (i < toks.size() && toks[i].text != "}") {
    if (toks[i].kind == Token::kIdent) {
      std::string name = toks[i].text;
      int value = next_value;
      if (i + 1 < toks.size() && toks[i + 1].text == "=") {
        size_t v = i + 2;
        int sign = 1;
        if (v < toks.size() && toks[v].text == "-") {
          sign = -1;
          ++v;
        }
        if (v < toks.size() && toks[v].kind == Token::kNumber) {
          value = sign * std::stoi(toks[v].text);
          i = v;
        }
      }
      project->rank_values[name] = value;
      next_value = value + 1;
    }
    ++i;
  }
}

}  // namespace gvmlint
