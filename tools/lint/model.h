// gvm-lint: the translation-unit model the parser lowers into.
//
// The model is deliberately shaped around what the five rules need and
// nothing more: functions with their guard events and call sites in lexical
// order, classes with their members and mutex ranks, plus the per-line
// directive notes from the lexer.  See rules.cc for how it is consumed.
#ifndef GVM_TOOLS_LINT_MODEL_H_
#define GVM_TOOLS_LINT_MODEL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/lexer.h"

namespace gvmlint {

// One event in a function body, in lexical order.  The rule engine replays
// these with a scope stack to reconstruct which guards are live at each call.
struct Event {
  enum Kind {
    kScopeOpen,     // `{` of a nested scope (control flow, plain block, lambda)
    kScopeClose,    // matching `}` — guards/gathers declared inside die here
    kGuardAcquire,  // RAII guard declaration, or manual X.Lock()/LockShared()
    kGuardRelease,  // guard.unlock(), or manual X.Unlock()/UnlockShared()
    kGuardReacquire,  // guard.lock() after a transient drop
    kGatherOpen,    // TlbGatherScope declaration (or raw BeginGather())
    kGatherClose,   // raw EndGather()
    kCall,          // any other call site
    kLocalMutex,    // local Mutex/SharedMutex declaration (fixture support)
  };
  Kind kind = kCall;
  int line = 0;

  // kGuardAcquire / kGuardRelease / kGuardReacquire / kGatherOpen:
  std::string var;        // guard or gather variable name ("" for manual Lock)
  std::string lock_expr;  // full text of the lock expression
  std::string lock_key;   // trailing identifier of lock_expr ("mu_", "mu", ...)
  bool shared = false;    // reader acquisition (ReaderLock / LockShared)

  // kCall:
  std::string callee;             // last identifier of the call chain
  std::string receiver;           // chain before the final ./->/:: ("" if none)
  std::vector<std::string> args;  // top-level argument texts
  std::string arg_key;            // trailing identifier of the last argument

  // kLocalMutex:
  std::string rank;  // "Rank::kFoo" or "" (-> kUnranked)
};

struct FunctionInfo {
  std::string name;        // unqualified name
  std::string class_name;  // enclosing or explicit A::B qualifier ("" if free)
  std::string file;
  int line = 0;
  std::vector<Event> events;
  std::vector<std::string> requires_keys;  // GVM_REQUIRES(...) capability keys
  bool has_guard_param = false;  // takes a MutexLock& (runs with a lock held)
  std::string guard_param_name;  // name of that parameter
  std::set<std::string> allows;  // allow() directives on the signature line
  bool returns_status = false;   // return type is exactly `Status`
};

// A declared (not necessarily defined here) method — used to link decl-site
// annotations (REQUIRES, [[nodiscard]], Status return) onto out-of-line
// definitions, and to build the Status-returning API set.
struct MethodDecl {
  std::string name;
  std::string class_name;
  std::string file;
  int line = 0;
  bool returns_status = false;
  std::vector<std::string> requires_keys;
  bool has_guard_param = false;
  std::string guard_param_name;
  std::set<std::string> allows;
  bool nodiscard = false;
};

struct MemberInfo {
  std::string name;
  std::string type_head;  // leading type identifier chain ("std::atomic", "Mutex", ...)
  std::string file;
  int line = 0;
  bool is_mutex = false;         // Mutex / SharedMutex
  bool is_const = false;
  bool is_reference = false;
  bool is_atomic = false;
  bool is_internally_synced = false;  // CondVar, SleepQueue, Mutex-like, ...
  bool guarded_by = false;            // carries GVM_GUARDED_BY / GVM_PT_GUARDED_BY
  std::string guard_key;              // the capability it names (trailing ident)
  std::string rank;                   // mutex members: "Rank::kFoo" or ""
  std::set<std::string> allows;
};

struct ClassInfo {
  std::string name;
  std::string file;
  int line = 0;
  std::vector<std::string> bases;
  std::vector<MemberInfo> members;
  std::vector<MethodDecl> method_decls;
};

struct FileModel {
  std::string path;           // repo-relative path used for diagnostics
  std::string effective_path; // pretend-path override for fixtures, else path
  std::map<int, LineNotes> notes;
  std::vector<int> kretry_lines;  // lines where the kRetry token appears
  std::vector<std::unique_ptr<FunctionInfo>> functions;
};

struct Project {
  std::vector<std::unique_ptr<FileModel>> files;
  // Class name -> info (merged across files; the tree has unique class names).
  std::map<std::string, ClassInfo> classes;
  // Rank enumerator name ("kMmManager") -> numeric value, parsed from
  // src/sync/lock_rank.h.  kUnranked is exempt from ordering.
  std::map<std::string, int> rank_values;
};

// Parses one file into the project model.
void ParseFile(const std::string& path, const std::string& display_path,
               const std::string& contents, Project* project);

// Parses the Rank enum out of lock_rank.h's contents.
void ParseRankTable(const std::string& contents, Project* project);

// Trailing identifier of an expression text ("a->b.mu_" -> "mu_").
std::string TrailingIdent(const std::string& expr);

}  // namespace gvmlint

#endif  // GVM_TOOLS_LINT_MODEL_H_
