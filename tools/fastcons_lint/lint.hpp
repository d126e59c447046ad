// fastcons_lint: whole-program invariant analyzer for the fastcons tree.
//
// The repo's hardest invariants are not things a compiler or unit test can
// see: digest-bearing layers must be bit-deterministic, no blocking syscall
// may run while engine_mutex_ is held (the PR 5 lock discipline), decode
// paths must honour their throw contracts, and the layer DAG must stay
// acyclic as the system grows. This library checks them mechanically from
// source text alone — no compiler, no compile_commands.json — so the scan
// runs in milliseconds on any host and gates CI.
//
// Pipeline:
//   strip_source   comments / strings / raw strings / char literals blanked
//                  (newlines preserved so line numbers survive),
//                  preprocessor directives blanked with #include targets
//                  extracted first.
//   index_sources  per-TU index: function definitions (namespace/class
//                  scopes tracked for qualified names), call sites with
//                  qualification, MutexLock acquisition regions bounded by
//                  their brace scope, try regions, throw / .at( /
//                  dynamic_cast sites, REQUIRES/ACQUIRE annotations merged
//                  from declarations — plus a conservative name-resolved
//                  call graph over everything indexed.
//   rule_*         five rule engines (see below) producing Violations with
//                  the offending call chain attached.
//
// Rules:
//   blocking-under-lock  no blocking syscall/sleep reachable from a region
//                        holding the configured mutex (default
//                        engine_mutex_). Blocking primitives are the
//                        ::-qualified POSIX calls (send/recv/poll/connect/
//                        read/write/fsync/fdatasync/...) plus sleeps; the
//                        codebase's convention of ::-qualifying raw
//                        syscalls is what makes this precise.
//   layer-dag            #include edges between src/ layers must follow the
//                        declared DAG in layers.txt (transitive closure of
//                        the declared direct deps, mirroring the PUBLIC
//                        CMake link graph); the declared graph itself must
//                        be acyclic.
//   throw-contract       functions in nothrow.txt, and everything they
//                        reach through unguarded calls, may not contain
//                        throw, unguarded .at(), or dynamic_cast; a
//                        contract may instead allow exactly one exception
//                        type (throws=CodecError). Calls and throws inside
//                        a try block count as guarded.
//   determinism          the historical determinism lint, ported intact:
//                        unordered containers, rand/srand/time,
//                        random_device, *_clock::now, pointer-keyed
//                        ordered containers in the digest-bearing layers.
//                        Allowlist semantics (tools/determinism_allowlist
//                        .txt) are unchanged: reasons mandatory, stale
//                        entries fail.
//   digest-purity        functions defined in the digest-bearing layer set
//                        may not contain (or reach, across a layer-set
//                        boundary) wall-clock reads or I/O primitives. The
//                        layer set is dependency-closed by construction —
//                        layer-dag enforces that — so direct containment
//                        plus boundary-crossing edges is a sound check.
//
// Allowlists use the established format — `<path>:<rule> # reason` — with
// reasons mandatory and stale entries fatal. Reachability rules match an
// entry against either end of the chain: the file containing the root
// (locked region / contract function) or the file containing the sink, so
// one justified entry at a sanctioned sink suppresses every chain through
// it without loosening anything else.
#ifndef FASTCONS_TOOLS_FASTCONS_LINT_LINT_HPP
#define FASTCONS_TOOLS_FASTCONS_LINT_LINT_HPP

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace fastcons::lint {

// ---------------------------------------------------------------- sources

/// One input file: repo-relative generic path plus raw text.
struct SourceFile {
  std::string path;
  std::string text;
};

/// Lexer output: code-only text (same length/line structure as the input)
/// plus the #include targets the preprocessor pass extracted.
struct StrippedSource {
  struct Include {
    std::string target;  ///< as written between the quotes / angle brackets
    std::size_t line = 0;
  };
  std::string text;
  std::vector<Include> includes;
};

/// Blanks comments, string/char literals (raw strings included) and
/// preprocessor directives (with line continuations), preserving newlines.
/// #include targets are recorded before the directive is blanked.
StrippedSource strip_source(const std::string& in);

// ----------------------------------------------------------------- index

/// A call site inside a function body (or member-init list).
struct CallSite {
  std::string name;       ///< last identifier ("send" in ::send / x.send)
  std::string qualifier;  ///< chain before the name ("std::this_thread")
  bool global_qualified = false;  ///< written ::name — a raw libc/syscall
  bool member_access = false;     ///< obj.name( / obj->name(
  std::size_t line = 0;
  bool in_try = false;            ///< lexically inside a try block
  std::vector<std::string> locked;  ///< mutex names held (lexically) here
};

struct ThrowSite {
  std::string type;  ///< thrown type's last identifier ("" for rethrow)
  std::size_t line = 0;
  bool in_try = false;
};

struct MarkSite {  // .at( calls, dynamic_casts, io idents (ofstream, ...)
  std::string what;
  std::size_t line = 0;
  bool in_try = false;
};

/// One indexed function definition (or namespace-scope initializer with a
/// braced body, indexed as "(static-init)" so registry lambdas stay
/// visible to the reachability rules).
struct Function {
  std::string name;       ///< last identifier
  std::string qualified;  ///< scope-qualified (Namespace::Class::name)
  std::string file;
  std::string layer;  ///< "common", "net", ... ("" outside src/)
  std::size_t line = 0;
  std::vector<CallSite> calls;
  std::vector<ThrowSite> throws;
  std::vector<MarkSite> at_calls;
  std::vector<MarkSite> casts;      ///< dynamic_cast sites
  std::vector<MarkSite> io_idents;  ///< ofstream / ifstream / fstream / FILE
  std::vector<std::string> requires_mutexes;  ///< REQUIRES/ACQUIRE(m)
};

struct FileIndex {
  std::string path;
  std::string layer;
  std::vector<StrippedSource::Include> includes;
};

struct ProgramIndex {
  std::vector<Function> functions;
  std::vector<FileIndex> files;
  /// last name -> function indices (conservative name resolution).
  std::map<std::string, std::vector<std::size_t>> by_name;
};

/// Layer of a repo-relative path: the directory under src/ ("" otherwise).
std::string layer_of(const std::string& path);

ProgramIndex index_sources(const std::vector<SourceFile>& sources);

// ------------------------------------------------------------- violations

struct Violation {
  std::string file;  ///< where the finding is reported (rule root)
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::vector<std::string> chain;  ///< "via Fn (file:line)" steps, root first
  std::string sink_file;  ///< file containing the offending primitive ("" =
                          ///< same as `file`); allowlists match either end
};

// -------------------------------------------------------------- allowlist

struct AllowEntry {
  std::string path;
  std::string rule;  ///< "*" allows every rule for the path
  std::string reason;
  mutable bool used = false;
};

struct Allowlist {
  std::vector<AllowEntry> entries;
  /// True when an entry covers `v` (root or sink file); marks entries used.
  bool allowed(const Violation& v) const;
};

/// Parses `<path>:<rule|*> # reason` lines; reasons are mandatory. Returns
/// false (with `err` set) on malformed entries.
bool parse_allowlist(std::istream& in, Allowlist& out, std::string& err);

// ------------------------------------------------------------- rule names

inline constexpr const char* kRuleBlocking = "blocking-under-lock";
inline constexpr const char* kRuleLayers = "layer-dag";
inline constexpr const char* kRuleThrow = "throw-contract";
inline constexpr const char* kRuleDeterminism = "determinism";
inline constexpr const char* kRuleDigest = "digest-purity";

/// All five rule names, scan order.
const std::vector<std::string>& all_rules();

// ----------------------------------------------------------- layer config

/// The declared layer DAG (layers.txt): `layer: dep dep ...` lines in
/// dependency order. The include check uses the transitive closure, since
/// PUBLIC CMake linking makes transitive headers visible.
struct LayerGraph {
  std::vector<std::pair<std::string, std::vector<std::string>>> layers;
  bool knows(const std::string& layer) const;
  /// May `from` include headers of `to`? (true when equal, or `to` is in
  /// the transitive closure of `from`'s declared deps.)
  bool may_include(const std::string& from, const std::string& to) const;
};

/// Parses layers.txt. Fails on unknown deps, duplicates, or cycles (a dep
/// must be declared on an earlier line, which makes cycles unrepresentable
/// and keeps the file readable as a topological order).
bool parse_layer_graph(std::istream& in, LayerGraph& out, std::string& err);

// -------------------------------------------------------- throw contracts

struct ThrowContract {
  std::string function;      ///< last name or Qualified::name suffix
  std::string allowed_type;  ///< "" = strict nothrow
};

/// Parses nothrow.txt: `function` (nothrow) or `function throws=Type`.
bool parse_contracts(std::istream& in, std::vector<ThrowContract>& out,
                     std::string& err);

// ---------------------------------------------------------- rule engines

/// R1: blocking syscalls/sleeps reachable while `mutex` is held.
void rule_blocking_under_lock(const ProgramIndex& index,
                              const std::string& mutex,
                              std::vector<Violation>& out);

/// R2: include edges between src/ layers must follow `graph`.
void rule_layer_dag(const ProgramIndex& index, const LayerGraph& graph,
                    std::vector<Violation>& out);

/// R3: contract functions (and what they reach unguarded) may not throw
/// outside their contract. A contract naming no indexed function is itself
/// a violation, so nothrow.txt cannot rot.
void rule_throw_contracts(const ProgramIndex& index,
                          const std::vector<ThrowContract>& contracts,
                          std::vector<Violation>& out);

/// Layers scanned by the determinism rule (the digest-bearing set, as the
/// historical determinism_lint defined it).
const std::vector<std::string>& determinism_layers();

/// R4: the ported determinism scan, applied to files whose layer is in
/// determinism_layers() (pass everything; filtering happens inside).
void rule_determinism(const std::vector<SourceFile>& sources,
                      std::vector<Violation>& out);

/// Layers checked by digest-purity: determinism_layers() minus harness and
/// durability (their I/O — results files, the WAL — is sanctioned and sits
/// outside the digested values by construction).
const std::vector<std::string>& digest_purity_layers();

/// R5: wall-clock reads and I/O primitives in the digest-purity layer set.
void rule_digest_purity(const ProgramIndex& index, std::vector<Violation>& out);

// ----------------------------------------------------------------- runner

/// One full scan, as the fastcons_lint CLI runs it. Empty paths take the
/// defaults under `root` (tools/fastcons_lint/{allowlist,layers,nothrow}.txt
/// and tools/determinism_allowlist.txt).
struct RunOptions {
  std::string root;
  std::vector<std::string> rules;  ///< empty = all five
  std::string allowlist_path;
  std::string determinism_allowlist_path;
  std::string layers_path;
  std::string contracts_path;
  std::string mutex = "engine_mutex_";
};

/// Loads src/** sources, runs the selected rules, applies the allowlists
/// and prints diagnostics. Exit-code semantics: 0 clean, 1 violations or
/// stale allowlist entries, 2 usage/IO/config errors. Allowlist staleness
/// is enforced per allowlist only when the rules it serves all ran, so a
/// single-rule invocation cannot spuriously report the others' entries.
int run_lint(const RunOptions& options);

// ------------------------------------------------------------- self tests

/// Runs the embedded corpus for `rule` ("" = every rule plus the shared
/// machinery). Returns 0 on success, 1 on failure; prints failures.
int run_self_test(const std::string& rule);

}  // namespace fastcons::lint

#endif  // FASTCONS_TOOLS_FASTCONS_LINT_LINT_HPP
