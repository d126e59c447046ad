// Rule engines and config parsing for fastcons_lint. Each rule reports
// Violations with the offending call chain attached; suppression and
// staleness policy live in the Allowlist (shared with the historical
// determinism lint, whose sub-rule names and semantics are preserved).
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fastcons_lint/lint.hpp"

namespace fastcons::lint {
namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

std::string display_call(const CallSite& c) {
  if (c.global_qualified) return "::" + c.name;
  if (!c.qualifier.empty()) return c.qualifier + "::" + c.name;
  return c.member_access ? "." + c.name : c.name;
}

/// Formats one "via" step of a reported call chain.
std::string chain_step(const Function& fn) {
  std::ostringstream out;
  out << "via " << fn.qualified << " (" << fn.file << ":" << fn.line << ")";
  return out.str();
}

const std::vector<std::size_t>* resolve(const ProgramIndex& index,
                                        const std::string& name) {
  const auto it = index.by_name.find(name);
  return it == index.by_name.end() ? nullptr : &it->second;
}

/// Conservative name resolution for interprocedural traversal, with two
/// precision refinements that mirror real C++ lookup: ::-qualified calls
/// name the global namespace (libc), never an indexed fastcons function,
/// and std-qualified calls name the standard library. Among the remaining
/// candidates, a definition in the same file (then the same layer) shadows
/// same-named functions elsewhere — without this, every `find(...)` in the
/// tree would resolve to every `find` anybody ever wrote.
std::vector<std::size_t> resolve_targets(const ProgramIndex& index,
                                         const CallSite& call,
                                         const Function& from) {
  if (call.global_qualified) return {};
  if (call.qualifier == "std" || call.qualifier.rfind("std::", 0) == 0) {
    return {};
  }
  const std::vector<std::size_t>* all = resolve(index, call.name);
  if (all == nullptr) return {};
  std::vector<std::size_t> same_file;
  std::vector<std::size_t> same_layer;
  for (const std::size_t t : *all) {
    const Function& g = index.functions[t];
    if (g.file == from.file) {
      same_file.push_back(t);
    } else if (!from.layer.empty() && g.layer == from.layer) {
      same_layer.push_back(t);
    }
  }
  if (!same_file.empty()) return same_file;
  if (!same_layer.empty()) return same_layer;
  return *all;
}

/// Reconstructs the root-first chain for `fn` from BFS parent links.
std::vector<std::string> build_chain(
    const ProgramIndex& index,
    const std::map<std::size_t, std::size_t>& parent, std::size_t fn) {
  std::vector<std::string> chain;
  for (std::size_t cur = fn;;) {
    chain.push_back(chain_step(index.functions[cur]));
    const auto it = parent.find(cur);
    if (it == parent.end() || it->second == cur) break;
    cur = it->second;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace

// ---------------------------------------------------------------- allowlist

bool Allowlist::allowed(const Violation& v) const {
  bool hit = false;
  for (const AllowEntry& e : entries) {
    const bool path_match =
        e.path == v.file || (!v.sink_file.empty() && e.path == v.sink_file);
    if (path_match && (e.rule == "*" || e.rule == v.rule)) {
      e.used = true;
      hit = true;  // keep marking later duplicates as used
    }
  }
  return hit;
}

bool parse_allowlist(std::istream& in, Allowlist& out, std::string& err) {
  bool ok = true;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t hash = line.find('#');
    if (hash == std::string::npos) {
      err += "allowlist:" + std::to_string(line_no) +
             ": entry has no '# reason' — a justification is mandatory\n";
      ok = false;
      continue;
    }
    const std::string spec = trim(line.substr(0, hash));
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      err += "allowlist:" + std::to_string(line_no) +
             ": entry must be <path>:<rule|*> # reason\n";
      ok = false;
      continue;
    }
    AllowEntry e;
    e.path = spec.substr(0, colon);
    e.rule = spec.substr(colon + 1);
    e.reason = line.substr(hash + 1);
    out.entries.push_back(std::move(e));
  }
  return ok;
}

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      kRuleBlocking, kRuleLayers, kRuleThrow, kRuleDeterminism, kRuleDigest};
  return kRules;
}

// -------------------------------------------------------------- layer graph

bool LayerGraph::knows(const std::string& layer) const {
  return std::any_of(layers.begin(), layers.end(),
                     [&](const auto& l) { return l.first == layer; });
}

bool LayerGraph::may_include(const std::string& from,
                             const std::string& to) const {
  if (from == to) return true;
  // BFS over the declared direct deps: PUBLIC CMake linking makes
  // transitive headers visible, so the closure is the legal set.
  std::vector<std::string> queue = {from};
  std::set<std::string> seen = {from};
  while (!queue.empty()) {
    const std::string cur = queue.back();
    queue.pop_back();
    for (const auto& [name, deps] : layers) {
      if (name != cur) continue;
      for (const std::string& dep : deps) {
        if (dep == to) return true;
        if (seen.insert(dep).second) queue.push_back(dep);
      }
    }
  }
  return false;
}

bool parse_layer_graph(std::istream& in, LayerGraph& out, std::string& err) {
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      err = "layers.txt:" + std::to_string(line_no) +
            ": expected `layer: dep dep ...`";
      return false;
    }
    const std::string name = trim(line.substr(0, colon));
    if (out.knows(name)) {
      err = "layers.txt:" + std::to_string(line_no) + ": duplicate layer '" +
            name + "'";
      return false;
    }
    std::vector<std::string> deps;
    std::istringstream rest(line.substr(colon + 1));
    std::string dep;
    while (rest >> dep) {
      if (!out.knows(dep)) {
        // Deps must be declared on an earlier line: the file reads as a
        // topological order, which makes cycles unrepresentable.
        err = "layers.txt:" + std::to_string(line_no) + ": dep '" + dep +
              "' of '" + name +
              "' is not declared earlier (file must be in dependency "
              "order; cycles cannot be expressed)";
        return false;
      }
      deps.push_back(dep);
    }
    out.layers.emplace_back(name, std::move(deps));
  }
  return true;
}

// ---------------------------------------------------------- throw contracts

bool parse_contracts(std::istream& in, std::vector<ThrowContract>& out,
                     std::string& err) {
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    std::istringstream parts(line);
    ThrowContract contract;
    parts >> contract.function;
    std::string extra;
    if (parts >> extra) {
      const std::string_view prefix = "throws=";
      if (extra.compare(0, prefix.size(), prefix) != 0 ||
          extra.size() == prefix.size()) {
        err = "nothrow.txt:" + std::to_string(line_no) +
              ": expected `function` or `function throws=Type`";
        return false;
      }
      contract.allowed_type = extra.substr(prefix.size());
    }
    out.push_back(std::move(contract));
  }
  return true;
}

// ------------------------------------------------- R1: blocking under lock

namespace {

/// The PR 5 discipline: raw POSIX syscalls are ::-qualified throughout the
/// codebase, which is exactly what lets this stay precise. Sleeps are
/// blocking regardless of qualification.
bool is_blocking_sink(const CallSite& c) {
  static const std::set<std::string> kPosix = {
      "send",   "sendto",  "sendmsg", "recv",    "recvfrom", "recvmsg",
      "poll",   "ppoll",   "select",  "pselect", "connect",  "accept",
      "accept4", "read",   "write",   "pread",   "pwrite",   "readv",
      "writev", "fsync",   "fdatasync", "open",  "openat",   "usleep",
      "nanosleep", "sleep"};
  static const std::set<std::string> kSleeps = {"sleep_for", "sleep_until",
                                                "usleep", "nanosleep"};
  if (c.global_qualified && kPosix.count(c.name) != 0) return true;
  return kSleeps.count(c.name) != 0;
}

const CallSite* first_blocking_sink(const Function& fn) {
  for (const CallSite& c : fn.calls) {
    if (is_blocking_sink(c)) return &c;
  }
  return nullptr;
}

}  // namespace

void rule_blocking_under_lock(const ProgramIndex& index,
                              const std::string& mutex,
                              std::vector<Violation>& out) {
  for (const Function& fn : index.functions) {
    const bool fn_locked = contains(fn.requires_mutexes, mutex);
    for (const CallSite& origin : fn.calls) {
      if (!fn_locked && !contains(origin.locked, mutex)) continue;
      if (is_blocking_sink(origin)) {
        out.push_back({fn.file, origin.line, kRuleBlocking,
                       "blocking call " + display_call(origin) +
                           " while holding " + mutex,
                       {},
                       ""});
        continue;
      }
      // BFS through the call graph from this under-lock call site; every
      // reachable function containing a blocking sink is a finding.
      std::map<std::size_t, std::size_t> parent;
      std::vector<std::size_t> queue;
      for (const std::size_t t : resolve_targets(index, origin, fn)) {
        if (parent.emplace(t, t).second) queue.push_back(t);
      }
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::size_t cur = queue[head];
        const Function& g = index.functions[cur];
        if (const CallSite* sink = first_blocking_sink(g)) {
          std::ostringstream msg;
          msg << "blocking call " << display_call(*sink) << " (" << g.file
              << ":" << sink->line << ") reachable while holding " << mutex;
          out.push_back({fn.file, origin.line, kRuleBlocking, msg.str(),
                         build_chain(index, parent, cur), g.file});
        }
        for (const CallSite& c : g.calls) {
          for (const std::size_t t : resolve_targets(index, c, g)) {
            if (parent.emplace(t, cur).second) queue.push_back(t);
          }
        }
      }
    }
  }
}

// ----------------------------------------------------------- R2: layer DAG

void rule_layer_dag(const ProgramIndex& index, const LayerGraph& graph,
                    std::vector<Violation>& out) {
  for (const FileIndex& file : index.files) {
    if (file.layer.empty()) continue;
    if (!graph.knows(file.layer)) {
      out.push_back({file.path, 1, kRuleLayers,
                     "layer '" + file.layer +
                         "' is not declared in layers.txt — declare it (with "
                         "its deps) before adding code to it",
                     {},
                     ""});
      continue;
    }
    for (const StrippedSource::Include& inc : file.includes) {
      const std::size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;  // system / non-layer header
      const std::string target_layer = inc.target.substr(0, slash);
      if (!graph.knows(target_layer)) continue;  // not a src/ layer include
      if (graph.may_include(file.layer, target_layer)) continue;
      out.push_back({file.path, inc.line, kRuleLayers,
                     "layer '" + file.layer + "' may not include '" +
                         inc.target + "' (layer '" + target_layer +
                         "' is not in its declared dependency closure)",
                     {},
                     "src/" + target_layer});
    }
  }
}

// ------------------------------------------------------ R3: throw contracts

namespace {

bool contract_matches(const ThrowContract& contract, const Function& fn) {
  if (contract.function.find("::") != std::string::npos) {
    if (fn.qualified == contract.function) return true;
    return fn.qualified.size() > contract.function.size() &&
           fn.qualified.ends_with("::" + contract.function);
  }
  return fn.name == contract.function;
}

}  // namespace

void rule_throw_contracts(const ProgramIndex& index,
                          const std::vector<ThrowContract>& contracts,
                          std::vector<Violation>& out) {
  for (const ThrowContract& contract : contracts) {
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < index.functions.size(); ++i) {
      if (contract_matches(contract, index.functions[i])) roots.push_back(i);
    }
    if (roots.empty()) {
      out.push_back({"tools/fastcons_lint/nothrow.txt", 0, kRuleThrow,
                     "contract names no indexed function: " +
                         contract.function + " (stale contract)",
                     {},
                     ""});
      continue;
    }
    for (const std::size_t root : roots) {
      // BFS through UNGUARDED calls only: a call inside a try block is an
      // analysis boundary — whatever it throws is handled locally.
      std::map<std::size_t, std::size_t> parent;
      parent.emplace(root, root);
      std::vector<std::size_t> queue = {root};
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::size_t cur = queue[head];
        const Function& g = index.functions[cur];
        const auto report = [&](std::size_t line, const std::string& what) {
          std::ostringstream msg;
          msg << what << " in " << g.qualified
              << ", reachable from " << (contract.allowed_type.empty()
                                             ? "nothrow"
                                             : "throws=" +
                                                   contract.allowed_type)
              << " contract " << contract.function;
          out.push_back({g.file, line, kRuleThrow, msg.str(),
                         build_chain(index, parent, cur),
                         index.functions[root].file});
        };
        for (const ThrowSite& t : g.throws) {
          if (t.in_try) continue;
          if (!contract.allowed_type.empty() &&
              t.type == contract.allowed_type) {
            continue;
          }
          report(t.line, "throw " + (t.type.empty() ? "(rethrow)" : t.type));
        }
        for (const MarkSite& m : g.at_calls) {
          if (!m.in_try) report(m.line, "unguarded .at()");
        }
        for (const MarkSite& m : g.casts) {
          if (!m.in_try) report(m.line, "throwing cast " + m.what);
        }
        for (const CallSite& c : g.calls) {
          if (c.in_try) continue;
          for (const std::size_t t : resolve_targets(index, c, g)) {
            if (parent.emplace(t, cur).second) queue.push_back(t);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------- R4: determinism port

const std::vector<std::string>& determinism_layers() {
  static const std::vector<std::string> kLayers = {
      "common", "core",     "sim",     "sim_runtime", "replication",
      "demand", "topology", "islands", "harness",     "stats",
      "durability", "health"};
  return kLayers;
}

namespace {

/// True when `text[pos]` starts the word `word` with no identifier character
/// directly before it ("rand(" matches, "operand(" does not). A preceding
/// ':' is allowed so std::rand / std::time still match.
bool word_at(const std::string& text, std::size_t pos, std::string_view word) {
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos == 0) return true;
  return !ident_char(text[pos - 1]);
}

/// First template argument of the container starting after `open` ("<"),
/// with nesting respected. Used to spot pointer keys.
std::string first_template_arg(const std::string& text, std::size_t open) {
  int depth = 0;
  std::string arg;
  for (std::size_t i = open; i < text.size() && arg.size() < 200; ++i) {
    const char c = text[i];
    if (c == '<') {
      ++depth;
      if (depth == 1) continue;
    } else if (c == '>') {
      --depth;
      if (depth == 0) break;
    } else if (c == ',' && depth == 1) {
      break;
    }
    if (depth >= 1) arg += c;
  }
  return arg;
}

void determinism_scan_line(const std::string& text, std::size_t line_no,
                           const std::string& rel_path,
                           std::vector<Violation>& out) {
  const auto add = [&](const char* rule, std::size_t pos) {
    const std::size_t end = std::min(text.size(), pos + 40);
    out.push_back(Violation{rel_path, line_no, rule,
                            text.substr(pos, end - pos), {}, ""});
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (word_at(text, i, "unordered_map") || word_at(text, i, "unordered_set")) {
      add("unordered-container", i);
    } else if (word_at(text, i, "rand(") || word_at(text, i, "srand(")) {
      add("c-rand", i);
    } else if (word_at(text, i, "time(")) {
      add("c-time", i);
    } else if (word_at(text, i, "random_device")) {
      add("random-device", i);
    } else if (text.compare(i, 12, "_clock::now(") == 0) {
      add("wall-clock", i);
    } else if (word_at(text, i, "map<") || word_at(text, i, "set<")) {
      const std::size_t open = text.find('<', i);
      const std::string key = first_template_arg(text, open);
      if (key.find('*') != std::string::npos) add("pointer-keyed", i);
    }
  }
}

}  // namespace

void rule_determinism(const std::vector<SourceFile>& sources,
                      std::vector<Violation>& out) {
  const auto& layers = determinism_layers();
  for (const SourceFile& source : sources) {
    const std::string layer = layer_of(source.path);
    if (std::find(layers.begin(), layers.end(), layer) == layers.end()) {
      continue;
    }
    const std::string stripped = strip_source(source.text).text;
    std::size_t line_no = 1;
    std::size_t start = 0;
    while (start <= stripped.size()) {
      std::size_t end = stripped.find('\n', start);
      if (end == std::string::npos) end = stripped.size();
      determinism_scan_line(stripped.substr(start, end - start), line_no,
                            source.path, out);
      start = end + 1;
      ++line_no;
    }
  }
}

// ------------------------------------------------------- R5: digest purity

const std::vector<std::string>& digest_purity_layers() {
  // determinism_layers() minus harness and durability: their I/O (results
  // files, the WAL) is sanctioned and sits outside the digested values.
  static const std::vector<std::string> kLayers = {
      "common", "core",     "sim",     "sim_runtime", "replication",
      "demand", "topology", "islands", "stats",       "health"};
  return kLayers;
}

namespace {

/// I/O primitive classification for digest purity. C stdio names are
/// distinctive enough to match unqualified; POSIX names only when
/// ::-qualified (the codebase convention); std::filesystem via qualifier.
bool is_io_call(const CallSite& c) {
  static const std::set<std::string> kPosixIo = {
      "open", "openat", "read",  "write", "pread",     "pwrite",
      "close", "fsync", "fdatasync", "send", "recv",   "unlink",
      "rename", "mkdir"};
  static const std::set<std::string> kCIo = {
      "fopen", "freopen", "fclose", "fread", "fwrite", "fprintf",
      "fscanf", "fputs",  "fgets",  "fflush", "popen", "system",
      "getenv"};
  if (c.global_qualified && kPosixIo.count(c.name) != 0) return true;
  if (kCIo.count(c.name) != 0) return true;
  return c.qualifier == "fs" || c.qualifier == "std::filesystem" ||
         c.qualifier.ends_with("::filesystem");
}

bool is_wall_clock_call(const CallSite& c) {
  return c.name == "now" && c.qualifier.ends_with("_clock");
}

}  // namespace

void rule_digest_purity(const ProgramIndex& index,
                        std::vector<Violation>& out) {
  const auto& layers = digest_purity_layers();
  const auto pure = [&](const std::string& layer) {
    return std::find(layers.begin(), layers.end(), layer) != layers.end();
  };
  for (const Function& fn : index.functions) {
    if (!pure(fn.layer)) continue;
    for (const CallSite& c : fn.calls) {
      if (is_wall_clock_call(c)) {
        out.push_back({fn.file, c.line, kRuleDigest,
                       "wall-clock read " + display_call(c) +
                           " in digest-purity layer '" + fn.layer + "'",
                       {},
                       ""});
      } else if (is_io_call(c)) {
        out.push_back({fn.file, c.line, kRuleDigest,
                       "I/O call " + display_call(c) +
                           " in digest-purity layer '" + fn.layer + "'",
                       {},
                       ""});
      } else if (!c.member_access) {
        // Boundary crossing: a free-function call resolving into a src/
        // layer OUTSIDE the purity set. Member calls are excluded — the
        // layer DAG already prevents purity layers from holding objects of
        // impure layers, and member-name collisions with std containers
        // would drown the signal.
        for (const std::size_t t : resolve_targets(index, c, fn)) {
          const Function& g = index.functions[t];
          if (g.layer.empty() || pure(g.layer)) continue;
          out.push_back({fn.file, c.line, kRuleDigest,
                         "call " + display_call(c) + " resolves into layer '" +
                             g.layer + "' (" + g.file +
                             ") from digest-purity layer '" + fn.layer + "'",
                         {chain_step(g)},
                         g.file});
          break;
        }
      }
    }
    for (const MarkSite& io : fn.io_idents) {
      out.push_back({fn.file, io.line, kRuleDigest,
                     "I/O primitive " + io.what + " in digest-purity layer '" +
                         fn.layer + "'",
                     {},
                     ""});
    }
  }
}

}  // namespace fastcons::lint
