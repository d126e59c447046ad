// Exercises the fastcons_lint library (tools/fastcons_lint) as ordinary
// ctest cases: the lexer, the indexer/call-graph, one end-to-end violation
// per rule, and the allowlist machinery. The lint tool also carries its own
// embedded self-test corpus (--self-test); these tests cover the library
// API surface the way its external caller, the CLI, consumes it.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "tools/fastcons_lint/lint.hpp"

namespace fastcons::lint {
namespace {

const Function* find_function(const ProgramIndex& index, const std::string& name) {
  const auto it = index.by_name.find(name);
  if (it == index.by_name.end() || it->second.empty()) return nullptr;
  return &index.functions[it->second.front()];
}

bool has_rule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

// ------------------------------------------------------------------ lexer

TEST(LintLexer, BlanksCommentsAndStringsButKeepsLineStructure) {
  const StrippedSource s = strip_source(
      "int a; // trailing ::send(x)\n"
      "/* block\n   spanning */ int b;\n"
      "const char* c = \"::recv(y) \\\" quoted\";\n");
  EXPECT_EQ(std::count(s.text.begin(), s.text.end(), '\n'), 4);
  EXPECT_EQ(s.text.find("send"), std::string::npos);
  EXPECT_EQ(s.text.find("recv"), std::string::npos);
  EXPECT_NE(s.text.find("int b;"), std::string::npos);
}

TEST(LintLexer, RawStringsWithCustomDelimiterDoNotLeak) {
  const StrippedSource s = strip_source(
      "auto r = R\"ab(contents ::poll(fd) )\" still inside)ab\"; int after;\n");
  EXPECT_EQ(s.text.find("poll"), std::string::npos);
  EXPECT_NE(s.text.find("int after;"), std::string::npos);
}

TEST(LintLexer, ExtractsIncludeTargetsBeforeBlankingDirectives) {
  const StrippedSource s = strip_source(
      "#include \"core/engine.hpp\"\n"
      "#include <vector>\n"
      "#define NOT_AN_INCLUDE \\\n  include \"fake.hpp\"\n"
      "int x;\n");
  ASSERT_EQ(s.includes.size(), 2u);
  EXPECT_EQ(s.includes[0].target, "core/engine.hpp");
  EXPECT_EQ(s.includes[0].line, 1u);
  EXPECT_EQ(s.includes[1].target, "vector");
  EXPECT_EQ(s.text.find("fake.hpp"), std::string::npos);
}

// ------------------------------------------------------------- call graph

TEST(LintIndex, BuildsCallGraphWithQualifiersLocksAndTryRegions) {
  const std::vector<SourceFile> sources = {{
      "src/core/sample.cpp",
      "namespace fastcons {\n"
      "void helper() { ::fsync(3); }\n"
      "void Engine::tick() {\n"
      "  const MutexLock lock(engine_mutex_);\n"
      "  helper();\n"
      "  try { risky(); } catch (...) {}\n"
      "}\n"
      "}  // namespace\n",
  }};
  const ProgramIndex index = index_sources(sources);

  const Function* helper = find_function(index, "helper");
  ASSERT_NE(helper, nullptr);
  EXPECT_EQ(helper->layer, "core");
  ASSERT_EQ(helper->calls.size(), 1u);
  EXPECT_EQ(helper->calls[0].name, "fsync");
  EXPECT_TRUE(helper->calls[0].global_qualified);

  const Function* tick = find_function(index, "tick");
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->qualified, "fastcons::Engine::tick");
  ASSERT_EQ(tick->calls.size(), 2u);
  EXPECT_EQ(tick->calls[0].name, "helper");
  ASSERT_EQ(tick->calls[0].locked.size(), 1u);
  EXPECT_EQ(tick->calls[0].locked[0], "engine_mutex_");
  EXPECT_FALSE(tick->calls[0].in_try);
  EXPECT_EQ(tick->calls[1].name, "risky");
  EXPECT_TRUE(tick->calls[1].in_try);
}

TEST(LintIndex, DeclarationsAndLocalLambdasAreNotCalls) {
  const std::vector<SourceFile> sources = {{
      "src/core/decls.cpp",
      "void consumer() {\n"
      "  const std::string value(source());\n"
      "  const auto mix = [&](int x) { return x; };\n"
      "  mix(7);\n"
      "}\n",
  }};
  const ProgramIndex index = index_sources(sources);
  const Function* consumer = find_function(index, "consumer");
  ASSERT_NE(consumer, nullptr);
  // `value` is a paren-initialised declaration and `mix` a body-local
  // lambda; only the initialiser's inner call survives as a graph edge.
  ASSERT_EQ(consumer->calls.size(), 1u);
  EXPECT_EQ(consumer->calls[0].name, "source");
}

// --------------------------------------------- one violation per rule

TEST(LintRules, BlockingUnderLockReportsChainToSyscall) {
  const std::vector<SourceFile> sources = {{
      "src/net/locked.cpp",
      "void flush_fd(int fd) { ::fdatasync(fd); }\n"
      "void Locked::update() {\n"
      "  const MutexLock lock(engine_mutex_);\n"
      "  flush_fd(4);\n"
      "}\n",
  }};
  std::vector<Violation> out;
  rule_blocking_under_lock(index_sources(sources), "engine_mutex_", out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, kRuleBlocking);
  EXPECT_EQ(out[0].file, "src/net/locked.cpp");
  EXPECT_NE(out[0].message.find("fdatasync"), std::string::npos);
  EXPECT_FALSE(out[0].chain.empty());
}

TEST(LintRules, LayerDagRejectsDownwardInclude) {
  std::istringstream layers("common:\nnet: common\n");
  LayerGraph graph;
  std::string err;
  ASSERT_TRUE(parse_layer_graph(layers, graph, err)) << err;

  const std::vector<SourceFile> sources = {
      {"src/common/base.hpp", "#include \"net/wire.hpp\"\n"},
      {"src/net/wire.hpp", "#include \"common/base.hpp\"\n"},
  };
  std::vector<Violation> out;
  rule_layer_dag(index_sources(sources), graph, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, kRuleLayers);
  EXPECT_EQ(out[0].file, "src/common/base.hpp");
}

TEST(LintRules, ThrowContractCatchesUnguardedThrowThroughCallee) {
  std::istringstream contracts("decode_all\n");
  std::vector<ThrowContract> parsed;
  std::string err;
  ASSERT_TRUE(parse_contracts(contracts, parsed, err)) << err;

  const std::vector<SourceFile> sources = {{
      "src/durability/decode.cpp",
      "void inner() { throw CodecError(\"x\"); }\n"
      "void decode_all() { inner(); }\n",
  }};
  std::vector<Violation> out;
  rule_throw_contracts(index_sources(sources), parsed, out);
  ASSERT_TRUE(has_rule(out, kRuleThrow));
}

TEST(LintRules, DeterminismFlagsUnorderedContainerInDigestLayer) {
  const std::vector<SourceFile> sources = {
      {"src/core/state.hpp", "std::unordered_map<int, int> m;\n"},
      // The same text outside the digest layers is none of the rule's
      // business (the transport may hash freely).
      {"src/net/other.hpp", "std::unordered_map<int, int> m;\n"},
  };
  std::vector<Violation> out;
  rule_determinism(sources, out);
  ASSERT_EQ(out.size(), 1u);
  // Determinism violations carry the historical sub-rule name so the
  // determinism allowlist's `<path>:<sub-rule>` entries keep working.
  EXPECT_EQ(out[0].rule, "unordered-container");
  EXPECT_EQ(out[0].file, "src/core/state.hpp");
}

TEST(LintRules, DigestPurityFlagsWallClockRead) {
  const std::vector<SourceFile> sources = {{
      "src/replication/digesty.cpp",
      "double stamp() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n",
  }};
  std::vector<Violation> out;
  rule_digest_purity(index_sources(sources), out);
  ASSERT_TRUE(has_rule(out, kRuleDigest));
}

// -------------------------------------------------------------- allowlist

TEST(LintAllowlist, SuppressesByRootOrSinkAndTracksUsage) {
  std::istringstream in(
      "src/net/locked.cpp:blocking-under-lock # sanctioned flush path\n");
  Allowlist list;
  std::string err;
  ASSERT_TRUE(parse_allowlist(in, list, err)) << err;

  Violation by_root;
  by_root.file = "src/net/locked.cpp";
  by_root.rule = kRuleBlocking;
  EXPECT_TRUE(list.allowed(by_root));

  Violation by_sink;
  by_sink.file = "src/core/engine.cpp";
  by_sink.sink_file = "src/net/locked.cpp";
  by_sink.rule = kRuleBlocking;
  EXPECT_TRUE(list.allowed(by_sink));

  Violation other_rule = by_root;
  other_rule.rule = kRuleThrow;
  EXPECT_FALSE(list.allowed(other_rule));
  EXPECT_TRUE(list.entries.at(0).used);
}

TEST(LintAllowlist, ReasonIsMandatory) {
  std::istringstream in("src/net/locked.cpp:blocking-under-lock\n");
  Allowlist list;
  std::string err;
  EXPECT_FALSE(parse_allowlist(in, list, err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace fastcons::lint
