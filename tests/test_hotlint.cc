// Tests for hotlint, the call-graph-aware hot-path and shard-safety
// analyzer (tools/detlint).
//
// Two layers, mirroring test_detlint.cc:
//  - engine tests call analyze_hot() directly and pin reachability, chain
//    construction, waiver/cold-region mechanics, and each hazard rule down
//    to the finding line;
//  - binary tests shell the built `hotlint` executable over the fixture
//    corpus (tools/detlint/fixtures/hotlint) and assert the end-to-end
//    contract: the pre-PR-4 std::function event queue replica is flagged,
//    clean and fully-waived fixtures exit 0, waiver hygiene fires, and the
//    --callgraph dumps are well-formed.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "hotlint.h"

namespace {

using detlint::Finding;
using detlint::HotInput;
using detlint::HotReport;
using detlint::analyze_hot;

std::vector<Finding> FindingsFor(const HotReport& report,
                                 const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : report.findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

HotReport Analyze(const char* src) {
  return analyze_hot({HotInput{"x.cc", src}});
}

// ---------------------------------------------------------------------------
// Engine: reachability and chains.
// ---------------------------------------------------------------------------

TEST(HotlintEngine, AllocInHotRootFlaggedWithChain) {
  HotReport r = Analyze(R"(
INBAND_HOT int* grab() {
  return new int{7};
}
)");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "hot-alloc");
  EXPECT_EQ(r.findings[0].line, 3);
  EXPECT_FALSE(r.findings[0].waived);
  ASSERT_EQ(r.findings[0].chain.size(), 1u);
  EXPECT_NE(r.findings[0].chain[0].find("grab"), std::string::npos);
}

TEST(HotlintEngine, UnreachableHazardIsSilent) {
  // No hot root anywhere: the hazard sits in dead territory.
  HotReport r = Analyze(R"(
int* grab() { return new int{7}; }
)");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.roots, 0u);
}

TEST(HotlintEngine, HazardReachedTransitivelyCarriesFullChain) {
  HotReport r = Analyze(R"(
void helper() { auto* p = new int{1}; (void)p; }
void middle() { helper(); }
INBAND_HOT void root() { middle(); }
)");
  ASSERT_EQ(r.findings.size(), 1u);
  const Finding& f = r.findings[0];
  EXPECT_EQ(f.rule, "hot-alloc");
  ASSERT_EQ(f.chain.size(), 3u);
  EXPECT_NE(f.chain[0].find("root"), std::string::npos);
  EXPECT_NE(f.chain[1].find("middle"), std::string::npos);
  EXPECT_NE(f.chain[2].find("helper"), std::string::npos);
}

TEST(HotlintEngine, CallGraphSpansFiles) {
  HotReport r = analyze_hot({
      HotInput{"a.cc", R"(
void helper();
INBAND_HOT void root() { helper(); }
)"},
      HotInput{"b.cc", R"(
void helper() { auto* p = malloc(8); (void)p; }
)"},
  });
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].file, "b.cc");
  EXPECT_EQ(r.findings[0].rule, "hot-alloc");
  ASSERT_EQ(r.findings[0].chain.size(), 2u);
  EXPECT_NE(r.findings[0].chain[0].find("a.cc"), std::string::npos);
}

TEST(HotlintEngine, MemberCallFansOutToSameNamedMethods) {
  // Name-only member resolution: sink.add() must reach both class's add().
  HotReport r = Analyze(R"(
struct A { void add(int v) { auto* p = new int{v}; (void)p; } };
struct B { void add(int) {} };
struct Pipeline {
  A sink;
  INBAND_HOT void run(int v) { sink.add(v); }
};
)");
  ASSERT_EQ(FindingsFor(r, "hot-alloc").size(), 1u);
  EXPECT_EQ(FindingsFor(r, "hot-alloc")[0].line, 2);
}

// ---------------------------------------------------------------------------
// Engine: operator-overload and template call sites.
// ---------------------------------------------------------------------------

TEST(HotlintEngine, ExplicitMemberOperatorCallResolves) {
  HotReport r = Analyze(R"(
struct Vec {
  Vec operator+(const Vec&) { auto* p = new int{1}; (void)p; return *this; }
};
INBAND_HOT void mix(Vec a, Vec b) { a.operator+(b); }
)");
  auto hits = FindingsFor(r, "hot-alloc");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3);
  ASSERT_EQ(hits[0].chain.size(), 2u);
  EXPECT_NE(hits[0].chain[1].find("operator+"), std::string::npos);
}

TEST(HotlintEngine, FreeOperatorCallResolves) {
  HotReport r = Analyze(R"(
struct Sink { long n_ = 0; };
Sink& operator<<(Sink& s, long v) {
  auto* p = new long{v};
  s.n_ += *p;
  delete p;
  return s;
}
INBAND_HOT void log_raw(Sink& s, long v) { operator<<(s, v); }
)");
  EXPECT_EQ(FindingsFor(r, "hot-alloc").size(), 2u);
}

TEST(HotlintEngine, ExplicitCallOperatorResolves) {
  HotReport r = Analyze(R"(
struct Fn {
  void operator()(int v) { auto* p = new int{v}; (void)p; }
};
INBAND_HOT void drive(Fn f) { f.operator()(3); }
)");
  ASSERT_EQ(FindingsFor(r, "hot-alloc").size(), 1u);
  EXPECT_NE(FindingsFor(r, "hot-alloc")[0].chain[1].find("operator()"),
            std::string::npos);
}

TEST(HotlintEngine, HotMarkOnCallOperatorRootsIt) {
  HotReport r = Analyze(R"(
struct Picker {
  INBAND_HOT int operator()(int k) { return pick(k); }
  int pick(int k) { auto* p = new int{k}; (void)p; return k; }
};
)");
  EXPECT_EQ(r.roots, 1u);
  ASSERT_EQ(FindingsFor(r, "hot-alloc").size(), 1u);
  EXPECT_NE(FindingsFor(r, "hot-alloc")[0].chain[0].find("operator()"),
            std::string::npos);
}

TEST(HotlintEngine, TemplateMemberAndQualifiedDispatchResolve) {
  HotReport r = Analyze(R"(
struct Table {
  int lookup(int k) { auto* p = new int{k}; (void)p; return k; }
  static int probe(int k) { auto* q = new int{k}; (void)q; return k; }
};
INBAND_HOT int seek(Table& t, int k) {
  return t.lookup<4>(k) + Table::probe<int>(k);
}
)");
  EXPECT_EQ(FindingsFor(r, "hot-alloc").size(), 2u);
}

TEST(HotlintEngine, BareTemplateCallIsDocumentedBlindSpot) {
  // `f<int>(x)` is ambiguous with comparison chains at the token level, so
  // the bare form deliberately contributes no edge (callgraph.h).
  HotReport r = Analyze(R"(
int stash(int k) { auto* p = new int{k}; (void)p; return k; }
INBAND_HOT int no_edge(int k) { return stash<int>(k); }
)");
  EXPECT_TRUE(r.findings.empty());
}

TEST(HotlintEngine, NestedColdRegionsInnermostWins) {
  HotReport r = Analyze(R"(
struct Cache {
  int limit_ = 0;
  INBAND_HOT int get(int k) {
    if (k < limit_) return k;
    INBAND_COLD_OK("outer: rebuild path");
    {
      INBAND_COLD_OK("inner: diagnostics only");
      auto* snap = new int{k};
      (void)snap;
    }
    auto* table = new int[8];
    delete[] table;
    return 0;
  }
};
)");
  EXPECT_EQ(r.unwaived(), 0u);
  auto hits = FindingsFor(r, "hot-alloc");
  ASSERT_EQ(hits.size(), 3u);
  for (const Finding& f : hits) {
    EXPECT_TRUE(f.waived);
    if (f.line == 9) {
      EXPECT_NE(f.waiver_reason.find("inner"), std::string::npos);
    } else {
      EXPECT_NE(f.waiver_reason.find("outer"), std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine: individual hazard rules.
// ---------------------------------------------------------------------------

TEST(HotlintEngine, StdFunctionConstructionFlagged) {
  HotReport r = Analyze(R"(
#include <functional>
INBAND_HOT void arm(void (*raw)()) {
  std::function<void()> fn = raw;
  fn();
}
)");
  ASSERT_EQ(FindingsFor(r, "hot-stdfunc").size(), 1u);
  EXPECT_EQ(FindingsFor(r, "hot-stdfunc")[0].line, 4);
}

TEST(HotlintEngine, MapBracketCountsAsGrowth) {
  HotReport r = Analyze(R"(
#include <unordered_map>
struct S {
  std::unordered_map<int, int> seen_;
  INBAND_HOT void mark(int k) { seen_[k] = 1; }
};
)");
  ASSERT_EQ(FindingsFor(r, "hot-growth").size(), 1u);
  EXPECT_NE(FindingsFor(r, "hot-growth")[0].message.find("seen_"),
            std::string::npos);
}

TEST(HotlintEngine, OpenHashMapBracketCountsAsGrowth) {
  HotReport r = Analyze(R"(
#include "util/open_hash_map.h"
struct S {
  inband::OpenHashMap<int, int> seen_;
  INBAND_HOT void mark(int k) { seen_[k] = 1; }
};
)");
  ASSERT_EQ(FindingsFor(r, "hot-growth").size(), 1u);
  EXPECT_NE(FindingsFor(r, "hot-growth")[0].message.find("seen_"),
            std::string::npos);
}

TEST(HotlintEngine, ThrowStringIoAndLocksFlagged) {
  HotReport r = Analyze(R"(
#include <mutex>
#include <string>
INBAND_HOT void worst(int v) {
  std::lock_guard<std::mutex> g{mu_};
  std::string s = std::to_string(v);
  printf("%s", s.c_str());
  if (v < 0) throw v;
}
)");
  EXPECT_FALSE(FindingsFor(r, "hot-block").empty());
  EXPECT_FALSE(FindingsFor(r, "hot-string").empty());
  EXPECT_FALSE(FindingsFor(r, "hot-io").empty());
  EXPECT_EQ(FindingsFor(r, "hot-throw").size(), 1u);
}

TEST(HotlintEngine, PlacementNewIsExemptExplicitOperatorNewIsNot) {
  HotReport r = Analyze(R"(
INBAND_HOT void build(unsigned char* buf) {
  auto* a = new (buf) int{1};
  auto* b = ::operator new(16);
  (void)a;
  (void)b;
}
)");
  auto hits = FindingsFor(r, "hot-alloc");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4);
}

TEST(HotlintEngine, GuardedLogLinesAreExempt) {
  HotReport r = Analyze(R"(
INBAND_HOT void note(int v) {
  LOG_DEBUG() << "value " << std::to_string(v);
}
)");
  EXPECT_TRUE(r.findings.empty());
}

TEST(HotlintEngine, ShardGlobalAndMutableStaticFlagged) {
  HotReport r = Analyze(R"(
long g_hits = 0;
INBAND_HOT void touch() {
  static int warmup = 0;
  ++warmup;
  ++g_hits;
}
)");
  ASSERT_EQ(FindingsFor(r, "shard-static").size(), 1u);
  EXPECT_EQ(FindingsFor(r, "shard-static")[0].line, 4);
  ASSERT_EQ(FindingsFor(r, "shard-global").size(), 1u);
  EXPECT_EQ(FindingsFor(r, "shard-global")[0].line, 6);
}

TEST(HotlintEngine, ConstGlobalsAndConstStaticsAreClean) {
  HotReport r = Analyze(R"(
const long kLimit = 64;
constexpr int kShift = 3;
INBAND_HOT long scale(long v) {
  static const int kBase = 2;
  return v * kBase * kLimit << kShift;
}
)");
  EXPECT_TRUE(r.findings.empty());
}

// ---------------------------------------------------------------------------
// Engine: waivers and cold regions.
// ---------------------------------------------------------------------------

TEST(HotlintEngine, CommentWaiverOnLineAboveWaives) {
  HotReport r = Analyze(R"(
#include <vector>
struct S {
  std::vector<int> v_;
  INBAND_HOT void admit(int x) {
    // hotlint:allow(hot-growth): admission is bounded by the eviction cap
    v_.push_back(x);
  }
};
)");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_TRUE(r.findings[0].waived);
  EXPECT_EQ(r.unwaived(), 0u);
  EXPECT_EQ(r.waived(), 1u);
  EXPECT_TRUE(r.unused_waivers.empty());
}

TEST(HotlintEngine, ColdRegionWaivesHotFindingsAndCutsEdges) {
  HotReport r = Analyze(R"(
#include <vector>
void rebuild(std::vector<int>& v) { v.push_back(1); }
struct S {
  INBAND_HOT int get(int k) {
    if (k < limit_) return k;
    INBAND_COLD_OK("miss path: rebuild is off the per-packet path");
    auto* p = new int[8];
    delete[] p;
    std::vector<int> scratch;
    rebuild(scratch);
    return 0;
  }
  int limit_ = 0;
};
)");
  // Both allocs waived by the region; rebuild() unreachable (edge cut).
  EXPECT_EQ(r.unwaived(), 0u);
  EXPECT_EQ(FindingsFor(r, "hot-alloc").size(), 2u);
  for (const Finding& f : FindingsFor(r, "hot-alloc")) {
    EXPECT_TRUE(f.waived);
    EXPECT_NE(f.waiver_reason.find("miss path"), std::string::npos);
  }
  EXPECT_TRUE(FindingsFor(r, "hot-growth").empty());
}

TEST(HotlintEngine, ColdRegionDoesNotExcuseShardState) {
  HotReport r = Analyze(R"(
long g_count = 0;
INBAND_HOT void tick() {
  INBAND_COLD_OK("slow path");
  ++g_count;
}
)");
  ASSERT_EQ(FindingsFor(r, "shard-global").size(), 1u);
  EXPECT_FALSE(FindingsFor(r, "shard-global")[0].waived);
}

TEST(HotlintEngine, UnknownRuleAndMissingReasonAreBadWaivers) {
  HotReport r = Analyze(R"(
#include <vector>
struct S {
  std::vector<int> v_;
  INBAND_HOT void f(int x) {
    // hotlint:allow(hot-warp): no such rule
    v_.push_back(x);
  }
  void g(int x) {
    // hotlint:allow(hot-growth)
    v_.push_back(x);
  }
};
)");
  EXPECT_EQ(FindingsFor(r, "bad-waiver").size(), 2u);
}

TEST(HotlintEngine, WaiverMatchingNothingIsReportedUnused) {
  HotReport r = Analyze(R"(
INBAND_HOT int f(int x) {
  // hotlint:allow(hot-alloc): nothing here allocates
  return x + 1;
}
)");
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.unused_waivers.size(), 1u);
  EXPECT_EQ(r.unused_waivers[0].line, 3);
}

TEST(HotlintEngine, WaiverOnUnreachableHazardStillCountsAsUsed) {
  // Probe mode: g() is unreachable, but its waiver must not be reported
  // unused — otherwise every annotation on cold helper code would nag.
  HotReport r = Analyze(R"(
#include <vector>
struct S {
  std::vector<int> v_;
  void g(int x) {
    // hotlint:allow(hot-growth): helper is only called at startup
    v_.push_back(x);
  }
};
)");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(r.unused_waivers.empty());
}

// ---------------------------------------------------------------------------
// Binary: shell `hotlint` over the fixture corpus.
// ---------------------------------------------------------------------------

struct RunResult {
  int exit_code = -1;
  std::string out;
};

RunResult RunHotlint(const std::string& args) {
  const std::string cmd = std::string(HOTLINT_BIN) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) r.out.append(buf, n);
  const int status = pclose(pipe);
  r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string Fixture(const std::string& rel) {
  return std::string(HOTLINT_FIXTURES) + "/" + rel;
}

// Extracts the N from `"<key>": N` in the JSON counts object.
int JsonCount(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.rfind(needle);
  if (pos == std::string::npos) return -1;
  return std::atoi(json.c_str() + pos + needle.size());
}

TEST(HotlintBinary, LegacyEventQueueReplicaIsCaught) {
  // The pre-PR-4 event queue: std::function handlers in a node-based map,
  // heap node per push. Every hazard class involved must be flagged.
  RunResult r = RunHotlint("--json " + Fixture("stdfunc_hot.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("\"rule\": \"hot-stdfunc\""), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"rule\": \"hot-growth\""), std::string::npos);
  EXPECT_NE(r.out.find("\"rule\": \"hot-alloc\""), std::string::npos);
  EXPECT_NE(r.out.find("LegacyQueue::push"), std::string::npos);
  EXPECT_EQ(JsonCount(r.out, "unwaived"), 5) << r.out;
}

TEST(HotlintBinary, ShardStateFixtureIsCaught) {
  RunResult r = RunHotlint("--json " + Fixture("shard_state.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("\"rule\": \"shard-global\""), std::string::npos);
  EXPECT_NE(r.out.find("\"rule\": \"shard-static\""), std::string::npos);
}

TEST(HotlintBinary, CleanAndColdFixturesExitZero) {
  EXPECT_EQ(RunHotlint(Fixture("clean.cc")).exit_code, 0);
  RunResult cold = RunHotlint("--json " + Fixture("cold_ok.cc"));
  EXPECT_EQ(cold.exit_code, 0);
  EXPECT_EQ(JsonCount(cold.out, "unwaived"), 0) << cold.out;
  EXPECT_EQ(JsonCount(cold.out, "waived"), 2) << cold.out;
}

TEST(HotlintBinary, WaivedFixtureExitsZeroWithCounts) {
  RunResult r = RunHotlint("--json " + Fixture("waived.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(JsonCount(r.out, "unwaived"), 0) << r.out;
  EXPECT_EQ(JsonCount(r.out, "waived"), 2) << r.out;
}

TEST(HotlintBinary, OperatorDispatchFixtureIsCaught) {
  // Every hazard sits behind an operator or template-member call form; the
  // hot root is itself an operator().
  RunResult r = RunHotlint("--json " + Fixture("operator_dispatch.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(JsonCount(r.out, "unwaived"), 6) << r.out;
  EXPECT_NE(r.out.find("Picker::operator()"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("Accum::operator+"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("Table::lookup"), std::string::npos) << r.out;
}

TEST(HotlintBinary, NestedColdFixtureWaivesWithInnermostReason) {
  RunResult r = RunHotlint("--json " + Fixture("nested_cold.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(JsonCount(r.out, "unwaived"), 0) << r.out;
  EXPECT_EQ(JsonCount(r.out, "waived"), 4) << r.out;
  EXPECT_NE(r.out.find("diagnostics snapshot"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("rebuild is off the per-packet path"),
            std::string::npos)
      << r.out;
}

TEST(HotlintBinary, WaiverHygieneFires) {
  RunResult r = RunHotlint(Fixture("bad_waiver.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("bad-waiver"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("unused waiver"), std::string::npos) << r.out;
}

TEST(HotlintBinary, CallgraphDotDump) {
  RunResult r = RunHotlint("--callgraph=dot " + Fixture("cold_ok.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("digraph hotlint"), std::string::npos) << r.out;
  // The hot root is bold; the cold-cut callee is dotted (unreachable).
  EXPECT_NE(r.out.find("\"Table::lookup\" [shape=box, style=bold]"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"build_report\" [style=dotted]"), std::string::npos)
      << r.out;
}

TEST(HotlintBinary, CallgraphJsonDump) {
  RunResult r = RunHotlint("--callgraph=json " + Fixture("stdfunc_hot.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("\"functions\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("LegacyQueue::push"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"hot\": true"), std::string::npos) << r.out;
}

TEST(HotlintBinary, ListRulesNamesEveryRule) {
  RunResult r = RunHotlint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const std::string& rule : detlint::hot_rule_names()) {
    EXPECT_NE(r.out.find(rule), std::string::npos) << rule;
  }
}

TEST(HotlintBinary, UsageErrorsExitTwo) {
  EXPECT_EQ(RunHotlint("--callgraph=svg x.cc").exit_code, 2);
  EXPECT_EQ(RunHotlint("").exit_code, 2);
}

}  // namespace
