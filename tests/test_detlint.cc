// Tests for detlint, the determinism-hazard static analyzer (tools/detlint).
//
// Two layers:
//  - engine tests call analyze_source()/harvest_decls() directly and pin
//    rule behavior (true positives, non-triggers, waivers, header imports)
//    down to the finding line;
//  - binary tests shell the built `detlint` executable in --json mode over
//    the fixture corpus (tools/detlint/fixtures) and assert the end-to-end
//    contract: every violating fixture is flagged — including the replica
//    of the PR 2 KvServer pointer-order bug — clean fixtures are silent,
//    waived fixtures exit 0, and exit codes follow the documented scheme.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "rules.h"

namespace {

using detlint::FileReport;
using detlint::Finding;
using detlint::HarvestedDecls;

// ---------------------------------------------------------------------------
// Engine-level tests.
// ---------------------------------------------------------------------------

// Returns the findings matching `rule` (waived or not).
std::vector<Finding> FindingsFor(const FileReport& report,
                                 const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : report.findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

int CountUnwaived(const FileReport& report) {
  int n = 0;
  for (const Finding& f : report.findings) {
    if (!f.waived) ++n;
  }
  return n;
}

TEST(DetlintEngine, FlagsRangeForOverUnorderedMember) {
  const char* src = R"(
#include <unordered_map>
struct S {
  std::unordered_map<int, int> m_;
  int sum() const {
    int n = 0;
    for (const auto& [k, v] : m_) n += v;
    return n;
  }
};
)";
  FileReport r = detlint::analyze_source("x.cc", src, /*control_path=*/false);
  auto hits = FindingsFor(r, "unordered-iter");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 7);
  EXPECT_FALSE(hits[0].waived);
}

TEST(DetlintEngine, FlagsBeginIteratorAndFreeBegin) {
  const char* src = R"(
#include <unordered_set>
std::unordered_set<int> s_;
void f() {
  auto it = s_.begin();
  auto it2 = begin(s_);
  (void)it;
  (void)it2;
}
)";
  FileReport r = detlint::analyze_source("x.cc", src, false);
  EXPECT_EQ(FindingsFor(r, "unordered-iter").size(), 2u);
}

TEST(DetlintEngine, FlagsRangeForOverOpenHashSet) {
  const char* src = R"(
#include "util/open_hash_map.h"
struct S {
  inband::OpenHashSet<unsigned long> ids_;
  unsigned long fold() const {
    unsigned long h = 0;
    for (const auto& [id, none] : ids_) h = h * 31 + id;
    return h;
  }
};
)";
  FileReport r = detlint::analyze_source("x.cc", src, false);
  auto hits = FindingsFor(r, "unordered-iter");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 7);
}

TEST(DetlintEngine, SortedSnapshotHelperCallIsNotFlagged) {
  // The blessed pattern: the unordered container appears only as a call
  // argument inside the range expression, never as the range itself.
  const char* src = R"(
#include <unordered_map>
#include "util/sorted_view.h"
struct S {
  std::unordered_map<int, int> m_;
  int sum() const {
    int n = 0;
    for (const auto* e : sorted_entries(m_)) n += e->second;
    return n;
  }
};
)";
  FileReport r = detlint::analyze_source("x.cc", src, false);
  EXPECT_TRUE(FindingsFor(r, "unordered-iter").empty());
}

TEST(DetlintEngine, LookupsDoNotTriggerIterationRule) {
  const char* src = R"(
#include <unordered_map>
std::unordered_map<int, int> m_;
bool has(int k) { return m_.find(k) != m_.end(); }
int get(int k) { return m_.at(k); }
)";
  FileReport r = detlint::analyze_source("x.cc", src, false);
  EXPECT_TRUE(FindingsFor(r, "unordered-iter").empty());
}

TEST(DetlintEngine, HeaderImportTracksMembersDeclaredElsewhere) {
  // The .cc never declares map_; the harvested header decls carry it.
  HarvestedDecls header = detlint::harvest_decls(R"(
#include <unordered_map>
struct Conntrack {
  std::unordered_map<int, int> map_;
};
)");
  ASSERT_EQ(header.unordered.size(), 1u);
  EXPECT_EQ(header.unordered[0], "map_");

  const char* cc = R"(
void Conntrack_sweep(Conntrack& c);
int sum(const Conntrack& c) {
  int n = 0;
  for (const auto& [k, v] : map_) n += v;
  return n;
}
)";
  FileReport without = detlint::analyze_source("c.cc", cc, false);
  EXPECT_TRUE(FindingsFor(without, "unordered-iter").empty());

  FileReport with = detlint::analyze_source("c.cc", cc, false, &header);
  EXPECT_EQ(FindingsFor(with, "unordered-iter").size(), 1u);
}

TEST(DetlintEngine, LocalOrderedDeclShadowsImportedUnorderedName) {
  HarvestedDecls header = detlint::harvest_decls(R"(
#include <unordered_map>
std::unordered_map<int, int> links_;
)");
  // This file re-declares links_ as an ordered std::map: iterating it is
  // deterministic and must not inherit the imported unordered tag.
  const char* cc = R"(
#include <map>
std::map<int, int> links_;
int sum() {
  int n = 0;
  for (const auto& [k, v] : links_) n += v;
  return n;
}
)";
  FileReport r = detlint::analyze_source("c.cc", cc, false, &header);
  EXPECT_TRUE(FindingsFor(r, "unordered-iter").empty());
}

TEST(DetlintEngine, PointerSortHashAndCastFlagged) {
  const char* src = R"(
#include <algorithm>
#include <cstdint>
#include <vector>
struct B { int id; };
void f(std::vector<B*>& pool) {
  std::sort(pool.begin(), pool.end());
  auto h = std::hash<B*>{}(pool[0]);
  auto a = reinterpret_cast<std::uintptr_t>(pool[0]);
  (void)h;
  (void)a;
}
)";
  FileReport r = detlint::analyze_source("x.cc", src, false);
  EXPECT_EQ(FindingsFor(r, "pointer-order").size(), 3u);
}

TEST(DetlintEngine, PointerSortWithComparatorIsClean) {
  const char* src = R"(
#include <algorithm>
#include <vector>
struct B { int id; };
void f(std::vector<B*>& pool) {
  std::sort(pool.begin(), pool.end(),
            [](const B* a, const B* b) { return a->id < b->id; });
}
)";
  FileReport r = detlint::analyze_source("x.cc", src, false);
  EXPECT_TRUE(FindingsFor(r, "pointer-order").empty());
}

TEST(DetlintEngine, WallClockAndEntropyFlaggedEverywhere) {
  const char* src = R"(
#include <chrono>
#include <cstdlib>
#include <random>
void f() {
  auto t = std::chrono::steady_clock::now();
  int r = std::rand();
  std::random_device rd;
  (void)t; (void)r; (void)rd;
}
)";
  FileReport r = detlint::analyze_source("x.cc", src, /*control_path=*/false);
  EXPECT_EQ(FindingsFor(r, "wall-clock").size(), 3u);
}

TEST(DetlintEngine, FloatEqOnlyFiresOnControlPaths) {
  const char* src = R"(
bool f(double a, double b) { return a == b; }
)";
  FileReport off = detlint::analyze_source("bench/x.cc", src, false);
  EXPECT_TRUE(FindingsFor(off, "float-eq").empty());

  FileReport on = detlint::analyze_source("lb/x.cc", src, true);
  ASSERT_EQ(FindingsFor(on, "float-eq").size(), 1u);
  EXPECT_EQ(FindingsFor(on, "float-eq")[0].line, 2);
}

TEST(DetlintEngine, WaiverOnLineAboveOrSameLineSuppresses) {
  const char* src = R"(
#include <unordered_map>
std::unordered_map<int, int> m_;
int f() {
  int n = 0;
  // detlint:allow(unordered-iter): commutative sum; order-independent
  for (const auto& [k, v] : m_) n += v;
  for (const auto& [k, v] : m_) n += v;  // detlint:allow(unordered-iter): same
  return n;
}
)";
  FileReport r = detlint::analyze_source("x.cc", src, false);
  auto hits = FindingsFor(r, "unordered-iter");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_TRUE(hits[0].waived);
  EXPECT_EQ(hits[0].waiver_reason, "commutative sum; order-independent");
  EXPECT_TRUE(hits[1].waived);
  EXPECT_EQ(CountUnwaived(r), 0);
  EXPECT_TRUE(r.unused_waivers.empty());
}

TEST(DetlintEngine, MalformedAndUnknownWaiversAreFindings) {
  const char* src = R"(
// detlint:allow(unordered-iter)
// detlint:allow(unordered-iter):
// detlint:allow(no-such-rule): reason
int x = 0;
)";
  FileReport r = detlint::analyze_source("x.cc", src, false);
  EXPECT_EQ(FindingsFor(r, "bad-waiver").size(), 3u);
}

TEST(DetlintEngine, UnusedWaiverReported) {
  const char* src = R"(
// detlint:allow(wall-clock): stale
int x = 0;
)";
  FileReport r = detlint::analyze_source("x.cc", src, false);
  ASSERT_EQ(r.unused_waivers.size(), 1u);
  EXPECT_EQ(r.unused_waivers[0].line, 2);
}

// ---------------------------------------------------------------------------
// Binary-level tests: shell `detlint --json` over the fixture corpus.
// ---------------------------------------------------------------------------

struct RunResult {
  int exit_code = -1;
  std::string out;
};

RunResult RunDetlint(const std::string& args) {
  const std::string cmd = std::string(DETLINT_BIN) + " " + args + " 2>&1";
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
  return std::string(DETLINT_FIXTURES) + "/" + rel;
}

int CountOccurrences(const std::string& hay, const std::string& needle) {
  int count = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Extracts the N from `"<key>": N` in the JSON counts object.
int JsonCount(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.rfind(needle);
  if (pos == std::string::npos) return -1;
  return std::atoi(json.c_str() + pos + needle.size());
}

TEST(DetlintBinary, KvServerBugReplicaIsCaught) {
  // The PR 2 bug: KvServer::abort_all_connections iterated the unordered
  // open-connection set directly (abort order = hash-table order), and the
  // half-fix sorted the snapshot by raw pointer value. Both steps must be
  // flagged.
  RunResult r =
      RunDetlint("--json " + Fixture("unordered_iter/kv_server_bug.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("\"line\": 21, \"rule\": \"unordered-iter\""),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("open_conns_"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"rule\": \"pointer-order\""), std::string::npos)
      << r.out;
  EXPECT_EQ(JsonCount(r.out, "unwaived"), 3) << r.out;
}

TEST(DetlintBinary, ViolatingFixturesAreFlaggedPerRule) {
  struct Case {
    const char* path;
    const char* rule;
    int expected;
  };
  const Case cases[] = {
      {"unordered_iter/violate.cc", "unordered-iter", 4},
      {"unordered_iter/open_hash_map.cc", "unordered-iter", 3},
      {"pointer_order/violate.cc", "pointer-order", 3},
      {"wall_clock/violate.cc", "wall-clock", 5},
      {"lb/float_eq_violate.cc", "float-eq", 3},
      {"bad_waiver/violate.cc", "bad-waiver", 3},
  };
  for (const Case& c : cases) {
    RunResult r = RunDetlint("--json " + Fixture(c.path));
    EXPECT_EQ(r.exit_code, 1) << c.path;
    const std::string tag = std::string("\"rule\": \"") + c.rule + "\"";
    EXPECT_EQ(CountOccurrences(r.out, tag), c.expected)
        << c.path << "\n"
        << r.out;
  }
}

TEST(DetlintBinary, CleanFixturesExitZeroWithNoFindings) {
  const char* clean[] = {
      "unordered_iter/clean.cc",
      "pointer_order/clean.cc",
      "wall_clock/clean.cc",
      "lb/float_eq_clean.cc",
      "float_eq_outside_control_path.cc",
  };
  for (const char* path : clean) {
    RunResult r = RunDetlint("--json " + Fixture(path));
    EXPECT_EQ(r.exit_code, 0) << path << "\n" << r.out;
    EXPECT_EQ(JsonCount(r.out, "unwaived"), 0) << path << "\n" << r.out;
    EXPECT_EQ(JsonCount(r.out, "waived"), 0) << path << "\n" << r.out;
  }
}

TEST(DetlintBinary, WaivedFixturesExitZeroWithWaivedFindings) {
  struct Case {
    const char* path;
    int waived;
  };
  const Case cases[] = {
      {"unordered_iter/waived.cc", 2},
      {"pointer_order/waived.cc", 1},
      {"wall_clock/waived.cc", 2},
      {"lb/float_eq_waived.cc", 1},
  };
  for (const Case& c : cases) {
    RunResult r = RunDetlint("--json " + Fixture(c.path));
    EXPECT_EQ(r.exit_code, 0) << c.path << "\n" << r.out;
    EXPECT_EQ(JsonCount(r.out, "unwaived"), 0) << c.path << "\n" << r.out;
    EXPECT_EQ(JsonCount(r.out, "waived"), c.waived) << c.path << "\n" << r.out;
  }
}

TEST(DetlintBinary, FloatEqControlPathScopingViaDirectoryName) {
  // Scanning the fixtures root applies float-eq only to files whose path
  // contains an lb/ (or core/) component; the identical comparison outside
  // that subtree stays quiet even in the same invocation.
  RunResult r = RunDetlint("--json " + Fixture("lb") + " " +
                           Fixture("float_eq_outside_control_path.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(CountOccurrences(r.out, "\"rule\": \"float-eq\""), 4) << r.out;
  EXPECT_EQ(r.out.find("float_eq_outside_control_path"), std::string::npos)
      << "outside-control-path file must produce no findings: " << r.out;
}

TEST(DetlintBinary, UnusedWaiverSurfacesInJson) {
  RunResult r = RunDetlint("--json " + Fixture("bad_waiver/violate.cc"));
  EXPECT_EQ(JsonCount(r.out, "unused_waivers"), 1) << r.out;
  EXPECT_NE(r.out.find("\"rules\": \"wall-clock\""), std::string::npos)
      << r.out;
}

TEST(DetlintBinary, UsageErrorsExitTwo) {
  EXPECT_EQ(RunDetlint("").exit_code, 2);
  EXPECT_EQ(RunDetlint("--no-such-flag x.cc").exit_code, 2);
}

TEST(DetlintBinary, ListRulesNamesAllFive) {
  RunResult r = RunDetlint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule : {"unordered-iter", "pointer-order", "wall-clock",
                           "float-eq", "bad-waiver"}) {
    EXPECT_NE(r.out.find(rule), std::string::npos) << rule;
  }
}

TEST(DetlintBinary, WholeCorpusSummary) {
  // One invocation over the entire corpus pins the aggregate counts; any
  // new fixture or rule regression shifts these numbers.
  RunResult r = RunDetlint("--json " + std::string(DETLINT_FIXTURES));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(JsonCount(r.out, "unwaived"), 27) << r.out;
  EXPECT_EQ(JsonCount(r.out, "waived"), 6) << r.out;
  EXPECT_EQ(JsonCount(r.out, "files_scanned"), 30) << r.out;
}

}  // namespace
