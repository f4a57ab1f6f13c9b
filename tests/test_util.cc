// Unit tests: util module (time, rng, csv, flags, logging, ring buffer).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <numeric>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "net/flow.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/open_hash_map.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/sorted_view.h"
#include "util/time.h"

namespace inband {
namespace {

using namespace inband::time_literals;

// --- time ---

TEST(Time, LiteralConversions) {
  EXPECT_EQ(1_us, 1000);
  EXPECT_EQ(1_ms, 1'000'000);
  EXPECT_EQ(1_s, 1'000'000'000);
  EXPECT_EQ(us(64), 64'000);
  EXPECT_EQ(ms(64), 64 * 1'000'000);
}

TEST(Time, ToFloatingUnits) {
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(to_sec(500'000'000), 0.5);
}

TEST(Time, FormatDurationPicksUnits) {
  EXPECT_EQ(format_duration(0), "0ns");
  EXPECT_EQ(format_duration(999), "999ns");
  EXPECT_EQ(format_duration(1000), "1us");
  EXPECT_EQ(format_duration(64'000), "64us");
  EXPECT_EQ(format_duration(1'234'000), "1.234ms");
  EXPECT_EQ(format_duration(2'500'000'000), "2.5s");
}

TEST(Time, FormatDurationNegative) {
  EXPECT_EQ(format_duration(-1500), "-1.5us");
}

TEST(Time, FormatTrimsTrailingZeros) {
  EXPECT_EQ(format_duration(1'500'000), "1.5ms");
  EXPECT_EQ(format_duration(1'000'000), "1ms");
}

// --- rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r{0};
  // splitmix seeding must avoid the all-zero state.
  EXPECT_NE(r(), 0u);
  std::uint64_t x = 0;
  for (int i = 0; i < 10; ++i) x |= r();
  EXPECT_NE(x, 0u);
}

TEST(Rng, UniformU64RespectsBounds) {
  Rng r{7};
  for (int i = 0; i < 10'000; ++i) {
    const auto v = r.uniform_u64(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformU64SingletonRange) {
  Rng r{7};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_u64(42, 42), 42u);
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng r{99};
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[r.uniform_u64(0, kBuckets - 1)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets / 10);
  }
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng r{3};
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r{11};
  double sum = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(250.0);
  EXPECT_NEAR(sum / kN, 250.0, 5.0);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r{13};
  constexpr int kN = 200'000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double v = r.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.02);
}

TEST(Rng, LognormalMedianMatches) {
  Rng r{17};
  constexpr int kN = 100'001;
  std::vector<double> vals(kN);
  for (auto& v : vals) v = r.lognormal_median(100.0, 0.5);
  std::nth_element(vals.begin(), vals.begin() + kN / 2, vals.end());
  EXPECT_NEAR(vals[kN / 2], 100.0, 3.0);
}

TEST(Rng, ParetoRespectsScale) {
  Rng r{19};
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(r.pareto(5.0, 2.0), 5.0);
  }
}

TEST(Rng, BernoulliProbability) {
  Rng r{23};
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Splitmix, IsStableAcrossCalls) {
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  EXPECT_NE(splitmix64(1), splitmix64(2));
}

// --- zipf ---

TEST(Zipf, DegenerateSingleElement) {
  Rng r{1};
  ZipfDistribution z{1, 1.0};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z(r), 1u);
}

TEST(Zipf, RespectsRange) {
  Rng r{2};
  ZipfDistribution z{1000, 0.99};
  for (int i = 0; i < 50'000; ++i) {
    const auto v = z(r);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
  }
}

TEST(Zipf, SkewFavorsSmallKeys) {
  Rng r{3};
  ZipfDistribution z{10'000, 1.1};
  int head = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    if (z(r) <= 10) ++head;
  }
  // With s=1.1 the top-10 keys should carry a large share of draws.
  EXPECT_GT(head, kN / 4);
}

TEST(Zipf, ZeroExponentIsNearUniform) {
  Rng r{4};
  ZipfDistribution z{100, 0.0};
  std::vector<int> counts(101, 0);
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) ++counts[static_cast<std::size_t>(z(r))];
  for (std::size_t k = 1; k <= 100; ++k) {
    EXPECT_NEAR(counts[k], kN / 100, kN / 100 / 2) << "key " << k;
  }
}

// --- csv ---

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv{os};
  csv.header("a", "b", "c");
  csv.row(1, 2.5, "x");
  EXPECT_EQ(os.str(), "a,b,c\n1,2.5,x\n");
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter csv{os};
  csv.header("v");
  csv.row("has,comma");
  csv.row("has\"quote");
  EXPECT_EQ(os.str(), "v\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(Csv, CompactDoubleFormat) {
  std::ostringstream os;
  CsvWriter csv{os};
  csv.header("v");
  csv.row(0.1);
  csv.row(1e9);
  EXPECT_EQ(os.str(), "v\n0.1\n1e+09\n");
}

TEST(Csv, NanRendered) {
  std::ostringstream os;
  CsvWriter csv{os};
  csv.header("v");
  csv.row(std::nan(""));
  EXPECT_EQ(os.str(), "v\nnan\n");
}

TEST(Csv, FileConstructorThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter{"/nonexistent_dir_zzz/file.csv"},
               std::runtime_error);
}

// --- flags ---

TEST(Flags, ParsesAllTypes) {
  bool b = false;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
  FlagSet flags;
  flags.add("b", &b, "bool");
  flags.add("i", &i, "int");
  flags.add("d", &d, "double");
  flags.add("s", &s, "string");
  const char* argv[] = {"prog", "--b", "--i=42", "--d", "2.5", "--s=hello"};
  ASSERT_TRUE(flags.parse(6, argv));
  EXPECT_TRUE(b);
  EXPECT_EQ(i, 42);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(s, "hello");
}

TEST(Flags, DefaultsPreservedWhenAbsent) {
  std::int64_t i = 7;
  FlagSet flags;
  flags.add("i", &i, "int");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(i, 7);
}

TEST(Flags, UnknownFlagFails) {
  FlagSet flags;
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, BadIntValueFails) {
  std::int64_t i = 0;
  FlagSet flags;
  flags.add("i", &i, "int");
  const char* argv[] = {"prog", "--i=abc"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, BadBoolValueFails) {
  bool b = false;
  FlagSet flags;
  flags.add("b", &b, "bool");
  const char* argv[] = {"prog", "--b=maybe"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, HelpReturnsFalse) {
  FlagSet flags;
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, MissingValueFails) {
  std::int64_t i = 0;
  FlagSet flags;
  flags.add("i", &i, "int");
  const char* argv[] = {"prog", "--i"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, UsageMentionsFlags) {
  std::int64_t i = 0;
  FlagSet flags{"my tool"};
  flags.add("alpha", &i, "the alpha");
  const auto usage = flags.usage("prog");
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("my tool"), std::string::npos);
}

// --- logging ---

TEST(Logging, LevelGate) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_level(old);
}

// --- assertion macros ---

TEST(AssertMacros, AssertPassesOnTrue) {
  INBAND_ASSERT(1 + 1 == 2);  // must not abort
  int evaluations = 0;
  INBAND_ASSERT(++evaluations == 1);
  EXPECT_EQ(evaluations, 1);  // condition evaluated exactly once
}

TEST(AssertMacrosDeathTest, AssertAbortsWithMessage) {
  EXPECT_DEATH(INBAND_ASSERT(false, "ctx message"), "assertion failed");
  EXPECT_DEATH(INBAND_ASSERT(2 < 1, "ctx message"), "ctx message");
}

TEST(AssertMacros, DcheckMatchesBuildType) {
  int evaluations = 0;
  INBAND_DCHECK(++evaluations > 0);
#ifdef NDEBUG
  EXPECT_EQ(evaluations, 0);  // compiled out
#else
  EXPECT_EQ(evaluations, 1);
#endif
}

#ifndef NDEBUG
TEST(AssertMacrosDeathTest, DcheckAbortsInDebug) {
  EXPECT_DEATH(INBAND_DCHECK(false, "dcheck fired"), "dcheck fired");
}
#endif

TEST(AssertMacros, AuditCompiledOnlyWhenEnabled) {
  int evaluations = 0;
  INBAND_AUDIT(++evaluations > 0);
#ifdef INBAND_ENABLE_AUDITS
  EXPECT_TRUE(kAuditsEnabled);
  EXPECT_EQ(evaluations, 1);
#else
  EXPECT_FALSE(kAuditsEnabled);
  // The condition must be syntax-checked but never evaluated.
  EXPECT_EQ(evaluations, 0);
#endif
}

TEST(AssertMacros, AuditBlockCompiledOnlyWhenEnabled) {
  int runs = 0;
  INBAND_AUDIT_BLOCK(++runs);
  EXPECT_EQ(runs, kAuditsEnabled ? 1 : 0);
}

#ifdef INBAND_ENABLE_AUDITS
TEST(AssertMacrosDeathTest, AuditAbortsWhenEnabled) {
  EXPECT_DEATH(INBAND_AUDIT(false, "audit fired"), "audit fired");
}
#else
TEST(AssertMacros, AuditNeverAbortsWhenDisabled) {
  INBAND_AUDIT(false, "must be compiled out");  // reaching here is the test
  SUCCEED();
}
#endif

// --- ring buffer ---

// Growth with a wrapped head: fill to capacity, pop past the midpoint, push
// until the tail wraps in front of the head, then push one more so grow()
// relocates a ring whose logical order straddles the physical end. The
// relocation must preserve FIFO order (issue 10 flagged this path; pinned
// here against std::deque).
TEST(RingBuffer, GrowWithWrappedHeadPreservesFifo) {
  RingBuffer<std::uint64_t> ring;
  std::deque<std::uint64_t> oracle;
  std::uint64_t next = 0;
  auto push = [&] {
    ring.push(next);
    oracle.push_back(next);
    ++next;
  };
  auto pop = [&] {
    ASSERT_EQ(ring.front(), oracle.front());
    ring.pop();
    oracle.pop_front();
  };
  for (int i = 0; i < 16; ++i) push();  // at the initial capacity of 16
  ASSERT_EQ(ring.capacity(), 16u);
  for (int i = 0; i < 10; ++i) pop();   // head at physical index 10
  for (int i = 0; i < 10; ++i) push();  // tail wrapped to physical index 10
  push();  // occupancy 17: grows while head > tail physically
  ASSERT_EQ(ring.capacity(), 32u);
  ASSERT_EQ(ring.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(ring[i], oracle[i]) << "post-growth order diverged at " << i;
  }
  while (!oracle.empty()) pop();
  EXPECT_TRUE(ring.empty());
}

// Randomized differential test vs std::deque: biased push/pop phases drive
// repeated growths at arbitrary wrap positions; every pop checks front() and
// every growth checks the full logical order.
TEST(RingBuffer, RandomizedDifferentialVsDeque) {
  Rng rng{0x10edb4ffULL};
  RingBuffer<std::uint64_t> ring;
  std::deque<std::uint64_t> oracle;
  std::uint64_t next = 0;
  std::size_t growths = 0;
  for (int step = 0; step < 200000; ++step) {
    // Alternate push-heavy and pop-heavy phases so occupancy sweeps across
    // capacity boundaries instead of hovering.
    const double push_p = (step / 5000) % 2 == 0 ? 0.7 : 0.3;
    if (oracle.empty() || rng.bernoulli(push_p)) {
      const std::size_t cap = ring.capacity();
      ring.push(next);
      oracle.push_back(next);
      ++next;
      if (ring.capacity() != cap) {
        ++growths;
        ASSERT_EQ(ring.size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i) {
          ASSERT_EQ(ring[i], oracle[i])
              << "growth #" << growths << " broke order at " << i;
        }
      }
    } else {
      ASSERT_EQ(ring.front(), oracle.front());
      ring.pop();
      oracle.pop_front();
    }
    ASSERT_EQ(ring.size(), oracle.size());
  }
  EXPECT_GE(growths, 5u) << "workload never exercised growth";
}

// --- OpenHashMap ---

// Multiplicative inverse of the table's Fibonacci constant, so a hash of
// kInvPhi * x lands at home slot x >> shift.
constexpr std::uint64_t inverse_of_phi() {
  constexpr std::uint64_t phi = 0x9E3779B97F4A7C15ULL;
  std::uint64_t inv = phi;  // Newton: each step doubles the correct bits
  for (int i = 0; i < 6; ++i) inv *= 2 - phi * inv;
  return inv;
}
constexpr std::uint64_t kInvPhi = inverse_of_phi();
static_assert(kInvPhi * 0x9E3779B97F4A7C15ULL == 1);

// Seven home slots for everything: long shared clusters, so backward-shift
// deletion constantly moves entries across other keys' runs.
struct SevenHomesHash {
  std::uint64_t operator()(std::uint64_t k) const { return k % 7; }
};
// Every key homes at the last slot (hash * phi == 2^64 - 1), so the one
// cluster wraps around the end of the array: the degenerate case for
// probing, erase and erase_if's walk alike.
struct WrappingHash {
  std::uint64_t operator()(std::uint64_t) const { return kInvPhi * ~0ULL; }
};

// Randomized differential run against std::unordered_map: try_emplace,
// operator[], find, erase by key and by iterator, and periodic erase_if,
// over a key range that widens with `step` so the table keeps growing.
// Contents are compared in full every 997 operations and at the end.
template <typename Hash>
void run_differential(int ops, std::uint64_t max_keys, std::uint64_t seed) {
  Rng rng{seed};
  OpenHashMap<std::uint64_t, std::uint64_t, Hash> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  const auto same_contents = [&](int step) {
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
    const auto got = sorted_entries(map);
    const auto want = sorted_entries(ref);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i]->first, want[i]->first) << "step " << step;
      ASSERT_EQ(got[i]->second, want[i]->second) << "step " << step;
    }
  };
  std::size_t growths = 0;
  for (int step = 0; step < ops; ++step) {
    const std::uint64_t span =
        1 + max_keys * static_cast<std::uint64_t>(step) /
                static_cast<std::uint64_t>(ops);
    const std::uint64_t key = rng.uniform_u64(0, span);
    const std::uint64_t roll = rng.uniform_u64(0, 99);
    const std::size_t cap = map.capacity();
    if (roll < 35) {
      const auto [it, inserted] = map.try_emplace(key, step);
      const auto [rit, rinserted] =
          ref.try_emplace(key, static_cast<std::uint64_t>(step));
      ASSERT_EQ(inserted, rinserted) << "step " << step;
      ASSERT_EQ(it->first, key);
      ASSERT_EQ(it->second, rit->second) << "step " << step;
    } else if (roll < 50) {
      map[key] += 3;
      ref[key] += 3;
    } else if (roll < 75) {
      const auto it = map.find(key);
      const auto rit = ref.find(key);
      ASSERT_EQ(it == map.end(), rit == ref.end()) << "step " << step;
      if (rit != ref.end()) {
        ASSERT_EQ(it->second, rit->second);
      }
    } else if (roll < 87) {
      ASSERT_EQ(map.erase(key), ref.erase(key)) << "step " << step;
    } else if (roll < 99) {
      const auto it = map.find(key);
      if (it != map.end()) {
        map.erase(it);
        ref.erase(key);
      }
    } else {
      // Drops roughly a third; every live entry is offered exactly once.
      const std::uint64_t m = rng.uniform_u64(0, 2);
      std::size_t calls = 0;
      const std::size_t erased = map.erase_if([&](const auto& kv) {
        ++calls;
        return (kv.first + kv.second) % 3 == m;
      });
      std::size_t ref_erased = 0;
      for (auto it = ref.begin(); it != ref.end();) {
        if ((it->first + it->second) % 3 == m) {
          it = ref.erase(it);
          ++ref_erased;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(erased, ref_erased) << "step " << step;
      ASSERT_EQ(calls, map.size() + erased) << "step " << step;
    }
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
    if (map.capacity() != cap) {
      ++growths;
      ASSERT_EQ(map.capacity(), cap == 0 ? 8u : 2 * cap);
      ASSERT_LE(map.size() * 8, map.capacity() * 7);
    }
    if (step % 997 == 0) same_contents(step);
  }
  same_contents(ops);
  EXPECT_GE(growths, 4u) << "workload never exercised growth";
}

TEST(OpenHashMap, RandomizedDifferentialVsUnorderedMap) {
  run_differential<OpenHash<std::uint64_t>>(100000, 6000, 0x0a5e11);
}

TEST(OpenHashMap, DifferentialWithSharedHomeSlots) {
  run_differential<SevenHomesHash>(100000, 400, 0x5e7e11);
}

TEST(OpenHashMap, DifferentialWithDegenerateWrappingHash) {
  run_differential<WrappingHash>(30000, 200, 0x3a9);
}

TEST(OpenHashMap, FlowKeysRoundTrip) {
  OpenHashMap<FlowKey, int> map;
  std::vector<FlowKey> keys;
  for (std::uint16_t port = 1000; port < 3000; ++port) {
    keys.push_back({{make_ipv4(10, 0, 0, 1), port},
                    {make_ipv4(10, 9, 9, 9), 80},
                    IpProto::kTcp});
    keys.push_back(keys.back().reversed());
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(map.emplace(keys[i], static_cast<int>(i)).second);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto it = map.find(keys[i]);
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->second, static_cast<int>(i));
  }
  for (std::size_t i = 0; i < keys.size(); i += 2) map.erase(keys[i]);
  EXPECT_EQ(map.size(), keys.size() / 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(map.find(keys[i]) != map.end(), i % 2 == 1);
  }
}

// The erased value is destroyed only after the table is consistent again,
// so a destructor that looks the table up (a connection unregistering
// itself, say) sees every other entry where it belongs.
TEST(OpenHashMap, ErasedValueDiesAfterTableIsConsistent) {
  struct Probe;
  using Map = OpenHashMap<std::uint64_t, std::unique_ptr<Probe>, WrappingHash>;
  struct Probe {
    Map* map;
    std::uint64_t self;
    int* found_others;  // null: teardown, check nothing
    ~Probe() {
      if (found_others == nullptr) return;
      for (std::uint64_t k = 0; k < 6; ++k) {
        if (k != self && map->find(k) != map->end()) ++*found_others;
      }
    }
  };
  Map map;
  int found = 0;
  for (std::uint64_t k = 0; k < 6; ++k) {
    map.emplace(k, std::unique_ptr<Probe>(new Probe{&map, k, &found}));
  }
  map.erase(std::uint64_t{0});
  EXPECT_EQ(found, 5);
  EXPECT_EQ(map.size(), 5u);
  for (auto& [k, probe] : map) probe->found_others = nullptr;
}

}  // namespace
}  // namespace inband
