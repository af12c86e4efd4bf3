// Unit tests for the common utilities: views, aligned storage, stats,
// tables, CLI parsing, units, RNG determinism, error checking.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "common/aligned.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/instrument.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "common/view.hpp"

namespace bwlab {
namespace {

TEST(Types, RoundUp) {
  EXPECT_EQ(round_up(0, 64), 0u);
  EXPECT_EQ(round_up(1, 64), 64u);
  EXPECT_EQ(round_up(64, 64), 64u);
  EXPECT_EQ(round_up(65, 64), 128u);
}

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 8), 0);
  EXPECT_EQ(ceil_div(1, 8), 1);
  EXPECT_EQ(ceil_div(8, 8), 1);
  EXPECT_EQ(ceil_div(9, 8), 2);
}

TEST(Aligned, VectorIsCacheLineAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    aligned_vector<double> v(n, 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes,
              0u)
        << "n=" << n;
  }
}

std::uintptr_t addr(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

TEST(Aligned, LargePathIsColouredAndAligned) {
  constexpr std::size_t n = kLargeArrayBytes / sizeof(double) + 3;
  std::vector<aligned_vector<double>> vs(40);
  for (auto& v : vs) v.reserve(n);  // mapped, never touched
  for (const auto& v : vs)
    EXPECT_EQ(addr(v.data()) % kCacheLineBytes, 0u);
  for (std::size_t first = 0; first + kColours <= vs.size(); ++first) {
    std::set<std::uintptr_t> mod4k, mod128k;
    for (std::size_t i = first; i < first + kColours; ++i) {
      mod4k.insert(addr(vs[i].data()) % 4096);
      mod128k.insert(addr(vs[i].data()) % (128 * 1024));
    }
    EXPECT_EQ(mod4k.size(), kColours) << "window at " << first;
    EXPECT_EQ(mod128k.size(), kColours) << "window at " << first;
  }
}

TEST(Aligned, HugePageExtentsStayInsideTheArray) {
  constexpr std::size_t H = kHugePageBytes;
  const std::uintptr_t base = 64 * H;
  // Shorter than one whole extent inside: nothing is advised.
  EXPECT_TRUE(huge_page_extents(base, H - 1).empty());
  EXPECT_TRUE(huge_page_extents(base + 64, H).empty());
  EXPECT_TRUE(huge_page_extents(base + 64, 2 * H - 65).empty());
  EXPECT_TRUE(huge_page_extents(base, 0).empty());
  // Exact multiples on a boundary: the whole array.
  for (std::size_t k : {1u, 2u, 3u}) {
    const ByteRange r = huge_page_extents(base, k * H);
    EXPECT_EQ(r.begin, 0u);
    EXPECT_EQ(r.end, k * H);
  }
  // A coloured 4 MiB array: the one extent between its two boundaries.
  const ByteRange c = huge_page_extents(base + kColourStepBytes, 2 * H);
  EXPECT_EQ(c.begin, H - kColourStepBytes);
  EXPECT_EQ(c.end, 2 * H - kColourStepBytes);
  // In general: aligned, inside [p, p + bytes), and maximal.
  for (std::uintptr_t off : {std::uintptr_t{0}, std::uintptr_t{64},
                             std::uintptr_t{4160}, H - 64})
    for (std::size_t bytes : {H - 1, H, H + 64, 2 * H + 4096, 5 * H - 1}) {
      const std::uintptr_t p = base + off;
      const ByteRange r = huge_page_extents(p, bytes);
      if (r.empty()) {
        EXPECT_LT(bytes, 2 * H) << off << "+" << bytes;
        continue;
      }
      EXPECT_EQ((p + r.begin) % H, 0u);
      EXPECT_EQ((p + r.end) % H, 0u);
      EXPECT_LE(r.end, bytes);
      EXPECT_LT(r.begin, H);
      EXPECT_LT(bytes - r.end, H);
    }
}

TEST(Aligned, RoundTripsAcrossTheLargeThreshold) {
  constexpr std::size_t large = kLargeArrayBytes / sizeof(double);
  auto check = [](const aligned_vector<double>& v, std::size_t n,
                  double first) {
    ASSERT_EQ(v.size(), n);
    EXPECT_EQ(addr(v.data()) % kCacheLineBytes, 0u);
    EXPECT_EQ(v.front(), first);
    EXPECT_EQ(v.back(), first);
  };
  aligned_vector<double> v(1000, 1.0);
  v.resize(large, 1.0);  // small -> large
  check(v, large, 1.0);
  v.resize(large - 1);
  v.shrink_to_fit();  // large -> small (one element under the threshold)
  check(v, large - 1, 1.0);
  v.assign(large + 5, 2.0);
  check(v, large + 5, 2.0);
  aligned_vector<double> copy = v;
  check(copy, large + 5, 2.0);
  aligned_vector<double> moved = std::move(v);
  check(moved, large + 5, 2.0);
  moved.assign(10, 3.0);  // reuses the large block
  moved.shrink_to_fit();
  check(moved, 10, 3.0);
  copy = aligned_vector<double>(10, 4.0);  // frees the large copy
  check(copy, 10, 4.0);
}

TEST(Aligned, TouchingALargeArrayAddsOnlyItsOwnPages) {
  // Anonymous memory from smaps_rollup, which sums the page tables
  // exactly. statm's resident count is batched per CPU and drifts by tens
  // of pages between two reads, and total RSS also grows whenever new code
  // faults in library text.
  auto anon_kb = []() -> long {
    long kb = -1;
    if (std::FILE* f = std::fopen("/proc/self/smaps_rollup", "r")) {
      char line[256];
      while (kb < 0 && std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "Anonymous: %ld kB", &kb) != 1) kb = -1;
      std::fclose(f);
    }
    return kb;
  };
  const long before = anon_kb();
  if (before < 0) GTEST_SKIP() << "/proc/self/smaps_rollup unreadable";
  constexpr long kb = 64 * 1024;
  aligned_vector<char> v(static_cast<std::size_t>(kb) * 1024, 1);  // touch
  const long after = anon_kb();
  ASSERT_GE(after, 0);
  EXPECT_GE(after - before, kb);
  EXPECT_LE(after - before, kb + 64);
  EXPECT_EQ(v[v.size() / 2], 1);
}

TEST(Aligned, OverflowingCountThrowsBadAlloc) {
  constexpr std::size_t max = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(AlignedAllocator<char>{}.allocate(max - 10), std::bad_alloc);
  EXPECT_THROW(AlignedAllocator<double>{}.allocate(max / sizeof(double)),
               std::bad_alloc);
  EXPECT_THROW(AlignedAllocator<double>{}.allocate(max / 4),
               std::bad_alloc);
}

TEST(Error, RequireThrowsWithMessage) {
  // The message is the diagnostic, alone.
  try {
    BWLAB_REQUIRE(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "custom detail 42");
  }
}

TEST(Error, DiagnosticsCarryNoSourcePath) {
  // Without a message the check names its expression and its source file
  // by base name, so no diagnostic depends on where the binary was built.
  try {
    BWLAB_REQUIRE(1 == 2, "");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(1 == 2) at test_common.cpp:"), std::string::npos)
        << what;
    EXPECT_EQ(what.find('/'), std::string::npos) << what;
  }
  // A library check reached through a tool's input: a cut JSON document.
  try {
    json::parse("{\"a\": [1, 2");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find('/'), std::string::npos) << e.what();
  }
}

TEST(View, View2DIndexing) {
  std::vector<double> data(12);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<double>(i);
  View2D<double> v(data.data(), 4, 3);
  EXPECT_EQ(v(0, 0), 0.0);
  EXPECT_EQ(v(3, 0), 3.0);
  EXPECT_EQ(v(0, 1), 4.0);
  EXPECT_EQ(v(3, 2), 11.0);
  EXPECT_EQ(v.size(), 12);
}

TEST(View, View3DStrides) {
  std::vector<int> data(2 * 3 * 4);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<int>(i);
  View3D<int> v(data.data(), 2, 3, 4);
  EXPECT_EQ(v(0, 0, 0), 0);
  EXPECT_EQ(v(1, 0, 0), 1);
  EXPECT_EQ(v(0, 1, 0), 2);
  EXPECT_EQ(v(0, 0, 1), 6);
  EXPECT_EQ(v(1, 2, 3), 23);
}

TEST(Stats, RunningStatsMatchesClosedForm) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);  // sample variance of 1..5
}

TEST(Stats, GeomeanAndMedian) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW(geomean({}), Error);
  EXPECT_THROW(geomean({1.0, -2.0}), Error);
}

TEST(Table, AlignedRendering) {
  Table t("Demo");
  t.set_columns({{"name", 0}, {"value", 2}});
  t.add_row({std::string("alpha"), 1.5});
  t.add_separator();
  t.add_row({std::string("b"), 10.25});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("10.25"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 3u);  // incl. separator
}

TEST(Table, CsvEscapesAndSkipsSeparators) {
  Table t;
  t.set_columns({{"a", 0}, {"b", 1}});
  t.add_row({std::string("x,y"), 1.0});
  t.add_separator();
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",1.0\n");
}

TEST(Table, RowArityChecked) {
  Table t;
  t.set_columns({{"a", 0}});
  EXPECT_THROW(t.add_row({std::string("x"), 1.0}), Error);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",     "--alpha=3", "--beta=7",
                        "pos1",     "--flag",    "--gamma=2.5"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(cli.get_double("gamma", 0), 2.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.get_int("absent", -1), -1);

  // A bare flag never takes the next word as its value.
  const char* csv_argv[] = {"prog", "--csv", "a", "b"};
  const Cli csv(4, csv_argv);
  EXPECT_TRUE(csv.get_bool("csv", false));
  ASSERT_EQ(csv.positional().size(), 2u);
  EXPECT_EQ(csv.positional()[0], "a");
  EXPECT_EQ(csv.positional()[1], "b");
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("n", 0), Error);
}

TEST(Cli, RejectsFlagsNeverRead) {
  const char* argv[] = {"prog", "--n=4", "--placement=auto", "--verbose",
                        "--live-listen=0"};
  const Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 4);
  EXPECT_FALSE(cli.has("tiled"));  // asked-for but absent is fine
  try {
    cli.reject_unknown();
    FAIL() << "unread flags must be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--placement"), std::string::npos) << what;
    EXPECT_NE(what.find("--verbose"), std::string::npos) << what;
    EXPECT_NE(what.find("--live-listen"), std::string::npos) << what;
    EXPECT_EQ(what.find("--n"), std::string::npos) << what;
  }
  // Reading a flag by any accessor counts, whatever its value.
  EXPECT_EQ(cli.get("placement", ""), "auto");
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.has("live-listen"));
  EXPECT_NO_THROW(cli.reject_unknown());
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bandwidth(1446e9), "1446.0 GB/s");
  EXPECT_EQ(format_flops(6.0e12), "6.00 TFLOP/s");
  EXPECT_EQ(format_size(64.0 * kMiB), "64.00 MiB");
  EXPECT_EQ(format_time(2.5e-3), "2.50 ms");
}

TEST(Rng, DeterministicAcrossInstances) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformBounds) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
    EXPECT_LT(rng.below(10), 10u);
  }
}

TEST(Rng, RoughlyUniformMean) {
  SplitMix64 rng(123);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Instrumentation, ExchangesReturnFirstTouchOrder) {
  // Records must come back in the order dats were first exchanged, not in
  // std::map key order (mirrors loops_in_order).
  Instrumentation instr;
  instr.exchange("zeta").messages = 1;
  instr.exchange("alpha").messages = 2;
  instr.exchange("mid").messages = 3;
  instr.exchange("zeta").messages = 4;  // revisit must not reorder

  const auto ex = instr.exchanges();
  ASSERT_EQ(ex.size(), 3u);
  EXPECT_EQ(ex[0]->dat_name, "zeta");
  EXPECT_EQ(ex[1]->dat_name, "alpha");
  EXPECT_EQ(ex[2]->dat_name, "mid");
  EXPECT_EQ(ex[0]->messages, 4u);

  instr.clear();
  EXPECT_TRUE(instr.exchanges().empty());
  instr.exchange("beta");
  ASSERT_EQ(instr.exchanges().size(), 1u);
  EXPECT_EQ(instr.exchanges()[0]->dat_name, "beta");
}

}  // namespace
}  // namespace bwlab
