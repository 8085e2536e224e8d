// Unit tests for util: RNG determinism/distributions, units, table printer,
// SmallFunction callbacks, ring buffer, the trial arena and FlatMap, durable
// files, the CLI flag parser.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "util/arena.hpp"
#include "util/args.hpp"
#include "util/durable_file.hpp"
#include "util/flat_map.hpp"
#include "util/function.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace qperc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(99);
  Rng child1 = parent.fork(std::uint64_t{7});
  parent.next_u64();  // consuming the parent must not change forks
  // fork() is const and keyed on state; same state+tag gives the same child,
  // so re-fork from a copy made before consumption.
  Rng parent2(99);
  Rng child2 = parent2.fork(std::uint64_t{7});
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, ForksWithDifferentTagsDecorrelated) {
  Rng parent(5);
  Rng a = parent.fork(std::uint64_t{1});
  Rng b = parent.fork(std::uint64_t{2});
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, StringForkMatchesHashFork) {
  Rng parent(5);
  Rng a = parent.fork("uplink-loss");
  Rng b = parent.fork(fnv1a("uplink-loss"));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(42);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(42);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(42);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(42);
  for (const double lambda : {0.3, 2.0, 15.0, 80.0}) {
    double sum = 0.0;
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / kN, lambda, std::max(0.1, lambda * 0.08)) << lambda;
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(42);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kN, 4.0, 0.15);
}

TEST(Units, TransmissionTime) {
  const auto rate = DataRate::megabits_per_second(8.0);  // 1 MB/s
  EXPECT_EQ(rate.transmission_time(1'000'000), seconds(1));
  EXPECT_EQ(rate.transmission_time(500'000), milliseconds(500));
}

TEST(Units, BytesIn) {
  const auto rate = DataRate::megabits_per_second(8.0);
  EXPECT_EQ(rate.bytes_in(seconds(2)), 2'000'000u);
}

TEST(Units, BdpBytes) {
  // 25 Mbps x 24 ms = 75 kB (the DSL BDP from Table 2).
  EXPECT_EQ(bdp_bytes(DataRate::megabits_per_second(25.0), milliseconds(24)), 75'000u);
}

TEST(Units, FromBytesAndDuration) {
  const auto rate = DataRate::from_bytes_and_duration(1'000'000, seconds(1));
  EXPECT_EQ(rate.bps(), 8'000'000u);
  EXPECT_EQ(DataRate::from_bytes_and_duration(100, SimDuration::zero()).bps(), 0u);
}

TEST(Units, ZeroRateHasInfiniteTransmissionTime) {
  EXPECT_EQ(DataRate().transmission_time(1), SimDuration::max());
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(seconds(2)), 2000.0);
  EXPECT_EQ(from_seconds(0.001), milliseconds(1));
}

TEST(Table, AlignsColumnsAndRendersCsv) {
  TextTable table({"a", "bbbb"});
  table.add_row({"1", "2"});
  table.add_rule();
  table.add_row({"333", "4"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("333"), std::string::npos);
  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_EQ(csv.str(), "a,bbbb\n1,2\n333,4\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
  EXPECT_EQ(fmt_ms(24.0), "24 ms");
}

TEST(SmallFunction, InvokesInlineCallable) {
  int hits = 0;
  SmallFunction<void()> fn([&hits] { ++hits; });
  ASSERT_TRUE(fn);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, EmptyAndNullptrStates) {
  SmallFunction<void()> fn;
  EXPECT_FALSE(fn);
  EXPECT_TRUE(fn == nullptr);
  fn = [] {};
  EXPECT_TRUE(fn);
  EXPECT_TRUE(fn != nullptr);
  fn = nullptr;
  EXPECT_FALSE(fn);
}

TEST(SmallFunction, MoveTransfersOwnership) {
  int hits = 0;
  SmallFunction<void()> a([&hits] { ++hits; });
  SmallFunction<void()> b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFunction, SupportsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(41);
  SmallFunction<int()> fn([owned = std::move(owned)] { return *owned + 1; });
  EXPECT_EQ(fn(), 42);
}

TEST(SmallFunction, LargeCapturesFallBackToHeap) {
  std::array<std::uint64_t, 32> big{};  // 256 bytes, well past the inline buffer
  big[0] = 7;
  big[31] = 35;
  SmallFunction<std::uint64_t()> fn([big] { return big[0] + big[31]; });
  EXPECT_EQ(fn(), 42u);
  SmallFunction<std::uint64_t()> moved(std::move(fn));
  EXPECT_EQ(moved(), 42u);
}

TEST(SmallFunction, PassesArgumentsAndReturnsValues) {
  SmallFunction<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(20, 22), 42);
}

TEST(RingBuffer, FifoOrderAcrossGrowth) {
  RingBuffer<int> buffer;
  for (int i = 0; i < 100; ++i) buffer.push_back(i);
  EXPECT_EQ(buffer.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(buffer.pop_front(), i);
  EXPECT_TRUE(buffer.empty());
}

TEST(RingBuffer, WrapsAroundWithoutReordering) {
  RingBuffer<int> buffer;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so head/tail wrap the slab repeatedly.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) buffer.push_back(next_in++);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(buffer.pop_front(), next_out++);
  }
  while (!buffer.empty()) EXPECT_EQ(buffer.pop_front(), next_out++);
  EXPECT_EQ(next_in, next_out);
}

TEST(RingBuffer, ClearEmptiesAndStaysUsable) {
  RingBuffer<std::unique_ptr<int>> buffer;
  buffer.push_back(std::make_unique<int>(1));
  buffer.push_back(std::make_unique<int>(2));
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  buffer.push_back(std::make_unique<int>(3));
  EXPECT_EQ(*buffer.front(), 3);
  EXPECT_EQ(*buffer.pop_front(), 3);
}

// --- Arena -------------------------------------------------------------------

TEST(Arena, ReleasedStorageIsHandedBackForItsSizeClass) {
  Arena arena;
  void* node = arena.acquire(40);
  void* other = arena.acquire(40);
  arena.release(node, 40);
  EXPECT_NE(arena.acquire(64), node) << "a different size class must not take it";
  const std::size_t used = arena.bytes_used();
  EXPECT_EQ(arena.acquire(33), node) << "33..48 bytes share the 48-byte class";
  EXPECT_EQ(arena.bytes_used(), used) << "a recycled block is not a bump";
  arena.release(other, 48);
  EXPECT_EQ(arena.acquire(48), other);
}

TEST(Arena, StorageAboveTheLargestClassIsNeverRecycled) {
  Arena arena;
  void* big = arena.acquire(Arena::kMaxRecycledBytes + 1);
  arena.release(big, Arena::kMaxRecycledBytes + 1);
  EXPECT_NE(arena.acquire(Arena::kMaxRecycledBytes + 1), big);
}

TEST(Arena, ResetEmptiesTheFreeLists) {
  Arena arena;
  arena.release(arena.acquire(40), 40);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  (void)arena.acquire(40);
  EXPECT_EQ(arena.bytes_used(), 48u) << "after reset() a request must bump, not pop";
}

TEST(Arena, CreateAndArenaVecStorageIsNeverRecycled) {
  struct Pod {
    std::uint64_t a;
    std::uint64_t b;
  };
  Arena arena;
  void* node = arena.acquire(sizeof(Pod));
  arena.release(node, sizeof(Pod));
  EXPECT_NE(static_cast<void*>(arena.create<Pod>()), node);
  ArenaVec<std::uint32_t> vec;
  for (std::uint32_t i = 0; i < 64; ++i) {
    vec.push_back(arena, i);
    EXPECT_NE(static_cast<const void*>(vec.data()), node);
  }
  // The class still holds the released block: only acquire() takes it.
  EXPECT_EQ(arena.acquire(sizeof(Pod)), node);
}

TEST(Arena, MapAndDequeChurnKeepsTheArenaFlatAfterWarmUp) {
  Arena arena;
  using Value = std::pair<const std::uint64_t, std::uint64_t>;
  std::map<std::uint64_t, std::uint64_t, std::less<>, ArenaAllocator<Value>> map{
      ArenaAllocator<Value>(arena)};
  std::deque<std::uint64_t, ArenaAllocator<std::uint64_t>> fifo{
      ArenaAllocator<std::uint64_t>(arena)};
  std::uint64_t next = 0;
  const auto churn = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      map.emplace(next, next);
      fifo.push_back(next);
      ++next;
      if (map.size() > 100) map.erase(map.begin());
      if (fifo.size() > 300) fifo.pop_front();
    }
  };
  churn(2000);
  const std::size_t warm = arena.bytes_used();
  churn(20000);
  EXPECT_EQ(arena.bytes_used(), warm) << "erased nodes and chunks must be reused";
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.begin()->first, next - 100);
  EXPECT_EQ(fifo.front(), next - 300);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(Arena, ReleasedStorageIsPoisonedUntilReused) {
  Arena arena;
  void* node = arena.acquire(40);
  arena.release(node, 40);
  EXPECT_TRUE(__asan_address_is_poisoned(node));
  EXPECT_TRUE(__asan_address_is_poisoned(static_cast<char*>(node) + 47));
  EXPECT_EQ(arena.acquire(40), node);
  EXPECT_FALSE(__asan_address_is_poisoned(static_cast<char*>(node) + 47));
  arena.release(node, 40);
  arena.reset();
  EXPECT_FALSE(__asan_address_is_poisoned(node)) << "reset() hands the bytes to the bump";
}
#endif

// --- FlatMap -----------------------------------------------------------------

using Model = std::map<std::uint64_t, std::uint64_t>;

void expect_same_entries(const FlatMap<std::uint64_t, std::uint64_t>& map, const Model& model) {
  ASSERT_EQ(map.size(), model.size());
  auto expected = model.begin();
  for (const auto& [key, value] : map) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(key, expected->first);
    EXPECT_EQ(value, expected->second);
    ++expected;
  }
  EXPECT_EQ(expected, model.end());
}

/// A seeded stream of the operations the transports issue — appends, rare
/// out-of-order inserts, front and middle erases, revivals of erased keys —
/// checked step by step against std::map. Front retirement keeps the live
/// set small, so the stream crosses many compactions.
void run_against_model(std::uint64_t seed) {
  Arena arena;
  FlatMap<std::uint64_t, std::uint64_t> map(arena);
  Model model;
  std::vector<std::uint64_t> erased;  // every key ever erased, revival candidates
  Rng rng(seed);
  std::uint64_t top = 0;
  std::uint64_t inserted = 0;
  const auto retire_front = [&] {
    if (model.empty()) return;
    const auto next = map.erase(map.begin());
    erased.push_back(model.begin()->first);
    model.erase(model.begin());
    if (model.empty()) {
      EXPECT_EQ(next, map.end());
    } else {
      ASSERT_NE(next, map.end());
      EXPECT_EQ(next->first, model.begin()->first);
    }
  };
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t value = rng.next_u64();
    const std::int64_t op = rng.uniform_int(0, 99);
    if (op < 45) {  // append past the maximum
      top += static_cast<std::uint64_t>(rng.uniform_int(1, 3));
      const auto [it, fresh] = map.try_emplace(top, value);
      ASSERT_TRUE(fresh);
      EXPECT_EQ(it->first, top);
      model.emplace(top, value);
      ++inserted;
    } else if (op < 50 || (op < 58 && !erased.empty())) {  // out of order, or a revival
      const std::uint64_t key =
          op < 50 ? static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(top)))
                  : erased[static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(erased.size()) - 1))];
      const auto [it, fresh] = map.try_emplace(key, value);
      const auto [expected, model_fresh] = model.try_emplace(key, value);
      ASSERT_EQ(fresh, model_fresh) << "key " << key;
      EXPECT_EQ(it->first, key);
      EXPECT_EQ(it->second, expected->second);
      inserted += fresh ? 1 : 0;
    } else if (op < 85) {  // retire the front, as a cumulative ACK does
      retire_front();
    } else if (op < 95) {  // erase by key, present or not
      const auto key =
          static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(top)));
      const std::size_t removed = map.erase(key);
      ASSERT_EQ(removed, model.erase(key)) << "key " << key;
      if (removed != 0) erased.push_back(key);
    } else {  // lookups
      const auto key =
          static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(top) + 1));
      const auto found = map.find(key);
      ASSERT_EQ(found != map.end(), model.contains(key)) << "key " << key;
      if (found != map.end()) {
        EXPECT_EQ(found->second, model.at(key));
      }
      EXPECT_EQ(map.contains(key), model.contains(key));
      const auto lower = map.lower_bound(key);
      const auto model_lower = model.lower_bound(key);
      ASSERT_EQ(lower == map.end(), model_lower == model.end()) << "key " << key;
      if (lower != map.end()) {
        EXPECT_EQ(lower->first, model_lower->first);
      }
    }
    if (model.size() > 64) retire_front();  // a bounded window in flight
    ASSERT_EQ(map.size(), model.size());
    ASSERT_EQ(map.empty(), model.empty());
    if (!model.empty()) {
      ASSERT_EQ(map.back_key(), model.rbegin()->first);
    }
    if (step % 97 == 0) expect_same_entries(map, model);
  }
  expect_same_entries(map, model);
  // Most keys were retired long ago: the array cannot have grown with them.
  EXPECT_GT(inserted, 16 * map.capacity()) << "the stream should cross many compactions";
}

TEST(FlatMap, MatchesStdMapAcrossCompactions) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    run_against_model(seed);
  }
}

TEST(FlatMap, CapacityFollowsTheLiveWindowNotEveryKeyEverHeld) {
  constexpr std::size_t kWindow = 48;
  Arena arena;
  FlatMap<std::uint64_t, std::uint64_t> map(arena);
  for (std::uint64_t key = 0; key < 100000; ++key) {
    map.try_emplace(key, key * 3);
    if (map.size() > kWindow) map.erase(map.begin());
  }
  EXPECT_LE(map.capacity(), 4 * kWindow);
  EXPECT_EQ(map.size(), kWindow);
  EXPECT_EQ(map.begin()->first, 100000 - kWindow);
  EXPECT_EQ(map.back_key(), 99999u);
}

// --- DurableFile -------------------------------------------------------------

constexpr std::string_view kTestMagic = "qperc-test-v1";
constexpr std::string_view kTestHeader = "qperc-test-v1 7 2";
constexpr std::string_view kTestPayload = "cell 0 1.5\ncell 1 2.25\n";

std::string durable_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

/// A valid file's bytes, written by write_durable.
std::string good_durable_bytes(const std::string& path) {
  write_durable(path, kTestHeader, kTestPayload);
  return slurp(path);
}

TEST(DurableFile, RoundTripsHeaderAndPayload) {
  const std::string path = durable_path("qperc_durable_roundtrip.qd");
  const std::string bytes = good_durable_bytes(path);
  const auto read = read_durable(path, kTestMagic);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->header, kTestHeader);
  EXPECT_EQ(read->payload, kTestPayload);

  // Layout: header line, payload, one 16-hex-digit footer line.
  const std::string prefix = std::string(kTestHeader) + "\n" + std::string(kTestPayload);
  ASSERT_EQ(bytes.compare(0, prefix.size(), prefix), 0);
  const std::string footer = bytes.substr(prefix.size());
  ASSERT_EQ(footer.size(), std::string("checksum \n").size() + 16);
  EXPECT_EQ(footer.substr(0, 9), "checksum ");
  EXPECT_EQ(footer.find_first_not_of("0123456789abcdef", 9), footer.size() - 1);

  // An empty payload and a header of the bare magic round trip too.
  write_durable(path, kTestMagic, "");
  const auto bare = read_durable(path, kTestMagic);
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->header, kTestMagic);
  EXPECT_EQ(bare->payload, "");
  EXPECT_FALSE(std::filesystem::exists(durable_temp_path(path)));
  std::remove(path.c_str());
}

TEST(DurableFile, RejectsMalformedArguments) {
  const std::string path = durable_path("qperc_durable_args.qd");
  EXPECT_THROW(write_durable(path, "qperc-test-v1\n7", kTestPayload), std::invalid_argument);
  EXPECT_THROW(write_durable(path, kTestHeader, "cell 0 1.5"), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(DurableFile, EveryTruncationIsRejected) {
  const std::string path = durable_path("qperc_durable_truncate.qd");
  const std::string good = good_durable_bytes(path);
  for (std::size_t size = 0; size < good.size(); ++size) {
    spit(path, good.substr(0, size));
    EXPECT_FALSE(read_durable(path, kTestMagic).has_value()) << "prefix of " << size;
  }
  EXPECT_FALSE(read_durable(durable_path("qperc_durable_missing.qd"), kTestMagic));
  std::remove(path.c_str());
}

TEST(DurableFile, EverySingleByteFlipIsRejected) {
  // Covers the header (magic and store fields), every payload byte, every
  // newline, and the footer.
  const std::string path = durable_path("qperc_durable_flip.qd");
  const std::string good = good_durable_bytes(path);
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = good;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      spit(path, flipped);
      EXPECT_FALSE(read_durable(path, kTestMagic).has_value())
          << "byte " << i << " bit " << bit;
    }
  }
  std::remove(path.c_str());
}

TEST(DurableFile, TrailingBytesAreRejected) {
  const std::string path = durable_path("qperc_durable_trailing.qd");
  const std::string good = good_durable_bytes(path);
  const std::string footer = good.substr(good.rfind('\n', good.size() - 2) + 1);
  for (const std::string& suffix : {std::string("x"), std::string("\n"), std::string(" "),
                                   std::string("cell 2 3\n"), footer}) {
    spit(path, good + suffix);
    EXPECT_FALSE(read_durable(path, kTestMagic).has_value()) << "suffix " << suffix;
  }
  std::remove(path.c_str());
}

TEST(DurableFile, WrongMagicIsRejected) {
  const std::string path = durable_path("qperc_durable_magic.qd");
  good_durable_bytes(path);
  EXPECT_TRUE(read_durable(path, kTestMagic).has_value());
  EXPECT_FALSE(read_durable(path, "qperc-test-v2").has_value());
  EXPECT_FALSE(read_durable(path, "qperc-test").has_value());  // a prefix of the token
  EXPECT_FALSE(read_durable(path, "qperc-test-v1 7 2 3").has_value());
  std::remove(path.c_str());
}

TEST(DurableFile, FailedWriteLeavesTargetUnchangedAndNoTemp) {
  // The directory does not exist: nothing can be created.
  const std::string orphan = durable_path("qperc_durable_no_such_dir") + "/file.qd";
  EXPECT_THROW(write_durable(orphan, kTestHeader, kTestPayload), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(durable_temp_path(orphan)));

  // The temp file cannot be created: the previous file stays intact.
  const std::string path = durable_path("qperc_durable_blocked.qd");
  std::filesystem::remove_all(durable_temp_path(path));
  const std::string good = good_durable_bytes(path);
  std::filesystem::create_directory(durable_temp_path(path));
  EXPECT_THROW(write_durable(path, "qperc-test-v1 8 2", ""), std::runtime_error);
  EXPECT_EQ(slurp(path), good);
  std::filesystem::remove(durable_temp_path(path));
  std::remove(path.c_str());

  // The rename fails (the target is a non-empty directory): the written
  // temp file is removed and the target is untouched.
  const std::string dir = durable_path("qperc_durable_target_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  spit(dir + "/keep", "kept");
  EXPECT_THROW(write_durable(dir, kTestHeader, kTestPayload), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(durable_temp_path(dir)));
  EXPECT_EQ(slurp(dir + "/keep"), "kept");
  std::filesystem::remove_all(dir);
}

TEST(DurableFile, ConcurrentWritersStageInTheirOwnTempFiles) {
  // Another process writing the same path at the same time (two study
  // shards checkpointing one stimulus store) holds a half-written temp file
  // of its own; this write neither collides with it nor touches it.
  const std::string path = durable_path("qperc_durable_shared.qd");
  const std::string other = path + ".tmp." + std::to_string(::getppid());
  ASSERT_NE(durable_temp_path(path), other);
  spit(other, "half-written");
  good_durable_bytes(path);
  EXPECT_TRUE(read_durable(path, kTestMagic).has_value());
  EXPECT_EQ(slurp(other), "half-written");
  EXPECT_FALSE(std::filesystem::exists(durable_temp_path(path)));
  std::remove(other.c_str());
  std::remove(path.c_str());
}

const Flags kTestFlags = {
    {"--out", "DIR", FlagKind::kValue}, {"--quiet", "", FlagKind::kBool},
    {"--seed", "K", FlagKind::kU64},    {"--jobs", "J", FlagKind::kU32},
    {"--loss", "P", FlagKind::kDouble}, {"--mix", "A,B", FlagKind::kList},
    {"--shard", "I/N", FlagKind::kShard}};

Args parse(std::vector<std::string> words) {
  std::vector<char*> argv;
  for (auto& word : words) argv.push_back(word.data());
  return Args("test", kTestFlags, static_cast<int>(argv.size()), argv.data(), 0);
}

TEST(Args, ReadsEachKind) {
  const Args args = parse({"--out", "dir", "--quiet", "--seed", "18446744073709551615", "--jobs",
                           "4294967295", "--loss", "0.25", "--mix", ",cubic,,quic,", "--shard",
                           "1/4"});
  EXPECT_EQ(args.get("--out", "x"), "dir");
  EXPECT_TRUE(args.has("--quiet"));
  EXPECT_EQ(args.u64("--seed", 0), 18446744073709551615ULL);
  EXPECT_EQ(args.u32("--jobs", 0), 4294967295U);
  EXPECT_EQ(args.real("--loss", 0.0), 0.25);
  EXPECT_EQ(args.list("--mix", ""), (std::vector<std::string>{"cubic", "quic"}));
  unsigned index = 0;
  unsigned count = 1;
  args.shard(index, count);
  EXPECT_EQ(index, 1U);
  EXPECT_EQ(count, 4U);
}

TEST(Args, AbsentFlagsYieldFallbacksAndRepeatsKeepTheLast) {
  const Args args = parse({"--seed", "1", "--seed", "2"});
  EXPECT_EQ(args.u64("--seed", 7), 2U);
  EXPECT_EQ(args.u32("--jobs", 3), 3U);
  EXPECT_EQ(args.get("--out", "out/x"), "out/x");
  EXPECT_FALSE(args.has("--quiet"));
  unsigned index = 0;
  unsigned count = 1;
  args.shard(index, count);
  EXPECT_EQ(count, 1U);
}

TEST(Args, RejectsEveryMalformedCommandLine) {
  // Undeclared and positional words; value flags without a value; a value
  // after a boolean; numbers with junk, a sign, or past their type's range
  // (a u32 never wraps); shards that are not exactly two u32s around one '/'.
  const std::vector<std::vector<std::string>> bad = {
      {"--nope"},
      {"stray"},
      {"--out"},
      {"--out", "--quiet"},
      {"--quiet", "stray"},
      {"--seed", "12junk"},
      {"--seed", "-1"},
      {"--seed", "18446744073709551616"},
      {"--jobs", "4294967296"},
      {"--loss", "0.5x"},
      {"--shard", "0/1junk"},
      {"--shard", "0/2/3"},
      {"--shard", "1"},
      {"--shard", "4294967296/2"},
  };
  for (const auto& words : bad) {
    EXPECT_THROW(static_cast<void>(parse(words)), std::invalid_argument) << words.back();
  }
}

}  // namespace
}  // namespace qperc
