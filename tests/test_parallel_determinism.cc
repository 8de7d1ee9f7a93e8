// The parallel-training determinism contract: for every builder that
// honors BuilderOptions::num_threads, the built tree is BIT-IDENTICAL
// for any thread count — same splits, same node ids, same hexfloat
// thresholds, byte-for-byte equal serialization. The contract holds by
// construction (per-shard integer histograms merged in a fixed order,
// all floating-point math on post-merge state, serial-order node
// grafting); these tests pin it down empirically across the CMP
// variants, numeric + categorical data, pruning on and off, and the
// in-memory exact-finish path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cmp/cmp.h"
#include "common/thread_pool.h"
#include "datagen/agrawal.h"
#include "exact/exact.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

Dataset MakeData(AgrawalFunction f, int64_t n, uint64_t seed) {
  AgrawalOptions gen;
  gen.function = f;
  gen.num_records = n;
  gen.seed = seed;
  return GenerateAgrawal(gen);
}

const int kThreadCounts[] = {1, 2, 3, 4, 8};

// Serializes the tree built with the given thread count. The shard
// count is pinned to the thread count: the auto setting caps shards at
// the machine's hardware concurrency, which on a small CI runner would
// quietly collapse every build to one shard and stop exercising the
// multi-shard mirror/merge path this suite exists to verify.
std::string BuildSerialized(CmpOptions o, const Dataset& train, int threads) {
  o.base.num_threads = threads;
  o.scan_shards = threads;
  CmpBuilder builder(o);
  return SerializeTree(builder.Build(train).tree);
}

struct VariantCase {
  CmpVariant variant;
  bool prune;
  const char* name;
};

class ParallelDeterminismTest : public ::testing::TestWithParam<VariantCase> {
};

// The core contract: CMP-S / CMP-B / CMP, pruning on and off, on data
// with both numeric and categorical attributes (Agrawal F3 splits on
// age bands AND the categorical elevel; F2 exercises pendings deeply).
TEST_P(ParallelDeterminismTest, BitIdenticalAcrossThreadCounts) {
  const VariantCase& c = GetParam();
  for (const AgrawalFunction f : {AgrawalFunction::kF2,
                                  AgrawalFunction::kF3}) {
    const Dataset train = MakeData(f, 12000, 211);
    CmpOptions o;
    o.variant = c.variant;
    o.base.prune = c.prune;
    const std::string reference = BuildSerialized(o, train, 1);
    ASSERT_FALSE(reference.empty());
    for (const int threads : kThreadCounts) {
      EXPECT_EQ(BuildSerialized(o, train, threads), reference)
          << c.name << " with " << threads << " threads";
    }
  }
}

// The in-memory exact-finish path: a low threshold pushes most of the
// tree through collect work items (parallel local builds grafted back),
// a zero threshold disables the switch entirely. Both must reproduce
// the single-threaded bytes.
TEST_P(ParallelDeterminismTest, InMemoryThresholdPathsBitIdentical) {
  const VariantCase& c = GetParam();
  const Dataset train = MakeData(AgrawalFunction::kF7, 9000, 223);
  for (const int64_t threshold : {int64_t{0}, int64_t{512}}) {
    CmpOptions o;
    o.variant = c.variant;
    o.base.prune = c.prune;
    o.base.in_memory_threshold = threshold;
    const std::string reference = BuildSerialized(o, train, 1);
    for (const int threads : kThreadCounts) {
      EXPECT_EQ(BuildSerialized(o, train, threads), reference)
          << c.name << " threshold " << threshold << " with " << threads
          << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParallelDeterminismTest,
    ::testing::Values(VariantCase{CmpVariant::kS, true, "CMP-S/prune"},
                      VariantCase{CmpVariant::kS, false, "CMP-S/noprune"},
                      VariantCase{CmpVariant::kB, true, "CMP-B/prune"},
                      VariantCase{CmpVariant::kB, false, "CMP-B/noprune"},
                      VariantCase{CmpVariant::kFull, true, "CMP/prune"},
                      VariantCase{CmpVariant::kFull, false, "CMP/noprune"}),
    [](const ::testing::TestParamInfo<VariantCase>& info) {
      std::string n = info.param.name;
      for (char& ch : n) {
        if (ch == '-' || ch == '/') ch = '_';
      }
      return n;
    });

// The exact reference builder fans its per-attribute split search over
// the same pool; it must obey the same contract.
TEST(ParallelDeterminism, ExactBuilderBitIdentical) {
  const Dataset train = MakeData(AgrawalFunction::kF2, 4000, 227);
  for (const bool prune : {true, false}) {
    std::string reference;
    for (const int threads : kThreadCounts) {
      BuilderOptions o;
      o.prune = prune;
      o.num_threads = threads;
      ExactBuilder builder(o);
      const std::string bytes = SerializeTree(builder.Build(train).tree);
      if (threads == 1) {
        reference = bytes;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(bytes, reference)
            << "exact, prune=" << prune << ", " << threads << " threads";
      }
    }
  }
}

// An injected shared pool (the no-oversubscription path) must behave
// exactly like a builder-owned pool of the same size.
TEST(ParallelDeterminism, InjectedPoolMatchesOwnedPool) {
  const Dataset train = MakeData(AgrawalFunction::kF2, 8000, 229);
  CmpOptions o;
  const std::string reference = BuildSerialized(o, train, 1);
  ThreadPool shared(4);
  CmpBuilder builder(o, &shared);
  EXPECT_EQ(SerializeTree(builder.Build(train).tree), reference);
  // The pool survives the build and stays usable.
  std::vector<int> hits(100, 0);
  shared.ParallelFor(100, 1, [&hits](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// num_threads = 0 resolves to hardware_concurrency; whatever that is on
// the machine running the tests, the bytes must not change.
TEST(ParallelDeterminism, HardwareConcurrencyBitIdentical) {
  const Dataset train = MakeData(AgrawalFunction::kF6, 8000, 233);
  CmpOptions o;
  EXPECT_EQ(BuildSerialized(o, train, 0), BuildSerialized(o, train, 1));
}

}  // namespace
}  // namespace cmp
