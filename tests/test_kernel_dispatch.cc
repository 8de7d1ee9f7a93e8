// Runtime kernel dispatch. Tree descent is the only kernel that still
// picks its tier at run time (scalar or AVX2; the descent differentials
// live in tests/test_infer_kernels.cc). This suite pins the dispatch
// plumbing — parsing, selection, detection — and checks that training
// stays byte-identical whichever tier is active: the histogram kernels
// are scalar and the gini scan is chosen at compile time, so a build's
// tree must not move with the tier, the thread count or the code cache,
// and must reproduce the committed golden fixture under every tier.
#include "common/cpu_features.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cmp/cmp.h"
#include "datagen/agrawal.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

// Restores the tier that was active when the test started, so a failing
// assertion mid-test cannot leak a forced tier into later tests.
class IsaGuard {
 public:
  IsaGuard() : prev_(ActiveKernelIsa()) {}
  ~IsaGuard() { SetKernelIsa(prev_); }

 private:
  KernelIsa prev_;
};

// Every tier this host can execute. Scalar is always first.
std::vector<KernelIsa> RunnableIsas() {
  std::vector<KernelIsa> isas = {KernelIsa::kScalar};
  if (KernelIsaSupported(KernelIsa::kAvx2)) isas.push_back(KernelIsa::kAvx2);
  return isas;
}

// Whole-build identity: the serialized tree must not depend on the
// kernel tier, the thread count, or the code-cache toggle — the full
// cross product collapses onto one byte string.
TEST(KernelDispatch, TreeBytesInvariantAcrossTiersThreadsAndToggles) {
  IsaGuard guard;
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF7;  // linear splits stress the gini scan
  gen.num_records = 4000;
  gen.seed = 227;
  const Dataset train = GenerateAgrawal(gen);

  CmpOptions base = CmpBOptions();
  base.base.in_memory_threshold = 512;

  ASSERT_TRUE(SetKernelIsa(KernelIsa::kScalar));
  CmpOptions ref = base;
  ref.bin_code_cache = false;
  const std::string reference =
      SerializeTree(CmpBuilder(ref).Build(train).tree);
  ASSERT_FALSE(reference.empty());

  for (const KernelIsa isa : RunnableIsas()) {
    ASSERT_TRUE(SetKernelIsa(isa));
    for (const bool codes : {true, false}) {
      for (const int threads : {1, 2, 4}) {
        CmpOptions o = base;
        o.bin_code_cache = codes;
        o.base.num_threads = threads;
        o.scan_shards = threads;
        EXPECT_EQ(SerializeTree(CmpBuilder(o).Build(train).tree), reference)
            << KernelIsaName(isa) << " codes=" << codes
            << " threads=" << threads;
      }
    }
  }
}

// The committed golden fixtures were produced under the scalar
// semantics; every tier must retrain to the same bytes. This is the
// cross-check that pins the SIMD tiers to the SAME reference the rest
// of the suite is pinned to, not merely to each other.
TEST(KernelDispatch, GoldenFixturesReproduceUnderEveryTier) {
  IsaGuard guard;
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 6000;
  gen.seed = 71;
  const Dataset train = GenerateAgrawal(gen);

  const std::string path = std::string(CMP_GOLDEN_DIR) + "/cmp_b.tree";
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string fixture = buffer.str();

  for (const KernelIsa isa : RunnableIsas()) {
    ASSERT_TRUE(SetKernelIsa(isa));
    CmpOptions o = CmpBOptions();
    o.base.in_memory_threshold = 512;  // mirror test_golden's ScanHeavy
    EXPECT_EQ(SerializeTree(CmpBuilder(o).Build(train).tree), fixture)
        << KernelIsaName(isa)
        << ": retrained tree differs from the committed fixture — "
           "training must not depend on the active tier";
  }

  // And once more under the auto selection, whatever it picks here.
  ASSERT_TRUE(SetKernelIsa(DetectKernelIsa()));
  CmpOptions o = CmpBOptions();
  o.base.in_memory_threshold = 512;
  EXPECT_EQ(SerializeTree(CmpBuilder(o).Build(train).tree), fixture)
      << "auto (" << KernelIsaName(ActiveKernelIsa()) << ")";
}

// ---------------------------------------------------------------------
// Dispatch plumbing.

TEST(KernelDispatch, ScalarAlwaysSupportedAndSelectable) {
  IsaGuard guard;
  EXPECT_TRUE(KernelIsaSupported(KernelIsa::kScalar));
  EXPECT_TRUE(SetKernelIsa(KernelIsa::kScalar));
  EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kScalar);
  EXPECT_EQ(std::string(KernelIsaName(KernelIsa::kScalar)), "scalar");
}

TEST(KernelDispatch, DetectedTierIsSupportedAndOrdered) {
  const KernelIsa detected = DetectKernelIsa();
  EXPECT_TRUE(KernelIsaSupported(detected));
  // Every tier at or below the detected one must be runnable too.
  for (int t = 0; t <= static_cast<int>(detected); ++t) {
    EXPECT_TRUE(KernelIsaSupported(static_cast<KernelIsa>(t))) << t;
  }
}

TEST(KernelDispatch, ParseAcceptsTierNamesAndAuto) {
  KernelIsa isa;
  EXPECT_TRUE(ParseKernelIsa("scalar", &isa));
  EXPECT_EQ(isa, KernelIsa::kScalar);
  EXPECT_TRUE(ParseKernelIsa("avx2", &isa));
  EXPECT_EQ(isa, KernelIsa::kAvx2);
  EXPECT_TRUE(ParseKernelIsa("auto", &isa));
  EXPECT_EQ(isa, DetectKernelIsa());
  EXPECT_FALSE(ParseKernelIsa("sse2", &isa));  // tier removed
  EXPECT_FALSE(ParseKernelIsa("avx512", &isa));
  EXPECT_FALSE(ParseKernelIsa("", &isa));
  EXPECT_FALSE(ParseKernelIsa("Scalar", &isa));  // names are lowercase
}

TEST(KernelDispatch, SelectByNameReportsUnknownTiers) {
  IsaGuard guard;
  std::string error;
  EXPECT_TRUE(SelectKernelIsaByName("scalar", &error)) << error;
  EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kScalar);
  EXPECT_FALSE(SelectKernelIsaByName("bogus", &error));
  EXPECT_NE(error.find("unknown kernel tier 'bogus'"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace cmp
