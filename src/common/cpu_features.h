#ifndef CMP_COMMON_CPU_FEATURES_H_
#define CMP_COMMON_CPU_FEATURES_H_

#include <string>

namespace cmp {

/// Instruction-set tiers of the one runtime-dispatched kernel, batch
/// tree descent (infer/infer_kernels.h). The numeric order is the
/// capability order, so "best available" is a simple max. The other
/// kernels need no dispatch: histogram accumulation is scalar, and the
/// gini boundary scan uses SSE2, the x86-64 baseline, at compile time.
enum class KernelIsa {
  kScalar = 0,
  kAvx2 = 1,
};

/// Display name ("scalar", "avx2").
const char* KernelIsaName(KernelIsa isa);

/// True when this host (CPU + OS state + how this binary was compiled)
/// can execute kernels of tier `isa`. kScalar is always supported; AVX2
/// additionally requires OS-enabled YMM state (OSXSAVE + XCR0).
bool KernelIsaSupported(KernelIsa isa);

/// The best supported tier, downgraded to kScalar when the
/// CMP_FORCE_SCALAR environment variable is set to anything but "0" or
/// empty (which therefore pins only tree descent). Detected once and
/// cached.
KernelIsa DetectKernelIsa();

/// The tier the descent dispatch currently selects. Initialized to
/// DetectKernelIsa() on first use.
KernelIsa ActiveKernelIsa();

/// Overrides the active tier. Returns false (and changes nothing) when
/// `isa` is not supported on this host. Intended for startup flags and
/// tests; swapping tiers mid-batch is safe for correctness (every tier
/// produces identical leaves) but makes timings meaningless.
bool SetKernelIsa(KernelIsa isa);

/// Parses "auto" | "scalar" | "avx2". "auto" yields
/// DetectKernelIsa(). Returns false on any other string.
bool ParseKernelIsa(const std::string& name, KernelIsa* out);

/// ParseKernelIsa + SetKernelIsa in one step for CLI flags. On failure
/// returns false and fills `error` with a message naming the supported
/// tiers of this host.
bool SelectKernelIsaByName(const std::string& name, std::string* error);

}  // namespace cmp

#endif  // CMP_COMMON_CPU_FEATURES_H_
