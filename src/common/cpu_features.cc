#include "common/cpu_features.h"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define CMP_X86 1
#else
#define CMP_X86 0
#endif

namespace cmp {

namespace {

#if CMP_X86

// XCR0 via xgetbv: bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be
// OS-enabled before any 256-bit instruction is legal, regardless of
// what CPUID advertises.
uint64_t ReadXcr0() {
  uint32_t eax = 0;
  uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

bool CpuHasAvx2() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) return false;
  if ((ReadXcr0() & 0x6) != 0x6) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 5)) != 0;
}

#endif  // CMP_X86

bool ForceScalarEnv() {
  const char* v = std::getenv("CMP_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

// The active tier of the descent dispatch. -1 = not yet
// initialized from DetectKernelIsa().
std::atomic<int> g_active_isa{-1};

}  // namespace

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool KernelIsaSupported(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
#if CMP_X86
    {
      static const bool supported = CpuHasAvx2();
      return supported;
    }
#else
      return false;
#endif
  }
  return false;
}

KernelIsa DetectKernelIsa() {
  static const KernelIsa detected = [] {
    if (ForceScalarEnv()) return KernelIsa::kScalar;
    if (KernelIsaSupported(KernelIsa::kAvx2)) return KernelIsa::kAvx2;
    return KernelIsa::kScalar;
  }();
  return detected;
}

KernelIsa ActiveKernelIsa() {
  int isa = g_active_isa.load(std::memory_order_relaxed);
  if (isa < 0) {
    isa = static_cast<int>(DetectKernelIsa());
    // Another thread may race the initialization; both write the same
    // detected value, so a plain store is fine.
    g_active_isa.store(isa, std::memory_order_relaxed);
  }
  return static_cast<KernelIsa>(isa);
}

bool SetKernelIsa(KernelIsa isa) {
  if (!KernelIsaSupported(isa)) return false;
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  return true;
}

bool ParseKernelIsa(const std::string& name, KernelIsa* out) {
  if (name == "auto") {
    *out = DetectKernelIsa();
    return true;
  }
  if (name == "scalar") {
    *out = KernelIsa::kScalar;
    return true;
  }
  if (name == "avx2") {
    *out = KernelIsa::kAvx2;
    return true;
  }
  return false;
}

bool SelectKernelIsaByName(const std::string& name, std::string* error) {
  KernelIsa isa;
  if (!ParseKernelIsa(name, &isa)) {
    if (error != nullptr) {
      *error = "unknown kernel tier '" + name +
               "' (want auto|scalar|avx2)";
    }
    return false;
  }
  if (!SetKernelIsa(isa)) {
    if (error != nullptr) {
      std::string have;
      for (KernelIsa k : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
        if (!KernelIsaSupported(k)) continue;
        if (!have.empty()) have += '|';
        have += KernelIsaName(k);
      }
      *error = std::string("kernel tier '") + KernelIsaName(isa) +
               "' is not supported on this host (have: " + have + ")";
    }
    return false;
  }
  return true;
}

}  // namespace cmp
