// Peak resident set size of this process, for memory-per-node gates.
//
// ru_maxrss is a per-process high-water mark: it never falls, and a test
// can only attribute the growth that happens while it runs. Gates that
// divide growth by node count therefore run as the first large allocation
// in their process (their own executable, or an environment-gated test).
#pragma once

#include <sys/resource.h>

#include <cstddef>

namespace rdmc::tests {

/// False in AddressSanitizer and ThreadSanitizer builds: their allocators
/// add shadow memory, redzones and a quarantine of freed blocks, so RSS
/// measures the sanitizer, not the program (ASan+UBSan reads ~10x the
/// plain build's bytes per node).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kRssIsProgramMemory = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kRssIsProgramMemory = false;
#else
inline constexpr bool kRssIsProgramMemory = true;
#endif
#else
inline constexpr bool kRssIsProgramMemory = true;
#endif

inline std::size_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // Linux: KiB
}

}  // namespace rdmc::tests
