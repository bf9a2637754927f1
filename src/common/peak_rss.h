// The process's resident-memory high-water mark.
#ifndef TJ_COMMON_PEAK_RSS_H_
#define TJ_COMMON_PEAK_RSS_H_

#include <sys/resource.h>

#include <cstdint>

namespace tj {

/// Peak resident set size of this process so far, in bytes (getrusage
/// ru_maxrss, which Linux reports in KiB); 0 if unavailable. Linux carries
/// the mark of the process that forked and exec'd this one into it, so a
/// child of a larger process reads at least that process's peak.
inline uint64_t PeakRssBytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace tj

#endif  // TJ_COMMON_PEAK_RSS_H_
