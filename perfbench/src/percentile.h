#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least
/// `pct` percent of the samples are <= it (1-based rank ceil(pct * n /
/// 100), computed in integer arithmetic so p99 of 1,000 samples is rank
/// 990 exactly). `pct` is clamped to [1, 100], so p0 reads as the
/// minimum. An empty sample reads as 0.
template <typename T>
T NearestRank(std::vector<T> samples, uint32_t pct) {
  if (samples.empty()) return T{};
  pct = std::clamp<uint32_t>(pct, 1, 100);
  const size_t n = samples.size();
  const size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;  // >= 1
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

}  // namespace perfbench
