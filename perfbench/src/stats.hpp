// Statistics helpers: quantiles that refuse to report a tail without enough
// samples beyond it, deltas of the instance's obs histograms between two
// snapshots, resident memory, and the TSC rate.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "json/json.hpp"

namespace perfbench {

/// q-quantile (linear interpolation between order statistics), reported
/// only when at least ten samples lie beyond it: (1 - q) * n >= 10.
inline std::optional<double> quantile(std::vector<double> v, double q) {
  const double n = static_cast<double>(v.size());
  if (v.empty() || (1.0 - q) * n < 10.0) return std::nullopt;
  const double rank = q * (n - 1.0);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b = *std::min_element(
      v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (b - a) * (rank - static_cast<double>(lo));
}

/// Median of a handful of repeats (set-up runs); no tail rule applies.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Bucket counts of one obs histogram, or their difference between two
/// snapshots of an instance's metrics registry.
struct HistCounts {
  std::vector<double> bounds;
  std::vector<double> counts;  ///< bounds.size() + 1 (overflow last)
  double sum = 0;

  double count() const {
    double n = 0;
    for (double c : counts) n += c;
    return n;
  }

  void add(const HistCounts& o, double sign) {
    if (bounds.empty()) {
      bounds = o.bounds;
      counts.assign(o.counts.size(), 0.0);
    }
    for (std::size_t i = 0; i < counts.size() && i < o.counts.size(); ++i) {
      counts[i] += sign * o.counts[i];
    }
    sum += sign * o.sum;
  }

  /// Same estimate as obs::Histogram::percentile: linear within the bucket
  /// holding the ceil(q * n)-th sample; the overflow bucket reports the last
  /// finite bound.
  double percentile(double q) const {
    const double total = count();
    if (total <= 0 || bounds.empty()) return 0.0;
    const double rank = std::max(1.0, std::ceil(q * total));
    double seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const double c = counts[i];
      if (c <= 0) continue;
      if (seen + c >= rank) {
        if (i == bounds.size()) return bounds.back();
        const double lower = i == 0 ? 0.0 : bounds[i - 1];
        return lower + (bounds[i] - lower) * (rank - seen) / c;
      }
      seen += c;
    }
    return bounds.back();
  }
};

/// One snapshot of an instance's MetricsRegistry.
class MetricsSnap {
 public:
  explicit MetricsSnap(dpisvc::json::Value snapshot)
      : v_(std::move(snapshot)) {}

  double counter(const std::string& name) const {
    const auto& counters = v_.at("counters");
    return counters.as_object().contains(name)
               ? counters.at(name).as_number()
               : 0.0;
  }

  HistCounts hist(const std::string& name) const {
    HistCounts h;
    const auto& hists = v_.at("histograms");
    if (!hists.as_object().contains(name)) return h;
    const auto& j = hists.at(name);
    for (const auto& b : j.at("bounds").as_array()) h.bounds.push_back(b.as_number());
    for (const auto& c : j.at("counts").as_array()) h.counts.push_back(c.as_number());
    h.sum = j.at("sum").as_number();
    return h;
  }

 private:
  dpisvc::json::Value v_;
};

/// Resident set size of this process.
inline double rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Resident set size after returning freed heap pages to the system, so
/// memory freed by earlier work (input generation, discarded set-ups) is not
/// counted as the service's.
inline double settled_rss_bytes() {
  malloc_trim(0);
  return rss_bytes();
}

/// Time-stamp-counter ticks per nanosecond (TSC reference cycles, not core
/// cycles), measured against steady_clock over `window_ms`. Returns 0 where
/// the CPU has no TSC.
inline double tsc_ghz(int window_ms = 50) {
#if defined(__x86_64__) || defined(__i386__)
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const unsigned long long c0 = __rdtsc();
  while (Clock::now() - t0 < std::chrono::milliseconds(window_ms)) {
  }
  const unsigned long long c1 = __rdtsc();
  const auto ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return static_cast<double>(c1 - c0) / ns;
#else
  (void)window_ms;
  return 0.0;
#endif
}

}  // namespace perfbench
