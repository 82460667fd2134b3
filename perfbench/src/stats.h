#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Quantile `q` in (0, 1) by the exclusive method of Python's
/// statistics.quantiles, which is how the acceptance check reads spreads:
/// position h = (n + 1) q over the sorted values, interpolated between the
/// neighbours of floor(h), with floor(h) held to [1, n - 1] so positions
/// past either end extrapolate from the outermost pair, as Python does.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  if (v.size() == 1) return v.front();
  std::sort(v.begin(), v.end());
  const double h = (static_cast<double>(v.size()) + 1) * q;
  const auto j = std::clamp<std::size_t>(static_cast<std::size_t>(h), 1,
                                         v.size() - 1);
  return v[j - 1] + (h - static_cast<double>(j)) * (v[j] - v[j - 1]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Median, quartiles and range of a sample — the steadiness report's row.
struct Spread {
  std::size_t n = 0;
  double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;

  [[nodiscard]] double iqr() const { return q3 - q1; }
  /// IQR as a share of the median; 0 for an all-zero sample.
  [[nodiscard]] double rel_iqr() const {
    return median == 0 ? 0 : iqr() / std::abs(median);
  }
};

inline Spread spread(const std::vector<double>& v) {
  Spread s;
  s.n = v.size();
  if (v.empty()) return s;
  s.median = quantile(v, 0.5);
  s.q1 = quantile(v, 0.25);
  s.q3 = quantile(v, 0.75);
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  s.min = *lo;
  s.max = *hi;
  return s;
}

/// A tail latency: the highest percentile of a fixed ladder that still has
/// at least kTailBeyond samples above it, so the figure never rests on a
/// handful of outliers. Below 2 * kTailBeyond samples only the median
/// qualifies.
inline constexpr std::size_t kTailBeyond = 10;

struct Tail {
  double pctl = 0;          ///< the percentile reported (50 .. 99.9)
  double value = 0;         ///< the sample value at that percentile
  std::size_t samples = 0;  ///< sample count the percentile is taken over
};

inline Tail tail(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  t.pctl = 50;
  for (const double p : kLadder) {
    const double beyond = static_cast<double>(v.size()) * (100 - p) / 100;
    if (beyond + 1e-9 >= static_cast<double>(kTailBeyond)) {
      t.pctl = p;
      break;
    }
  }
  t.value = quantile(v, t.pctl / 100);
  return t;
}

/// Geometric mean of positive values, so each cell counts once whatever its
/// scale; non-positive values are skipped, and an empty input gives 0.
inline double geomean(const std::vector<double>& v) {
  double log_sum = 0;
  std::size_t n = 0;
  for (const double x : v) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

// ---- ratio metrics, each with its base ------------------------------------

/// 100 * part / whole; 0 when there is no base.
inline double share_pct(double part, double whole) {
  return whole == 0 ? 0 : 100 * part / whole;
}

/// Per-call cost: `count / ops`; 0 when no op ran.
inline double per_op(double count, double ops) {
  return ops == 0 ? 0 : count / ops;
}

/// Fig. 11a: address range the live allocations span / their dense packing
/// (the sum of their sizes rounded up to 16 bytes, as
/// work::run_fragmentation rounds them). 1.0 is perfectly dense.
inline double frag_ratio(std::uint64_t span_bytes, std::uint64_t dense_bytes) {
  return dense_bytes == 0 ? 0
                          : static_cast<double>(span_bytes) /
                                static_cast<double>(dense_bytes);
}

/// Cost a stage adds over the rung below it, as a percentage of that rung.
/// Also the tracing overhead: tax_pct(untraced ops/s, traced ops/s).
inline double tax_pct(double with_stage, double without_stage) {
  return without_stage == 0 ? 0 : 100 * (with_stage / without_stage - 1);
}

/// Share of kernel time the simulator's floor accounts for: kernels times
/// the median no-op launch of the same lane count / the kernels' total time.
inline double sim_share_pct(std::size_t kernels, double floor_ms,
                            double kernel_ms) {
  return share_pct(static_cast<double>(kernels) * floor_ms, kernel_ms);
}

/// Share of the shards' wall time spent executing batches: summed batch
/// latency / (wall time * shards).
inline double exec_share_pct(double batch_ms_sum, double wall_ms,
                             unsigned shards) {
  return share_pct(batch_ms_sum, wall_ms * shards);
}

/// Throughput of a "median pass". Each key is one repeated unit of work (a
/// manager's churn round, one replay, one service chunk); its ops and
/// seconds are collected over every repetition in the run, and the result
/// is sum over keys of median ops / sum over keys of median seconds. Every
/// unit keeps its weight in the mix, and a kernel that an OS stall
/// stretched moves the figure only as far as it moves its key's median.
class Throughput {
 public:
  void add(const std::string& key, double ops, double seconds) {
    auto& s = samples_[key];
    s.ops.push_back(ops);
    s.seconds.push_back(seconds);
  }

  [[nodiscard]] double ops_per_s() const {
    double ops = 0, secs = 0;
    for (const auto& [key, s] : samples_) {
      ops += median(s.ops);
      secs += median(s.seconds);
    }
    return secs == 0 ? 0 : ops / secs;
  }

  /// Median seconds of one key, in milliseconds.
  [[nodiscard]] double median_ms(const std::string& key) const {
    const auto it = samples_.find(key);
    return it == samples_.end() ? 0 : 1e3 * median(it->second.seconds);
  }

 private:
  struct Samples {
    std::vector<double> ops, seconds;
  };
  std::map<std::string, Samples> samples_;
};

}  // namespace perfbench
