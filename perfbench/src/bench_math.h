// Arithmetic the benchmark's verdicts rest on, kept free of I/O so that
// tests/selftest.cpp can pin it on synthetic inputs: exact percentiles from
// raw samples, the capacity staircase over a fixed rate ladder, and the closure
// ratio between the daemon's handle time and the in-process event cost.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentile of raw samples by linear interpolation between closest ranks
/// (the "exclusive of nothing" definition numpy calls "linear"): p in
/// [0, 100]. Sorts a copy; returns 0 for an empty sample.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// Tail percentile robust to rare host stalls: split the samples (in
/// schedule order) into `slices` equal consecutive slices, take each slice's
/// exact percentile, and return the median of those. A stall of a few
/// milliseconds moves one slice, not the result; a tail that every slice
/// shows moves the result.
inline double sliced_percentile(const std::vector<double>& samples, double p,
                                int slices) {
  if (samples.empty() || slices < 1) return 0.0;
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(slices),
                                              samples.size());
  std::vector<double> per_slice;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t lo = samples.size() * i / k;
    const std::size_t hi = samples.size() * (i + 1) / k;
    per_slice.push_back(percentile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(lo),
                            samples.begin() + static_cast<std::ptrdiff_t>(hi)),
        p));
  }
  return percentile(std::move(per_slice), 50.0);
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Calm-period estimate from per-piece figures of time-separated pieces:
/// their lower quartile. Interference on a shared host only ever adds
/// latency, in bursts about a second long; the lower quartile follows the
/// program while at least a quarter of the pieces ran undisturbed, where a
/// median follows the host's busy periods.
inline double calm(std::vector<double> per_piece) {
  return percentile(std::move(per_piece), 25.0);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// One measured rung of the capacity ladder.
struct Rung {
  /// max(tail latency over the rung, median latency of its second half):
  /// a queue that grows during the rung shows in the second term even when
  /// the rung's early requests keep its tail low.
  double latency_us = 0.0;
  std::uint64_t failures = 0;  ///< errors, wrong verdicts, timeouts
  /// RETRY_AFTER responses: the daemon's queue was full. They fail the rung
  /// like a failure does, but every request still got an answer in time.
  std::uint64_t shed = 0;
};

/// The rung passes when its latency is within the limit and no request
/// failed or was shed.
inline bool rung_passes(const Rung& r, double limit_us) {
  return r.failures == 0 && r.shed == 0 && r.latency_us <= limit_us;
}

/// Up-down staircase over the rungs of a fixed rate ladder, in rung
/// indices. A coarse ascent (4 rungs per passing rung) brackets capacity;
/// at its first failing rung k the staircase starts at k - 2, and from then
/// on each passing rung moves one rung up and each failing rung one down.
/// The rungs it visits settle around the rate at which a rung passes half
/// the time, and capacity_rung() is their mean: one host stall moves the
/// staircase one rung, where on an ascending ladder it ended the climb,
/// and one lucky rung moves it one rung, where it set the maximum.
class Staircase {
 public:
  Staircase(int first, int top) : k_(first), top_(top) {}

  /// The rung to measure next.
  [[nodiscard]] int rung() const { return k_; }

  void record(bool passed) {
    if (coarse_) {
      if (!passed) {
        coarse_ = false;
        k_ = std::max(0, k_ - 2);
      } else if (k_ == top_) {
        capped_ = true;
      } else {
        k_ = std::min(top_, k_ + 4);
      }
      return;
    }
    visited_.push_back(k_);
    if (!passed) {
      k_ = std::max(0, k_ - 1);
    } else if (k_ == top_) {
      capped_ = true;
    } else {
      ++k_;
    }
  }

  /// Mean rung of the staircase proper; -1 while it has not started (the
  /// coarse ascent is still passing).
  [[nodiscard]] double capacity_rung() const {
    if (visited_.empty()) return -1.0;
    double sum = 0.0;
    for (int k : visited_) sum += k;
    return sum / static_cast<double>(visited_.size());
  }
  /// Rungs measured after the coarse ascent.
  [[nodiscard]] std::size_t steps() const { return visited_.size(); }
  /// The top rung passed: capacity is at least its rate, not equal to it.
  [[nodiscard]] bool capped() const { return capped_; }

 private:
  int k_;
  int top_;
  bool coarse_ = true;
  bool capped_ = false;
  std::vector<int> visited_;
};

/// Closure ratio: the daemon's handle time per verdict over what the same
/// event mix costs in process (session event plus response encoding). 1.0
/// means the daemon's handle stage is fully explained by the layers under
/// it; the excess is dispatch-side overhead inside handle.
inline double closure_ratio(double daemon_handle_us_per_verdict,
                            double inprocess_event_us,
                            double response_encode_us) {
  const double denom = inprocess_event_us + response_encode_us;
  return denom > 0.0 ? daemon_handle_us_per_verdict / denom : 0.0;
}

/// Self time of a span: its duration minus the union of its children's
/// intervals clipped to it. Children are [start, end) pairs in ns.
inline std::int64_t self_time_ns(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return (end - start) - covered;
}

}  // namespace perfbench
