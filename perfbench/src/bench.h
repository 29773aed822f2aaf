// Shared types of the fcbench driver: run options, the report every run
// prints, the span recorder of traced runs, and the per-workload entry
// points.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;    ///< fedcons_serve binary
  std::string work_dir;  ///< scratch space inside the checkout
  std::string self_exe;  ///< this binary (sweep set-up relaunches it)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the result line (correct, attempted, failed,
/// metrics) and an info line before it (property shares, sample counts,
/// request accounting).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< requests sent (sweep: systems analyzed)
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  ///< wrong verdicts (the run exits non-zero)
  std::vector<Metric> metrics;
  std::vector<Metric> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
};

/// Every per-layer metric a traced run prints, with its unit, in print
/// order. A layer a workload does not exercise reports 0.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetricSpec>& layer_metric_specs();

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory spans of a traced run: name, start, end, parent (index into
/// the recorder, -1 for roots) and the request's sequence number. Written
/// out as JSON lines once the run ends.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t seq;
  };

  std::int32_t open(const char* name, std::int32_t parent, std::uint64_t seq) {
    spans_.push_back({name, now_ns(), 0, parent, seq});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration_us(std::int32_t id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
  }
  /// Self time of every span named `name`, in microseconds.
  [[nodiscard]] std::vector<double> self_times_us(const std::string& name) const;
  /// Writes the first kMaxWritten spans (disk use stays bounded however
  /// long the run; the in-memory spans all feed the self times).
  void write_jsonl(const std::string& path) const;
  static constexpr std::size_t kMaxWritten = 200000;

 private:
  std::vector<Span> spans_;
};

/// A child started by spawn_reader(): its pid, the read end of its stdout,
/// and the first line it printed (without the newline; empty or partial
/// when the child exited or stayed silent for the timeout first).
struct Spawned {
  pid_t pid = -1;
  int out_fd = -1;
  std::string first_line;
};
/// posix_spawn args[0] with stdout on a pipe, then wait up to timeout_ms for
/// its first line. Throws when the launch itself fails.
[[nodiscard]] Spawned spawn_reader(std::vector<std::string> args, int timeout_ms);

void run_serve(const RunOptions& opt, const WorkloadConfig& cfg, Report& report);
void run_sweep(const RunOptions& opt, Report& report);
/// The sweep's probe process: run the batch path on its first system only
/// (full = false: the set-up probe) or over one whole sweep (full = true:
/// the RSS probe), then print "ready <peak RSS in KiB>".
int sweep_probe(std::uint64_t seed, bool full);

/// In-process layer metrics on a serve workload's recorded event streams.
/// heavy_events are the events of the traced heavy window (codec and
/// closure are measured on that mix).
struct ServeLayerInputs {
  double handle_us_per_verdict = 0.0;
};
void serve_layers(const Workload& w, const std::vector<Event>& heavy_events,
                  const ServeLayerInputs& in, SpanRecorder& spans,
                  Report& report);

}  // namespace perfbench
