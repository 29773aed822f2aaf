// The batch workload: run_acceptance_sweep with FEDCONS alone (m = 8,
// n = 16, U/m grid 0.1..1.0), the path of the paper's random-system
// experiments. No serve, online or memo code runs here.
//
// A "verdict" of the sweep is one system's FEDCONS analysis, so the shared
// end-to-end names read: p50_us / p90_us = per-system analysis latency with
// the BatchRunner one thread wide, p90_heavy_us = the same with it wide
// (half of nproc threads), capacity_vps = systems generated and analyzed
// per second with it wide.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "bench_math.h"
#include "fedcons/core/dag_hash.h"
#include "fedcons/core/io.h"
#include "fedcons/engine/batch_runner.h"
#include "fedcons/engine/registry.h"
#include "fedcons/expr/acceptance.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/federated/minprocs.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/perf_counters.h"

namespace perfbench {

using namespace fedcons;

namespace {

constexpr int kM = 8;
constexpr int kTasks = 16;
// 2000 systems per sweep: a one-thread sweep takes ~0.5 s, so each run
// analyzes every system ~18 times at each width (their fastest analysis is
// the latency sample), and still enough systems that a seed's draw moves
// the percentiles little.
constexpr int kTrialsPerPoint = 200;
constexpr int kSetupLaunches = 2;  // per round

SweepConfig sweep_config(std::uint64_t seed, int threads) {
  SweepConfig cfg;
  cfg.m = kM;
  cfg.trials = kTrialsPerPoint;
  cfg.seed = seed;
  cfg.num_threads = threads;
  cfg.base.num_tasks = kTasks;
  return cfg;
}

/// The wide BatchRunner: half the cores. On a shared 4-core host other
/// tenants kept ~1.5 cores busy, and a sweep as wide as nproc measured how
/// often they preempted its threads (its p90 spread 20% over ten runs).
int width() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
}

/// A system's fingerprint, cheap next to its analysis: a mix of its tasks'
/// deadlines, periods, volumes and lengths. It tells the systems of one
/// sweep apart whichever thread analyzes them.
std::uint64_t fingerprint(const TaskSystem& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const DagTask& t : s.tasks()) {
    for (const Time v : {t.deadline(), t.period(), t.vol(), t.len()}) {
      h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// One timed FEDCONS call: the system's fingerprint and the latency.
struct Sample {
  std::uint64_t system = 0;
  double us = 0.0;
};

/// Per-call latency samples of the FEDCONS test, collected from whichever
/// BatchRunner threads run it. Each thread appends to its own vector.
class LatencySink {
 public:
  void add(Sample sample) {
    thread_local std::vector<Sample>* mine = nullptr;
    thread_local std::uint64_t mine_epoch = 0;
    if (mine == nullptr || mine_epoch != epoch_) {
      std::lock_guard<std::mutex> lock(mu_);
      per_thread_.push_back(std::make_unique<std::vector<Sample>>());
      mine = per_thread_.back().get();
      mine_epoch = epoch_;
    }
    mine->push_back(sample);
  }
  /// All samples so far; starts a new epoch.
  std::vector<Sample> take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Sample> all;
    for (const auto& v : per_thread_) all.insert(all.end(), v->begin(), v->end());
    per_thread_.clear();
    ++epoch_;
    return all;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Sample>>> per_thread_;
  std::uint64_t epoch_ = 1;
};

AlgorithmSpec timed_fedcons(LatencySink& sink) {
  TestPtr test = TestRegistry::global().make("FEDCONS");
  return {"FEDCONS", [test, &sink](const TaskSystem& s, int m) {
            const std::int64_t t0 = now_ns();
            const bool ok = test->admits(s, m);
            const std::int64_t t1 = now_ns();
            sink.add({fingerprint(s), static_cast<double>(t1 - t0) / 1000.0});
            return ok;
          }};
}

/// Each system's fastest analysis so far, by fingerprint.
class Fastest {
 public:
  /// Folds in one sweep's samples; appends their latencies to `all`.
  void add(const std::vector<Sample>& samples, std::vector<double>& all) {
    for (const Sample& s : samples) {
      const auto [it, fresh] = best_.try_emplace(s.system, s.us);
      if (!fresh) it->second = std::min(it->second, s.us);
      all.push_back(s.us);
    }
  }
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    out.reserve(best_.size());
    for (const auto& [system, us] : best_) out.push_back(us);
    return out;
  }

 private:
  std::unordered_map<std::uint64_t, double> best_;
};

/// System i of grid point p of a sweep, drawn the way run_acceptance_sweep
/// draws it: from trial_seed(trial_seed(seed, p), i).
TaskSystem draw_system(const SweepConfig& cfg, std::size_t p, int i) {
  TaskSetParams params = cfg.base;
  params.total_utilization = cfg.normalized_utils[p] * cfg.m;
  params.utilization_cap = cfg.m;
  Rng rng(trial_seed(trial_seed(cfg.seed, p), static_cast<std::uint64_t>(i)));
  return generate_task_system(rng, params);
}

/// Reference acceptance counts of one sweep, per grid point: serial
/// fedcons_schedule on the same systems. Points are split across threads;
/// each point is computed serially.
std::vector<std::size_t> reference_counts(const SweepConfig& cfg) {
  std::vector<std::size_t> accepted(cfg.normalized_utils.size(), 0);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t p; (p = next.fetch_add(1)) < accepted.size();) {
      for (int i = 0; i < cfg.trials; ++i) {
        accepted[p] += fedcons_schedule(draw_system(cfg, p, i), cfg.m).success ? 1 : 0;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < width(); ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return accepted;
}

/// One run of `self sweep-probe`: seconds from launch until it reports
/// ready, and its peak RSS.
struct Probe {
  double seconds = 0.0;
  double rss_mb = 0.0;
};

Probe launch_probe(const RunOptions& opt, bool full) {
  const std::int64_t t0 = now_ns();
  const Spawned child =
      spawn_reader({opt.self_exe, "sweep-probe", "--seed=" + std::to_string(opt.seed),
                    full ? "--full=1" : "--full=0"},
                   120000);
  const std::int64_t t1 = now_ns();
  ::close(child.out_fd);
  int status = 0;
  ::waitpid(child.pid, &status, 0);
  if (child.first_line.rfind("ready ", 0) != 0 || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("sweep probe failed");
  }
  return {static_cast<double>(t1 - t0) / 1e9,
          std::stod(child.first_line.substr(6)) / 1024.0};
}

}  // namespace

int sweep_probe(std::uint64_t seed, bool full) {
  SweepConfig cfg = sweep_config(seed, width());
  if (!full) {
    cfg.trials = 1;
    cfg.normalized_utils = {cfg.normalized_utils.front()};
  }
  LatencySink sink;
  (void)run_acceptance_sweep(cfg, {timed_fedcons(sink)});
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  std::cout << "ready " << ru.ru_maxrss << std::endl;
  return 0;
}
void run_sweep(const RunOptions& opt, Report& report) {
  LatencySink sink;
  const std::vector<AlgorithmSpec> algos = {timed_fedcons(sink)};
  std::uint64_t systems = 0, wrong = 0;
  // Every sweep of a run repeats the same seeded systems, so sweeps differ
  // only by the host's interference, not by content.
  const std::uint64_t sweep_seed = opt.seed * 1000 + 1;
  const auto run_one = [&](int threads, double* wall_s) {
    const SweepConfig cfg = sweep_config(sweep_seed, threads);
    const std::int64_t t0 = now_ns();
    const auto points = run_acceptance_sweep(cfg, algos);
    if (wall_s != nullptr) *wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    systems += static_cast<std::uint64_t>(cfg.trials) * cfg.normalized_utils.size();
    return std::make_pair(cfg, points);
  };
  std::vector<std::pair<SweepConfig, std::vector<AcceptancePoint>>> done;

  if (!opt.trace) {
    // Rounds spread each measurement over the run (host speed drifts over
    // seconds): each round relaunches the set-up and RSS probes, then runs
    // one-thread sweeps (latency without contention) and wide sweeps
    // (throughput and contended latency). Interference only ever slows an
    // analysis down, and every sweep of a run analyzes the same systems, so
    // the latencies are percentiles over the systems of each system's
    // fastest analysis at that width. (Per-sweep percentiles followed the
    // host: the same seed read 52 and 69 us minutes apart.) Throughput is
    // the upper quartile over wide sweeps.
    constexpr int kRounds = 6;
    std::vector<double> setups, rates, rss;
    Fastest light_best, heavy_best;
    std::vector<double> light_all, heavy_all;
    std::size_t serial_sweeps = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kSetupLaunches; ++i) setups.push_back(launch_probe(opt, false).seconds);
      if (round % 2 == 0) rss.push_back(launch_probe(opt, true).rss_mb);
      const std::int64_t serial_end =
          now_ns() + static_cast<std::int64_t>(0.07 * opt.seconds * 1e9);
      do {
        done.push_back(run_one(1, nullptr));
        light_best.add(sink.take(), light_all);
        ++serial_sweeps;
      } while (now_ns() < serial_end);
      const std::int64_t wide_end =
          now_ns() + static_cast<std::int64_t>(0.05 * opt.seconds * 1e9);
      do {
        double wall = 0.0;
        done.push_back(run_one(width(), &wall));
        rates.push_back(static_cast<double>(kTrialsPerPoint * 10) / wall);
        heavy_best.add(sink.take(), heavy_all);
      } while (now_ns() < wide_end);
    }

    report.metric("setup_s", median(setups), "s");
    const std::vector<double> light = light_best.latencies();
    const std::vector<double> heavy = heavy_best.latencies();
    report.metric("p50_us", percentile(light, 50.0), "us");
    report.metric("p90_us", percentile(light, 90.0), "us");
    report.metric("p90_heavy_us", percentile(heavy, 90.0), "us");
    report.metric("capacity_vps", percentile(rates, 75.0), "1/s");
    report.metric("peak_rss_mb", median(rss), "MiB");
    report.note("p99_us", percentile(light, 99.0), "us");
    report.note("p99_heavy_us", percentile(heavy, 99.0), "us");
    report.note("systems_timed", static_cast<double>(light.size()), "count");
    // Health figures over every sample of the run (see run_serve).
    report.note("pooled_p99_us", percentile(light_all, 99.0), "us");
    report.note("pooled_p99_heavy_us", percentile(heavy_all, 99.0), "us");
    report.note("light_samples", static_cast<double>(light_all.size()), "count");
    report.note("heavy_samples", static_cast<double>(heavy_all.size()), "count");
    report.note("setup_launches", static_cast<double>(setups.size()), "count");
    report.note("serial_sweeps", static_cast<double>(serial_sweeps), "count");
    report.note("wide_sweeps", static_cast<double>(rates.size()), "count");
    report.note("threads", width(), "count");
  } else {
    // Batch-path layers, each called from outside on the sweep's systems.
    SpanRecorder spans;
    const SweepConfig cfg = sweep_config(sweep_seed, width());
    std::vector<TaskSystem> systems_in;
    std::vector<double> gen_us;
    for (std::size_t p = 0; p < cfg.normalized_utils.size(); ++p) {
      for (int i = 0; i < cfg.trials; ++i) {
        const std::int32_t g = spans.open("gen", -1, systems_in.size());
        systems_in.push_back(draw_system(cfg, p, i));
        spans.close(g);
        gen_us.push_back(spans.duration_us(g));
      }
    }
    std::vector<double> sched_us;
    PerfCounters work;
    std::size_t sink_bits = 0;
    for (std::size_t i = 0; i < systems_in.size(); ++i) {
      const PerfCounters before = perf_counters();
      const std::int32_t sp = spans.open("fedcons_schedule", -1, i);
      sink_bits += fedcons_schedule(systems_in[i], cfg.m).success ? 1 : 0;
      spans.close(sp);
      sched_us.push_back(spans.duration_us(sp));
      work += perf_counters() - before;
    }
    const double n_sys = static_cast<double>(systems_in.size());
    report.metric("gen.system_us", mean(gen_us), "us");
    report.metric("federated.schedule_us_p50", percentile(sched_us, 50.0), "us");
    report.metric("federated.schedule_us_p99", percentile(sched_us, 99.0), "us");
    report.metric("analysis.dbf_evals_per_event",
                  static_cast<double>(work.dbf_star_evaluations) / n_sys, "count");
    report.metric("simd.breakpoints_certified",
                  static_cast<double>(work.simd_breakpoints_vectorized) / n_sys, "count");

    // engine: the BatchRunner running gen + FEDCONS trials, busy share of
    // its threads over the batch's wall time.
    {
      BatchRunner runner(cfg.num_threads);
      std::vector<std::int64_t> busy(systems_in.size());
      const std::int64_t t0 = now_ns();
      TaskSetParams params = cfg.base;
      params.total_utilization = 0.5 * cfg.m;
      params.utilization_cap = cfg.m;
      (void)runner.run_trials<int>(
          systems_in.size(), cfg.seed, [&](std::size_t i, Rng& rng) {
            const std::int64_t a = now_ns();
            const int ok = fedcons_schedule(generate_task_system(rng, params), cfg.m).success;
            busy[i] = now_ns() - a;
            return ok;
          });
      const double wall = static_cast<double>(now_ns() - t0);
      double total = 0.0;
      for (std::int64_t b : busy) total += static_cast<double>(b);
      report.metric("engine.busy_share", total / (wall * runner.num_threads()), "share");
    }

    // core: parse of each system's text and canonical hash of each task.
    std::vector<std::string> texts;
    for (const TaskSystem& s : systems_in) texts.push_back(serialize_task_system(s));
    std::int64_t t0 = now_ns();
    for (const std::string& t : texts) sink_bits += parse_task_system(t).size();
    report.metric("core.parse_us", static_cast<double>(now_ns() - t0) / 1000.0 / n_sys, "us");
    std::size_t tasks = 0;
    t0 = now_ns();
    for (const TaskSystem& s : systems_in) {
      for (const DagTask& t : s.tasks()) {
        sink_bits += canonical_task_hash(t).lo & 1;
        ++tasks;
      }
    }
    report.metric("core.dag_hash_us",
                  static_cast<double>(now_ns() - t0) / 1000.0 / static_cast<double>(std::max<std::size_t>(tasks, 1)),
                  "us");

    // federated phase 1 + listsched: MINPROCS on every high-density task.
    std::size_t scans = 0;
    const PerfCounters before = perf_counters();
    t0 = now_ns();
    for (const TaskSystem& s : systems_in) {
      for (const DagTask& t : s.tasks()) {
        if (!t.is_high_density()) continue;
        sink_bits += minprocs(t, cfg.m) ? 1 : 0;
        ++scans;
      }
    }
    const double mp_us = static_cast<double>(now_ns() - t0) / 1000.0 /
                         static_cast<double>(std::max<std::size_t>(scans, 1));
    const double probes = static_cast<double>((perf_counters() - before).minprocs_scan_iterations) /
                          static_cast<double>(std::max<std::size_t>(scans, 1));
    report.metric("federated.minprocs_us", mp_us, "us");
    report.metric("listsched.probes_per_scan", probes, "count");
    report.metric("listsched.probe_us", probes > 0 ? mp_us / probes : 0.0, "us");

    // obs: the sweep with and without the latency-recording wrapper.
    double plain_wall = 0.0, traced_wall = 0.0;
    {
      const std::vector<AlgorithmSpec> plain = {
          make_algorithm_spec(TestRegistry::global().make("FEDCONS"))};
      const std::int64_t a = now_ns();
      (void)run_acceptance_sweep(cfg, plain);
      plain_wall = static_cast<double>(now_ns() - a);
      const std::int64_t b = now_ns();
      (void)run_acceptance_sweep(cfg, algos);
      traced_wall = static_cast<double>(now_ns() - b);
      (void)sink.take();
    }
    report.metric("obs.trace_overhead_share", traced_wall / plain_wall - 1.0, "share");
    report.note("layers.sink", static_cast<double>(sink_bits % 2), "count");
    spans.write_jsonl(opt.work_dir + "/spans-sweep.jsonl");

    // The daemon / session layers do not run on the batch path.
    for (const LayerMetricSpec& spec : layer_metric_specs()) {
      const std::string name = spec.name;
      if (name.rfind("serve.", 0) == 0 || name.rfind("online.", 0) == 0 ||
          name == "core.parse_calls_per_verdict" || name == "federated.memo_hit_share" ||
          name == "federated.partition_insert_us" || name == "federated.partition_remove_us" ||
          name == "analysis.exact_tie_share" || name == "driver.send_lag_p99_us") {
        report.metric(name, 0.0, spec.unit);
      }
    }
    // One sweep through the timed spec, checked like the untraced runs.
    done.push_back(run_one(width(), nullptr));
    (void)sink.take();
  }

  // Verdict check, outside every timed region: every sweep's acceptance
  // counts against the serial reference on the same systems.
  const std::vector<std::size_t> ref = reference_counts(done.front().first);
  for (const auto& [cfg, points] : done) {
    for (std::size_t p = 0; p < ref.size(); ++p) {
      const std::size_t got = points.at(p).accepted.at(0);
      wrong += got > ref[p] ? got - ref[p] : ref[p] - got;
    }
  }
  std::uint64_t accepted = 0;
  for (const auto& sweep : done) {
    for (const AcceptancePoint& p : sweep.second) accepted += p.accepted.at(0);
  }
  report.note("prop.reject_share",
              systems > 0 ? 1.0 - static_cast<double>(accepted) / static_cast<double>(systems) : 0.0,
              "share");
  report.attempted = systems;
  report.failed = wrong;
  report.succeeded = systems - std::min(systems, wrong);
  report.mismatches = wrong;
  report.correct = wrong == 0;
  report.note("verdict_mismatches", static_cast<double>(wrong), "count");
  report.note("prop.memo_hit_share", 0.0, "share");
  report.note("prop.exact_tie_share", 0.0, "share");
  report.note("prop.inline_parse_count", 0.0, "count");
}

}  // namespace perfbench
