// fcbench — the benchmark driver behind perfbench/run.py.
//
//   fcbench run --workload=W --seed=N --seconds=S --trace=0|1
//               --daemon=PATH --work-dir=DIR
//   fcbench sweep-probe --seed=N --full=0|1   (the sweep's set-up / RSS probe)
//
// Prints an info line ({"perfbench_info": {...}}: property shares, sample
// counts, requests sent / succeeded / failed) and then, as the last line,
// the result object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace=0, the per-layer metrics with --trace=1.
// Exits 1 when any verdict disagreed with the in-process reference, 2 on
// usage errors or a non-Release build.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "bench.h"
#include "fedcons/util/mini_json.h"

using namespace perfbench;

namespace {

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += fedcons::json_escape(ms[i].name);
    out += "\": {\"value\": ";
    out += fmt(ms[i].value);
    out += ", \"unit\": \"";
    out += ms[i].unit;
    out += "\"}";
  }
  return out + "}";
}

int usage() {
  std::cerr << "usage: fcbench run --workload=W --seed=N --seconds=S "
               "--trace=0|1 --daemon=PATH --work-dir=DIR\n"
               "       fcbench sweep-probe --seed=N --full=0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "fcbench: refusing a " << PERFBENCH_BUILD_TYPE
              << " build; benchmark numbers come from Release builds only\n";
    return 2;
  }
  if (argc < 2) return usage();
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return usage();
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  const auto get = [&](const char* k) {
    const auto it = args.find(k);
    return it == args.end() ? std::string() : it->second;
  };
  try {
    const std::string cmd = argv[1];
    if (cmd == "sweep-probe") {
      return sweep_probe(std::stoull(get("seed")), get("full") == "1");
    }
    if (cmd != "run") return usage();

    RunOptions opt;
    opt.workload = get("workload");
    opt.seed = std::stoull(get("seed"));
    opt.seconds = std::stod(get("seconds"));
    opt.trace = get("trace") == "1";
    opt.daemon = get("daemon");
    opt.work_dir = get("work-dir");
    opt.self_exe = argv[0];
    const WorkloadConfig* cfg = find_workload(opt.workload);
    if (cfg == nullptr || opt.seconds <= 0 || opt.work_dir.empty() ||
        (cfg->serve && opt.daemon.empty())) {
      return usage();
    }

    Report report;
    if (cfg->serve) {
      run_serve(opt, *cfg, report);
    } else {
      run_sweep(opt, report);
    }

    // A traced run prints every per-layer metric, an untraced one every
    // end-to-end metric; anything missing is a driver bug, not a zero.
    std::set<std::string> have;
    for (const Metric& m : report.metrics) have.insert(m.name);
    if (opt.trace) {
      for (const LayerMetricSpec& spec : layer_metric_specs()) {
        if (have.count(spec.name) == 0) {
          std::cerr << "fcbench: layer metric " << spec.name << " not measured\n";
          return 3;
        }
      }
    }
    report.note("requests_sent", static_cast<double>(report.attempted), "count");
    report.note("requests_succeeded", static_cast<double>(report.succeeded), "count");
    report.note("requests_failed", static_cast<double>(report.failed), "count");
    std::cout << "{\"perfbench_info\": {\"workload\": \"" << opt.workload
              << "\", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
              << ", \"notes\": " << metrics_json(report.info) << "}}\n";
    std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed
              << ", \"metrics\": " << metrics_json(report.metrics) << "}"
              << std::endl;
    return report.mismatches > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "fcbench: " << e.what() << "\n";
    return 1;
  }
}
