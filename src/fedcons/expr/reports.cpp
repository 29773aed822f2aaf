#include "fedcons/expr/reports.h"

#include <ostream>

#include "fedcons/federated/speedup.h"
#include "fedcons/util/stats.h"

namespace fedcons {

Table acceptance_table(const std::vector<AcceptancePoint>& points,
                       const std::vector<AlgorithmSpec>& algorithms,
                       bool with_ci) {
  std::vector<std::string> header{"U/m", "trials", "NEC-upper"};
  for (const auto& a : algorithms) header.push_back(a.name);
  Table table(std::move(header));
  auto cell = [with_ci](std::size_t k, std::size_t n) {
    std::string s = fmt_ratio(k, n);
    if (with_ci && n > 0) {
      s += "±" + fmt_double(binomial_ci95_halfwidth(k, n), 3);
    }
    return s;
  };
  for (const auto& p : points) {
    std::vector<std::string> row;
    row.push_back(fmt_double(p.normalized_util, 2));
    row.push_back(fmt_int(static_cast<long long>(p.trials)));
    row.push_back(cell(p.feasible_upper_bound, p.trials));
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      row.push_back(cell(p.accepted[a], p.trials));
    }
    table.add_row(std::move(row));
  }
  return table;
}

Table speedup_table(const SpeedupExperimentResult& result, int m) {
  Table table({"metric", "value"});
  table.add_row({"systems measured", fmt_int(result.measured)});
  table.add_row({"accepted at speed 1", fmt_int(result.accepted_at_unit)});
  table.add_row({"never accepted (<= max speed)",
                 fmt_int(result.never_accepted)});
  if (!result.speeds.empty()) {
    OnlineStats stats;
    for (double s : result.speeds) stats.add(s);
    table.add_row({"min speed (mean)", fmt_double(stats.mean())});
    table.add_row({"min speed (p50)", fmt_double(percentile(result.speeds, 50))});
    table.add_row({"min speed (p95)", fmt_double(percentile(result.speeds, 95))});
    table.add_row({"min speed (max)", fmt_double(stats.max())});
  }
  table.add_row({"theoretical bound 3-1/m", fmt_double(fedcons_speedup_bound(m))});
  return table;
}

void print_report(std::ostream& os, const std::string& caption,
                  const Table& table, bool also_csv) {
  os << "== " << caption << "\n";
  table.print(os);
  if (also_csv) {
    os << "-- csv --\n";
    table.print_csv(os);
  }
  os << "\n";
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

void append_counters_json(std::string& out, const PerfCounters& c) {
  out += "{\"ls_invocations\": " + fmt_int(static_cast<long long>(
                                       c.ls_invocations)) +
         ", \"minprocs_scan_iterations\": " +
         fmt_int(static_cast<long long>(c.minprocs_scan_iterations)) +
         ", \"dbf_star_evaluations\": " +
         fmt_int(static_cast<long long>(c.dbf_star_evaluations)) +
         ", \"simd_breakpoints_vectorized\": " +
         fmt_int(static_cast<long long>(c.simd_breakpoints_vectorized)) + "}";
}

}  // namespace

std::string sweep_report_json(const std::string& experiment,
                              std::uint64_t seed,
                              const std::vector<AlgorithmSpec>& algorithms,
                              const std::vector<SweepSection>& sections) {
  std::string out;
  out += "{\n  \"schema_version\": 1,\n";
  out += "  \"experiment\": \"" + json_escape(experiment) + "\",\n";
  out += "  \"seed\": " + fmt_int(static_cast<long long>(seed)) + ",\n";
  out += "  \"algorithms\": [";
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    if (a) out += ", ";
    out += "\"" + json_escape(algorithms[a].name) + "\"";
  }
  out += "],\n  \"sweeps\": [\n";
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const SweepSection& sec = sections[s];
    out += "    {\"label\": \"" + json_escape(sec.label) + "\", \"m\": " +
           fmt_int(sec.m) + ", \"points\": [\n";
    for (std::size_t p = 0; p < sec.points.size(); ++p) {
      const AcceptancePoint& point = sec.points[p];
      out += "      {\"normalized_util\": " +
             fmt_double(point.normalized_util, 4) +
             ", \"trials\": " + fmt_int(static_cast<long long>(point.trials)) +
             ", \"feasible_upper_bound\": " +
             fmt_int(static_cast<long long>(point.feasible_upper_bound)) +
             ", \"accepted\": [";
      for (std::size_t a = 0; a < point.accepted.size(); ++a) {
        if (a) out += ", ";
        out += fmt_int(static_cast<long long>(point.accepted[a]));
      }
      out += "], \"counters\": ";
      append_counters_json(out, point.counters);
      // Metrics are opt-in (SweepConfig::collect_metrics); default reports
      // only gain the schema_version field.
      if (!point.metrics.empty()) {
        out += ", \"metrics\": " + point.metrics.to_json();
      }
      out += "}";
      if (p + 1 < sec.points.size()) out += ",";
      out += "\n";
    }
    out += "    ]}";
    if (s + 1 < sections.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string speedup_report_json(const std::string& experiment,
                                const SpeedupExperimentConfig& config,
                                const SpeedupExperimentResult& result) {
  std::string out;
  out += "{\n  \"schema_version\": 1,\n";
  out += "  \"experiment\": \"" + json_escape(experiment) + "\",\n";
  out += "  \"algorithm\": \"" + json_escape(config.algorithm) + "\",\n";
  out += "  \"m\": " + fmt_int(config.m) + ",\n";
  out += "  \"normalized_util\": " + fmt_double(config.normalized_util, 4) +
         ",\n";
  out += "  \"seed\": " + fmt_int(static_cast<long long>(config.seed)) +
         ",\n";
  out += "  \"measured\": " + fmt_int(result.measured) + ",\n";
  out += "  \"accepted_at_unit\": " + fmt_int(result.accepted_at_unit) +
         ",\n";
  out += "  \"never_accepted\": " + fmt_int(result.never_accepted) + ",\n";
  out += "  \"theoretical_bound\": " +
         fmt_double(fedcons_speedup_bound(config.m), 4) + ",\n";
  out += "  \"speeds\": [";
  for (std::size_t i = 0; i < result.speeds.size(); ++i) {
    if (i) out += ", ";
    out += fmt_double(result.speeds[i], 6);
  }
  out += "]\n}\n";
  return out;
}

}  // namespace fedcons
