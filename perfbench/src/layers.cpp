// Traced-run layer metrics of the serve workloads, measured in process by
// calling each layer's public functions from outside on the workload's own
// recorded inputs: the per-session event streams replayed through fresh
// AdmissionSessions (online, analysis, simd), the same contents through
// parse / canonical hash / MINPROCS (core, federated phase 1, listsched),
// the low tasks through IncrementalPartition (federated phase 2), and the
// heavy window's requests through the wire codec (serve).
#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "bench_math.h"
#include "fedcons/core/dag_hash.h"
#include "fedcons/core/io.h"
#include "fedcons/federated/minprocs.h"
#include "fedcons/federated/partition_state.h"
#include "fedcons/serve/protocol.h"
#include "fedcons/util/perf_counters.h"

namespace perfbench {

using namespace fedcons;

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"serve.reader_us_per_verdict", "us"},
      {"serve.write_us_per_verdict", "us"},
      {"serve.handle_us_per_verdict", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.dispatch_busy_share", "share"},
      {"serve.queue_wait_p99_us", "us"},
      {"serve.shed_share", "share"},
      {"serve.codec_us", "us"},
      {"serve.closure_ratio", "ratio"},
      {"core.parse_us", "us"},
      {"core.parse_calls_per_verdict", "count"},
      {"core.dag_hash_us", "us"},
      {"online.admit_us_p50", "us"},
      {"online.admit_us_p99", "us"},
      {"online.release_us_p50", "us"},
      {"online.release_us_p99", "us"},
      {"online.reject_share", "share"},
      {"online.placements_replayed_per_event", "count"},
      {"online.bins_revalidated_per_event", "count"},
      {"federated.memo_hit_share", "share"},
      {"federated.minprocs_us", "us"},
      {"listsched.probes_per_scan", "count"},
      {"listsched.probe_us", "us"},
      {"federated.partition_insert_us", "us"},
      {"federated.partition_remove_us", "us"},
      {"analysis.dbf_evals_per_event", "count"},
      {"simd.breakpoints_certified", "count"},
      {"analysis.exact_tie_share", "share"},
      {"engine.busy_share", "share"},
      {"gen.system_us", "us"},
      {"federated.schedule_us_p50", "us"},
      {"federated.schedule_us_p99", "us"},
      {"obs.trace_overhead_share", "share"},
      {"driver.send_lag_p99_us", "us"},
  };
  return specs;
}

std::vector<double> SpanRecorder::self_times_us(const std::string& name) const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    out.push_back(static_cast<double>(self_time_ns(spans_[i].start_ns,
                                                   spans_[i].end_ns,
                                                   children[i])) /
                  1000.0);
  }
  return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < std::min(spans_.size(), kMaxWritten); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"seq\": " << s.seq << "}\n";
  }
}

namespace {

/// Times fn() `reps` times and returns the mean microseconds per call.
template <typename Fn>
double mean_us(std::size_t reps, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < reps; ++i) fn(i);
  return static_cast<double>(now_ns() - t0) / 1000.0 /
         static_cast<double>(std::max<std::size_t>(reps, 1));
}

}  // namespace

void serve_layers(const Workload& w, const std::vector<Event>& heavy_events,
                  const ServeLayerInputs& in, SpanRecorder& spans,
                  Report& report) {
  const WorkloadConfig& cfg = w.config();
  const auto& history = w.history();

  // ---- online / analysis / simd: replay every session's stream ----------
  std::vector<double> admit_us, release_us;
  std::uint64_t events = 0, steady_events = 0, admits = 0, rejects = 0;
  std::uint64_t placements = 0, bins = 0, parses = 0;
  double steady_event_us = 0.0;
  PerfCounters work;
  MinprocsMemoStats memo;
  std::vector<std::uint32_t> missed;  // contents whose phase-1 lookup missed
  std::uint64_t seq = 0;
  for (std::uint32_t s = 0; s < history.size(); ++s) {
    AdmissionSession::Config sc;
    sc.processors = cfg.m;
    AdmissionSession session(sc);
    for (std::size_t i = 0; i < history[s].size(); ++i) {
      const Event& ev = history[s][i];
      const std::int32_t root = spans.open("event", -1, seq++);
      EventOutcome out;
      const PerfCounters before = perf_counters();
      if (ev.kind == EventKind::kAdmit) {
        TaskSystem parsed;
        if (cfg.inline_text) {
          const std::int32_t ps = spans.open("parse", root, seq);
          parsed = parse_task_system(w.content(ev.content).text);
          spans.close(ps);
          ++parses;
        }
        const DagTask& task =
            cfg.inline_text ? parsed[0] : w.content(ev.content).task;
        const std::int32_t as = spans.open("admit", root, seq);
        out = session.admit(task);
        spans.close(as);
        admit_us.push_back(spans.duration_us(as));
        ++admits;
        if (!out.applied) ++rejects;
        if (!out.memo_hit && task.is_high_density()) missed.push_back(ev.content);
      } else {
        const std::int32_t rs = spans.open("release", root, seq);
        out = session.release(static_cast<SessionTaskId>(ev.release_id));
        spans.close(rs);
        release_us.push_back(spans.duration_us(rs));
      }
      work += perf_counters() - before;
      spans.close(root);
      if (out.applied != ev.applied || out.schedulable != ev.schedulable) {
        throw std::runtime_error("in-process replay diverged from the model");
      }
      ++events;
      placements += out.placements_replayed;
      bins += out.bins_revalidated;
      if (i >= w.primed(s)) {
        ++steady_events;
        steady_event_us += spans.duration_us(root);
      }
    }
    const MinprocsMemoStats st = session.memo_stats();
    memo.hits += st.hits;
    memo.misses += st.misses;
  }
  const double ev_d = static_cast<double>(std::max<std::uint64_t>(events, 1));
  report.metric("online.admit_us_p50", percentile(admit_us, 50.0), "us");
  report.metric("online.admit_us_p99", percentile(admit_us, 99.0), "us");
  report.metric("online.release_us_p50", percentile(release_us, 50.0), "us");
  report.metric("online.release_us_p99", percentile(release_us, 99.0), "us");
  report.metric("online.reject_share",
                admits > 0 ? static_cast<double>(rejects) / static_cast<double>(admits) : 0.0,
                "share");
  report.metric("online.placements_replayed_per_event",
                static_cast<double>(placements) / ev_d, "count");
  report.metric("online.bins_revalidated_per_event", static_cast<double>(bins) / ev_d,
                "count");
  report.metric("analysis.dbf_evals_per_event",
                static_cast<double>(work.dbf_star_evaluations) / ev_d, "count");
  report.metric("simd.breakpoints_certified",
                static_cast<double>(work.simd_breakpoints_vectorized) / ev_d, "count");
  report.metric("federated.memo_hit_share",
                memo.hits + memo.misses > 0
                    ? static_cast<double>(memo.hits) / static_cast<double>(memo.hits + memo.misses)
                    : 0.0,
                "share");
  std::uint64_t ties = 0;
  for (const auto& stream : history) {
    for (const Event& ev : stream) ties += ev.exact_tie ? 1 : 0;
  }
  report.metric("analysis.exact_tie_share",
                w.tie_checked() > 0
                    ? static_cast<double>(ties) / static_cast<double>(w.tie_checked())
                    : 0.0,
                "share");
  report.metric("core.parse_calls_per_verdict", static_cast<double>(parses) / ev_d,
                "count");

  // ---- core: parse and canonical hash of the workload's contents ---------
  std::vector<std::uint32_t> sample;
  for (std::uint32_t c = 0; c < w.num_contents() && sample.size() < 512; ++c) {
    sample.push_back(c);
  }
  std::size_t sink = 0;
  const std::size_t reps = std::max<std::size_t>(2000, sample.size());
  report.metric("core.parse_us", mean_us(reps, [&](std::size_t i) {
                  sink += parse_task_system(w.content(sample[i % sample.size()]).text).size();
                }),
                "us");
  report.metric("core.dag_hash_us", mean_us(reps, [&](std::size_t i) {
                  sink += canonical_task_hash(w.content(sample[i % sample.size()]).task).lo & 1;
                }),
                "us");

  // ---- federated phase 1 + listsched: MINPROCS on the missed contents ----
  if (missed.size() > 2000) missed.resize(2000);
  double minprocs_us = 0.0, probes_per_scan = 0.0, probe_us = 0.0;
  if (!missed.empty()) {
    const PerfCounters before = perf_counters();
    minprocs_us = mean_us(missed.size(), [&](std::size_t i) {
      sink += minprocs(w.content(missed[i]).task, cfg.m) ? 1 : 0;
    });
    const PerfCounters d = perf_counters() - before;
    probes_per_scan = static_cast<double>(d.minprocs_scan_iterations) /
                      static_cast<double>(missed.size());
    probe_us = probes_per_scan > 0 ? minprocs_us / probes_per_scan : 0.0;
  }
  report.metric("federated.minprocs_us", minprocs_us, "us");
  report.metric("listsched.probes_per_scan", probes_per_scan, "count");
  report.metric("listsched.probe_us", probe_us, "us");

  // ---- federated phase 2: the low tasks through IncrementalPartition -----
  // The shared pool is taken as all m processors (the replay ignores the
  // clusters high-density tasks would claim).
  std::vector<double> insert_us, remove_us;
  for (const auto& stream : history) {
    IncrementalPartition part(cfg.m, PartitionOptions{});
    std::vector<bool> resident;
    std::uint64_t id = 0;
    for (const Event& ev : stream) {
      if (ev.kind == EventKind::kAdmit) {
        const DagTask& task = w.content(ev.content).task;
        const std::uint64_t my = id++;
        resident.push_back(false);
        if (!task.is_low_density()) continue;
        const std::int64_t t0 = now_ns();
        const PartitionEvent pe = part.admit(my, task.to_sequential());
        insert_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
        if (pe.ok) {
          resident[my] = true;
        } else {
          (void)part.remove(my);
        }
      } else if (ev.release_id < resident.size() && resident[ev.release_id]) {
        const std::int64_t t0 = now_ns();
        (void)part.remove(ev.release_id);
        remove_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
        resident[ev.release_id] = false;
      }
    }
  }
  report.metric("federated.partition_insert_us", mean(insert_us), "us");
  report.metric("federated.partition_remove_us", mean(remove_us), "us");

  // ---- serve codec: the heavy window's requests and responses ------------
  double codec_us = 0.0, encode_resp_us = 0.0;
  if (!heavy_events.empty()) {
    const std::size_t n = std::min<std::size_t>(heavy_events.size(), 20000);
    std::vector<serve::ServeRequest> reqs(n);
    std::vector<serve::ServeResponse> resps(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Event& ev = heavy_events[i];
      serve::ServeRequest& rq = reqs[i];
      rq.seq = i;
      rq.session = ev.session;
      if (ev.kind == EventKind::kAdmit) {
        rq.op = serve::ServeOp::kAdmit;
        if (cfg.inline_text) {
          rq.system = w.content(ev.content).text;
        } else {
          rq.has_content = true;
          rq.content = ev.content;
        }
      } else {
        rq.op = serve::ServeOp::kRelease;
        rq.release_ids = {static_cast<SessionTaskId>(ev.release_id)};
      }
      serve::ServeResponse& rs = resps[i];
      rs.seq = i;
      rs.has_verdict = true;
      rs.applied = ev.applied;
      rs.schedulable = ev.schedulable;
      rs.reject = to_string(ev.reject);
      if (ev.admitted_id >= 0) rs.task_ids = {static_cast<SessionTaskId>(ev.admitted_id)};
      rs.residents = ev.residents;
    }
    encode_resp_us = mean_us(n, [&](std::size_t i) {
      sink += serve::encode_frame(serve::encode_serve_response(resps[i])).size();
    });
    serve::FrameDecoder dec(std::size_t{1} << 24);
    std::string payload;
    codec_us = mean_us(n, [&](std::size_t i) {
      const std::string req = serve::encode_frame(serve::encode_serve_request(reqs[i]));
      dec.feed(req.data(), req.size());
      if (dec.next(payload)) sink += serve::parse_serve_request(payload).seq;
      const std::string resp = serve::encode_frame(serve::encode_serve_response(resps[i]));
      dec.feed(resp.data(), resp.size());
      if (dec.next(payload)) sink += serve::parse_serve_response(payload).residents;
    });
  }
  report.metric("serve.codec_us", codec_us, "us");
  const double event_mix_us =
      steady_events > 0 ? steady_event_us / static_cast<double>(steady_events) : 0.0;
  report.metric("serve.closure_ratio",
                closure_ratio(in.handle_us_per_verdict, event_mix_us, encode_resp_us),
                "ratio");
  report.note("layers.event_mix_us", event_mix_us, "us");
  // Self time of an event span: the part no layer call covers (the replay's
  // own bookkeeping), which the event mix above therefore over-counts.
  report.note("layers.event_self_us_p50", median(spans.self_times_us("event")), "us");
  report.note("layers.response_encode_us", encode_resp_us, "us");
  report.note("layers.sink", static_cast<double>(sink % 2), "count");

  // Batch-path layers do not run on a serve workload.
  for (const char* name : {"engine.busy_share", "gen.system_us",
                           "federated.schedule_us_p50", "federated.schedule_us_p99"}) {
    report.metric(name, 0.0, name[0] == 'e' ? "share" : "us");
  }
}

}  // namespace perfbench
