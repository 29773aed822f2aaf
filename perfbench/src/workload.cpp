#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "fedcons/analysis/dbf.h"
#include "fedcons/core/io.h"
#include "fedcons/core/task_system.h"
#include "fedcons/gen/dag_gen.h"
#include "fedcons/util/check.h"

namespace perfbench {

using namespace fedcons;

namespace {

// ladder_base is the capacity each workload showed when the benchmark was
// introduced (4-core Xeon VM, Release build), in verdicts/s. The light and
// heavy rates are 10% and 30% of it (at 70% the heavy p90 sat on the steep
// part of the curve and spread 24-33% run to run, at 50% still 16-29%: a
// queue that deep amplifies every drift of the host's speed), and the
// ladder brackets it with rungs 5% of it apart.
const WorkloadConfig kWorkloads[] = {
    {.name = "admit-small",
     .m = 8, .residents = 4,
     .inline_text = false, .release_newest = true, .daemon_threads = 1,
     .ladder_base = 103000},
    {.name = "admit-large",
     .m = 8, .residents = 32,
     .inline_text = false, .release_newest = false, .daemon_threads = 1,
     .ladder_base = 16000},
    {.name = "admit-dag",
     .m = 48, .residents = 8,
     .inline_text = true, .release_newest = false, .daemon_threads = 2,
     .fresh_share = 0.10,
     .ladder_base = 30000},
    {.name = "sweep", .serve = false},
};

Time log_uniform(Rng& rng, double lo, double hi) {
  const double v = std::exp(std::log(lo) + rng.uniform01() * (std::log(hi) - std::log(lo)));
  return static_cast<Time>(std::llround(v));
}

/// Single-vertex low-density constrained-deadline task (D < T, C < D).
DagTask low_task(Rng& rng, double u_lo, double u_hi, double t_lo, double t_hi,
                 double dr_lo, double dr_hi, const std::string& name) {
  const Time period = log_uniform(rng, t_lo, t_hi);
  const double u = u_lo + rng.uniform01() * (u_hi - u_lo);
  Time deadline = static_cast<Time>(
      std::llround(static_cast<double>(period) *
                   (dr_lo + rng.uniform01() * (dr_hi - dr_lo))));
  deadline = std::clamp<Time>(deadline, 2, period - 1);
  const Time wcet = std::clamp<Time>(
      static_cast<Time>(std::llround(u * static_cast<double>(period))), 1,
      deadline - 1);
  Dag g;
  g.add_vertex(wcet);
  return DagTask(std::move(g), deadline, period, name);
}

/// High-density layered DAG task with 20-60 vertices whose deadline leaves
/// room for roughly k processors' worth of parallelism (k in [2, 6]).
DagTask high_dag_task(Rng& rng, const std::string& name) {
  LayeredDagParams p;
  p.min_layers = 4;
  p.max_layers = 8;
  p.min_width = 3;
  p.max_width = 8;
  p.edge_probability = 0.3;
  p.skip_probability = 0.05;
  p.min_wcet = 1;
  p.max_wcet = 100;
  while (true) {
    Dag g = generate_layered_dag(rng, p);
    if (g.num_vertices() < 20 || g.num_vertices() > 60) continue;
    DagTask probe(g, 1, 1);
    const Time vol = probe.vol();
    const Time len = probe.len();
    const double k = 2.0 + rng.uniform01() * 4.0;
    const Time deadline =
        len + static_cast<Time>(std::ceil(static_cast<double>(vol - len) / k));
    if (deadline >= vol) continue;  // not high-density: resample
    const Time period =
        deadline + static_cast<Time>(rng.uniform_int(0, deadline / 2));
    return DagTask(std::move(g), deadline, period, name);
  }
}

std::string task_name(std::size_t session, const char* kind, std::size_t i) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "s%zu%s%zu", session, kind, i);
  return buf;
}

std::string one_task_text(const DagTask& task) {
  return serialize_task_system(TaskSystem({task}));
}

}  // namespace

const WorkloadConfig* find_workload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint32_t Workload::add_content(DagTask task) {
  std::string text = one_task_text(task);
  contents_.push_back(Content{std::move(task), std::move(text)});
  return static_cast<std::uint32_t>(contents_.size() - 1);
}

Workload::Workload(const WorkloadConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  FEDCONS_EXPECTS(config.serve);
  const std::string& w = config.name;
  if (w == "admit-small") {
    for (int i = 0; i < 10; ++i) {
      registered_.push_back(add_content(
          low_task(rng_, 0.08, 0.12, 100, 140, 0.85, 0.95,
                   "small" + std::to_string(i))));
    }
  } else if (w == "admit-large") {
    // 240 contents (a large pool keeps the mix, and so the cost, alike
    // across seeds); every tenth is an exact-tie task: C = D/2, T = 4D with
    // D below every other deadline, so two of them first-fit into one bin
    // meet DBF* exactly at t = D (the certified screen's uncertain band).
    for (int i = 0; i < 240; ++i) {
      if (i % 10 == 9) {
        const Time d = (i / 10) % 2 == 0 ? 100 : 150;
        Dag g;
        g.add_vertex(d / 2);
        registered_.push_back(add_content(
            DagTask(std::move(g), d, 4 * d, "tie" + std::to_string(i))));
      } else {
        registered_.push_back(add_content(
            low_task(rng_, 0.08, 0.30, 400, 4000, 0.55, 0.95,
                     "large" + std::to_string(i))));
      }
    }
  }
  sessions_.resize(static_cast<std::size_t>(kSessions));
  history_.resize(sessions_.size());
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    Session& session = sessions_[s];
    AdmissionSession::Config cfg;
    cfg.processors = config.m;
    session.model = std::make_unique<AdmissionSession>(cfg);
    session.rng = Rng(seed * 1000003u + 17u * (s + 1));
    if (config.inline_text) {
      // Per-session pool, far below the 1024-entry memo: 40 high-density
      // DAGs and 8 low tasks. Fresh content is appended as it is drawn.
      for (int i = 0; i < 48; ++i) {
        const std::string name = task_name(s, "c", static_cast<std::size_t>(i));
        session.pool.push_back(add_content(
            i < 40 ? high_dag_task(session.rng, name)
                   : low_task(session.rng, 0.05, 0.15, 200, 2000, 0.6, 0.95,
                              name)));
      }
    } else {
      session.pool = registered_;
    }
  }
}

bool Workload::admitted_at_tie(const Session& session,
                               std::uint64_t id) const {
  const SessionVerdict v = session.model->verdict();
  const SporadicTask cand =
      content(session.content_of[id]).task.to_sequential();
  for (const auto& bin : v.shared_assignment) {
    if (std::find(bin.begin(), bin.end(), id) == bin.end()) continue;
    std::vector<SporadicTask> members;
    for (const SessionTaskId m : bin) {
      members.push_back(content(session.content_of[m]).task.to_sequential());
    }
    // The candidate's probe checks t = D_cand and every member deadline
    // above it; a tie is a breakpoint where the exact DBF* sum equals t.
    for (const SporadicTask& at : members) {
      const Time t = at.deadline;
      if (t < cand.deadline) continue;
      BigRational sum(0);
      for (const SporadicTask& mt : members) sum += dbf_approx(mt, t);
      if (sum == BigRational(t)) return true;
    }
    return false;
  }
  return false;
}

Event Workload::step(std::uint32_t s, bool force_admit) {
  Session& session = sessions_[s];
  Event ev;
  ev.session = s;
  const bool release =
      !force_admit &&
      session.residents.size() > static_cast<std::size_t>(config_.residents);
  EventOutcome out;
  if (release) {
    std::size_t pos = session.residents.size() - 1;
    if (!config_.release_newest) {
      pos = static_cast<std::size_t>(session.rng.uniform_int(
          0, static_cast<std::int64_t>(session.residents.size()) - 1));
    }
    ev.kind = EventKind::kRelease;
    ev.release_id = session.residents[pos];
    session.residents.erase(session.residents.begin() +
                            static_cast<std::ptrdiff_t>(pos));
    out = session.model->release(ev.release_id);
  } else {
    ev.kind = EventKind::kAdmit;
    if (config_.fresh_share > 0.0 &&
        session.rng.uniform01() < config_.fresh_share) {
      DagTask task =
          high_dag_task(session.rng, task_name(s, "fresh", session.fresh.size()));
      std::string text = one_task_text(task);
      ev.content = kFreshBit | (s << kFreshSessionShift) |
                   static_cast<std::uint32_t>(session.fresh.size());
      session.fresh.push_back(Content{std::move(task), std::move(text)});
    } else {
      ev.content = session.pool[static_cast<std::size_t>(
          session.rng.uniform_int(
              0, static_cast<std::int64_t>(session.pool.size()) - 1))];
    }
    session.content_of.push_back(ev.content);
    const DagTask& task = content(ev.content).task;
    out = session.model->admit(task);
    if (out.applied) {
      FEDCONS_EXPECTS(out.admitted_ids.size() == 1);
      session.residents.push_back(out.admitted_ids[0]);
      if (session.tie_checked < kTieSampleAdmits && task.is_low_density()) {
        ++session.tie_checked;
        ev.exact_tie = admitted_at_tie(session, out.admitted_ids[0]);
      }
    }
  }
  ev.applied = out.applied;
  ev.schedulable = out.schedulable;
  ev.reject = out.reject_reason;
  ev.admitted_id = out.admitted_ids.empty()
                       ? -1
                       : static_cast<std::int64_t>(out.admitted_ids[0]);
  ev.residents = static_cast<std::uint32_t>(session.model->num_residents());
  history_[s].push_back(ev);
  return ev;
}

std::vector<Event> Workload::prime() {
  std::vector<Event> out;
  const auto target = static_cast<std::size_t>(config_.residents);
  for (std::uint32_t s = 0; s < sessions_.size(); ++s) {
    // Rejected admits are part of the stream too; cap the attempts so a
    // content pool that cannot reach the target still terminates.
    for (std::size_t tries = 0;
         sessions_[s].residents.size() < target && tries < 20 * target;
         ++tries) {
      out.push_back(step(s, /*force_admit=*/true));
    }
  }
  primed_.clear();
  for (const auto& h : history_) primed_.push_back(h.size());
  return out;
}

std::vector<Event> Workload::next(std::size_t n) {
  const std::size_t sessions = sessions_.size();
  std::vector<std::vector<Event>> per(sessions);
  for (std::size_t i = 0; i < n; ++i) {
    per[(next_session_ + i) % sessions].emplace_back();
  }
  // Sessions share nothing mutable during generation (fresh content is
  // per session), so a few threads each take whole sessions.
  std::atomic<std::size_t> next_s{0};
  const auto work = [&] {
    for (std::size_t s; (s = next_s.fetch_add(1)) < sessions;) {
      for (Event& ev : per[s]) {
        ev = step(static_cast<std::uint32_t>(s), /*force_admit=*/false);
      }
    }
  };
  std::vector<std::thread> pool;
  const unsigned width = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (unsigned t = 1; t < width; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();

  std::vector<Event> out;
  out.reserve(n);
  std::vector<std::size_t> pos(sessions, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = (next_session_ + i) % sessions;
    out.push_back(per[s][pos[s]++]);
  }
  next_session_ = (next_session_ + n) % sessions;
  return out;
}

const Content& Workload::content(std::uint32_t id) const {
  if ((id & kFreshBit) == 0) return contents_[id];
  const std::uint32_t s = (id & ~kFreshBit) >> kFreshSessionShift;
  return sessions_[s].fresh[id & ((1u << kFreshSessionShift) - 1)];
}

std::vector<std::pair<std::uint64_t, std::uint32_t>> Workload::residents(
    std::uint32_t s) const {
  const Session& session = sessions_[s];
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  for (const std::uint64_t id : session.residents) {
    out.emplace_back(id, session.content_of[id]);
  }
  return out;
}

std::uint64_t Workload::tie_checked() const {
  std::uint64_t total = 0;
  for (const Session& s : sessions_) total += s.tie_checked;
  return total;
}

MinprocsMemoStats Workload::memo_stats() const {
  MinprocsMemoStats total;
  for (const Session& s : sessions_) {
    const MinprocsMemoStats st = s.model->memo_stats();
    total.hits += st.hits;
    total.misses += st.misses;
    total.evictions += st.evictions;
  }
  return total;
}

}  // namespace perfbench
