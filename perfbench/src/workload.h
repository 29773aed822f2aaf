// Workload definitions and the seeded event streams they generate.
//
// Every serve workload is a set of sessions; each session's events come from
// its own seeded stream and are applied, as they are generated, to an
// in-process AdmissionSession (the model). The model's outcome is the
// expected daemon response, so the event stream can pick valid release ids
// ahead of time (an open-loop client cannot wait for admit responses) and
// every daemon verdict is checked against the library's own answer.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fedcons/core/dag_task.h"
#include "fedcons/online/admission_session.h"
#include "fedcons/util/rng.h"

namespace perfbench {

/// Sessions of every serve workload, split evenly across kConnections
/// client connections.
inline constexpr int kSessions = 8;
inline constexpr int kConnections = 2;

/// Fixed parameters of one workload (see README.md for why each exists).
struct WorkloadConfig {
  std::string name;
  bool serve = true;          ///< false: the batch sweep
  int m = 8;                  ///< processors per session
  int residents = 4;          ///< steady-state resident target per session
  bool inline_text = false;   ///< admits carry task text instead of a handle
  bool release_newest = true; ///< churn: release newest, else a random one
  int daemon_threads = 1;     ///< fedcons_serve --threads
  double fresh_share = 0.0;   ///< admits drawing never-seen content
  /// Verdicts/s the workload sustained when the benchmark was introduced;
  /// capacity ladder rung k offers base * (0.3 + 0.05k).
  double ladder_base = 0.0;
  /// The fixed rates: 10% and 30% of the ladder base.
  [[nodiscard]] double light_rate() const { return 0.1 * ladder_base; }
  [[nodiscard]] double heavy_rate() const { return 0.3 * ladder_base; }
};

/// The p90 latency limit that defines every serve workload's capacity. It
/// sits at the knee of every serve workload's latency curve: at 1 ms (below
/// the knee, where latency rises slowly with rate) host noise moved the
/// crossing rate by +-50%.
inline constexpr double kTailLimitUs = 5000.0;

/// The four workloads; nullptr for an unknown name.
[[nodiscard]] const WorkloadConfig* find_workload(const std::string& name);

/// One task content: the task and its serialized one-task system text.
struct Content {
  fedcons::DagTask task;
  std::string text;
};

enum class EventKind : std::uint8_t { kAdmit, kRelease };

/// One session event plus the model's (expected) outcome.
struct Event {
  EventKind kind = EventKind::kAdmit;
  std::uint32_t session = 0;   ///< global session index
  std::uint32_t content = 0;   ///< admit: index into Workload::contents
  std::uint64_t release_id = 0;
  // Expected response, from the model.
  bool applied = false;
  bool schedulable = false;
  fedcons::FedconsFailure reject = fedcons::FedconsFailure::kNone;
  std::int64_t admitted_id = -1;  ///< -1: no id in task_ids
  std::uint32_t residents = 0;
  bool exact_tie = false;  ///< see Workload::tie_sample_admits
};

/// Generator state of a whole workload.
class Workload {
 public:
  Workload(const WorkloadConfig& config, std::uint64_t seed);

  [[nodiscard]] const WorkloadConfig& config() const { return config_; }
  /// Content registered on every connection, in handle order (empty for
  /// inline workloads).
  [[nodiscard]] const std::vector<std::uint32_t>& registered() const {
    return registered_;
  }
  /// Content by Event::content id: the shared pool, or a session's fresh
  /// content (ids with kFreshBit set).
  [[nodiscard]] const Content& content(std::uint32_t id) const;
  /// Size of the shared pool (ids 0 .. num_contents()-1).
  [[nodiscard]] std::size_t num_contents() const { return contents_.size(); }

  /// Events that bring every session to its resident target (session by
  /// session, in session order).
  [[nodiscard]] std::vector<Event> prime();
  /// The next n steady-state events, round-robin across sessions. The
  /// sessions' streams are independent, so they are generated in parallel;
  /// the result depends only on the seed.
  [[nodiscard]] std::vector<Event> next(std::size_t n);

  /// Every event generated so far, per session, in generation order — the
  /// recorded stream the traced run replays in process.
  [[nodiscard]] const std::vector<std::vector<Event>>& history() const {
    return history_;
  }
  /// Sum of the models' memo statistics.
  [[nodiscard]] fedcons::MinprocsMemoStats memo_stats() const;
  /// Accepted low-density admits whose exact-tie flag was computed.
  [[nodiscard]] std::uint64_t tie_checked() const;
  /// A session's model residents in admission order: (task id, content id).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint32_t>> residents(
      std::uint32_t s) const;
  /// Whether the session's model is in a schedulable state now.
  [[nodiscard]] bool schedulable(std::uint32_t s) const {
    return sessions_[s].model->verdict().success;
  }
  /// The task id the model assigns to the session's next admit (ids are
  /// sequential per session, rejected admits included).
  [[nodiscard]] std::uint64_t next_task_id(std::uint32_t s) const {
    return sessions_[s].content_of.size();
  }
  /// Events per session that prime() produced (the head of history()).
  [[nodiscard]] std::size_t primed(std::uint32_t s) const { return primed_[s]; }

  /// The exact-tie flag is computed (with dbf_approx, on the model's bin
  /// assignment) for the first this-many accepted low-density admits of
  /// each session only; it costs far more than the event itself.
  static constexpr std::uint64_t kTieSampleAdmits = 500;

 private:
  struct Session {
    std::unique_ptr<fedcons::AdmissionSession> model;
    fedcons::Rng rng{0};
    std::vector<std::uint64_t> residents;  ///< admission order
    std::vector<std::uint32_t> pool;       ///< content indices
    std::vector<std::uint32_t> content_of;  ///< by session task id
    std::deque<Content> fresh;  ///< never-seen content drawn by this session
    std::uint64_t tie_checked = 0;
  };
  static constexpr std::uint32_t kFreshBit = 1u << 31;
  static constexpr int kFreshSessionShift = 20;

  Event step(std::uint32_t s, bool force_admit);
  bool admitted_at_tie(const Session& session, std::uint64_t id) const;
  std::uint32_t add_content(fedcons::DagTask task);

  WorkloadConfig config_;
  fedcons::Rng rng_;
  std::vector<Content> contents_;
  std::vector<std::uint32_t> registered_;
  std::vector<Session> sessions_;
  std::vector<std::vector<Event>> history_;
  std::vector<std::size_t> primed_;
  std::size_t next_session_ = 0;
};

}  // namespace perfbench
