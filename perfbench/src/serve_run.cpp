// Serve workloads: a real fedcons_serve daemon driven over a unix socket by
// one open-loop client process (a sender and a receiver thread).
//
// Timing rules (lessons of an earlier, too noisy attempt; see README.md):
//  * every request is timed from its SCHEDULED send time, so a stall of the
//    daemon or of the sender shows up in every request it delays, and the
//    sender's own lateness is reported (driver.send_lag_p99_us);
//  * percentiles come from raw samples, never from log2 histograms;
//  * capacity is the highest rung of a fixed rate ladder that meets the
//    latency limit with no failed or shed request and no growing queue;
//  * set-up is the median of several full daemon launches, each confirmed
//    ready by a protocol ping.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "bench_math.h"
#include "fedcons/core/io.h"
#include "fedcons/core/task_system.h"
#include "fedcons/serve/client.h"
#include "fedcons/serve/protocol.h"
#include "fedcons/util/mini_json.h"

namespace perfbench {

using namespace fedcons;
using namespace fedcons::serve;

namespace {

/// Daemon launches per round; the run reports the median over all rounds.
constexpr int kSetupLaunches = 3;

/// Most requests the open-loop client keeps unanswered, over all its
/// connections. It stays below the daemon's default queue depth (1024), so
/// the daemon never sheds this client's requests: when the daemon falls
/// behind, requests wait in the client instead, and since every request is
/// timed from its scheduled send time, that wait is part of its latency
/// (and of driver.send_lag_p99_us). A real client bounds what it has in
/// flight the same way; without the bound, a host stall of ~20 ms at the
/// heavy rate filled the queue and shed a burst of requests in one run of
/// ten and none in the others.
constexpr std::size_t kMaxInFlight = 768;

/// A fedcons_serve daemon with its default configuration (queue depth 1024
/// included), apart from the socket and the worker count.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& socket, int threads) {
    ::unlink(socket.c_str());
    const Spawned child = spawn_reader(
        {exe, "--socket=" + socket, "--threads=" + std::to_string(threads)}, 10000);
    pid_ = child.pid;
    out_fd_ = child.out_fd;
    // Readiness: the daemon prints one line once its listener accepts.
    if (child.first_line.rfind("fedcons_serve listening", 0) != 0) {
      kill_and_reap();
      throw std::runtime_error("daemon not ready: '" + child.first_line + "'");
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  ~Daemon() { kill_and_reap(); }

  /// Peak resident set (VmHWM) in MiB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        in >> kb;
        return kb / 1024.0;
      }
      std::string rest;
      std::getline(in, rest);
    }
    return 0.0;
  }

  /// Protocol shutdown, drain the stdout pipe, reap. True on exit code 0.
  bool stop(ServeClient& ctl) {
    ServeRequest req;
    req.op = ServeOp::kShutdown;
    req.seq = 0;
    (void)ctl.call(req);
    char buf[4096];
    while (::read(out_fd_, buf, sizeof buf) > 0) {
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void kill_and_reap() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// Response fields the verdict check compares, plus the receive stamp.
struct Got {
  bool have = false;
  ServeStatus status = ServeStatus::kOk;
  bool applied = false;
  bool schedulable = false;
  std::string reject;
  std::int64_t task_id = -1;
  std::uint64_t residents = 0;
  bool multi_ids = false;
  std::uint64_t stage_queue_us = 0;
  std::int64_t recv_ns = 0;
};

/// Model task id -> daemon task id of one session. Identity until the
/// session is resynced; after that the daemon session is a fresh one that
/// holds the model's residents, so their ids map through a table and later
/// ids by a shift.
struct IdMap {
  std::map<std::uint64_t, std::uint64_t> resident;
  std::uint64_t model_base = 0;
  std::uint64_t daemon_base = 0;
  [[nodiscard]] std::uint64_t operator()(std::uint64_t model) const {
    const auto it = resident.find(model);
    return it != resident.end() ? it->second : model - model_base + daemon_base;
  }
};

/// One live daemon with its connections and session handles.
struct Live {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<ServeClient> ctl;
  std::vector<ServeClient> conns;
  std::vector<std::uint64_t> session_id;  ///< global session -> daemon id
  std::vector<IdMap> ids;                 ///< global session -> id map
  /// A shed, error or missing response since the session's last resync:
  /// the daemon skipped an event the model applied.
  std::vector<bool> desync;
};

struct Counts {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  /// Sheds on ladder rungs, which deliberately offer more than capacity: they
  /// fail the rung (the capacity rule), not the run.
  std::uint64_t probe_shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t missing = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t unchecked = 0;
  [[nodiscard]] std::uint64_t failures() const {
    return shed + errors + missing + mismatches;
  }
  Counts& operator+=(const Counts& o) {
    sent += o.sent;
    ok += o.ok;
    shed += o.shed;
    probe_shed += o.probe_shed;
    errors += o.errors;
    missing += o.missing;
    mismatches += o.mismatches;
    unchecked += o.unchecked;
    return *this;
  }
};

/// What a phase is for: a measured window, a measured window whose requests
/// ask for the stage echo, or a ladder rung.
enum class Mode { kPlain, kStages, kProbe };

class ServeDriver {
 public:
  ServeDriver(const RunOptions& opt, const WorkloadConfig& cfg,
              std::uint64_t seed)
      : opt_(opt), cfg_(cfg), workload_(cfg, seed),
        socket_(opt.work_dir + "/fcb-" + std::to_string(::getpid()) + ".sock") {
    prime_ = workload_.prime();
  }

  Workload& workload() { return workload_; }
  Counts& totals() { return totals_; }
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }
  [[nodiscard]] std::uint64_t resyncs_deferred() const { return resyncs_deferred_; }

  /// Launch, ping, open sessions, register content, replay the priming
  /// events (each verdict checked). Returns the elapsed seconds.
  double launch(std::unique_ptr<Live>& live) {
    const std::int64_t t0 = now_ns();
    live = std::make_unique<Live>();
    live->daemon =
        std::make_unique<Daemon>(opt_.daemon, socket_, cfg_.daemon_threads);
    live->ctl = std::make_unique<ServeClient>(ServeClient::connect_unix(socket_));
    ServeRequest ping;
    ping.op = ServeOp::kPing;
    ping.seq = 0;
    if (live->ctl->call(ping).status != ServeStatus::kOk) {
      throw std::runtime_error("ping failed");
    }
    // Each step below is one pipelined burst per connection: a serial
    // round trip per request would make set-up a sum of hundreds of
    // wake-up latencies.
    const int per_conn = kSessions / kConnections;
    std::vector<std::vector<ServeRequest>> burst(
        static_cast<std::size_t>(kConnections));
    for (int c = 0; c < kConnections; ++c) {
      live->conns.push_back(ServeClient::connect_unix(socket_));
    }
    live->session_id.resize(static_cast<std::size_t>(kSessions));
    live->ids.assign(static_cast<std::size_t>(kSessions), IdMap{});
    live->desync.assign(static_cast<std::size_t>(kSessions), false);
    for (int s = 0; s < kSessions; ++s) {
      ServeRequest open;
      open.op = ServeOp::kOpen;
      open.seq = static_cast<std::uint64_t>(s);
      open.m = cfg_.m;
      burst[static_cast<std::size_t>(s / per_conn)].push_back(open);
    }
    for (const ServeResponse& r : pipeline(*live, burst)) {
      if (r.status != ServeStatus::kOk || !r.has_session) {
        throw std::runtime_error("open failed: " + r.error);
      }
      live->session_id[r.seq] = r.session;
    }
    const std::size_t handles = workload_.registered().size();
    for (int c = 0; c < kConnections; ++c) {
      for (std::size_t h = 0; h < handles; ++h) {
        ServeRequest reg;
        reg.op = ServeOp::kRegister;
        reg.seq = static_cast<std::uint64_t>(c) * handles + h;
        reg.session = live->session_id[static_cast<std::size_t>(c * per_conn)];
        reg.system = workload_.content(workload_.registered()[h]).text;
        burst[static_cast<std::size_t>(c)].push_back(std::move(reg));
      }
    }
    for (const ServeResponse& r : pipeline(*live, burst)) {
      if (r.status != ServeStatus::kOk || r.content != r.seq % handles) {
        throw std::runtime_error("register failed: " + r.error);
      }
    }
    for (std::size_t i = 0; i < prime_.size(); ++i) {
      burst[prime_[i].session / static_cast<std::uint32_t>(per_conn)].push_back(
          request(*live, prime_[i], i, false));
    }
    Counts prime_counts;
    for (const ServeResponse& r : pipeline(*live, burst)) {
      check(*live, prime_.at(r.seq), to_got(r, 0), prime_counts);
    }
    totals_ += prime_counts;
    resync(*live);
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  /// Sends each connection's requests in windows of kWindow, one write per
  /// connection and window, and collects each window's responses before the
  /// next; clears the bursts. The windows of all connections together stay
  /// below the daemon's queue depth, so a burst never sheds, and their
  /// responses fit the socket buffers, so the daemon never blocks writing
  /// to one connection while this client waits on another.
  static std::vector<ServeResponse> pipeline(
      Live& live, std::vector<std::vector<ServeRequest>>& burst) {
    constexpr std::size_t kWindow = 256;
    std::vector<ServeResponse> out;
    for (std::size_t at = 0;; at += kWindow) {
      std::vector<std::size_t> sent(burst.size(), 0);
      for (std::size_t c = 0; c < burst.size(); ++c) {
        std::string bytes;
        for (std::size_t i = at; i < std::min(burst[c].size(), at + kWindow); ++i) {
          bytes += encode_frame(encode_serve_request(burst[c][i]));
          ++sent[c];
        }
        if (!bytes.empty()) live.conns[c].send_bytes(bytes);
      }
      if (std::all_of(sent.begin(), sent.end(), [](std::size_t n) { return n == 0; })) break;
      for (std::size_t c = 0; c < burst.size(); ++c) {
        for (std::size_t i = 0; i < sent[c]; ++i) out.push_back(live.conns[c].recv());
      }
    }
    for (auto& b : burst) b.clear();
    return out;
  }

  /// Measured set-up: kSetupLaunches full launches; all but the last are
  /// shut down again. Returns each launch's seconds.
  std::vector<double> measured_setup(std::unique_ptr<Live>& live) {
    std::vector<double> times;
    for (int i = 0; i < kSetupLaunches; ++i) {
      if (live) stop(live);
      times.push_back(launch(live));
    }
    return times;
  }

  void stop(std::unique_ptr<Live>& live) {
    if (!live->daemon->stop(*live->ctl)) {
      throw std::runtime_error("daemon did not exit cleanly");
    }
    live.reset();
  }

  struct PhaseResult {
    Counts counts;
    std::vector<double> latency_us;  ///< successful verdicts only
    std::vector<double> send_lag_us;
    std::vector<double> queue_wait_us;  ///< stage echo, when requested
    double wall_s = 0.0;
  };

  /// Open-loop phase: events at `rate` for `seconds`, drained afterwards;
  /// then every session that fell out of step with its model is resynced.
  PhaseResult phase(Live& live, double rate, double seconds, Mode mode,
                    std::vector<Event>* events_out = nullptr) {
    const bool stages = mode == Mode::kStages;
    const auto n = static_cast<std::size_t>(std::max(1.0, rate * seconds));
    std::vector<Event> events = workload_.next(n);
    const std::uint64_t base = next_seq_;
    next_seq_ += n;

    // Pre-encode every frame (outside the timed region).
    std::string wire;
    std::vector<std::size_t> off(n + 1);
    std::vector<std::uint8_t> conn(n);
    const int per_conn = kSessions / kConnections;
    for (std::size_t i = 0; i < n; ++i) {
      off[i] = wire.size();
      wire += encode_frame(encode_serve_request(request(live, events[i], base + i, stages)));
      conn[i] = static_cast<std::uint8_t>(events[i].session / static_cast<std::uint32_t>(per_conn));
    }
    off[n] = wire.size();

    std::vector<std::int64_t> sched(n), sent(n);
    std::vector<Got> got(n);
    const double interval_ns = 1e9 / rate;
    const std::int64_t start = now_ns() + 2'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      sched[i] = start + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    }
    std::int64_t send_done = 0;
    const std::int64_t drain_deadline =
        sched[n - 1] + 20'000'000'000LL;  // 20 s to answer the tail

    // The receiver records its failure instead of letting it escape the
    // thread; a sender failure wakes it by shutting the sockets down.
    std::string receive_error;
    std::atomic<std::size_t> answered{0};
    std::thread receiver([&] {
      try {
        receive(live, base, got, drain_deadline, answered);
      } catch (const std::exception& e) {
        receive_error = e.what();
      }
    });
    try {
      ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
      std::vector<std::string> out(live.conns.size());
      std::size_t i = 0;
      while (i < n) {
        const std::int64_t now = now_ns();
        if (sched[i] > now) {
          const timespec ts{static_cast<time_t>(sched[i] / 1'000'000'000),
                            static_cast<long>(sched[i] % 1'000'000'000)};
          ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
          continue;
        }
        const std::size_t in_flight = i - answered.load(std::memory_order_acquire);
        if (in_flight >= kMaxInFlight) {
          if (now > drain_deadline) throw std::runtime_error("daemon stopped answering");
          const timespec pause{0, 20'000};
          ::nanosleep(&pause, nullptr);
          continue;
        }
        std::size_t j = i;
        while (j < n && sched[j] <= now && j - i < kMaxInFlight - in_flight) {
          out[conn[j]].append(wire, off[j], off[j + 1] - off[j]);
          ++j;
        }
        for (std::size_t c = 0; c < out.size(); ++c) {
          if (!out[c].empty()) {
            live.conns[c].send_bytes(out[c]);
            out[c].clear();
          }
        }
        const std::int64_t after = now_ns();
        for (std::size_t k = i; k < j; ++k) sent[k] = after;
        i = j;
      }
      send_done = now_ns();
    } catch (...) {
      for (ServeClient& c : live.conns) ::shutdown(c.fd(), SHUT_RDWR);
      receiver.join();
      throw;
    }
    receiver.join();
    if (!receive_error.empty()) {
      throw std::runtime_error("receiving responses: " + receive_error);
    }

    PhaseResult res;
    res.wall_s = static_cast<double>(send_done - start) / 1e9;
    res.latency_us.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Got& g = got[i];
      res.send_lag_us.push_back(static_cast<double>(sent[i] - sched[i]) / 1000.0);
      check(live, events[i], g, res.counts);
      if (g.have && g.status == ServeStatus::kOk) {
        res.latency_us.push_back(static_cast<double>(g.recv_ns - sched[i]) / 1000.0);
        if (stages) res.queue_wait_us.push_back(static_cast<double>(g.stage_queue_us));
      }
    }
    if (mode == Mode::kProbe) std::swap(res.counts.shed, res.counts.probe_shed);
    totals_ += res.counts;
    resync(live);
    if (events_out != nullptr) *events_out = std::move(events);
    return res;
  }

  /// Raw counters of the daemon's stats op.
  std::map<std::string, double> stats(Live& live) {
    ServeRequest req;
    req.op = ServeOp::kStats;
    req.seq = 0;
    const ServeResponse r = live.ctl->call(req);
    std::map<std::string, double> out;
    for (const auto& [k, v] : parse_mini_json(r.raw)) {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (end != v.c_str() && *end == '\0') out[k] = d;
    }
    return out;
  }

 private:
  ServeRequest request(const Live& live, const Event& ev, std::uint64_t seq,
                       bool stages) const {
    ServeRequest req;
    req.seq = seq;
    req.session = live.session_id[ev.session];
    req.echo_stages = stages;
    if (ev.kind == EventKind::kAdmit) {
      req.op = ServeOp::kAdmit;
      if (cfg_.inline_text) {
        req.system = workload_.content(ev.content).text;
      } else {
        req.has_content = true;
        req.content = ev.content;  // registered in content order
      }
    } else {
      req.op = ServeOp::kRelease;
      req.release_ids = {static_cast<SessionTaskId>(live.ids[ev.session](ev.release_id))};
    }
    return req;
  }

  static Got to_got(const ServeResponse& r, std::int64_t at) {
    Got g;
    g.have = true;
    g.status = r.status;
    g.applied = r.applied;
    g.schedulable = r.schedulable;
    g.reject = r.reject;
    g.task_id = r.task_ids.empty() ? -1 : static_cast<std::int64_t>(r.task_ids[0]);
    g.multi_ids = r.task_ids.size() > 1;
    g.residents = r.residents;
    g.stage_queue_us = r.stage_queue_us;
    g.recv_ns = at;
    return g;
  }

  /// Compare one response with the model's outcome. After a session's
  /// first shed, missing response or error, its later responses until the
  /// resync are not comparable (the daemon skipped an event the model
  /// applied): they count as unchecked, errors included, since an error
  /// can be the skipped event's consequence.
  void check(Live& live, const Event& ev, const Got& g, Counts& c) {
    ++c.sent;
    if (!g.have) {
      ++c.missing;
      live.desync[ev.session] = true;
      return;
    }
    if (g.status == ServeStatus::kRetryAfter) {
      ++c.shed;
      live.desync[ev.session] = true;
      return;
    }
    if (live.desync[ev.session]) {
      ++c.unchecked;
      return;
    }
    if (g.status == ServeStatus::kError) {
      ++c.errors;
      live.desync[ev.session] = true;
      return;
    }
    const std::int64_t want_id =
        ev.admitted_id < 0
            ? -1
            : static_cast<std::int64_t>(
                  live.ids[ev.session](static_cast<std::uint64_t>(ev.admitted_id)));
    const bool match = g.applied == ev.applied &&
                       g.schedulable == ev.schedulable &&
                       g.reject == to_string(ev.reject) &&
                       g.task_id == want_id && !g.multi_ids &&
                       g.residents == ev.residents;
    if (match) {
      ++c.ok;
    } else {
      ++c.mismatches;
    }
  }

  /// Brings every desynced session back in step with its model: opens a
  /// fresh daemon session on the same connection and swaps in the model's
  /// residents, in admission order, as one system. A session equals the
  /// batch analysis of its residents in admission order, so the fresh
  /// session's verdicts match the model's from here on; its task ids
  /// differ, hence the id map. (Admitting the residents one by one would
  /// not do: under deadline-ordered first-fit a prefix of a schedulable set
  /// can fail.) A model left in a failed state by a release (the first-fit
  /// anomaly) cannot be swapped in; that session stays desynced and is
  /// tried again after the next phase.
  void resync(Live& live) {
    const std::uint32_t per_conn = kSessions / kConnections;
    std::vector<std::vector<ServeRequest>> burst(kConnections);
    for (std::uint32_t s = 0; s < kSessions; ++s) {
      if (!live.desync[s]) continue;
      ServeRequest open;
      open.op = ServeOp::kOpen;
      open.seq = s;
      open.m = cfg_.m;
      burst[s / per_conn].push_back(open);
    }
    for (const ServeResponse& r : pipeline(live, burst)) {
      if (r.status != ServeStatus::kOk || !r.has_session) {
        throw std::runtime_error("resync open failed: " + r.error);
      }
      live.session_id[r.seq] = r.session;
    }
    std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>> residents(kSessions);
    for (std::uint32_t s = 0; s < kSessions; ++s) {
      if (!live.desync[s]) continue;
      residents[s] = workload_.residents(s);
      live.ids[s] = IdMap{{}, workload_.next_task_id(s), residents[s].size()};
      if (residents[s].empty()) {
        live.desync[s] = false;
        ++resyncs_;
        continue;
      }
      std::vector<DagTask> tasks;
      for (const auto& [id, content] : residents[s]) {
        tasks.push_back(workload_.content(content).task);
      }
      ServeRequest swap;
      swap.op = ServeOp::kSwap;
      swap.seq = s;
      swap.session = live.session_id[s];
      swap.system = serialize_task_system(TaskSystem(std::move(tasks)));
      burst[s / per_conn].push_back(std::move(swap));
    }
    for (const ServeResponse& r : pipeline(live, burst)) {
      if (r.status != ServeStatus::kOk) {
        throw std::runtime_error("resync swap failed: " + r.error);
      }
      const auto s = static_cast<std::uint32_t>(r.seq);
      if (r.applied != workload_.schedulable(s)) {
        ++totals_.mismatches;  // the daemon judged the resident set otherwise
        continue;
      }
      if (!r.applied) {  // a failed model state: retried after the next phase
        ++resyncs_deferred_;
        continue;
      }
      const std::vector<std::pair<std::uint64_t, std::uint32_t>>& res = residents[s];
      // A fresh session numbers the swap's tasks 0, 1, ... in order.
      if (r.task_ids.size() != res.size()) {
        throw std::runtime_error("resync swap returned the wrong ids");
      }
      for (std::size_t i = 0; i < res.size(); ++i) {
        if (r.task_ids[i] != i) throw std::runtime_error("resync swap returned the wrong ids");
        live.ids[s].resident[res[i].first] = i;
      }
      live.desync[s] = false;
      ++resyncs_;
    }
  }

  void receive(Live& live, std::uint64_t base, std::vector<Got>& got,
               std::int64_t deadline, std::atomic<std::size_t>& answered) {
    const std::size_t n = got.size();
    std::vector<pollfd> fds;
    std::vector<FrameDecoder> dec(live.conns.size());
    for (ServeClient& c : live.conns) fds.push_back({c.fd(), POLLIN, 0});
    std::size_t received = 0;
    std::string payload;
    std::vector<char> buf(1 << 16);
    while (received < n && now_ns() < deadline) {
      if (::poll(fds.data(), fds.size(), 50) <= 0) continue;
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t r = ::read(fds[c].fd, buf.data(), buf.size());
        if (r <= 0) return;  // daemon gone: the rest count as missing
        const std::int64_t at = now_ns();
        dec[c].feed(buf.data(), static_cast<std::size_t>(r));
        while (dec[c].next(payload)) {
          const ServeResponse resp = parse_serve_response(payload);
          if (resp.seq < base || resp.seq - base >= n) continue;
          Got& g = got[resp.seq - base];
          if (g.have) continue;
          g = to_got(resp, at);
          ++received;
        }
        answered.store(received, std::memory_order_release);
      }
    }
  }

  const RunOptions& opt_;
  const WorkloadConfig& cfg_;
  Workload workload_;
  std::string socket_;
  std::vector<Event> prime_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t resyncs_ = 0;
  std::uint64_t resyncs_deferred_ = 0;
  Counts totals_;
};

/// The tail percentile the end-to-end latencies and the capacity limit use.
/// Not p99: host stalls of 1-10 ms arrive a few times a second here, and a
/// p99 over seconds of samples measured them (60-120% run-to-run spread).
constexpr double kTailPct = 90.0;

/// Tail percentiles are sliced_percentile over slices of ~1000 samples
/// (ten samples beyond each slice's p99), at most 10 slices a window.
double tail(const std::vector<double>& v, double q) {
  return sliced_percentile(
      v, q, static_cast<int>(std::clamp<std::size_t>(v.size() / 1000, 1, 10)));
}
/// Samples per rung: five slices.
constexpr double kRungSamples = 5000;

/// The capacity ladder: rung k offers base * (0.3 + 0.05k); the staircase
/// starts at rung 8 (0.7x the base rate) and stops at rung 64 (3.5x).
constexpr int kFirstRung = 8;
constexpr int kTopRung = 64;
double ladder_rate(const WorkloadConfig& cfg, double rung) {
  return cfg.ladder_base * (0.30 + 0.05 * rung);
}

/// Measures the next `count` rungs of the staircase on one daemon. A rung
/// lasts long enough for kRungSamples. `between` runs before every rung
/// (the fixed-rate pieces interleave with the rungs so that both spread
/// over the whole run).
void climb(ServeDriver& d, Live& live, const WorkloadConfig& cfg,
           double min_rung_s, int count, Staircase& stairs,
           const std::function<void()>& between) {
  for (int i = 0; i < count; ++i) {
    between();
    const double rate = ladder_rate(cfg, stairs.rung());
    auto r = d.phase(live, rate, std::max(min_rung_s, kRungSamples / rate), Mode::kProbe);
    const std::size_t n = r.latency_us.size();
    // The growth term is the median over five slices of the second half of
    // each slice's median: a growing queue raises every slice, while the
    // backlog of one host stall near the end raises only the last one or
    // two. (Close to capacity that backlog takes hundreds of milliseconds
    // to work off; a median over the last fifth read 8.5 ms on one such
    // rung at 92.7k/s, and 1.4 ms on the same rung measured again.)
    const std::vector<double> second_half(
        r.latency_us.begin() + static_cast<std::ptrdiff_t>(n - n / 2),
        r.latency_us.end());
    const Rung rung{n == 0 ? 1e12
                           : std::max(tail(r.latency_us, kTailPct),
                                      sliced_percentile(second_half, 50.0, 5)),
                    r.counts.failures(), r.counts.probe_shed};
    stairs.record(rung_passes(rung, kTailLimitUs));
  }
}

}  // namespace

void run_serve(const RunOptions& opt, const WorkloadConfig& cfg,
               Report& report) {
  const double s = opt.seconds;
  Counts t;
  std::uint64_t admits = 0, rejects = 0, inline_parses = 0, ties = 0, tie_checked = 0;
  MinprocsMemoStats memo;
  std::uint64_t resyncs = 0, resyncs_deferred = 0;
  const auto account = [&](ServeDriver& d) {
    t += d.totals();
    resyncs += d.resyncs();
    resyncs_deferred += d.resyncs_deferred();
    for (const auto& stream : d.workload().history()) {
      for (const Event& ev : stream) {
        ties += ev.exact_tie ? 1 : 0;
        if (ev.kind != EventKind::kAdmit) continue;
        ++admits;
        if (!ev.applied) ++rejects;
        if (cfg.inline_text) ++inline_parses;
      }
    }
    tie_checked += d.workload().tie_checked();
    const MinprocsMemoStats st = d.workload().memo_stats();
    memo.hits += st.hits;
    memo.misses += st.misses;
  };

  if (!opt.trace) {
    // Host speed drifts by ~10% over seconds and stalls come in bursts, so
    // nothing is measured in one stretch: each of kRounds rounds runs its
    // own daemon on its own seeded event stream, and within a round a short
    // light piece and heavy piece precede every ladder rung. Latencies are
    // calm() over pieces of each piece's exact percentile; capacity comes
    // from one staircase that carries on from round to round; set-up and
    // RSS take the median over launches and rounds.
    constexpr int kRounds = 3;
    constexpr int kRungsPerRound = 5;
    std::vector<double> setups, rss;
    std::vector<double> light, heavy, lag;
    std::vector<double> light_p50, light_p90, heavy_p90, light_p99, heavy_p99;
    Staircase stairs(kFirstRung, kTopRung);
    // A light piece holds >= 300 samples, so its p90 has 30 beyond it.
    const double light_s = std::max(0.02 * s, 300.0 / cfg.light_rate());
    // An unmeasured first round. The first daemon a run drives answered
    // ~25% slower for its whole life (light p50 ~245 against ~190 us on
    // admit-small) however long it was warmed up, and so skewed one round
    // in three; a daemon launched after it does not.
    {
      ServeDriver d(opt, cfg, opt.seed * (kRounds + 1) + kRounds);
      std::unique_ptr<Live> live;
      (void)d.measured_setup(live);
      (void)d.phase(*live, cfg.heavy_rate(), 2.0, Mode::kPlain);
      d.stop(live);
      account(d);
    }
    for (int round = 0; round < kRounds; ++round) {
      ServeDriver d(opt, cfg, opt.seed * (kRounds + 1) + static_cast<std::uint64_t>(round));
      std::unique_ptr<Live> live;
      for (double v : d.measured_setup(live)) setups.push_back(v);
      // Warm-up at the heavy rate (unmeasured): allocator, memo, caches.
      (void)d.phase(*live, cfg.heavy_rate(), 0.3, Mode::kPlain);
      const auto pieces = [&] {
        auto l = d.phase(*live, cfg.light_rate(), light_s, Mode::kPlain);
        auto h = d.phase(*live, cfg.heavy_rate(), 0.0125 * s, Mode::kPlain);
        light.insert(light.end(), l.latency_us.begin(), l.latency_us.end());
        heavy.insert(heavy.end(), h.latency_us.begin(), h.latency_us.end());
        lag.insert(lag.end(), h.send_lag_us.begin(), h.send_lag_us.end());
        light_p50.push_back(percentile(l.latency_us, 50.0));
        light_p90.push_back(percentile(l.latency_us, kTailPct));
        light_p99.push_back(percentile(l.latency_us, 99.0));
        heavy_p90.push_back(percentile(h.latency_us, kTailPct));
        heavy_p99.push_back(percentile(h.latency_us, 99.0));
      };
      pieces();
      // Peak RSS before the ladder: its overloaded last rung would make the
      // peak a measure of how deep that rung's backlog happened to get.
      rss.push_back(live->daemon->peak_rss_mb());
      climb(d, *live, cfg, 0.025 * s, kRungsPerRound, stairs, pieces);
      d.stop(live);
      account(d);
    }
    report.metric("setup_s", median(setups), "s");
    report.metric("p50_us", calm(light_p50), "us");
    report.metric("p90_us", calm(light_p90), "us");
    report.metric("p90_heavy_us", calm(heavy_p90), "us");
    // A staircase that never left its coarse ascent passed every rung it
    // tried; its next rung is then the floor it reports.
    report.metric("capacity_vps",
                  ladder_rate(cfg, stairs.steps() > 0 ? stairs.capacity_rung()
                                                      : stairs.rung()),
                  "1/s");
    report.metric("peak_rss_mb", median(rss), "MiB");
    report.note("p99_us", calm(light_p99), "us");
    report.note("p99_heavy_us", calm(heavy_p99), "us");
    // Health figures over every sample of the run: calm() cannot see a
    // stall that hits fewer than a quarter of the pieces, these do.
    report.note("pooled_p99_us", percentile(light, 99.0), "us");
    report.note("pooled_p99_heavy_us", percentile(heavy, 99.0), "us");
    report.note("light_samples", static_cast<double>(light.size()), "count");
    report.note("heavy_samples", static_cast<double>(heavy.size()), "count");
    report.note("pieces", static_cast<double>(light_p90.size()), "count");
    report.note("setup_launches", static_cast<double>(setups.size()), "count");
    report.note("ladder_rungs", kRounds * kRungsPerRound, "count");
    report.note("staircase_steps", static_cast<double>(stairs.steps()), "count");
    // 1 when the top rung passed: capacity is then a floor.
    report.note("ladder_capped", stairs.capped() ? 1.0 : 0.0, "count");
    report.note("send_lag_p99_us", percentile(lag, 99.0), "us");
  } else {
    ServeDriver d(opt, cfg, opt.seed);
    std::unique_ptr<Live> live;
    (void)d.launch(live);
    (void)d.phase(*live, cfg.heavy_rate(), 0.3, Mode::kPlain);
    auto plain = d.phase(*live, cfg.heavy_rate(), 0.2 * s, Mode::kPlain);
    const auto before = d.stats(*live);
    std::vector<Event> heavy_events;
    auto traced = d.phase(*live, cfg.heavy_rate(), 0.2 * s, Mode::kStages, &heavy_events);
    const auto after = d.stats(*live);
    d.stop(live);

    const auto delta = [&](const char* k) {
      const auto a = after.find(k);
      const auto b = before.find(k);
      return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
    };
    const double enq = delta("requests_enqueued");
    const double shed = delta("requests_shed");
    const double verdicts = std::max(1.0, enq);
    const double handle = delta("handle_us") / verdicts;
    report.metric("serve.reader_us_per_verdict", delta("reader_busy_us") / verdicts, "us");
    report.metric("serve.write_us_per_verdict", delta("write_us") / verdicts, "us");
    report.metric("serve.handle_us_per_verdict", handle, "us");
    report.metric("serve.batch_size_mean", enq / std::max(1.0, delta("batches")), "count");
    report.metric("serve.dispatch_busy_share",
                  delta("dispatch_busy_us") / std::max(1.0, traced.wall_s * 1e6), "share");
    report.metric("serve.queue_wait_p99_us", percentile(traced.queue_wait_us, 99.0), "us");
    report.metric("serve.shed_share", shed / std::max(1.0, enq + shed), "share");
    const double plain_mean = mean(plain.latency_us);
    report.metric("obs.trace_overhead_share",
                  plain_mean > 0 ? mean(traced.latency_us) / plain_mean - 1.0 : 0.0,
                  "share");
    report.metric("driver.send_lag_p99_us", percentile(traced.send_lag_us, 99.0), "us");
    SpanRecorder spans;
    serve_layers(d.workload(), heavy_events, ServeLayerInputs{handle}, spans, report);
    spans.write_jsonl(opt.work_dir + "/spans-" + cfg.name + ".jsonl");
    account(d);
  }

  report.attempted = t.sent;
  report.succeeded = t.ok;
  report.failed = t.failures();
  report.mismatches = t.mismatches;
  report.correct = t.mismatches == 0 && t.errors == 0 && t.missing == 0;
  report.note("requests_shed", static_cast<double>(t.shed), "count");
  report.note("ladder_sheds", static_cast<double>(t.probe_shed), "count");
  report.note("sessions_resynced", static_cast<double>(resyncs), "count");
  // Resyncs put off because the model sat in a failed state.
  report.note("resyncs_deferred", static_cast<double>(resyncs_deferred), "count");
  report.note("verdict_mismatches", static_cast<double>(t.mismatches), "count");
  report.note("verdicts_unchecked", static_cast<double>(t.unchecked), "count");
  // Property shares of the generated streams (model outcomes).
  report.note("prop.memo_hit_share",
              memo.hits + memo.misses > 0
                  ? static_cast<double>(memo.hits) / static_cast<double>(memo.hits + memo.misses)
                  : 0.0,
              "share");
  report.note("prop.exact_tie_share",
              tie_checked > 0 ? static_cast<double>(ties) / static_cast<double>(tie_checked) : 0.0,
              "share");
  report.note("prop.reject_share",
              admits > 0 ? static_cast<double>(rejects) / static_cast<double>(admits) : 0.0,
              "share");
  report.note("prop.inline_parse_count", static_cast<double>(inline_parses), "count");
}

}  // namespace perfbench
