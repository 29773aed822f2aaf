#include "fedcons/listsched/ls_workspace.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/util/check.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

namespace {
constexpr std::uint32_t kNoVertex = 0xffffffffu;
}  // namespace

LsWorkspace& thread_ls_workspace() noexcept {
  thread_local LsWorkspace workspace;
  return workspace;
}

std::uint64_t& workspace_reuse_count() noexcept {
  thread_local std::uint64_t reuses = 0;
  return reuses;
}

void ls_prepare(LsWorkspace& ws, const Dag& dag, ListPolicy policy,
                bool use_reduced_graph) {
  FEDCONS_EXPECTS(!dag.empty());
  const std::size_t n = dag.num_vertices();
  const auto succ_of = [&dag, use_reduced_graph](std::size_t i) {
    const auto v = static_cast<VertexId>(i);
    return use_reduced_graph ? dag.reduced_successors(v) : dag.successors(v);
  };
  ws.wcets.resize(n);
  ws.max_wcet = 1;
  for (std::size_t i = 0; i < n; ++i) {
    ws.wcets[i] = dag.wcet(static_cast<VertexId>(i));
    if (ws.wcets[i] > ws.max_wcet) ws.max_wcet = ws.wcets[i];
  }

  // Flatten successor lists to CSR: the completion edge loop is the single
  // hottest loop of a MINPROCS scan and runs over this image once per probe.
  // The in-degree template is recounted from the same edge set so that
  // remaining_preds hits zero exactly when the (possibly reduced) CSR's
  // decrements do.
  ws.succ_off.resize(n + 1);
  ws.succ_off[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ws.succ_off[i + 1] =
        ws.succ_off[i] + static_cast<std::uint32_t>(succ_of(i).size());
  }
  ws.succ_flat.resize(ws.succ_off[n]);
  ws.init_preds.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t k = ws.succ_off[i];
    for (VertexId s : succ_of(i)) {
      ws.succ_flat[k++] = s;
      ++ws.init_preds[s];
    }
  }
  // Half-width image for the common n ≤ 2^16 case: the edge loop streams the
  // whole CSR once per probe, so halving its footprint halves that traffic.
  if (n <= 0x10000) {
    ws.succ_flat16.resize(ws.succ_flat.size());
    for (std::size_t k = 0; k < ws.succ_flat.size(); ++k) {
      ws.succ_flat16[k] = static_cast<std::uint16_t>(ws.succ_flat[k]);
    }
  } else {
    ws.succ_flat16.clear();
  }

  ws.ready_pos.resize(n);
  ws.pos_to_v.resize(n);
  if (policy == ListPolicy::kVertexOrder) {
    // All primary keys equal: the (key, id) order is the id order.
    for (std::size_t i = 0; i < n; ++i) {
      ws.ready_pos[i] = static_cast<std::uint32_t>(i);
      ws.pos_to_v[i] = static_cast<std::uint32_t>(i);
    }
    return;
  }
  ws.keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<VertexId>(i);
    switch (policy) {
      case ListPolicy::kVertexOrder: ws.keys[i] = 0; break;
      case ListPolicy::kCriticalPath: ws.keys[i] = -dag.bottom_level(v); break;
      case ListPolicy::kLongestWcet: ws.keys[i] = -dag.wcet(v); break;
    }
  }
  // Priority position = index in the (key, id) sort — the exact order the
  // reference comparator pops in, collapsed to a dense integer so the ready
  // queue can be a bitset.
  std::iota(ws.pos_to_v.begin(), ws.pos_to_v.end(), 0u);
  const Time* keys = ws.keys.data();
  std::sort(ws.pos_to_v.begin(), ws.pos_to_v.end(),
            [keys](std::uint32_t a, std::uint32_t b) {
              if (keys[a] != keys[b]) return keys[a] < keys[b];
              return a < b;
            });
  for (std::size_t p = 0; p < n; ++p) {
    ws.ready_pos[ws.pos_to_v[p]] = static_cast<std::uint32_t>(p);
  }
}

namespace {

// Shared per-run cursors over the bitsets in LsWorkspace.
struct RunState {
  std::size_t free_count = 0;
  std::size_t free_lo = 0;   // lowest free_mask word that may have a set bit
  std::size_t ready_count = 0;
  std::size_t ready_lo = 0;  // lowest ready_mask word that may have a set bit
};

int pop_lowest_free(LsWorkspace& ws, RunState& rs) noexcept {
  for (;; ++rs.free_lo) {
    if (const std::uint64_t word = ws.free_mask[rs.free_lo]; word != 0) {
      const int bit = std::countr_zero(word);
      ws.free_mask[rs.free_lo] &= word - 1;  // clear lowest set bit
      --rs.free_count;
      return static_cast<int>(rs.free_lo * 64) + bit;
    }
  }
}

void release_proc(LsWorkspace& ws, RunState& rs, std::int32_t proc) noexcept {
  const auto w = static_cast<std::size_t>(proc) / 64;
  ws.free_mask[w] |= std::uint64_t{1} << (static_cast<std::size_t>(proc) % 64);
  ++rs.free_count;
  if (w < rs.free_lo) rs.free_lo = w;
}

std::uint32_t pop_lowest_ready(LsWorkspace& ws, RunState& rs) noexcept {
  for (;; ++rs.ready_lo) {
    if (const std::uint64_t word = ws.ready_mask[rs.ready_lo]; word != 0) {
      const int bit = std::countr_zero(word);
      ws.ready_mask[rs.ready_lo] &= word - 1;
      --rs.ready_count;
      return static_cast<std::uint32_t>(rs.ready_lo * 64 + bit);
    }
  }
}

void push_ready(LsWorkspace& ws, RunState& rs, std::uint32_t pos) noexcept {
  const std::size_t w = pos / 64;
  ws.ready_mask[w] |= std::uint64_t{1} << (pos % 64);
  ++rs.ready_count;
  if (w < rs.ready_lo) rs.ready_lo = w;
}

// Decrement in-degrees of v's successors, releasing the newly ready.
inline void complete_vertex(LsWorkspace& ws, RunState& rs,
                            std::uint32_t v) noexcept {
  release_proc(ws, rs, ws.proc_of[v]);
  std::uint32_t* rp = ws.remaining_preds.data();
  const VertexId* flat = ws.succ_flat.data();
  const VertexId* q = flat + ws.succ_off[v];
  const VertexId* e = flat + ws.succ_off[v + 1];
  for (; q != e; ++q) {
    const VertexId s = *q;
    if (--rp[s] == 0) push_ready(ws, rs, ws.ready_pos[s]);
  }
}

// Timing-wheel main loop: O(1) running-queue push, one short bitmap scan per
// completion instant, batch drain in bucket order (sound: completions at one
// instant commute — see the header). Everything is accessed through local
// raw pointers: the compiler cannot prove the bitset stores don't alias the
// workspace's vector control blocks, so member access would reload every
// data pointer each iteration of the hot loops.
template <typename SuccT>
Time run_wheel(LsWorkspace& ws, RunState& rs, std::span<const Time> exec_times,
               std::size_t n, std::size_t bucket_count,
               const SuccT* succ_flat) {
  const std::size_t bucket_mask = bucket_count - 1;
  const std::size_t mask_words = bucket_count / 64;
  const Time* exec = exec_times.data();
  const std::uint32_t* pos_to_v = ws.pos_to_v.data();
  const std::uint32_t* succ_off = ws.succ_off.data();
  const std::uint32_t* ready_pos = ws.ready_pos.data();
  std::uint32_t* rp = ws.remaining_preds.data();
  std::uint64_t* ready_mask = ws.ready_mask.data();
  std::uint32_t* wheel_head = ws.wheel_head.data();
  std::uint32_t* wheel_next = ws.wheel_next.data();
  std::uint64_t* wheel_mask = ws.wheel_mask.data();
  std::uint64_t* free_mask = ws.free_mask.data();
  std::int32_t* proc_of = ws.proc_of.data();
  ScheduledJob* jobs = ws.jobs.data();

  std::size_t free_count = rs.free_count;
  std::size_t free_lo = rs.free_lo;
  std::size_t ready_count = rs.ready_count;
  std::size_t ready_lo = rs.ready_lo;

  Time now = 0;
  Time makespan = 0;
  std::size_t scheduled = 0;
  std::size_t completed = 0;
  while (scheduled < n) {
    // Dispatch: work-conserving — pair the k-th smallest ready position with
    // the k-th lowest idle processor index.
    while (free_count > 0 && ready_count > 0) {
      while (ready_mask[ready_lo] == 0) ++ready_lo;
      const std::uint64_t rw = ready_mask[ready_lo];
      const auto pos =
          static_cast<std::uint32_t>(ready_lo * 64) +
          static_cast<std::uint32_t>(std::countr_zero(rw));
      ready_mask[ready_lo] = rw & (rw - 1);
      --ready_count;
      const std::uint32_t v = pos_to_v[pos];
      while (free_mask[free_lo] == 0) ++free_lo;
      const std::uint64_t fw = free_mask[free_lo];
      const int proc = static_cast<int>(free_lo * 64) + std::countr_zero(fw);
      free_mask[free_lo] = fw & (fw - 1);
      --free_count;
      const Time finish = checked_add(now, exec[v]);
      jobs[scheduled] = ScheduledJob{v, proc, now, finish};
      proc_of[v] = proc;
      const auto b = static_cast<std::size_t>(finish) & bucket_mask;
      wheel_next[v] = wheel_head[b];
      wheel_head[b] = v;
      wheel_mask[b / 64] |= std::uint64_t{1} << (b % 64);
      if (finish > makespan) makespan = finish;
      ++scheduled;
    }
    if (scheduled == n) break;
    FEDCONS_ASSERT(completed < scheduled);  // else: cycle (excluded)
    // Advance to the next completion instant: all in-flight finishes lie in
    // (now, now + B), so scanning the bucket bitmap from position
    // (now+1) mod B, wrapping once, finds the earliest.
    const std::size_t start = static_cast<std::size_t>(now + 1) & bucket_mask;
    std::size_t w = start / 64;
    std::uint64_t word = wheel_mask[w] & (~std::uint64_t{0} << (start % 64));
    while (word == 0) {
      w = (w + 1 == mask_words) ? 0 : w + 1;
      word = wheel_mask[w];
    }
    const std::size_t b =
        w * 64 + static_cast<std::size_t>(std::countr_zero(word));
    now += 1 + static_cast<Time>((b - start) & bucket_mask);
    // The bucket drains fully below; clear its bit now. (Read-modify on the
    // stored word — `word` may have had in-window low bits masked off.)
    wheel_mask[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    for (std::uint32_t v = wheel_head[b]; v != kNoVertex;) {
      // Hide the successor-list fetch of the next completion behind the
      // current one's edge loop (the drain order is a linked-list chase).
      const std::uint32_t nx = wheel_next[v];
      if (nx != kNoVertex) {
        __builtin_prefetch(succ_flat + succ_off[nx]);
      }
      const std::int32_t proc = proc_of[v];
      const auto pw = static_cast<std::size_t>(proc) / 64;
      free_mask[pw] |= std::uint64_t{1} << (static_cast<std::size_t>(proc) % 64);
      ++free_count;
      if (pw < free_lo) free_lo = pw;
      const SuccT* q = succ_flat + succ_off[v];
      const SuccT* e = succ_flat + succ_off[v + 1];
      for (; q != e; ++q) {
        const std::uint32_t s = *q;
        if (--rp[s] == 0) {
          const std::uint32_t p = ready_pos[s];
          ready_mask[p / 64] |= std::uint64_t{1} << (p % 64);
          ++ready_count;
          if (p / 64 < ready_lo) ready_lo = p / 64;
        }
      }
      ++completed;
      v = nx;
    }
    wheel_head[b] = kNoVertex;
  }
  return makespan;
}

// Binary-heap fallback for exec times outside the wheel window. Identical
// ordering ((finish, vertex) ascending), identical results.
Time run_generic(LsWorkspace& ws, RunState& rs,
                 std::span<const Time> exec_times, std::size_t n) {
  auto running_after = [](const LsWorkspace::RunningJob& a,
                          const LsWorkspace::RunningJob& b) noexcept {
    if (a.finish != b.finish) return a.finish > b.finish;
    return a.vertex > b.vertex;
  };
  ws.running.clear();

  Time now = 0;
  Time makespan = 0;
  std::size_t scheduled = 0;
  while (scheduled < n) {
    while (rs.free_count > 0 && rs.ready_count > 0) {
      const std::uint32_t v = ws.pos_to_v[pop_lowest_ready(ws, rs)];
      const int proc = pop_lowest_free(ws, rs);
      const Time finish = checked_add(now, exec_times[v]);
      ws.jobs[scheduled] = ScheduledJob{v, proc, now, finish};
      ws.proc_of[v] = proc;
      ws.running.push_back(LsWorkspace::RunningJob{finish, v});
      std::push_heap(ws.running.begin(), ws.running.end(), running_after);
      if (finish > makespan) makespan = finish;
      ++scheduled;
    }
    if (scheduled == n) break;
    FEDCONS_ASSERT(!ws.running.empty());  // else: cycle (excluded)
    now = ws.running.front().finish;
    while (!ws.running.empty() && ws.running.front().finish == now) {
      const VertexId v = ws.running.front().vertex;
      std::pop_heap(ws.running.begin(), ws.running.end(), running_after);
      ws.running.pop_back();
      complete_vertex(ws, rs, v);
    }
  }
  return makespan;
}

}  // namespace

void ls_run_prepared(LsWorkspace& ws, const Dag& dag, int num_processors,
                     std::span<const Time> exec_times) {
  FEDCONS_EXPECTS(num_processors >= 1);
  const std::size_t n = dag.num_vertices();
  FEDCONS_EXPECTS_MSG(ws.init_preds.size() == n,
                      "ls_prepare must run before ls_run_prepared");
  Time max_exec = ws.max_wcet;
  Time min_exec = 1;
  if (exec_times.empty()) {
    exec_times = ws.wcets;
  } else {
    FEDCONS_EXPECTS(exec_times.size() == n);
    max_exec = exec_times[0];
    min_exec = exec_times[0];
    for (const Time e : exec_times) {
      if (e > max_exec) max_exec = e;
      if (e < min_exec) min_exec = e;
    }
  }
  const bool use_wheel = min_exec >= 1 && max_exec <= kMaxWheelExec;
  const std::size_t bucket_count =
      use_wheel
          ? std::max<std::size_t>(
                64, std::bit_ceil(static_cast<std::size_t>(max_exec) + 1))
          : 0;

  ++perf_counters().ls_invocations;

  const auto procs = static_cast<std::size_t>(num_processors);
  const std::size_t free_words = (procs + 63) / 64;
  const std::size_t pos_words = (n + 63) / 64;
  const std::size_t max_running = std::min(n, procs);
  const bool reused =
      ws.remaining_preds.capacity() >= n && ws.ready_mask.capacity() >= pos_words &&
      (use_wheel ? ws.wheel_head.capacity() >= bucket_count &&
                       ws.wheel_next.capacity() >= n &&
                       ws.wheel_mask.capacity() >= bucket_count / 64
                 : ws.running.capacity() >= max_running) &&
      ws.proc_of.capacity() >= n && ws.free_mask.capacity() >= free_words &&
      ws.jobs.capacity() >= n;
  if (reused) ++workspace_reuse_count();

  // Reset per-run state (capacity persists across runs). resize only adjusts
  // length; the values are written by the fills and copies below.
  ws.remaining_preds.resize(n);
  std::copy_n(ws.init_preds.data(), n, ws.remaining_preds.data());
  ws.ready_mask.resize(pos_words);
  std::fill_n(ws.ready_mask.data(), pos_words, 0);
  ws.proc_of.resize(n);
  ws.jobs.resize(n);  // every vertex dispatches exactly once; slots overwritten
  if (use_wheel) {
    ws.wheel_head.resize(bucket_count);
    std::fill_n(ws.wheel_head.data(), bucket_count, kNoVertex);
    ws.wheel_next.resize(n);
    ws.wheel_mask.resize(bucket_count / 64);
    std::fill_n(ws.wheel_mask.data(), bucket_count / 64, 0);
  } else {
    ws.running.reserve(max_running);
  }
  ws.free_mask.resize(free_words);
  std::fill_n(ws.free_mask.data(), free_words, 0);
  for (std::size_t p = 0; p < procs; ++p)
    ws.free_mask[p / 64] |= std::uint64_t{1} << (p % 64);
  RunState rs;
  rs.free_count = procs;

  for (std::size_t v = 0; v < n; ++v) {
    if (ws.remaining_preds[v] == 0) {
      push_ready(ws, rs, ws.ready_pos[v]);
    }
  }

  ws.makespan =
      use_wheel
          ? (n <= 0x10000
                 ? run_wheel(ws, rs, exec_times, n, bucket_count,
                             ws.succ_flat16.data())
                 : run_wheel(ws, rs, exec_times, n, bucket_count,
                             ws.succ_flat.data()))
          : run_generic(ws, rs, exec_times, n);
}

}  // namespace fedcons
