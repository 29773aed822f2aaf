#include "fedcons/analysis/dbf.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "fedcons/analysis/dbf_kernel.h"
#include "fedcons/util/check.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

Time dbf(const SporadicTask& task, Time t) {
  if (t < task.deadline) return 0;
  Time jobs = floor_div(t - task.deadline, task.period) + 1;
  // Saturating, not checked: a demand beyond int64 means "unschedulable by
  // saturation" (kTimeInfinity exceeds every supply comparison), never a
  // wrap and never an abort mid-analysis.
  return saturating_mul(jobs, task.wcet);
}

BigRational dbf_approx(const SporadicTask& task, Time t) {
  ++perf_counters().dbf_star_evaluations;
  if (t < task.deadline) return BigRational(0);
  // vol + u·(t − D) = C·(T + t − D)/T. The inner sum is formed in BigInt —
  // T + (t − D) can exceed int64 for extreme parameters.
  BigInt num = BigInt(task.wcet) *
               (BigInt(task.period) + BigInt(t - task.deadline));
  return BigRational(std::move(num), BigInt(task.period));
}

BigRational dbf_approx_k(const SporadicTask& task, Time t, int points) {
  FEDCONS_EXPECTS(points >= 1);
  ++perf_counters().dbf_star_evaluations;
  if (t < task.deadline) return BigRational(0);
  // Last exact step instant covered by the k points. A saturated tail start
  // just means every representable t sits in the exact region.
  const Time tail_start = saturating_add(
      task.deadline,
      saturating_mul(static_cast<Time>(points - 1), task.period));
  if (t < tail_start) return BigRational(dbf(task, t));  // exact region
  // k·C + u·(t − tail_start), with the k·T product formed in BigInt.
  BigInt num = BigInt(task.wcet) *
               (BigInt(static_cast<Time>(points)) * BigInt(task.period) +
                BigInt(t - tail_start));
  return BigRational(std::move(num), BigInt(task.period));
}

std::vector<Time> dbf_approx_breakpoints(std::span<const SporadicTask> tasks,
                                         int points, Time horizon) {
  FEDCONS_EXPECTS(points >= 1);
  std::vector<Time> out;
  for (const auto& task : tasks) {
    for (int i = 0; i < points; ++i) {
      // Saturated breakpoints exceed any finite horizon and drop out here.
      Time bp = saturating_add(
          task.deadline, saturating_mul(static_cast<Time>(i), task.period));
      if (bp > 0 && bp <= horizon && bp != kTimeInfinity) out.push_back(bp);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Time total_dbf(std::span<const SporadicTask> tasks, Time t) {
  // Saturating accumulation: an overflowing total reads as kTimeInfinity,
  // which every "demand ≤ supply" comparison downstream rejects — the
  // correct verdict (unschedulable by saturation), reached without UB.
  Time sum = 0;
  for (const auto& task : tasks) sum = saturating_add(sum, dbf(task, t));
  return sum;
}

namespace {

/// Orders members against a deadline, for binary searches over members_.
struct ByDeadline {
  bool operator()(const SporadicTask& m, Time t) const {
    return m.deadline < t;
  }
  bool operator()(Time t, const SporadicTask& m) const {
    return t < m.deadline;
  }
};

}  // namespace

void DbfStarAggregate::insert(const SporadicTask& task) {
  const auto pos = std::upper_bound(members_.begin(), members_.end(),
                                    task.deadline, ByDeadline{});
  const auto idx = static_cast<std::size_t>(pos - members_.begin());
  members_.insert(pos, task);

  const DbfCand term =
      dbf_affine_term(task.wcet, task.deadline, task.period);
  term_a_.insert(term_a_.begin() + static_cast<std::ptrdiff_t>(idx), term.a);
  term_b_.insert(term_b_.begin() + static_cast<std::ptrdiff_t>(idx), term.b);
  term_mag_.insert(term_mag_.begin() + static_cast<std::ptrdiff_t>(idx),
                   term.mag);

  refresh_prefixes_from(idx);

  const auto dpos = std::lower_bound(distinct_deadlines_.begin(),
                                     distinct_deadlines_.end(), task.deadline);
  if (dpos == distinct_deadlines_.end() || *dpos != task.deadline) {
    distinct_deadlines_.insert(dpos, task.deadline);
  }
  rebuild_soa();
}

void DbfStarAggregate::remove(const SporadicTask& task) {
  // Locate a member with this exact (C, D, T) among the equal-deadline run.
  // Matching members are identical, so removing the first match yields the
  // same arrays regardless of which duplicate departed.
  const auto [lo, hi] = std::equal_range(members_.begin(), members_.end(),
                                         task.deadline, ByDeadline{});
  const auto it = std::find_if(lo, hi, [&](const SporadicTask& m) {
    return m.wcet == task.wcet && m.period == task.period;
  });
  FEDCONS_EXPECTS_MSG(it != hi, "DbfStarAggregate::remove: no such member");
  // Drop the deadline from the breakpoint list when its last holder leaves.
  if (hi - lo == 1) {
    distinct_deadlines_.erase(std::lower_bound(distinct_deadlines_.begin(),
                                               distinct_deadlines_.end(),
                                               task.deadline));
  }

  const auto p = it - members_.begin();
  members_.erase(it);
  term_a_.erase(term_a_.begin() + p);
  term_b_.erase(term_b_.begin() + p);
  term_mag_.erase(term_mag_.begin() + p);
  refresh_prefixes_from(static_cast<std::size_t>(p));
  rebuild_soa();
}

void DbfStarAggregate::refresh_prefixes_from(std::size_t idx) {
  pfx_a_.resize(members_.size());
  pfx_b_.resize(members_.size());
  pfx_mag_.resize(members_.size());
  for (std::size_t i = idx; i < members_.size(); ++i) {
    if (i == 0) {
      pfx_a_[i] = term_a_[i];
      pfx_b_[i] = term_b_[i];
      pfx_mag_[i] = term_mag_[i];
    } else {
      // Single IEEE additions — deterministic in every TU, so the mirrors
      // are a pure function of the member list and rollback restores them
      // bit for bit.
      pfx_a_[i] = pfx_a_[i - 1] + term_a_[i];
      pfx_b_[i] = pfx_b_[i - 1] + term_b_[i];
      pfx_mag_[i] = pfx_mag_[i - 1] + term_mag_[i];
    }
  }
}

void DbfStarAggregate::rebuild_soa() {
  soa_bp_.clear();
  soa_a_.clear();
  soa_b_.clear();
  soa_mag_.clear();
  soa_bp_.reserve(distinct_deadlines_.size());
  soa_a_.reserve(distinct_deadlines_.size());
  soa_b_.reserve(distinct_deadlines_.size());
  soa_mag_.reserve(distinct_deadlines_.size());
  // One entry per distinct deadline, taken at the last member holding it. A
  // deadline beyond the kernel's validated range is not exactly representable
  // as a double, so its lane is poisoned (+inf magnitude → always uncertain →
  // exact fallback at the true Time breakpoint).
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const Time d = members_[i].deadline;
    if (i + 1 < members_.size() && members_[i + 1].deadline == d) continue;
    soa_bp_.push_back(static_cast<double>(d));
    soa_a_.push_back(pfx_a_[i]);
    soa_b_.push_back(pfx_b_[i]);
    soa_mag_.push_back(d > kDbfMaxMagnitude
                           ? std::numeric_limits<double>::infinity()
                           : pfx_mag_[i]);
  }
  FEDCONS_EXPECTS(soa_bp_.size() == distinct_deadlines_.size());
}

BigRational DbfStarAggregate::ExactFold::sum_at(Time t) {
  const std::vector<SporadicTask>& m = agg_->members_;
  FEDCONS_EXPECTS_MSG(folded_ == 0 || m[folded_ - 1].deadline <= t,
                      "ExactFold::sum_at: breakpoints must ascend");
  for (; folded_ < m.size() && m[folded_].deadline <= t; ++folded_) {
    const SporadicTask& j = m[folded_];
    BigRational vol(j.wcet);
    BigRational u = make_ratio(j.wcet, j.period);
    // C·D can exceed int64 for extreme parameters; form it as a BigInt product.
    BigRational ud(BigInt(j.wcet) * BigInt(j.deadline), BigInt(j.period));
    if (folded_ == 0) {
      vol_ = std::move(vol);
      u_ = std::move(u);
      ud_ = std::move(ud);
    } else {
      vol_ += vol;
      u_ += u;
      ud_ += ud;
    }
  }
  if (folded_ == 0) return BigRational(0);
  return vol_ + u_ * BigRational(t) - ud_;
}

}  // namespace fedcons
