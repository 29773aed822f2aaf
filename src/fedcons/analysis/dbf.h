// Demand bound functions for three-parameter sporadic tasks.
//
// DBF(τ, t) [Baruah–Mok–Rosier 1990] is the maximum cumulative execution
// demand of jobs of τ with both arrival and deadline inside any interval of
// length t:
//     DBF(τ, t) = max(0, ⌊(t − D)/T⌋ + 1) · C.
//
// DBF*(τ, t) is the linear upper approximation used by Algorithm PARTITION
// (paper, Eq. (1), restated from Baruah–Fisher 2006), in DAG-task notation:
//     DBF*(τ_i, t) = 0                         if t < D_i,
//                    vol_i + u_i · (t − D_i)   otherwise  (u_i = vol_i/T_i).
//
// Key properties (pinned by property tests): DBF ≤ DBF* everywhere; both are
// monotone non-decreasing in t; DBF* − DBF < C; DBF steps exactly at
// t = D + kT.
#pragma once

#include <span>
#include <vector>

#include "fedcons/core/sequential_task.h"
#include "fedcons/util/rational.h"
#include "fedcons/util/time_types.h"

namespace fedcons {

/// Exact demand bound function. Pure integer arithmetic; t may be any value
/// (negative t yields 0).
[[nodiscard]] Time dbf(const SporadicTask& task, Time t);

/// The DBF* approximation, exactly, as a rational (denominator divides T).
[[nodiscard]] BigRational dbf_approx(const SporadicTask& task, Time t);

/// The k-point refinement of DBF* (Albers–Slomka family): exact DBF for the
/// first `points` steps, then the linear tail
///     k·C + u·(t − D − (k−1)·T)      for t ≥ D + (k−1)·T.
/// points == 1 reproduces DBF* exactly; points → ∞ converges to DBF from
/// above. Monotone in `points`: more points never increase the bound.
/// Precondition: points >= 1.
[[nodiscard]] BigRational dbf_approx_k(const SporadicTask& task, Time t,
                                       int points);

/// The instants where Σ_j dbf_approx_k(τ_j, ·, points) changes slope within
/// (0, horizon]: every D_j + i·T_j for i < points. Sorted, deduplicated.
/// With the additional condition Σ u_j ≤ 1, verifying the demand inequality
/// at exactly these breakpoints certifies it for all t (piecewise linearity
/// + final slope ≤ 1).
[[nodiscard]] std::vector<Time> dbf_approx_breakpoints(
    std::span<const SporadicTask> tasks, int points, Time horizon);

/// Σ_j DBF(τ_j, t) with overflow checking (exact demand at one instant).
[[nodiscard]] Time total_dbf(std::span<const SporadicTask> tasks, Time t);

/// Incrementally maintained Σ_j DBF*(τ_j, t) over a growing task set — the
/// per-bin state behind PARTITION's incremental acceptance probes.
///
/// Stored state is the members (C_j, D_j, T_j), sorted by deadline, plus
/// double SoA mirrors for the certified probe kernel (dbf_kernel.h): per
/// member the affine DBF* term (a_j = C_j − u_j·D_j, b_j = u_j) and a
/// magnitude bound, their inclusive left folds, and one gathered entry per
/// distinct deadline. Parameters beyond the kernel's validated range poison
/// the magnitude with +inf, forcing the exact path: the mirrors can
/// accelerate decisions but never change one. insert and remove refold the
/// mirrors from the changed index with the same left fold, so rollback
/// restores every stored double bit for bit.
///
/// The exact value is folded from the members on demand (ExactFold):
///     Σ_{D_j ≤ t} (C_j + u_j·(t − D_j)) = Σvol + (Σu)·t − Σ(u·D),
/// each sum a left fold from the first member. It equals the term-wise
/// Σ dbf_approx as a rational, and its unreduced representation (rendered in
/// rejection diagnoses) depends on the member list alone, never on history.
class DbfStarAggregate {
 public:
  /// Add one member. O(size) worst case (suffix mirror refresh).
  void insert(const SporadicTask& task);

  /// Remove one member matching (C, D, T) exactly — the rollback behind
  /// online task departure (online/admission_session.h). Precondition: such
  /// a member is present (ContractViolation otherwise).
  void remove(const SporadicTask& task);

  /// The exact Σ DBF* fold, carried across one probe's ascending breakpoints
  /// so that all of a probe's exact fallbacks together cost O(size) rational
  /// additions. Borrows the aggregate, which must not change meanwhile.
  class ExactFold {
   public:
    explicit ExactFold(const DbfStarAggregate& agg) : agg_(&agg) {}

    /// Σ_j DBF*(τ_j, t), exactly. Precondition: no member folded by an
    /// earlier call has a deadline above t (ascending calls satisfy it).
    [[nodiscard]] BigRational sum_at(Time t);

   private:
    const DbfStarAggregate* agg_;
    std::size_t folded_ = 0;  ///< members [0, folded_) are in the sums
    BigRational vol_, u_, ud_;
  };

  /// Σ_j DBF*(τ_j, t), exactly, by a fresh ExactFold. Credits no counter.
  [[nodiscard]] BigRational sum_at(Time t) const {
    return ExactFold(*this).sum_at(t);
  }

  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }

  /// Sorted, deduplicated member deadlines — the slope breakpoints of the
  /// summed 1-point approximation (dbf_approx_breakpoints with points == 1).
  [[nodiscard]] std::span<const Time> distinct_deadlines() const noexcept {
    return distinct_deadlines_;
  }

  /// Double SoA mirrors for dbf_scan, indexed like distinct_deadlines():
  /// entry k holds double(distinct deadline k) and the inclusive double prefix
  /// (A = Σa_j, B = Σb_j, M = Σmag_j) over all members with D_j ≤ that
  /// deadline, so the aggregate demand at breakpoint bp_k is A_k + B_k·bp_k.
  [[nodiscard]] std::span<const double> soa_breakpoints() const noexcept {
    return soa_bp_;
  }
  [[nodiscard]] std::span<const double> soa_prefix_a() const noexcept {
    return soa_a_;
  }
  [[nodiscard]] std::span<const double> soa_prefix_b() const noexcept {
    return soa_b_;
  }
  [[nodiscard]] std::span<const double> soa_prefix_mag() const noexcept {
    return soa_mag_;
  }

 private:
  /// Recompute the double prefixes for indices [idx, size) by the canonical
  /// fold pfx[i] = pfx[i-1] + term[i], shared by insert and remove.
  void refresh_prefixes_from(std::size_t idx);

  /// Regather the distinct-deadline SoA views from the member prefixes.
  void rebuild_soa();

  std::vector<SporadicTask> members_;  // by deadline, ties in insert order
  std::vector<Time> distinct_deadlines_;
  // Double mirrors: per-member affine terms (dbf_affine_term) and their
  // inclusive left folds, then one gathered entry per distinct deadline.
  std::vector<double> term_a_, term_b_, term_mag_;
  std::vector<double> pfx_a_, pfx_b_, pfx_mag_;
  std::vector<double> soa_bp_, soa_a_, soa_b_, soa_mag_;
};

}  // namespace fedcons
