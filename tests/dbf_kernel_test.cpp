// Correctness of the certified-double DBF* kernel (analysis/dbf_kernel.h,
// DESIGN.md §13):
//   * term builders — the affine, constant and utilization terms follow
//     their definitions bit for bit, and out-of-range parameters poison;
//   * certification — a certain class (kFit / kReject) always agrees with
//     the exact rational comparison, audited at every aggregate breakpoint
//     ±2 (the band where slope changes make rounding most likely to matter).
#include "fedcons/analysis/dbf_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "fedcons/analysis/dbf.h"
#include "fedcons/core/sequential_task.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

// ---------------------------------------------------------------------------
// Term builders
// ---------------------------------------------------------------------------

TEST(DbfTermTest, AffineTermMatchesDefinition) {
  // C=4, D=10, T=5: b = C/T, a = C − b·D, mag = C + b·D — computed through
  // volatile intermediates so this TU cannot FMA-contract what the kernel TU
  // deliberately computes contraction-free.
  const DbfCand cand = dbf_affine_term(4, 10, 5);
  volatile double b = 4.0 / 5.0;
  volatile double bd = b * 10.0;
  volatile double a = 4.0 - bd;
  volatile double mag = 4.0 + bd;
  EXPECT_EQ(cand.b, b);
  EXPECT_EQ(cand.a, a);
  EXPECT_EQ(cand.mag, mag);
}

TEST(DbfTermTest, ConstantAndUtilTerms) {
  const DbfCand c = dbf_constant_term(7);
  EXPECT_EQ(c.a, 7.0);
  EXPECT_EQ(c.b, 0.0);
  EXPECT_EQ(c.mag, 7.0);
  EXPECT_EQ(util_term(1, 4), 0.25);
  EXPECT_EQ(util_term(3, 2), 1.5);
}

TEST(DbfTermTest, OutOfRangeParametersArePoisoned) {
  const long long big = kDbfMaxMagnitude + 1;
  EXPECT_TRUE(std::isinf(dbf_affine_term(1, big, big).mag));
  EXPECT_TRUE(std::isinf(dbf_affine_term(big, 1, 1).mag));
  EXPECT_TRUE(std::isinf(dbf_constant_term(big).mag));
  EXPECT_TRUE(std::isinf(util_term(big, 1)));
  EXPECT_TRUE(std::isinf(util_term(1, big)));
}

// ---------------------------------------------------------------------------
// Certification audit: certain classes agree with exact rational comparison
// ---------------------------------------------------------------------------

/// DBF*(cand, bp) exactly: C + (C/T)·(bp − D) for the affine form (bp ≥ D),
/// the constant C for the paper-literal form.
BigRational exact_cand_term(const SporadicTask& t, Time bp, bool affine) {
  if (!affine) return BigRational(t.wcet);
  BigInt num = BigInt(t.wcet) * BigInt(t.period + (bp - t.deadline));
  return BigRational(std::move(num), BigInt(t.period));
}

/// Classify one breakpoint exactly as partition_state.cpp's probe does:
/// gather the aggregate's double prefix at bp, run a one-entry scan, return
/// the class.
DbfClass classify_one(const DbfStarAggregate& agg, Time bp, DbfCand cand) {
  const auto dds = agg.distinct_deadlines();
  const int k0 =
      static_cast<int>(std::upper_bound(dds.begin(), dds.end(), bp) -
                       dds.begin()) -
      1;
  double entry_bp = static_cast<double>(bp);
  double a = 0.0, b = 0.0, m = 0.0;
  if (k0 >= 0) {
    a = agg.soa_prefix_a()[static_cast<std::size_t>(k0)];
    b = agg.soa_prefix_b()[static_cast<std::size_t>(k0)];
    m = agg.soa_prefix_mag()[static_cast<std::size_t>(k0)];
  }
  if (bp < 0 || bp > kDbfMaxMagnitude) {
    m = std::numeric_limits<double>::infinity();
  }
  const double eps_n = kDbfEps * static_cast<double>(agg.size() + 16);
  DbfClass cls = DbfClass::kFit;
  const int stop = dbf_scan(&entry_bp, &a, &b, &m, 0, 1, cand, eps_n, &cls);
  return stop == 1 ? DbfClass::kFit : cls;
}

TEST(DbfCertificationTest, CertainClassesAgreeWithExactAtEveryBreakpointBand) {
  Rng rng(0xbadd1u);
  int certain = 0, uncertain = 0;
  for (int round = 0; round < 60; ++round) {
    DbfStarAggregate agg;
    std::vector<SporadicTask> members;
    const int n = static_cast<int>(rng.uniform_int(1, 24));
    for (int i = 0; i < n; ++i) {
      const Time period = rng.uniform_int(2, 4000);
      const Time deadline = rng.uniform_int(1, period);
      const Time wcet = rng.uniform_int(1, deadline);
      members.emplace_back(wcet, deadline, period);
      agg.insert(members.back());
    }
    const Time cper = rng.uniform_int(2, 4000);
    const Time cdl = rng.uniform_int(1, cper);
    const SporadicTask cand_task(rng.uniform_int(1, cdl), cdl, cper);

    std::vector<Time> band;
    for (Time d : agg.distinct_deadlines()) {
      for (Time off = -2; off <= 2; ++off) band.push_back(d + off);
    }
    for (Time off = -2; off <= 2; ++off) band.push_back(cdl + off);

    for (bool affine : {true, false}) {
      const DbfCand cand =
          affine ? dbf_affine_term(cand_task.wcet, cand_task.deadline,
                                   cand_task.period)
                 : dbf_constant_term(cand_task.wcet);
      for (Time bp : band) {
        if (bp < (affine ? cdl : Time{0})) continue;
        const DbfClass cls = classify_one(agg, bp, cand);
        const BigRational exact =
            agg.sum_at(bp) + exact_cand_term(cand_task, bp, affine);
        const bool fits_exactly = exact <= BigRational(bp);
        if (cls == DbfClass::kFit) {
          ++certain;
          EXPECT_TRUE(fits_exactly)
              << "kFit but exact demand exceeds bp=" << bp;
        } else if (cls == DbfClass::kReject) {
          ++certain;
          EXPECT_FALSE(fits_exactly)
              << "kReject but exact demand fits at bp=" << bp;
        } else {
          ++uncertain;
        }
      }
    }
  }
  // The kernel must actually decide things for well-scaled inputs — an
  // always-uncertain kernel would pass the agreement checks vacuously.
  EXPECT_GT(certain, uncertain * 10);
}

}  // namespace
}  // namespace fedcons
