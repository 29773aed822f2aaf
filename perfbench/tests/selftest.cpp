// Self-test of the benchmark's arithmetic on synthetic inputs: percentiles
// from raw samples, the rung rule and the capacity staircase, the closure
// ratio and span self time. Exit 0 when every check holds; perfbench/run.py runs it before
// every benchmark run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "selftest: %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  // Percentiles: linear interpolation between closest ranks, order-free.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect_near(percentile(v, 50.0), 50.5, "p50 of 1..100");
  expect_near(percentile(v, 99.0), 99.01, "p99 of 1..100");
  expect_near(percentile(v, 0.0), 1.0, "p0");
  expect_near(percentile(v, 100.0), 100.0, "p100");
  expect_near(percentile({7.0}, 99.0), 7.0, "single sample");
  expect_near(percentile({}, 50.0), 0.0, "empty sample");
  expect_near(median({3.0, 1.0, 2.0, 10.0}), 2.5, "even median");
  // Rung rule.
  const double limit = 1000.0;
  expect(rung_passes({400, 0}, limit), "light rung passes");
  expect(!rung_passes({400, 1}, limit), "a failure fails the rung");
  expect(!rung_passes({1200, 0}, limit), "latency over the limit fails");
  expect(rung_passes({1000, 0}, limit), "latency at the limit passes");
  expect(!rung_passes({400, 0, 2}, limit), "a shed fails the rung");
  // Staircase: coarse ascent 8, 12, 16 (fails), then start at 14.
  Staircase st(8, 64);
  expect(st.rung() == 8 && st.capacity_rung() < 0, "starts coarse at the first rung");
  st.record(true);
  st.record(true);
  expect(st.rung() == 16, "coarse ascent climbs 4 rungs");
  st.record(false);
  expect(st.rung() == 14 && st.steps() == 0, "first failure starts the staircase 2 below");
  for (bool pass : {true, false, true, false, false, true}) st.record(pass);
  // Visited 14 (pass) 15 (fail) 14 (pass) 15 (fail) 14 (fail) 13 (pass).
  expect(st.rung() == 14 && st.steps() == 6, "one rung up per pass, down per failure");
  expect_near(st.capacity_rung(), (14 + 15 + 14 + 15 + 14 + 13) / 6.0,
              "capacity is the mean visited rung");
  expect(!st.capped(), "not capped");
  Staircase low(1, 64);
  low.record(false);
  low.record(false);
  expect(low.rung() == 0, "the staircase stops at rung 0");
  Staircase top(60, 64);
  top.record(true);
  top.record(true);
  expect(top.rung() == 64 && top.capped() && top.capacity_rung() < 0,
         "a passing top rung caps the coarse ascent");
  for (bool pass : {false, true, true, true}) top.record(pass);
  // Visited 62 (pass) 63 (pass) 64 (pass): it stays at the top rung.
  expect(top.rung() == 64 && top.steps() == 3, "the staircase stays at the top rung");
  // Closure.
  expect_near(closure_ratio(12.0, 9.0, 1.0), 1.2, "closure ratio");
  expect_near(closure_ratio(5.0, 0.0, 0.0), 0.0, "closure with no denominator");

  // Self time: overlapping and out-of-span children are clipped.
  expect(self_time_ns(0, 100, {}) == 100, "no children");
  expect(self_time_ns(0, 100, {{10, 30}, {20, 50}, {90, 120}}) == 50,
         "overlapping and clipped children");

  if (failures == 0) std::puts("perfbench selftest: ok");
  return failures == 0 ? 0 : 1;
}
