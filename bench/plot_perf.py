#!/usr/bin/env python3
"""Render the recorded BENCH_*.json artifacts as one throughput trajectory.

Four generations of recording live at the repo root:

  * BENCH_PR2.json — google-benchmark output of bench_perf_algorithms at the
    PR-2 optimization (bound-guided MINPROCS + workspace LS core).
  * BENCH_PR6.json — the custom document bench_online writes (steady-state
    online churn: admissions/sec, memo hit rate, per-event latency split by
    class, and the from-scratch re-analysis contrast per level).
  * BENCH_PR7.json — the wrapper document bench/run_perf.sh writes at the
    PR-7 optimization (data-parallel analysis core): the same
    bench_perf_algorithms grid re-recorded, plus the per-kernel
    scalar-vs-AVX2 microbenchmarks from bench_simd_kernels (a binary since
    removed with the AVX2 kernels; its recording is kept as written).
  * BENCH_SERVE.json — the admission-control-service document
    bench/run_perf.sh writes at PR 8: a live fedcons_serve daemon on a unix
    socket driven by the closed-loop fedcons_loadgen, one run per
    resident-set size (verdicts/sec + the log2-bucket latency histogram),
    plus the PR-9 observability on/off contrast (obs_overhead_pct).

The script overlays the PR-2 and PR-7 batch curves per benchmark family
(analyses/sec by task count — the across-PRs throughput trajectory), draws
the online curve (admissions/sec by resident count) beside them, and lists
each SIMD kernel's scalar-vs-AVX2 contrast. With matplotlib available it
writes bench/perf_curves.png; otherwise it falls back to an ASCII rendering
on stdout (the container image carries no plotting stack, and installing
one is out of scope).

Usage: plot_perf.py [--repo-root DIR] [--out PNG]
"""

import argparse
import json
import os
import sys


def load_json(path):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def batch_series(doc):
    """google-benchmark doc -> {family: [(tasks, analyses_per_sec)]}."""
    if doc is None:
        return {}
    series = {}
    for bench in doc.get("benchmarks", []):
        # Prefer the _mean aggregate when repetitions were recorded; plain
        # runs have no aggregate_name.
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") != "mean":
                continue
        name = bench.get("run_name", bench.get("name", ""))
        if "/" not in name:
            continue
        family, _, arg = name.partition("/")
        try:
            tasks = int(arg)
        except ValueError:
            continue
        ns = float(bench.get("real_time", 0.0))
        if ns <= 0:
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}.get(unit, 1e9)
        per_sec = scale / ns
        series.setdefault(family, {})[tasks] = per_sec
    return {
        family: sorted(points.items())
        for family, points in series.items()
    }


def overlay_batch(pr2_doc, pr7_doc):
    """Merge the two generations into {family: {gen: points}} for overlay."""
    merged = {}
    for gen, doc in (("PR2", pr2_doc), ("PR7", pr7_doc)):
        for family, points in batch_series(doc).items():
            merged.setdefault(family, {})[gen] = points
    return merged


def kernel_series(doc):
    """bench_simd_kernels doc -> {instance: {backend_label: ns}}.

    Backend instances carry a 'scalar'/'avx2' label (state.SetLabel); the
    instance key is the run name with its trailing backend selector dropped,
    so BM_DbfProbeScan/512/0 and /512/1 pair up. Unlabeled benchmarks (the
    serial contrast lines) key under their own name with label 'serial'.
    """
    if doc is None:
        return {}
    series = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("run_name", bench.get("name", ""))
        label = bench.get("label", "")
        ns = float(bench.get("real_time", 0.0))
        if ns <= 0:
            continue
        if label in ("scalar", "avx2"):
            instance = name.rsplit("/", 1)[0]
            series.setdefault(instance, {})[label] = ns
        else:
            series.setdefault(name, {})["serial"] = ns
    return series


def ascii_curve(title, points, unit):
    if not points:
        return ["  %s: (no recording)" % title]
    width = 46
    top = max(v for _, v in points)
    lines = ["  %s" % title]
    for x, v in points:
        bar = "#" * max(1, int(round(width * v / top))) if top > 0 else ""
        lines.append("    %6d  %-*s %12.0f %s" % (x, width, bar, v, unit))
    return lines


def ascii_overlay(family, gens):
    """One family's PR2-vs-PR7 curves on a shared scale."""
    all_points = [v for pts in gens.values() for _, v in pts]
    if not all_points:
        return []
    width = 46
    top = max(all_points)
    lines = ["  %s (analyses/sec by task count)" % family]
    for gen in sorted(gens):
        for x, v in gens[gen]:
            bar = "#" * max(1, int(round(width * v / top))) if top > 0 else ""
            lines.append("    %s %6d  %-*s %12.0f /s"
                         % (gen, x, width, bar, v))
        lines.append("")
    return lines


def ascii_kernels(kernels):
    if not kernels:
        return []
    out = ["  SIMD kernels, scalar vs AVX2 (BENCH_PR7; lower ns is better)"]
    for instance in sorted(kernels):
        backends = kernels[instance]
        parts = []
        for label in ("scalar", "avx2", "serial"):
            if label in backends:
                parts.append("%s %10.0f ns" % (label, backends[label]))
        line = "    %-28s %s" % (instance, "   ".join(parts))
        if "scalar" in backends and "avx2" in backends and backends["avx2"]:
            line += "   (%.2fx)" % (backends["scalar"] / backends["avx2"])
        out.append(line)
    return out


def online_series(doc):
    """BENCH_PR6: bench_online levels -> [(residents, admissions_per_sec)]."""
    if doc is None:
        return []
    return sorted(
        (int(level["residents"]), float(level["admissions_per_sec"]))
        for level in doc.get("levels", [])
    )


def serve_rows(doc):
    """BENCH_SERVE: runs -> [(label, residents, qps, p50, p99, p999)]."""
    if doc is None:
        return []
    rows = []
    for run in doc.get("runs", []):
        lg = run.get("loadgen", {})
        lat = lg.get("latency_us", {})
        rows.append((run.get("label", "?"), int(lg.get("residents", 0)),
                     float(lg.get("qps", 0.0)), int(lat.get("p50", 0)),
                     int(lat.get("p99", 0)), int(lat.get("p999", 0))))
    return rows


def ascii_serve(rows):
    if not rows:
        return []
    out = ["  admission service, closed loop over a unix socket "
           "(BENCH_SERVE)"]
    width = 46
    top = max(qps for _, _, qps, _, _, _ in rows)
    for label, residents, qps, p50, p99, p999 in rows:
        bar = "#" * max(1, int(round(width * qps / top))) if top > 0 else ""
        out.append("    residents=%-2d %-*s %9.0f verdicts/s" %
                   (residents, width, bar, qps))
        out.append("    %14s p50=%dus p99=%dus p999=%dus  (%s)" %
                   ("", p50, p99, p999, label))
    return out


def obs_overhead(doc):
    """BENCH_SERVE -> (obs_off_qps, obs_on_qps, overhead_pct) or None."""
    if doc is None or "obs_overhead_pct" not in doc:
        return None
    return (float(doc.get("obs_off_qps", 0.0)),
            float(doc.get("obs_on_qps", 0.0)),
            float(doc["obs_overhead_pct"]))


def ascii_obs(overhead):
    if overhead is None:
        return []
    off_qps, on_qps, pct = overhead
    return ["  observability overhead at residents=4 (default 1/256 "
            "sampling + 250ms series ring):",
            "    obs off %9.0f verdicts/s   obs on %9.0f verdicts/s   "
            "-> %.2f%% (bar: <=3%%)" % (off_qps, on_qps, pct)]


def render_ascii(batch_overlay_data, online, pr6, kernels, pr7, serve,
                 overhead):
    out = ["perf trajectory (ASCII fallback — matplotlib not available)", ""]
    for family in sorted(batch_overlay_data):
        out.extend(ascii_overlay(family, batch_overlay_data[family]))
    out.extend(ascii_curve(
        "bench_online (admissions/sec by resident count)", online, "/s"))
    if pr6 is not None:
        out.append("")
        out.append("  online flat-latency check: low-class admission ratio "
                   "at 10x residents = %sx"
                   % pr6.get("latency_ratio_10x", "?"))
    out.append("")
    out.extend(ascii_kernels(kernels))
    if pr7 is not None and "fedcons_full_128_speedup_vs_pr2" in pr7:
        out.append("")
        out.append("  BM_FedconsFullTest/128 speedup vs PR2 recording: %sx "
                   "(build=%s backend=%s)"
                   % (pr7["fedcons_full_128_speedup_vs_pr2"],
                      pr7.get("cmake_build_type", "?"),
                      pr7.get("simd_backend", "?")))
    if serve:
        out.append("")
        out.extend(ascii_serve(serve))
    if overhead is not None:
        out.append("")
        out.extend(ascii_obs(overhead))
    return "\n".join(out)


def render_png(batch_overlay_data, online, kernels, serve, overhead,
               out_path):
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax_batch, ax_online, ax_kern, ax_serve, ax_obs) = plt.subplots(
        1, 5, figsize=(23, 4.2))
    styles = {"PR2": "--", "PR7": "-"}
    for family in sorted(batch_overlay_data):
        for gen, points in sorted(batch_overlay_data[family].items()):
            xs = [x for x, _ in points]
            ys = [y for _, y in points]
            ax_batch.plot(xs, ys, styles.get(gen, "-"), marker="o",
                          label="%s (%s)" % (family, gen))
    ax_batch.set_title("batch analyses/sec (PR2 vs PR7)")
    ax_batch.set_xlabel("tasks")
    ax_batch.set_ylabel("analyses/sec")
    ax_batch.set_xscale("log", base=2)
    ax_batch.set_yscale("log")
    ax_batch.legend(fontsize=7)

    if online:
        xs = [x for x, _ in online]
        ys = [y for _, y in online]
        ax_online.plot(xs, ys, marker="s", color="tab:green")
    ax_online.set_title("online admissions/sec (BENCH_PR6)")
    ax_online.set_xlabel("residents")
    ax_online.set_ylabel("admissions/sec")

    paired = {k: v for k, v in kernels.items()
              if "scalar" in v and "avx2" in v}
    if paired:
        names = sorted(paired)
        ratios = [paired[n]["scalar"] / paired[n]["avx2"] for n in names]
        ax_kern.barh(range(len(names)), ratios, color="tab:blue")
        ax_kern.set_yticks(range(len(names)))
        ax_kern.set_yticklabels(names, fontsize=7)
        ax_kern.axvline(1.0, color="gray", linewidth=0.8)
        ax_kern.set_title("kernel AVX2 speedup (BENCH_PR7)")
        ax_kern.set_xlabel("scalar time / avx2 time")

    # The residents curve uses only the resident-sweep runs; the obs_* pair
    # repeats residents=4 and lives in its own panel.
    sweep = [row for row in serve if not row[0].startswith("obs_")]
    if sweep:
        xs = [residents for _, residents, _, _, _, _ in sweep]
        ys = [qps for _, _, qps, _, _, _ in sweep]
        ax_serve.plot(xs, ys, marker="D", color="tab:red")
        for _, residents, qps, _, p99, _ in sweep:
            ax_serve.annotate("p99=%dus" % p99, (residents, qps),
                              textcoords="offset points", xytext=(4, 4),
                              fontsize=7)
    ax_serve.set_title("service verdicts/sec (BENCH_SERVE)")
    ax_serve.set_xlabel("residents")
    ax_serve.set_ylabel("verdicts/sec")

    if overhead is not None:
        off_qps, on_qps, pct = overhead
        ax_obs.bar(["obs off", "obs on"], [off_qps, on_qps],
                   color=["tab:gray", "tab:purple"])
        ax_obs.set_title("observability overhead: %.2f%% (bar <=3%%)" % pct)
        ax_obs.set_ylabel("verdicts/sec")
    else:
        ax_obs.set_title("observability overhead (no recording)")

    fig.tight_layout()
    fig.savefig(out_path, dpi=120)
    return out_path


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root",
                        default=os.path.dirname(os.path.dirname(
                            os.path.abspath(__file__))))
    parser.add_argument("--out", default=None,
                        help="PNG path (default <repo>/bench/perf_curves.png)")
    args = parser.parse_args()

    pr2 = load_json(os.path.join(args.repo_root, "BENCH_PR2.json"))
    pr6 = load_json(os.path.join(args.repo_root, "BENCH_PR6.json"))
    pr7 = load_json(os.path.join(args.repo_root, "BENCH_PR7.json"))
    serve_doc = load_json(os.path.join(args.repo_root, "BENCH_SERVE.json"))
    if pr2 is None and pr6 is None and pr7 is None and serve_doc is None:
        print("no BENCH_*.json recordings under %s" % args.repo_root,
              file=sys.stderr)
        return 2

    pr7_algo = pr7.get("perf_algorithms") if pr7 else None
    batch = overlay_batch(pr2, pr7_algo)
    online = online_series(pr6)
    kernels = kernel_series(pr7.get("simd_kernels") if pr7 else None)
    serve = serve_rows(serve_doc)
    overhead = obs_overhead(serve_doc)

    try:
        out_path = args.out or os.path.join(args.repo_root, "bench",
                                            "perf_curves.png")
        print("wrote %s" % render_png(batch, online, kernels, serve,
                                      overhead, out_path))
    except ImportError:
        print(render_ascii(batch, online, pr6, kernels, pr7, serve,
                           overhead))
    return 0


if __name__ == "__main__":
    sys.exit(main())
