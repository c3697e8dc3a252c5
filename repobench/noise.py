#!/usr/bin/env python3
"""Noise study: run every workload on several seeds and report how much
each candidate end-to-end metric moves between runs.

Usage, from the repository root:

    python3 repobench/noise.py --runs 10 --seconds 30 --out repobench/noise_study.json

Runs are interleaved (seed 1 of every workload, then seed 2, ...) so each
workload sees the same mix of host conditions. For every workload and
metric it prints the median, the interquartile range and the full range,
each as a share of the median, beside every run's steal share. The raw
per-run values are written to --out.

    python3 repobench/noise.py --compare first.json second.json

checks two such studies of the same code against BENCHMARK.json: every
gated metric's spread must stay within its bound (setup_s excepted), and
its second median may not be worse than the first by more than the bound.

    python3 repobench/noise.py --report study.json

prints a stored study as Markdown tables: the summary, then every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["compute", "serve_small", "fleet_small"]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (%d): %s" % (workload, seed, out.returncode, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    diag = next(json.loads(l[5:]) for l in lines if l.startswith("diag "))
    values = {k: v["value"] for k, v in diag["e2e"].items()}
    return {"seed": seed, "correct": result["correct"], "steal_share": diag["diag"]["steal_share"],
            "tail_percentile": diag["diag"]["latency_tail"]["percentile"], "values": values}


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "iqr_share": (q3 - q1) / med if med else 0.0,
            "range_share": (max(values) - min(values)) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def compare(first_path, second_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        gated = json.load(f)["end_to_end"]
    studies = []
    for path in (first_path, second_path):
        with open(path) as f:
            studies.append(json.load(f)["summary"])
    ok = True
    for w in sorted(studies[0]):
        for m in gated:
            name, bound = m["name"], m["bound"]
            a, b = studies[0][w][name], studies[1][w][name]
            drift = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                drift = -drift
            worst_iqr = max(a["iqr_share"], b["iqr_share"])
            bad = drift > bound or (name != "setup_s" and worst_iqr > bound)
            ok = ok and not bad
            print("%-12s %-20s bound %4.0f%%  IQR %5.1f%% / %5.1f%%  median drift %+6.1f%%  %s" % (
                w, name, 100 * bound, 100 * a["iqr_share"], 100 * b["iqr_share"], 100 * drift,
                "FAIL" if bad else "ok"))
    return 0 if ok else 1


def summary_table(study, w):
    runs = study["runs"][w]
    steals = ", ".join("%.1f" % (100 * r["steal_share"]) for r in runs)
    print("\n#### %s (%d runs of %d s; steal %% per run: %s)\n" % (w, len(runs), study["seconds"], steals))
    print("| metric | median | IQR / median | range / median |")
    print("|---|---|---|---|")
    for m, s in sorted(study["summary"][w].items()):
        print("| `%s` | %.4g | %.1f%% | %.1f%% |" % (m, s["median"], 100 * s["iqr_share"], 100 * s["range_share"]))


def report(path):
    with open(path) as f:
        study = json.load(f)
    for w in study["runs"]:
        summary_table(study, w)
    for w, runs in study["runs"].items():
        metrics = sorted(runs[0]["values"])
        print("\n#### %s, every run\n" % w)
        print("| seed | steal | " + " | ".join("`%s`" % m for m in metrics) + " |")
        print("|---" * (len(metrics) + 2) + "|")
        for r in runs:
            print("| %d | %.1f%% | " % (r["seed"], 100 * r["steal_share"])
                  + " | ".join("%.4g" % r["values"][m] for m in metrics) + " |")
    return 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        return compare(sys.argv[2], sys.argv[3])
    if len(sys.argv) == 3 and sys.argv[1] == "--report":
        return report(sys.argv[2])
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(w, args.first_seed + i, args.seconds)
            runs[w].append(r)
            print("%-12s seed %-4d steal %5.1f%%  %s" % (
                w, r["seed"], 100 * r["steal_share"],
                " ".join("%s=%.4g" % kv for kv in sorted(r["values"].items()))), flush=True)
    study = {"seconds": args.seconds, "runs": runs, "summary": {}}
    for w in workloads:
        metrics = sorted(runs[w][0]["values"])
        study["summary"][w] = {m: spread([r["values"][m] for r in runs[w]]) for m in metrics}
        summary_table(study, w)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(study, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
