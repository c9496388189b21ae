#!/usr/bin/env bash
# A/A check: two interleaved sets of runs of the *same* build must agree.
#
#   benchmark/aa.sh [runs-per-set (default 5)] [workload ...]
#
# Run i of either set uses seed i, so both sets see the same inputs; the sets
# alternate (A1 B1 A2 B2 …) so slow host drift hits both alike. Per workload
# and gated metric it prints both medians, the gap between them (positive =
# set B worse), the spread of each set (interquartile range over median, as
# `statistics.quantiles(values, n=4)` gives it) and the bound from
# BENCHMARK.json. A pair whose gap exceeds the bound DISAGREEs; one whose
# spread does is `unresolved` (the driver refuses a benchmark whose spread
# exceeds its bound); either makes the exit code non-zero. Below the table,
# per metric, what the bound would have to be: the larger of twice the worst
# gap and the worst spread. The table is Markdown; AA.md holds a copy.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec python3 - "$@" <<'EOF'
import json, statistics, subprocess, sys

args = sys.argv[1:]
runs = int(args.pop(0)) if args and args[0].isdigit() else 5
spec = json.load(open("BENCHMARK.json"))
workloads = args or [w["name"] for w in spec["workloads"]]
command = spec["command"] + ["--seconds", str(spec["run_seconds"]), "--trace", "0"]

def run(workload, seed):
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed)],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stdout}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

rows, bad, needed = [], 0, {}
for workload in workloads:
    a, b = [], []
    for seed in range(1, runs + 1):
        a.append(run(workload, seed))
        b.append(run(workload, seed))
        print(f"# {workload}: pair {seed}/{runs} done", file=sys.stderr)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        va, vb = [r[name] for r in a], [r[name] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(va), spread(vb)
        verdict = "DISAGREE" if abs(worse) > bound else "unresolved" if max(sa, sb) > bound else "ok"
        bad += verdict != "ok"
        gap, wide = needed.get(name, (0, 0))
        needed[name] = (max(gap, abs(worse)), max(wide, sa, sb))
        rows.append((workload, name, metric["unit"], ma, mb, worse, sa, sb, bound, verdict))

head = ("workload", "metric", "unit", "median A", "median B", "gap", "spread A", "spread B", "bound", "")
print("| " + " | ".join(head) + " |")
print("|" + "---|" * len(head))
for w, n, u, ma, mb, g, sa, sb, bound, verdict in rows:
    print(f"| {w} | {n} | {u} | {ma:.3f} | {mb:.3f} | {g:+.1%} | {sa:.1%} | {sb:.1%} | {bound:.0%} | {verdict} |")
print()
print("| metric | worst gap | worst spread | bound needed | bound set |")
print("|---|---|---|---|---|")
for metric in spec["end_to_end"]:
    gap, wide = needed[metric["name"]]
    print(f"| {metric['name']} | {gap:.1%} | {wide:.1%} | {max(2 * gap, wide):.1%} | {metric['bound']:.0%} |")
sys.exit(1 if bad else 0)
EOF
