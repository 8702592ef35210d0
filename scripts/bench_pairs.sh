#!/usr/bin/env bash
# Paired A/B runs of the repo benchmark between two commits.
#
#   scripts/bench_pairs.sh <parent-rev> <change-rev> <workload> [pairs] [seconds] [seed]
#
# Checks each revision out as a detached `git worktree` under
# target/bench_pairs/, builds its benchmark there (so this checkout and its
# benchmark/Cargo.lock are never touched), then runs `pairs` (default 10)
# pairs of the benchmark's single-run form
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0
#
# (`seconds` default 20, `seed` default 11), alternating which side runs
# first. Prints every run, then per end-to-end metric each side's median and
# quartiles, the pairs each side won (ties count for neither) and the change
# of the median against the parent's interquartile range: a gain is claimed
# only at >= 9/10 of pairs won and |Δ median| > parent IQR. The worktrees
# are removed on exit. Uncommitted edits to tracked files can be measured
# as the change by passing `$(git stash create)` for <change-rev>.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    sed -n '4p' "$0" | sed 's/^#   /usage: /' >&2
    exit 2
fi
parent_rev="$1"
change_rev="$2"
workload="$3"
pairs="${4:-10}"
seconds="${5:-20}"
seed="${6:-11}"

root="$(git rev-parse --show-toplevel)"
base="$root/target/bench_pairs"
mkdir -p "$base"
log="$(mktemp "$base/runs.XXXXXX")"
trees=()
cleanup() {
    for tree in "${trees[@]}"; do
        git -C "$root" worktree remove --force "$tree" || true
    done
    rm -f "$log"
}
trap cleanup EXIT

# Check out and build one side in worktree `tree` (registered for cleanup
# before it exists, so a failed build still removes it).
prepare() {
    local side="$1" rev="$2" tree="$3"
    trees+=("$tree")
    git -C "$root" worktree add --force --detach "$tree" "$rev" >&2
    echo "bench_pairs: building $side (${rev:0:12})" >&2
    CARGO_TARGET_DIR="$tree/benchmark/target" cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml" >&2
}
parent_sha="$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")"
change_sha="$(git -C "$root" rev-parse --verify "$change_rev^{commit}")"
parent_tree="$base/parent-$parent_sha"
change_tree="$base/change-$change_sha"
prepare parent "$parent_sha" "$parent_tree"
prepare change "$change_sha" "$change_tree"

# One run of one side; appends "<pair> <side> <result json>" to the log.
run() {
    local pair="$1" side="$2" tree="$3" json
    json="$(CARGO_TARGET_DIR="$tree/benchmark/target" bash "$tree/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
    echo "$pair $side $json" >>"$log"
    python3 -c 'import json, sys; wall = json.loads(sys.argv[3])["metrics"]["wall_s"]["value"]
print(f"pair {sys.argv[1]:>2} {sys.argv[2]:<6} wall_s {wall:.4f}")' \
        "$pair" "$side" "$json"
}

echo "bench_pairs: $workload, seed $seed, $seconds s runs, $pairs pairs"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run "$pair" parent "$parent_tree"
        run "$pair" change "$change_tree"
    else
        run "$pair" change "$change_tree"
        run "$pair" parent "$parent_tree"
    fi
done

python3 - "$log" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

runs = {}
for line in open(sys.argv[1]):
    pair, side, doc = line.split(" ", 2)
    runs.setdefault(side, {})[int(pair)] = json.loads(doc)["metrics"]
better = {m["name"]: m["better"] for m in json.load(open(sys.argv[2]))["end_to_end"]}
pairs = sorted(runs["parent"])

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print()
print(f"{'metric':<24} {'parent q1 / median / q3':>36} {'change q1 / median / q3':>36}"
      f" {'wins p:c':>9} {'Δ median':>10} {'Δ/IQR':>7}")
for name, direction in better.items():
    if name not in runs["parent"][pairs[0]]:
        continue
    p = [runs["parent"][i][name]["value"] for i in pairs]
    c = [runs["change"][i][name]["value"] for i in pairs]
    sign = 1 if direction == "higher" else -1
    change_wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    parent_wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    delta = cm - pm
    rel = f"{delta / pm:+.1%}" if pm else "n/a"
    iqr = p3 - p1
    ratio = f"{delta / iqr:+.1f}" if iqr else ("0" if delta == 0 else "inf")
    print(f"{name:<24} {p1:>11.4g} {pm:>11.4g} {p3:>11.4g}  {c1:>11.4g} {cm:>11.4g} {c3:>11.4g}"
          f" {parent_wins:>4}:{change_wins:<4} {rel:>10} {ratio:>7}")
EOF
