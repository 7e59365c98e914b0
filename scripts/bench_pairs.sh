#!/usr/bin/env bash
# Gates one fd-bench bench on the change against its parent commit: both
# run on this host in alternating pairs, then scripts/bench_diff.py fails
# a field whose median change/parent ratio exceeds the tolerance and that
# the change loses in at least 4 of 5 pairs.
#
# Usage: scripts/bench_pairs.sh BENCH JSON
#   BENCH  the fd-bench bench target (hotpath, ingress_scaling)
#   JSON   the file the bench writes at the repo root (BENCH_hotpath.json, ...)
# Five alternating pairs, odd pairs running the parent first; 10 % tolerance.
# Environment: WORK, a scratch directory (default: a fresh temporary one).
#
# The parent (HEAD^) is checked out in a git worktree under $WORK and built
# into its own target dir. Run from the change's checkout, which needs at
# least two commits of history.
set -euo pipefail

bench=$1
json=$2
pairs=5
work=${WORK:-$(mktemp -d)}
repo=$(git rev-parse --show-toplevel)
parent="$work/parent"
runs="$work/runs"
mkdir -p "$runs"

git -C "$repo" worktree add --detach "$parent" HEAD^
trap 'git -C "$repo" worktree remove --force "$parent"' EXIT

# Side name -> checkout and target dir.
run_side() {
  local side=$1 pair=$2 dir target
  if [ "$side" = parent ]; then
    dir=$parent target="$work/parent-target"
  else
    dir=$repo target="${CARGO_TARGET_DIR:-$repo/target}"
  fi
  (cd "$dir" && CARGO_TARGET_DIR="$target" cargo bench -q -p fd-bench --bench "$bench" "${@:3}")
  if [ "$pair" -gt 0 ]; then
    cp "$dir/$json" "$runs/$side-$pair.json"
  fi
}

# Build both sides before any timed run.
run_side parent 0 --no-run
run_side change 0 --no-run

for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run_side parent "$pair"
    run_side change "$pair"
  else
    run_side change "$pair"
    run_side parent "$pair"
  fi
done

parents=() changes=()
for pair in $(seq 1 "$pairs"); do
  parents+=("$runs/parent-$pair.json")
  changes+=("$runs/change-$pair.json")
done
python3 "$repo/scripts/bench_diff.py" \
  --parent "${parents[@]}" --change "${changes[@]}" \
  --tolerance-pct 10
