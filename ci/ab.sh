#!/usr/bin/env bash
# Paired runs of two livebench binaries on one workload: the evidence for a
# before/after claim on the end-to-end metrics of BENCHMARK.json.
#
#   ci/ab.sh <parent-bin> <change-bin> <workload> <pairs> <seconds> <first-seed>
#
# Pair i (counting from 0) runs seed <first-seed>+i untraced on both
# binaries. The parent runs first in even pairs, the change in odd ones.
# Progress goes to stderr. Stdout gets one JSON object that keeps every
# run's result line and gives, per end-to-end metric, each side's median
# and quartiles, the number of pairs the change won, and a verdict:
#   "gain"                the change won at least 90 % of the pairs and its
#                         median is better by more than the parent's IQR;
#   "worse_beyond_bound"  the change's median is worse than the parent's by
#                         more than the metric's bound;
#   "unresolved"          the parent's IQR is wider than the bound (relative
#                         to its median), so the runs cannot show the bound
#                         holds, and not every change run beats every parent
#                         run;
#   "within_bound"        anything else.
# Needs jq.
set -euo pipefail

if [ $# -ne 6 ]; then
    echo "usage: $0 <parent-bin> <change-bin> <workload> <pairs> <seconds> <first-seed>" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seconds=$5 first_seed=$6
bench="$(dirname "$0")/../BENCHMARK.json"
results=$(mktemp)
log=$(mktemp)
trap 'rm -f "$results" "$log"' EXIT

# run <side> <binary> <pair> <seed>: one untraced run, its last stdout line
# appended to $results.
run() {
    local out line
    if ! out=$("$2" --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0 2>"$log"); then
        cat "$log" >&2
        echo "ab: the $1 run of pair $3 (seed $4) failed" >&2
        exit 1
    fi
    line=$(tail -n 1 <<<"$out")
    jq -c --arg side "$1" --argjson pair "$3" --argjson seed "$4" \
        '{pair: $pair, seed: $seed, side: $side, result: .}' <<<"$line" >>"$results"
    echo "ab: $workload pair $3 seed $4 $1: $(jq -c \
        '{correct, failed} + (.metrics | map_values(.value))' <<<"$line")" >&2
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run parent "$parent" "$i" "$seed"
        run change "$change" "$i" "$seed"
    else
        run change "$change" "$i" "$seed"
        run parent "$parent" "$i" "$seed"
    fi
done

jq -s --slurpfile bench "$bench" --arg workload "$workload" \
    --argjson seconds "$seconds" --argjson first_seed "$first_seed" '
  # Quantile with linear interpolation between the two nearest ranks.
  def quantile($p):
    sort as $s | ($s | length) as $n | (($n - 1) * $p) as $h | ($h | floor) as $lo
    | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]);
  def summary: {p25: quantile(0.25), median: quantile(0.5), p75: quantile(0.75)};
  . as $runs
  | def side($s): $runs | map(select(.side == $s)) | sort_by(.pair);
    (side("parent")) as $pr | (side("change")) as $cr
  | {
      workload: $workload,
      pairs: ($pr | length),
      seconds: $seconds,
      first_seed: $first_seed,
      all_correct: {parent: ($pr | all(.result.correct)), change: ($cr | all(.result.correct))},
      failed: {parent: ($pr | map(.result.failed) | add), change: ($cr | map(.result.failed) | add)},
      metrics: ($bench[0].end_to_end | map(. as $d
        | ($pr | map(.result.metrics[$d.name].value)) as $p
        | ($cr | map(.result.metrics[$d.name].value)) as $c
        | ($p | summary) as $ps | ($c | summary) as $cs
        # Signed so that a positive value means the change is better.
        | (if $d.better == "lower" then 1 else -1 end) as $dir
        | ($dir * ($ps.median - $cs.median)) as $gain
        | (if $ps.median == 0 then null else $gain / ($ps.median | fabs) end) as $rel
        | ([range(0; $p | length)] | map(select($dir * ($p[.] - $c[.]) > 0)) | length) as $wins
        | ((($p | map($dir * .) | min) - ($c | map($dir * .) | max)) > 0) as $dominates
        | {key: $d.name, value: {
            better: $d.better,
            bound: $d.bound,
            parent: $ps,
            change: $cs,
            change_wins: $wins,
            rel_gain: $rel,
            verdict: (
              if $wins * 10 >= ($p | length) * 9 and $gain > ($ps.p75 - $ps.p25) then "gain"
              elif $rel != null and -$rel > $d.bound then "worse_beyond_bound"
              elif ($ps.median == 0 and $ps.p75 > $ps.p25)
                or ($ps.median != 0 and ($ps.p75 - $ps.p25) / ($ps.median | fabs) > $d.bound)
              then (if $dominates then "within_bound" else "unresolved" end)
              else "within_bound" end)
          }})
        | from_entries),
      runs: $runs
    }' "$results"
