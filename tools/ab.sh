#!/bin/sh
# Compare end-to-end metrics of two checkouts in alternating pairs.
#
#   sh tools/ab.sh [-n PAIRS] [-m METRIC[,METRIC...]] [-o OUTDIR] PARENT CHANGE [ARGS...]
#
# PARENT and CHANGE are checkout directories (e.g. made with
# `git archive <rev> --prefix=x/ | tar -x -C DIR`). Each pair runs
# `sh bench/e2e/run.sh ARGS` in both, back to back, the parent first in
# odd pairs and the change first in even ones. ARGS default to
# `--workload mutator-churn --seed 1 --seconds 10 --trace 0`; a seed or
# workload given in ARGS is used for every pair. METRIC defaults to
# run_s; several comma-separated metrics are read from the same runs.
#
# For each metric, prints each side's median and quartiles, the
# change's win count (ties count for neither side), the gain rule (the
# change must win at least nine pairs in ten, and the medians must
# differ by more than the parent's interquartile distance) and the
# regression bound: the change's median may be worse than the parent's
# by at most the metric's bound, and a parent interquartile distance
# wider than the bound leaves the comparison unresolved. Whether a
# metric is better lower or higher, and its bound, come from the
# change's BENCHMARK.json. Every pair must also print identical `exact`
# lines and fingerprints; a pair that does not is reported. Every run's
# output is kept in OUTDIR (default: a fresh directory under /tmp).
set -e

pairs=10
metric=run_s
out=
while getopts n:m:o: opt; do
  case $opt in
    n) pairs=$OPTARG ;;
    m) metric=$OPTARG ;;
    o) out=$OPTARG ;;
    *) echo "usage: $0 [-n PAIRS] [-m METRIC[,METRIC...]] [-o OUTDIR] PARENT CHANGE [ARGS...]" >&2
       exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -lt 2 ]; then
  echo "usage: $0 [-n PAIRS] [-m METRIC[,METRIC...]] [-o OUTDIR] PARENT CHANGE [ARGS...]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
[ $# -gt 0 ] || set -- --workload mutator-churn --seed 1 --seconds 10 --trace 0
[ -n "$out" ] || out=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
mkdir -p "$out"

# run SIDE DIR I ARGS...: one run, its output in $out/SIDE.I.txt
run() {
  log="$out/$1.$3.txt" dir=$2
  shift 3
  (cd "$dir" && sh bench/e2e/run.sh "$@") >"$log" 2>&1 || true
}

# value SIDE I METRIC: the metric's value in that run's output
value() {
  v=$(awk -v m="$3" '$1 == "metric" && $2 == m { print $3 }' "$out/$1.$2.txt")
  if [ -z "$v" ]; then
    echo "no 'metric $3' line in $out/$1.$2.txt" >&2
    exit 1
  fi
  echo "$v"
}

echo "# ab: $metric, $pairs pairs: $*"
echo "# parent $parent"
echo "# change $change"
echo "# outputs in $out"
metrics=$(echo "$metric" | tr , ' ')
i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i" "$@"; run change "$change" "$i" "$@"
  else
    run change "$change" "$i" "$@"; run parent "$parent" "$i" "$@"
  fi
  for side in parent change; do
    grep -E '^(exact|fingerprint)' "$out/$side.$i.txt" >"$out/$side.$i.exact" || true
  done
  same=same
  cmp -s "$out/parent.$i.exact" "$out/change.$i.exact" || same=DIFFER
  line="pair $i"
  for m in $metrics; do
    line="$line $m $(value parent "$i" "$m") -> $(value change "$i" "$m")"
  done
  echo "$line exact+fingerprint $same"
  i=$((i + 1))
done

# quartiles FILE: "q1 median q3" of the values in FILE (linear
# interpolation between closest ranks)
quartiles() {
  sort -g "$1" | awk '
    { v[NR] = $1 }
    function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h);
      return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
    END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

for m in $metrics; do
  decl=$(grep "\"name\": \"$m\"" "$change/BENCHMARK.json" || true)
  better=lower
  echo "$decl" | grep -q '"better": "higher"' && better=higher
  bound=$(echo "$decl" | sed -n 's/.*"bound": *\([0-9.]*\).*/\1/p')
  for side in parent change; do
    rm -f "$out/$side.$m.values"
    i=1
    while [ "$i" -le "$pairs" ]; do
      value "$side" "$i" "$m" >>"$out/$side.$m.values"
      i=$((i + 1))
    done
  done
  set -- $(quartiles "$out/parent.$m.values")
  pq1=$1 pmed=$2 pq3=$3
  set -- $(quartiles "$out/change.$m.values")
  cq1=$1 cmed=$2 cq3=$3
  echo "== $m ($better is better, bound ${bound:-none})"
  echo "parent median $pmed  quartiles $pq1 .. $pq3"
  echo "change median $cmed  quartiles $cq1 .. $cq3"
  paste "$out/parent.$m.values" "$out/change.$m.values" | awk \
    -v better="$better" -v bound="$bound" \
    -v pmed="$pmed" -v cmed="$cmed" -v pq1="$pq1" -v pq3="$pq3" '
    { if (better == "lower" ? $2 < $1 : $2 > $1) wins++ }
    END {
      gap = better == "lower" ? pmed - cmed : cmed - pmed
      iqr = pq3 - pq1
      printf "change wins %d/%d; median gap %.6g (%+.1f%% of the parent median), parent IQR %.6g (%.1f%%)\n",
        wins, NR, gap, pmed == 0 ? 0 : 100 * (cmed - pmed) / pmed, iqr,
        pmed == 0 ? 0 : 100 * iqr / pmed
      print (wins * 10 >= NR * 9 && gap > iqr) ? "gain rule: met" : "gain rule: not met"
      if (bound == "") exit
      if (pmed != 0 && iqr / pmed > bound)
        print "regression bound: unresolved (parent IQR wider than the bound)"
      else if (pmed == 0 ? gap < 0 : -gap / pmed > bound)
        print "regression bound: EXCEEDED"
      else
        print "regression bound: within"
    }'
done
