#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark workloads: the protocol
# bench/README.md demands of a gain claim (>= 10 pairs, sides alternating
# which runs first), as one command.
#
#   bash scripts/benchpairs.sh <workload[,workload...]> [pairs=10] [extra bench/run.sh args]
#   bash scripts/benchpairs.sh q17_baseline 10 --dataseed 777
#   bash scripts/benchpairs.sh q17_baseline,q17_feedforward,q17_spill 5
#
# The change is the working tree; the parent is HEAD when the tree has
# uncommitted changes to tracked files and HEAD~1 when it is clean (override
# with PARENT=<rev>). The parent is exported with `git archive` into
# .bench_build/pairs/parent (git-ignored), so nothing is registered in the
# repository and nothing is written outside the checkout. Each side runs
# `bash bench/run.sh --workload <w> --seed 1 --seconds 15 --trace 0 <extra>`
# from its own root. Workloads run one after another, all pairs of one before
# the next. For each workload and every end-to-end metric it prints each
# side's median and quartiles and the change's wins (ties count for neither),
# and whether the medians differ by more than the parent's interquartile
# range; then each side's failed and attempted queries summed over its runs.
# A run with failed queries is counted, not fatal; a run that prints no result
# stops the script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[ $# -ge 1 ] || { sed -n '2,22p' "${BASH_SOURCE[0]}" >&2; exit 2; }
workloads="$1"; pairs="${2:-10}"; shift; [ $# -gt 0 ] && shift
cd "$root"
if [ -z "${PARENT:-}" ]; then
	if git diff --quiet HEAD --; then PARENT=HEAD~1; else PARENT=HEAD; fi
fi
rev="$(git rev-parse --short "$PARENT")"
work="$root/.bench_build/pairs"
rm -rf "$work/parent"; mkdir -p "$work/parent"
git archive "$PARENT" | tar -x -C "$work/parent"

# run <side> <root>: one timed run of $workload; appends "side metric value"
# lines, and "side =attempted n" / "side =failed n" for the query counts.
run() {
	local line
	line="$(cd "$2" && bash bench/run.sh --workload "$workload" --seed 1 --seconds 15 --trace 0 "${@:3}" 2>/dev/null | tail -n 1)" || true
	case "$line" in
	*'"attempted":'*) ;;
	*) echo "benchpairs: $1 run of $workload printed no result: $line" >&2; exit 1 ;;
	esac
	echo "$line" | grep -o '"[a-z_0-9]*":{"value":[-0-9.e+]*' |
		sed -e 's/"\([a-z_0-9]*\)":{"value":/\1 /' -e "s/^/$1 /" >> "$out"
	echo "$line" | grep -o '"\(attempted\|failed\)":[0-9]*' |
		sed -e 's/"\([a-z]*\)":/=\1 /' -e "s/^/$1 /" >> "$out"
}

IFS=, read -ra list <<< "$workloads"
for workload in "${list[@]}"; do
	out="$work/$workload.tsv"; : > "$out"
	echo "benchpairs: $workload, $pairs pairs, parent $rev, args: --seed 1 --seconds 15 --trace 0 $*" >&2
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$work/parent" "$@"; run change "$root" "$@"
		else
			run change "$root" "$@"; run parent "$work/parent" "$@"
		fi
		echo "benchpairs: $workload pair $i/$pairs done" >&2
	done

	# Runs of one side are in pair order, so line k of each side is pair k.
	awk -v pairs="$pairs" -v workload="$workload" -v rev="$rev" '
	function q(a, n, f,   x, i) { x = f * (n - 1) + 1; i = int(x); if (i >= n) return a[n]; return a[i] + (x - i) * (a[i + 1] - a[i]) }
	function sorted(side, m, dst,   i, j, t, n) {
		n = cnt[side, m]
		for (i = 1; i <= n; i++) dst[i] = val[side, m, i]
		for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
		return n
	}
	$2 ~ /^=/ { tot[$1, substr($2, 2)] += $3; next }
	{ k = ++cnt[$1, $2]; val[$1, $2, k] = $3; if (!($2 in seen)) { seen[$2] = 1; order[++nm] = $2 } }
	END {
		lower["setup_s"] = lower["query_p50_ms"] = lower["query_p90_ms"] = lower["peak_state_mb"] = lower["rss_peak_mb"] = lower["wire_bytes_per_query"] = 1
		printf "%s: %d pairs against parent %s\n", workload, pairs, rev
		printf "%-22s %34s %34s %6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "medians apart by > parent IQR"
		for (mi = 1; mi <= nm; mi++) {
			m = order[mi]
			n = sorted("parent", m, P); sorted("change", m, C)
			wins = 0
			for (i = 1; i <= n; i++) {
				p = val["parent", m, i]; c = val["change", m, i]
				if (m in lower) { if (c < p) wins++ } else if (c > p) wins++
			}
			pm = q(P, n, .5); cm = q(C, n, .5); iqr = q(P, n, .75) - q(P, n, .25)
			d = cm - pm; if (d < 0) d = -d
			printf "%-22s %12.6g [%9.6g, %9.6g] %12.6g [%9.6g, %9.6g] %3d/%-2d %s (%+.1f%%)\n", m, pm, q(P, n, .25), q(P, n, .75), cm, q(C, n, .25), q(C, n, .75), wins, n, (d > iqr ? "yes" : "no"), (pm != 0 ? 100 * (cm - pm) / pm : 0)
		}
		printf "%-22s %34s %34s\n", "failed / attempted", sprintf("%d / %d", tot["parent", "failed"], tot["parent", "attempted"]), sprintf("%d / %d", tot["change", "failed"], tot["change", "attempted"])
	}' "$out"
done
