#!/usr/bin/env bash
# The least-code ratchet. Prints the non-test lines of the serving
# packages, counts the exported fields of every options struct and the
# flag definitions of every tool, lists the exported functions and
# methods nothing outside tests names, and checks all of it against
# scripts/surface.txt:
#
#   - an unreferenced export that the file does not list fails;
#   - a name the file lists that now has a caller (or is gone) fails;
#   - a count above its ceiling in the file fails.
#
#   bash scripts/surface.sh        # from anywhere in the repo
#
# A top-level function counts as named only by its qualified pkg.Name
# outside its package (bench/ counts), or inside its package by the bare
# name (not after a ".", not on its own func line), so a method of the
# same spelling elsewhere cannot hide it. Methods match by spelling.
# Flags are flag.X or fs.X calls (cmd/bt and cmd/swarmavail define
# theirs on a FlagSet named fs).
set -eu # no pipefail: a grep -q that stops reading is a match, not a failure
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
data=scripts/surface.txt
bad=0
fail() { echo "surface: $*" >&2; bad=1; }

echo "non-test lines (ingest, cluster, availd, availgw): $(ls internal/ingest/*.go internal/cluster/*.go cmd/availd/*.go cmd/availgw/*.go | grep -v _test | xargs cat | wc -l)"

check_count() { # kind name count
	local ceiling
	ceiling=$(awk -v k="$1" -v n="$2" '$1 == k && $2 == n { print $3 }' "$data")
	echo "$2 $1: $3 (ceiling ${ceiling:-none})"
	if [ -z "$ceiling" ]; then
		fail "$1 $2 has no ceiling in $data"
	elif [ "$3" -gt "$ceiling" ]; then
		fail "$1 $2: $3 is above its ceiling $ceiling"
	fi
}
for t in ingest.Config cluster.GatewayConfig cluster.FollowerConfig ingest.HTTPClientConfig ingest.StreamClientConfig ingest.DurabilityConfig cluster.NodeConfig bittorrent/peer.Config bittorrent/peer.ProbeConfig monitor.Config wal.Options; do
	check_count options "$t" "$(go doc -short "./internal/${t%%.*}" "${t#*.}" | grep -cP '^\t[A-Z]\w* ')"
done
for c in availd availgw bt swarmavail; do
	check_count flags "cmd/$c" "$(ls cmd/$c/*.go | grep -v _test | xargs grep -ohP '\b(flag|fs)\.(Bool|Int|Int64|Uint|Uint64|String|Duration|Float64|Func|TextVar|Var)(Var)?\(' | wc -l)"
done

funcs=$(for f in $(ls *.go internal/*/*.go internal/*/*/*.go cmd/*/*.go | grep -v _test.go); do
	d=$(dirname "$f"); p=$(grep -m1 -oP '^package \K\w+' "$f"); own="./$d/"; [ "$d" = . ] && own=./
	for name in $(grep -ohP '^func \K[A-Z]\w*' "$f"); do
		grep -rHP --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build "\b$p\.$name\b" . | grep -vP '^[^:]+:\s*//' | grep -qvP "^\Q$own\E[^/]+:" ||
			grep -hvP "^\s*//|^func (\([^)]*\) )?$name\b" $(ls "$d"/*.go | grep -v _test.go) | grep -qP "(?<![.\w])$name\b" || echo "$name"
	done
done | sort -u)
methods=$(for name in $(ls *.go internal/*/*.go internal/*/*/*.go cmd/*/*.go | grep -v _test.go | xargs grep -ohP '^func \([^)]*\) \K[A-Z]\w*' | sort -u); do
	grep -rwh --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build "$name" . | grep -vP "^\s*//|^func \([^)]*\) $name\(" | grep -q . || echo "$name"
done | sort -u)
echo "unreferenced functions: $(echo $funcs)"
echo "unreferenced methods: $(echo $methods)"

check_names() { # kind found-list
	local kept
	kept=$(awk -v k="$1" '$1 == k { print $2 }' "$data" | sort)
	for name in $(comm -23 <(echo "$2" | sed '/^$/d') <(echo "$kept")); do
		fail "$1 $name has no non-test caller and no line in $data: give it a caller, delete it, or list it with a reason"
	done
	for name in $(comm -13 <(echo "$2" | sed '/^$/d') <(echo "$kept")); do
		fail "$1 $name is listed in $data but has a non-test caller or is gone: drop its line"
	done
}
check_names func "$funcs"
check_names method "$methods"
awk '/^(func|method) / && NF < 3 { print "surface: " FILENAME ":" FNR ": " $1 " " $2 " has no reason"; bad = 1 } END { exit bad }' "$data" >&2 || bad=1
exit $bad
