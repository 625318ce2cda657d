#!/usr/bin/env bash
# Maps which statements of the serving daemons the benchmark's traffic
# runs: builds the benchmark plainly, has it build cmd/availd and
# cmd/availgw with coverage on, runs the named workloads (default: all
# four), merges the counters and prints per-function coverage of
# internal/{ingest,cluster,wal,obs} and cmd/avail*.
#
#   bash scripts/traffic-map.sh                     # all four, ≈5 min on 2 vCPUs
#   bash scripts/traffic-map.sh gateway-bin-2k      # one workload
#   go tool cover -html=.bench_build/traffic-map/cover.txt   # from the root
#
# Everything it writes is under .bench_build/traffic-map: the raw and
# merged counters and cover.txt, the text profile. The workloads run in
# a copy of the working tree there, because the benchmark writes its
# reports into its own checkout; the copy is removed at the end. A
# process that exits by SIGKILL writes no counters, so a workload's
# crash steps count only through its SIGTERM stacks.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/traffic-map"
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(steady-66k crash-recover-66k gateway-bin-2k gateway-json-2k)

rm -rf "$out"
mkdir -p "$out/src" "$out/covdata" "$root/.bench_build/home" "$root/.bench_build/tmp"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
	tar --null --ignore-failed-read -T - -cf -) | tar -xf - -C "$out/src"

# bench/run.sh's environment, with its caches shared.
export HOME="$root/.bench_build/home" TMPDIR="$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOMODCACHE="$root/.bench_build/gomod"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The bench binary itself is built without -cover: its in-process
# engines would count as served traffic.
(cd "$out/src/bench" && go build -o "$out/bench" .)

dirs=()
for w in "${workloads[@]}"; do
	mkdir -p "$out/covdata/$w"
	dirs+=("$out/covdata/$w")
	# The bench's own `go build ./cmd/availd ./cmd/availgw` inherits
	# GOFLAGS, so only the daemons are instrumented.
	(cd "$out/src/bench" &&
		GOFLAGS='-mod=mod -cover -coverpkg=swarmavail/...' GOCOVERDIR="$out/covdata/$w" \
			"$out/bench" -workload "$w" -seed 1 -seconds 8 | tail -n 1)
done

mkdir -p "$out/merged"
go tool covdata merge -i="$(IFS=,; echo "${dirs[*]}")" -o "$out/merged"
go tool covdata textfmt -i="$out/merged" -o "$out/cover.txt"
cd "$out/src"
go tool cover -func="$out/cover.txt" | grep -E '^swarmavail/(internal/(ingest|cluster|wal|obs)|cmd/avail(d|gw))/'
go tool covdata percent -i="$out/merged" | grep -E 'swarmavail/(internal/(ingest|cluster|wal|obs)|cmd/avail(d|gw))\b'
cd "$root"
rm -rf "$out/src"
echo "text profile: $out/cover.txt"
