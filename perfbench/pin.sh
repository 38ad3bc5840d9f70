#!/usr/bin/env bash
# Regenerates perfbench/pinned.json: the SHA-256 of every report the
# benchmark checks for its default seeds (0-40). Fleet reports are
# rendered by capyfleet in its scalar-oracle configuration (op-cache and
# fuser off, one worker) and must equal the report of its default
# configuration; matrix tables are capybench -csv output. Run from the
# repository root:
#
#   bash perfbench/pin.sh
#
# Keys follow fleetKey and tableKey in gate.go; sizes and the seed
# derivation (subSeed, daemonSpec) follow workloads.go and daemon.go.
set -euo pipefail
seeds=$(seq 0 40)
fleet_specs=8   # fleetSpecs in workloads.go
matrix_seeds=16 # matrixSeeds in workloads.go
fresh=48        # fresh daemon specs pinned per seed: daemonJobs less its repeats (daemon.go)
export build=.bench_build/pin
mkdir -p "$build"
go build -o "$build/capyfleet" ./cmd/capyfleet
go build -o "$build/capybench" ./cmd/capybench

fleet() { # n seed: prints "key<TAB>digest"
	local oracle default
	oracle=$("$build/capyfleet" -n "$1" -seed "$2" -scale 0.05 -jobs 1 -batch 0 -fuse=false 2>/dev/null | sha256sum | cut -d' ' -f1)
	default=$("$build/capyfleet" -n "$1" -seed "$2" -scale 0.05 -jobs 1 2>/dev/null | sha256sum | cut -d' ' -f1)
	if [ "$oracle" != "$default" ]; then
		echo "pin.sh: n=$1 seed=$2: scalar-oracle and default reports differ" >&2
		return 1
	fi
	printf 'fleet n=%d seed=%d scale=0.05\t%s\n' "$1" "$2" "$oracle"
}
matrix() { # fig seed
	printf 'matrix fig%s seed=%d\t%s\n' "$1" "$2" \
		"$("$build/capybench" -fig "$1" -csv -seed "$2" | sha256sum | cut -d' ' -f1)"
}
export -f fleet matrix

{
	for s in $seeds; do
		for i in $(seq 0 $((fleet_specs - 1))); do echo fleet 480 $(((s << 20) + i)); done
		for i in $(seq 0 $((fresh - 1))); do echo fleet 24 $(((s << 20) + i)); done
		for i in $(seq 0 $((matrix_seeds - 1))); do
			for fig in 8 9 11; do echo matrix "$fig" $(((s << 20) + i)); done
		done
	done
	for fig in 8 9 11; do echo matrix "$fig" 42; done
} | xargs -P 2 -L 1 bash -c '"$@"' _ | sort -u |
	awk -F'\t' 'BEGIN { print "{" } { printf "%s  \"%s\": \"%s\"", (NR > 1 ? ",\n" : ""), $1, $2 } END { print "\n}" }' \
		>"$build/pinned.json"
mv "$build/pinned.json" perfbench/pinned.json
echo "pin.sh: $(grep -c ': "' perfbench/pinned.json) digests written to perfbench/pinned.json"
