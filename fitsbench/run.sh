#!/usr/bin/env bash
# Builds the fitsbench benchmark from the source tree and runs it in place
# of this script, so stopping the command stops the benchmark itself.
# Run it from the root of the repository:
#
#   bash fitsbench/run.sh --workload corpus-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the
# binary, the Go build cache, trace files and fitsd's temporary data
# directories (removed when a run ends).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"

# The build runs in the background so a signal reaches this script at once.
# go build dies on SIGTERM but leaves its compiler processes running, so the
# trap freezes it (it then starts no further compiler), ends the compilers
# it runs and waits for them, and then ends go build itself.
go build -C "$root/fitsbench" -trimpath -buildvcs=false -o "$build/fitsbench" . &
build_pid=$!
stop_build() {
	kill -STOP "$build_pid" 2>/dev/null || return 0
	local kids k i
	kids=$(pgrep -P "$build_pid" || true)
	if [ -n "$kids" ]; then kill -TERM $kids 2>/dev/null || true; fi
	kill -KILL "$build_pid" 2>/dev/null || true
	wait "$build_pid" 2>/dev/null || true
	for k in $kids; do
		for i in $(seq 100); do
			case $(ps -o stat= -p "$k" 2>/dev/null) in '' | Z*) break ;; esac
			sleep 0.05
		done
	done
}
trap 'stop_build; exit 130' INT TERM
wait "$build_pid"
trap - INT TERM
exec "$build/fitsbench" "$@"
