#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it. Run it
# from the root of the checkout; its arguments are perfbench's:
#
#   bash perfbench/run.sh --workload ingest-bulk --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary, WAL dirs and span files go under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in
/*) ;;
*) work=$PWD/$work ;;
esac
mkdir -p "$work/tmp"
here=$(cd "$(dirname "$0")" && pwd)
(
	cd "$here"
	GOCACHE=$work/gocache GOPATH=$work/gopath GOTMPDIR=$work/tmp XDG_CONFIG_HOME=$work/config \
		GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$work/perfbench" .
) >&2
exec "$work/perfbench" --work-dir "$work" "$@"
