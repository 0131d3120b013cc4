#!/usr/bin/env bash
# Builds rdfalign, rdfalignd, datagen and the benchmark from the sources of
# this checkout, then runs one workload of the benchmark:
#
#   bash alignbench/run.sh --workload stream-deblank --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Builds, generated inputs and span
# files all go under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR" "$out/bin"
(cd "$root/alignbench" && go build -o "$out/bin/" . rdfalign/cmd/rdfalign rdfalign/cmd/rdfalignd rdfalign/cmd/datagen)
exec "$out/bin/alignbench" -bin "$out/bin" -work "$out/work" -root "$root" "$@"
