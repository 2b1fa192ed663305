#!/bin/sh
# Runs every workload untraced (the end-to-end metrics), then traced (the
# per-layer metrics and the variant ladder), from the repository root.
# Results land in benchmark/out/<set>/<workload>.json and trace-<workload>.json
# (plus trace-spans-<workload>.json, the raw spans); every metric is printed
# as "name value unit".
#
#   sh benchmark/run.sh [seed] [seconds] [set]
#
# Two sets of the same commit, then:  go run ./benchmark -compare benchmark/out/a benchmark/out/b
set -eu
seed=${1:-1}
seconds=${2:-20}
set_name=${3:-default}
out=benchmark/out/$set_name
cd "$(dirname "$0")/.."
go build -o benchmark/out/benchmark.bin ./benchmark
for w in run-cg256 ingest-inproc ingest-tcp-durable ingest-read-mix; do
	echo "== $w (seed $seed, ${seconds}s, untraced)"
	benchmark/out/benchmark.bin -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 -out "$out/$w.json"
done
for w in run-cg256 ingest-inproc ingest-tcp-durable ingest-read-mix; do
	echo "== $w (seed $seed, ${seconds}s, traced)"
	benchmark/out/benchmark.bin -workload "$w" -seed "$seed" -seconds "$seconds" -trace 1 -out "$out/trace-$w.json"
done
