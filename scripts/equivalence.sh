#!/usr/bin/env bash
# End-to-end checks on the shipped CLI over every registered experiment
# (`ragnar all`): two equivalence axes, then one run per adapter profile.
#
#   1. Worker parallelism: -workers changes only wall-clock time, never a
#      byte of output. `all` runs at -workers=1 and -workers=4 and the
#      outputs are diffed.
#   2. Engine partitioning: -domains selects how many engine domains a
#      partitionable fabric is split across; the conservative parallel
#      engine must produce byte-identical results at any count. `all` runs
#      at -domains 1, 2 and 6 — for the partitionable experiments that
#      exercises the window protocol end to end, for the single-engine ones
#      it pins that the flag is inert. Only the rendered domain-count header
#      may differ, so it is normalized before the diff.
#   3. Every profile completes: the diffs above run on the default cx4, so
#      `all` also runs once each on cx5, cx6 and cx5-iso (as JSON, which
#      walks every result field) and must exit 0.
#
# -perclass 2 keeps the CNN side-channel corpus small: one `all` pass takes
# about 12 s at -workers 1 on a 2-vCPU Xeon, 5 s of it CNN training.
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/ragnar" ./cmd/ragnar

ragnar() {
	"$tmp/ragnar" -perclass 2 -seed 7 "$@" all
}

# The only line that may legitimately vary across -domains is the rendered
# domain count itself.
normalize() {
	sed 's/[0-9]* engine domain(s)/N engine domain(s)/'
}

same() {
	if ! cmp -s "$1" "$2"; then
		echo "equivalence FAILED: $3" >&2
		diff "$1" "$2" >&2 || true
		exit 1
	fi
	echo "equivalence OK: $3"
}

ragnar -workers 1 -domains 2 >"$tmp/seq.out"
ragnar -workers 4 -domains 2 >"$tmp/par.out"
same "$tmp/seq.out" "$tmp/par.out" "all experiments (-workers=1 == -workers=4)"

ragnar -workers 2 -domains 1 | normalize >"$tmp/serial.out"
for d in 2 6; do
	ragnar -workers 2 -domains "$d" | normalize >"$tmp/part.out"
	same "$tmp/serial.out" "$tmp/part.out" "all experiments (-domains 1 == $d)"
done

for nic in cx5 cx6 cx5-iso; do
	"$tmp/ragnar" -json -perclass 2 -seed 7 -nic "$nic" all >/dev/null
	echo "all experiments complete on $nic"
done
