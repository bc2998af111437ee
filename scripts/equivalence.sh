#!/usr/bin/env bash
# End-to-end checks on the shipped CLI over every registered experiment
# (`ragnar all`): one equivalence axis, then one run per adapter profile.
#
#   1. Worker parallelism: -workers changes only wall-clock time, never a
#      byte of output. `all` runs at -workers=1 and -workers=4 and the
#      outputs are diffed.
#   2. Every profile completes: the diff above runs on the default cx4, so
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

same() {
	if ! cmp -s "$1" "$2"; then
		echo "equivalence FAILED: $3" >&2
		diff "$1" "$2" >&2 || true
		exit 1
	fi
	echo "equivalence OK: $3"
}

ragnar -workers 1 >"$tmp/seq.out"
ragnar -workers 4 >"$tmp/par.out"
same "$tmp/seq.out" "$tmp/par.out" "all experiments (-workers=1 == -workers=4)"

for nic in cx5 cx6 cx5-iso; do
	"$tmp/ragnar" -json -perclass 2 -seed 7 -nic "$nic" all >/dev/null
	echo "all experiments complete on $nic"
done
