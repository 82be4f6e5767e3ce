#!/usr/bin/env bash
# Runs the console script of [project.scripts], which is how the README runs
# the tool and which nothing else runs: one good run over more than one block
# of oracle-check draws (exit 0), one run without the config that spectrum
# needs (exit 2), one bad sweep, whose exit 2 writes nothing to stdout and
# exactly one JSON line to stderr, and one steady-state failure, likewise
# with exit 3: braided phi = pi/2 is decoherence-free, and its Hamiltonian's
# two pairs of equal gaps give 8 stationary directions.  Then a master sweep
# at rates of 1e154, which the rate unit keeps finite (exit 0), and a config
# whose integer has more digits than Python converts (exit 2, one JSON line).
#
# Usage: bash .github/console_script_checks.sh  (with gawqed installed)
set -euo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

gawqed --command oracle-check --sweep delta_a:0:1:300 --format json > /dev/null
code=0
gawqed --command spectrum || code=$?
test "$code" -eq 2
code=0
gawqed --command spectrum --sweep delta_a:0:1:1 > "$tmp/out" 2> "$tmp/err" || code=$?
test "$code" -eq 2
test ! -s "$tmp/out"
printf '%s\n' '{"error": "config", "message": "sweep needs at least 2 points"}' | cmp - "$tmp/err"
printf '%s\n' '{"symmetric": {"topology": "braided", "phi": 1.5707963267948966}, "drive": {"alpha_sq": 0.01}}' > "$tmp/dark.json"
code=0
gawqed --command master-sweep --config "$tmp/dark.json" --sweep delta_a:-1:1:5 > "$tmp/out" 2> "$tmp/err" || code=$?
test "$code" -eq 3
test ! -s "$tmp/out"
printf '%s\n' '{"error": "SteadyStateError", "message": "steady state is not unique: 8 stationary directions (decoupled or purely Hamiltonian dynamics)"}' | cmp - "$tmp/err"

printf '%s\n' '{"symmetric": {"topology": "separate", "phi": 0.7, "gamma": 1e154}, "drive": {"alpha_sq": 4e152}}' > "$tmp/huge.json"
gawqed --command master-sweep --config "$tmp/huge.json" --sweep delta_a:-3e154:3e154:5 > /dev/null

# Python's message for the digit limit differs between versions: the
# expected line is built from the message of the interpreter that runs here
python - "$tmp/long.json" > "$tmp/expected" <<'EOF'
import json, sys

text = '{"delta_ab": ' + "1" * 5001 + "}"
with open(sys.argv[1], "w") as fh:
    fh.write(text)
try:
    json.loads(text)
except ValueError as exc:
    print(json.dumps({"error": "config", "message": f"config is not valid JSON: {exc}"}))
EOF
grep -q 'Exceeds the limit' "$tmp/expected"
code=0
gawqed --command characteristics --config "$tmp/long.json" > "$tmp/out" 2> "$tmp/err" || code=$?
test "$code" -eq 2
test ! -s "$tmp/out"
cmp "$tmp/expected" "$tmp/err"
