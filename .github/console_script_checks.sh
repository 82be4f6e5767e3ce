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
# Then a spectrum whose rates span 16 decades, (1, 1, 1, 1e16), whose t and r
# must match the 50-digit reference of bench/reference.py within 1e-13.
# Last, peak RSS (ru_maxrss of each child, from os.wait4): the fig. 7a
# inelastic spectrum at 401 and at 40001 nu, whose peak may grow by at most
# 4 MB between the two (the spectrum is summed over fixed blocks of the
# grid), and a 2000-config oracle-check, which may peak at most 2 MB above a
# one-config characteristics run (its draws import no numpy.random).
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

printf '%s\n' '{"atoms": [{"points": [{"phase": 0, "rate": 1}, {"phase": 1, "rate": 1}]}, {"points": [{"phase": 2, "rate": 1}, {"phase": 3, "rate": 1e16}]}]}' > "$tmp/wide.json"
gawqed --command spectrum --config "$tmp/wide.json" --sweep delta_a:-3:3:13 > "$tmp/wide.csv"
python - "$tmp/wide.csv" "$(dirname "$0")/../bench" <<'EOF'
import sys

sys.path.insert(0, sys.argv[2])
from reference import amplitudes

atoms = [[(0.0, 1.0), (1.0, 1.0)], [(2.0, 1.0), (3.0, 1e16)]]
with open(sys.argv[1]) as fh:
    rows = [[float(v) for v in line.split(",")[:5]] for line in fh.read().splitlines()[1:]]
worst = 0.0
for delta, re_t, im_t, re_r, im_r in rows:
    t, r = amplitudes(atoms, 0.0, delta)
    worst = max(worst, abs(complex(re_t, im_t) - complex(t)), abs(complex(re_r, im_r) - complex(r)))
print(f"spectrum at a rate span of 1e16: max |dt|, |dr| = {worst:.1e} over {len(rows)} detunings")
if len(rows) != 13 or worst > 1e-13:
    sys.exit("the spectrum at a rate span of 1e16 misses the 50-digit reference by more than 1e-13")
EOF

printf '%s\n' '{"symmetric": {"topology": "separate", "phi": 1.5707963267948966}, "delta_ab": 1.0, "drive": {"alpha_sq": 0.04, "detuning": 0.3}}' > "$tmp/fig7a.json"
python - "$tmp/fig7a.json" <<'EOF'
import os, subprocess, sys


def peak(*argv):
    """The peak RSS in MB of one gawqed run."""
    child = subprocess.Popen(["gawqed", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"gawqed {' '.join(argv)} failed")
    return usage.ru_maxrss / 1024  # ru_maxrss is in kB on Linux


peaks = [
    peak("--config", sys.argv[1], "--command", "inelastic-spectrum", "--sweep", f"nu:-40:40:{points}")
    for points in (401, 40001)
]
print(f"inelastic-spectrum peak RSS: {peaks[0]:.1f} MB at 401 nu, {peaks[1]:.1f} MB at 40001 nu")
if peaks[1] - peaks[0] > 4.0:
    sys.exit(f"peak RSS grew by {peaks[1] - peaks[0]:.1f} MB from 401 to 40001 nu (at most 4 MB)")

oracle = peak("--command", "oracle-check", "--sweep", "delta_a:0:1:2000")
one = peak("--config", sys.argv[1], "--command", "characteristics")
print(f"peak RSS: {oracle:.1f} MB for a 2000-config oracle-check, {one:.1f} MB for one characteristics config")
if oracle - one > 2.0:
    sys.exit(f"oracle-check peaks {oracle - one:.1f} MB above one characteristics config (at most 2 MB)")
EOF
