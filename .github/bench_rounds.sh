#!/usr/bin/env bash
# Runs one round of each benchmark workload (bench/run.py --seed 1
# --seconds 0), which must report "correct": true, then one traced round of
# each (--trace 1), which must report it too.
#
# A known fault counts as failed without making a run incorrect, so the
# plain rounds cap the failures at the faults still open (spectra: the
# near-dark spectrum, now unitary, fails only its 50-digit reference check,
# r being 3.2e-9 off).  The traced mode wraps functions by name
# (bench/tracing.py): a traced name that leaves the package breaks it, and
# nothing else runs it.
#
# Usage: bash .github/bench_rounds.sh  (from the repository root, with
# gawqed installed)
set -euo pipefail
for entry in spectra:1 master:0 configs:0; do
  workload=${entry%:*} allowed=${entry#*:}
  last=$(python bench/run.py --workload "$workload" --seed 1 --seconds 0 | tail -n 1)
  echo "$workload: $last"
  echo "$last" | python -c "import json, sys; r = json.load(sys.stdin); sys.exit(r['correct'] is not True or r['failed'] > $allowed)"
done
for workload in spectra master configs; do
  last=$(python bench/run.py --workload "$workload" --seed 1 --seconds 0 --trace 1 | tail -n 1)
  echo "$workload traced: $last"
  echo "$last" | python -c "import json, sys; sys.exit(json.load(sys.stdin)['correct'] is not True)"
done
