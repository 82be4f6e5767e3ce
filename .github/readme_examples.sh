#!/usr/bin/env bash
# Runs the README's figure-style recipes and library quick start as written,
# in a scratch directory, so that the documented commands cannot drift from
# the program.
#
# Usage: bash .github/readme_examples.sh  (from the repository root, with
# gawqed installed)
set -euo pipefail
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
python - "$scratch" <<'PY'
import pathlib, re, sys
text = pathlib.Path("README.md").read_text(encoding="utf-8")
blocks = {"recipes.sh": r"### Figure-style recipes\n\n```bash\n(.*?)```",
          "quickstart.py": r"## Library quick start\n\n```python\n(.*?)```"}
for name, pattern in blocks.items():
    pathlib.Path(sys.argv[1], name).write_text(re.search(pattern, text, re.S).group(1))
PY
cd "$scratch"
bash -e recipes.sh
python quickstart.py
