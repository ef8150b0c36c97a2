#!/usr/bin/env bash
# Size of the tree, for a change's before/after numbers:
#  - non-blank, non-comment C++ lines in src, bench, tools, examples
#    and tests (// lines and /* ... */ blocks are comments);
#  - settable options: the fields of RunConfig plus the distinct
#    DOPP_* environment names read in src, bench, tools and examples.
#
#   scripts/loc.sh [repo-dir]
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

python3 - <<'EOF'
import pathlib
import re

def code_lines(path):
    n = 0
    in_block = False
    for line in path.read_text(errors="replace").splitlines():
        s = line.strip()
        if in_block:
            if "*/" not in s:
                continue
            s = s.split("*/", 1)[1].strip()
            in_block = False
        while s.startswith("/*"):
            if "*/" not in s:
                in_block = True
                s = ""
                break
            s = s.split("*/", 1)[1].strip()
        if s and not s.startswith("//"):
            n += 1
    return n

def sources(top):
    exts = {".cc", ".hh", ".cpp", ".h"}
    return sorted(p for p in pathlib.Path(top).rglob("*")
                  if p.suffix in exts and p.is_file())

total = {}
for top in ["src", "bench", "tools", "examples", "tests"]:
    total[top] = sum(code_lines(p) for p in sources(top))
    print(f"{top:10s} {total[top]:7d}")
print(f"{'src+bench':10s} {total['src'] + total['bench']:7d}")

text = pathlib.Path("src/harness/experiment.hh").read_text()
body = re.search(r"^struct RunConfig\n\{\n(.*?)^\};", text,
                 re.S | re.M).group(1)
fields = 0
for line in body.splitlines():
    s = line.strip()
    if (line.startswith("    ") and not line.startswith("     ")
            and s.endswith(";") and not s.startswith(("//", "*", "/*"))
            and "(" not in s.split("=", 1)[0]):
        fields += 1

names = set()
for top in ["src", "bench", "tools", "examples"]:
    for p in sources(top):
        names.update(re.findall(r'"(DOPP_[A-Z0-9_]+)"',
                                p.read_text(errors="replace")))
print(f"options    {fields + len(names):7d}"
      f"  (RunConfig fields {fields} + DOPP_* names {len(names)})")
EOF
