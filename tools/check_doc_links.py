#!/usr/bin/env python3
"""Fail if docs reference repo paths or line pointers that do not exist.

Scans docs/*.md and README.md for tokens that look like repo paths
(src/..., tests/..., bench/..., examples/..., docs/..., tools/...) and
exits 1 listing every path that is missing from the tree, and every
path:N or path:N-M line pointer whose line lies past the end of the file —
so file moves, renames and shrinking files cannot silently strand the
documentation. Glob-ish tokens (containing * or <) are skipped.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The lookbehind keeps /usr/src/... and build/tests/... from matching on
# their src/ / tests/ substring: a repo path must not be preceded by a path
# character. An optional :N or :N-M suffix is a line pointer.
TOKEN = re.compile(
    r"(?<![A-Za-z0-9_./-])"
    r"((?:src|tests|bench|examples|docs|tools)/[A-Za-z0-9_./*<>-]+)"
    r"(?::(\d+)(?:-(\d+))?)?")

line_counts = {}


def num_lines(path):
    if path not in line_counts:
        with open(path, "rb") as f:
            line_counts[path] = sum(1 for _ in f)
    return line_counts[path]


stale = []
for md in sorted(ROOT.glob("docs/*.md")) + [ROOT / "README.md"]:
    for lineno, line in enumerate(md.read_text().splitlines(), 1):
        where = f"{md.relative_to(ROOT)}:{lineno}"
        for tok, first, last in TOKEN.findall(line):
            if "*" in tok or "<" in tok:
                continue  # glob / placeholder, not a concrete path
            path = tok.rstrip(".,;:)")
            target = ROOT / path
            if not target.exists():
                stale.append(f"{where}: {path} (path does not exist)")
            elif first:
                end = int(last or first)
                n = 0 if target.is_dir() else num_lines(target)
                if int(first) < 1 or end > n:
                    span = f"{first}-{last}" if last else first
                    stale.append(
                        f"{where}: {path}:{span} (file has {n} lines)")

if stale:
    print("stale doc links:")
    print("\n".join(stale))
    sys.exit(1)
print("doc links OK")
