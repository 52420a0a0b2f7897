#!/usr/bin/env python3
"""Line and `unsafe` counts of the workspace's library sources.

Usage: python3 scripts/code_stats.py [REPO_ROOT]

Counts every `.rs` file under `crates/*/src` except the offline
dependency shims (`crates/shims`), and prints one row per crate plus a
total:

- lines: every line of every file;
- code: non-test code lines, i.e. lines that are neither blank nor
  `//` comments (after leading whitespace; doc comments included) and
  that come before the file's test module. A file's test module starts
  at the first `#[cfg(test)]` line whose next non-blank line starts
  with `mod` (or `pub mod`); `fma/tests.rs` is a test file as a whole;
- unsafe: non-comment lines (as above) that contain the word `unsafe`,
  test modules included;
- unsafe (non-test): the same, counted only in non-test code.

The counts take no options and exit 0; they are printed, not gated.
"""

import re
import sys
from pathlib import Path

UNSAFE = re.compile(r"\bunsafe\b")
TEST_FILES = {("la", "fma/tests.rs")}


def test_start(lines):
    """Index of the first line of the file's test module, or len(lines)."""
    for i, line in enumerate(lines):
        if line.strip() != "#[cfg(test)]":
            continue
        rest = (l.strip() for l in lines[i + 1 :])
        nxt = next((l for l in rest if l), "")
        if nxt.startswith(("mod ", "pub mod ")):
            return i
    return len(lines)


def is_code(line):
    s = line.strip()
    return bool(s) and not s.startswith("//")


def file_stats(crate, rel, text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    cut = 0 if (crate, rel) in TEST_FILES else test_start(lines)
    code = [(i, l) for i, l in enumerate(lines) if is_code(l)]
    unsafe = [i for i, l in code if UNSAFE.search(l)]
    return (
        len(lines),
        sum(1 for i, _ in code if i < cut),
        len(unsafe),
        sum(1 for i in unsafe if i < cut),
    )


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    rows = []
    for src in sorted((root / "crates").glob("*/src")):
        crate = src.parent.name
        if crate == "shims":
            continue
        tot = [0, 0, 0, 0]
        for f in sorted(src.rglob("*.rs")):
            rel = f.relative_to(src).as_posix()
            for k, v in enumerate(file_stats(crate, rel, f.read_text())):
                tot[k] += v
        rows.append((crate, tot))
    total = [sum(r[1][k] for r in rows) for k in range(4)]
    head = ("crate", "lines", "code", "unsafe", "unsafe (non-test)")
    print(f"{head[0]:<10}{head[1]:>8}{head[2]:>8}{head[3]:>8}{head[4]:>19}")
    for name, (lines, code, uns, uns_nt) in rows + [("total", total)]:
        print(f"{name:<10}{lines:>8,}{code:>8,}{uns:>8}{uns_nt:>19}")


if __name__ == "__main__":
    main()
