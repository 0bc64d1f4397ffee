#!/usr/bin/env python3
"""Project linter: repo-specific invariants clang-tidy cannot express.

Run from the repository root (CI `analyze` job, or locally):

    python3 tools/lint.py            # lint src/ (library code)
    python3 tools/lint.py --list     # describe the rules

Rules (library code under src/ only; tests and benches are exempt unless
noted). Suppress a finding by appending a justification on the same line:

    srand(seed);  // lint: allow(no-unseeded-rand) reproducing legacy trace

rules:
  no-unseeded-rand    std::rand/srand/time(nullptr) are banned in library
                      code: every random draw must flow through util/rng.h
                      (seeded, splittable, deterministic) and every clock
                      read through util/timer.h, or results stop being
                      reproducible.
  no-naked-new        No naked `new`/`delete` in library code: ownership is
                      std::unique_ptr/std::make_unique or containers.
                      (Placement new into preallocated storage is allowed.)
  tile-test-coverage  Every built-in metric (each `using X =
                      KernelMetric<...>` alias) and every other class
                      overriding Metric::DistanceTile* must be exercised by
                      tests/tile_kernel_test.cc — a tile kernel that skips
                      the tile<->scalar equivalence matrix is unverified.
  statusor-value-guard  `.value()` on a StatusOr/optional requires a
                      visible guard (`ok()` / `has_value()` check or the
                      DIVERSE_ASSIGN_OR_RETURN macro) within the preceding
                      8 lines; an unguarded .value() is a latent
                      CHECK-abort with no diagnosis.
  tsa-escape-justified  DIVERSE_NO_THREAD_SAFETY_ANALYSIS requires a
                      same-line justification comment: the analysis
                      escape hatch must say why the analysis is wrong.
  no-dataset-points-in-src  `.points()` is banned in library code:
                      Dataset::points() (the only points() method under
                      src/) rebuilds every row as a Point, an O(n) export
                      for API edges. Library paths read rows (row(i),
                      point(i), AssignGatherColumnar) instead.
"""

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z0-9-]+)\)")

findings = []


def finding(rule, path, line_no, message):
    findings.append(f"{path.relative_to(REPO)}:{line_no}: [{rule}] {message}")


def code_lines(path):
    """Yields (line_no, code, full_line) with string/char literals blanked
    and // and /* */ comments stripped, so patterns never match prose."""
    in_block_comment = False
    text = path.read_text(encoding="utf-8", errors="replace")
    for line_no, full in enumerate(text.splitlines(), start=1):
        line = full
        # Blank string and char literals (naive but sufficient: the repo
        # bans multi-line raw strings in library code).
        line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
        line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block_comment = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        cut = line.find("//")
        if cut >= 0:
            line = line[:cut]
        yield line_no, line, full


def allowed(full_line, rule):
    m = ALLOW_RE.search(full_line)
    return m is not None and m.group(1) == rule


def lint_file(path):
    lines = list(code_lines(path))
    full_by_no = {n: f for n, _, f in lines}

    rand_re = re.compile(
        r"(?:\bstd::rand\b|(?<![\w:])rand\s*\(\s*\)|(?<![\w:])srand\s*\(|"
        r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\))")
    new_re = re.compile(r"(?<![\w:])new\b(?!\s*\()")  # `new (addr)` allowed
    delete_re = re.compile(r"(?<![\w:])delete(?:\[\])?\s")
    value_re = re.compile(r"\.\s*value\s*\(\s*\)")
    guard_re = re.compile(r"\.ok\s*\(\s*\)|has_value\s*\(\s*\)|"
                          r"DIVERSE_ASSIGN_OR_RETURN|DIVERSE_CHECK")
    tsa_escape_re = re.compile(r"DIVERSE_NO_THREAD_SAFETY_ANALYSIS")
    points_re = re.compile(r"(?:\.|->)\s*points\s*\(\s*\)")

    for i, (line_no, code, full) in enumerate(lines):
        if rand_re.search(code) and not allowed(full, "no-unseeded-rand"):
            finding("no-unseeded-rand", path, line_no,
                    "std::rand/srand/time(nullptr) in library code; use "
                    "util/rng.h / util/timer.h")
        if (new_re.search(code) or delete_re.search(code)) \
                and not allowed(full, "no-naked-new"):
            finding("no-naked-new", path, line_no,
                    "naked new/delete in library code; use make_unique or "
                    "containers")
        if value_re.search(code) and not allowed(full, "statusor-value-guard"):
            window = [lines[j][1] for j in range(max(0, i - 8), i + 1)]
            if not any(guard_re.search(w) for w in window):
                finding("statusor-value-guard", path, line_no,
                        ".value() without a visible ok()/has_value() guard "
                        "or DIVERSE_ASSIGN_OR_RETURN in the preceding 8 "
                        "lines")
        if points_re.search(code) \
                and not allowed(full, "no-dataset-points-in-src"):
            finding("no-dataset-points-in-src", path, line_no,
                    "Dataset::points() re-materializes the whole dataset; "
                    "read rows instead")
        if tsa_escape_re.search(code):
            comment = full[full.find("//"):] if "//" in full else ""
            # The macro definition itself (thread_annotations.h) is exempt.
            if "#define" in code:
                continue
            if len(comment.replace("/", "").strip()) < 8:
                finding("tsa-escape-justified", path, line_no,
                        "DIVERSE_NO_THREAD_SAFETY_ANALYSIS without a "
                        "same-line justification comment")


def lint_tile_coverage():
    """Every Metric with DistanceTile* kernels must appear in the tile
    equivalence test matrix: each alias of the built-in KernelMetric
    template (the template's kernels run once per kernel trait), and every
    other class that overrides a DistanceTile* kernel."""
    tile_test = (REPO / "tests" / "tile_kernel_test.cc").read_text(
        encoding="utf-8", errors="replace")

    def in_matrix(name):
        return re.search(rf"\b{name}\b", tile_test) is not None

    override_re = re.compile(r"\bDistanceTile\w*\s*\(")
    class_re = re.compile(r"^\s*class\s+(\w+)[^;]*$")
    alias_re = re.compile(r"^\s*using\s+(\w+)\s*=\s*KernelMetric\s*<")
    for path in sorted(SRC.rglob("*.h")):
        for line_no, code, _full in code_lines(path):
            m = alias_re.match(code)
            if m and not in_matrix(m.group(1)):
                finding("tile-test-coverage", path, line_no,
                        f"{m.group(1)} is a KernelMetric but never appears "
                        "in tests/tile_kernel_test.cc")
        current_class = None
        brace_depth = 0
        class_depth = None
        for _, code, _full in code_lines(path):
            m = class_re.match(code)
            if m and "{" in code:
                current_class = m.group(1)
                class_depth = brace_depth
            elif m:
                current_class = m.group(1)
                class_depth = brace_depth  # brace arrives on a later line
            brace_depth += code.count("{") - code.count("}")
            if current_class and brace_depth <= (class_depth or 0) \
                    and "}" in code and ";" in code:
                current_class = None
            # KernelMetric itself is covered through its aliases above.
            if current_class and current_class != "KernelMetric" \
                    and override_re.search(code) and "override" in code:
                if not in_matrix(current_class):
                    finding("tile-test-coverage", path, 0,
                            f"{current_class} overrides a DistanceTile* "
                            "kernel but never appears in "
                            "tests/tile_kernel_test.cc")
                    current_class = None  # one finding per class


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--list", action="store_true",
                        help="describe the rules and exit")
    args = parser.parse_args()
    if args.list:
        print(__doc__)
        return 0

    for path in sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cc")):
        lint_file(path)
    lint_tile_coverage()

    if findings:
        print(f"tools/lint.py: {len(findings)} finding(s)", file=sys.stderr)
        for f in findings:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("tools/lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
