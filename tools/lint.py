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
  no-mutable-globals-in-core  Namespace-scope variables in src/core must
                      be const, constexpr or thread_local. Per-call choices
                      travel with the call (the Metric's KernelPolicy), so
                      two concurrent solves never see each other's state;
                      a process-global that some call writes breaks that.
                      The allow comment may sit on any line of the
                      declaration.
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


VAR_OK_RE = re.compile(r"\b(?:const|constexpr|thread_local)\b")
NOT_VAR_RE = re.compile(
    r"^\s*(?:using|typedef|template|class|struct|union|enum|friend|"
    r"static_assert|namespace|extern\s+template)\b")
NAMESPACE_RE = re.compile(r"^\s*(?:inline\s+)?namespace\b[\w:\s]*$|"
                          r'^\s*extern\s+""\s*$')
TYPE_KEYWORD_RE = re.compile(r"\b(?:class|struct|union|enum)\b")


def lint_core_globals(path):
    """no-mutable-globals-in-core: scans the namespace-scope statements of
    one src/core file. A brace opens a namespace, a brace initializer
    (after `=`, or right after a declarator with no parameter list) or any
    other body; only statements ending in `;` outside every non-namespace
    body are declarations at namespace scope."""
    stack = []  # one entry per open brace: "ns", "init" or "body"
    stmt, stmt_lines = "", []
    for line_no, code, full in code_lines(path):
        if code.lstrip().startswith("#"):
            continue  # preprocessor
        for ch in code:
            at_ns = all(kind == "ns" for kind in stack)
            if ch == "{":
                text = stmt.strip()
                if at_ns and NAMESPACE_RE.match(text):
                    stack.append("ns")
                    stmt, stmt_lines = "", []
                elif at_ns and text and ("=" in text or (
                        "(" not in text and not TYPE_KEYWORD_RE.search(text)
                        and re.search(r"[\w\]]$", text))):
                    stack.append("init")
                else:
                    stack.append("body")
                continue
            if ch == "}":
                kind = stack.pop() if stack else "ns"
                if kind == "body" and all(k == "ns" for k in stack):
                    stmt, stmt_lines = "", []
                continue
            if not at_ns:
                continue
            if ch == ";":
                check_core_global(path, stmt, stmt_lines)
                stmt, stmt_lines = "", []
                continue
            stmt += ch
            if not stmt_lines or stmt_lines[-1][0] != line_no:
                stmt_lines.append((line_no, full))
        if all(kind == "ns" for kind in stack):
            stmt += " "


def check_core_global(path, stmt, stmt_lines):
    text = re.sub(r"alignas\s*\([^)]*\)|\[\[[^\]]*\]\]", "", stmt).strip()
    if not text or NOT_VAR_RE.match(text) or VAR_OK_RE.search(text):
        return
    # A parameter list before any initializer is a function declaration.
    paren, eq = text.find("("), text.find("=")
    if paren >= 0 and (eq < 0 or paren < eq):
        return
    if any(allowed(full, "no-mutable-globals-in-core")
           for _, full in stmt_lines):
        return
    finding("no-mutable-globals-in-core", path, stmt_lines[0][0],
            "mutable namespace-scope state in src/core; pass it with the "
            "call (e.g. the Metric's KernelPolicy) or make it const")


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
    core = SRC / "core"
    for path in sorted(core.glob("*.h")) + sorted(core.glob("*.cc")):
        lint_core_globals(path)
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
