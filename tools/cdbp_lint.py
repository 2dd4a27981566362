#!/usr/bin/env python3
"""cdbp_lint — project-specific invariant linter for the cdbp codebase.

The correctness proofs reproduced from the paper (Theorems 1/2/4/5) rest on
coding conventions that generic tools cannot check. This linter enforces them
mechanically over ``src/``, ``tests/``, ``bench/`` and ``examples/``:

  capacity-compare   Size/Time values must never be compared against
                     ``kBinCapacity`` or the literal ``1.0`` with raw
                     ``<``/``<=``/``==``-family operators, and raw arithmetic
                     on ``kBinCapacity`` is confined to ``core/epsilon.hpp``.
                     All capacity decisions route through the shared
                     tolerance helpers (``leq``/``lt``/``approxEq``/
                     ``fitsCapacity``/``freeCapacity``) so every module
                     accepts exactly the same packings.
  rng-discipline     No ``std::rand``/``std::srand``/``std::random_device``
                     outside ``util/rng.hpp``. Experiments must be seeded
                     and reproducible; entropy-seeded RNG silently breaks
                     golden regression tests.
  iostream-in-lib    No ``#include <iostream>`` in the algorithmic library
                     directories (``src/core``, ``src/online``,
                     ``src/offline``, ``src/multidim``). Algorithm code
                     reports through return values; stream globals drag in
                     static initializers and tempt ad-hoc printing.
  endl-in-lib        No ``std::endl`` anywhere under ``src/`` (use ``'\\n'``;
                     ``std::endl`` flushes, which is a measurable cost in
                     table/chart rendering hot paths).
  pragma-once        Every header carries ``#pragma once``.
  wallclock-in-lib   No direct ``steady_clock``/``system_clock``/
                     ``high_resolution_clock`` ``::now()`` calls under
                     ``src/`` outside ``src/telemetry/``. All timing routes
                     through ``telemetry/clock.hpp`` (monotonicNanos /
                     wallclockUnixMicros) so instrumentation stays
                     centralized and mockable, and library code stays
                     deterministic.
  raw-bin-loop       No range-``for`` iteration over ``openBins(...)`` under
                     ``src/`` outside the placement substrate
                     (``src/sim/``). Linear open-bin scans bypass the
                     engine-routed PlacementView queries (firstFit /
                     bestFit / worstFit / minScoreFitIn), silently lose the
                     sublinear indexed engine and skew the ``sim.fit_checks``
                     accounting. Policies whose selection rule genuinely
                     keys on policy-private state must carry a justified
                     suppression.
  raw-number-parse   No ``std::sto*``/``ato*``/``strto*`` under ``src/``
                     outside ``util/parse.hpp``. Those parsers accept
                     partial prefixes ("16abc" -> 16) and, for stoull,
                     wrap negatives modulo 2^64 — both have produced
                     silently-wrong experiment configs. All text-to-number
                     conversion routes through the checked
                     ``tryParseDouble``/``tryParseUint``/``tryParseLong``
                     helpers in ``util/parse.hpp``, which reject trailing
                     junk.
  commit-outside-kernel
                     No ``.addItem(`` or ``place(view`` under ``src/sim/``
                     outside the commit kernel (``sim/stream_internals.hpp``;
                     ``BinManager``'s own files are exempt). The batch,
                     stream and sharded engines are bit-identical because
                     they commit every placement through one function; a
                     second hand-written policy call or commit is where they
                     would start to drift.
  departure-order-outside-queue
                     No ``push_heap``/``pop_heap``/``make_heap``/
                     ``priority_queue`` under ``src/sim/`` outside
                     ``sim/stream_internals.hpp``. The stream and sharded
                     engines drain pending departures in the batch
                     timeline's (time, id) order from one
                     ``DepartureQueue``; a second, hand-rolled queue is
                     where that order would drift.
  registry-lookup-in-lib
                     No ``Registry::global().counter(``/``.gauge(``/
                     ``.histogram(`` under ``src/`` outside
                     ``src/telemetry/``. Each lookup takes the registry
                     mutex and searches a name map; the ``CDBP_TELEM_*``
                     macros do it once per call site, and compile to
                     nothing with telemetry off. A site with a dynamic
                     name resolves its metric once and keeps the
                     reference, with a justified suppression.

Suppressing a finding
---------------------
Append (or put on the immediately preceding line) a justified suppression::

    double sentinel = 2 * kBinCapacity;  // cdbp-lint: allow(capacity-compare): sentinel, not a feasibility decision

A suppression without a justification after the ``:`` is itself an error —
the justification is the reviewable artifact.

Usage::

    python3 tools/cdbp_lint.py              # lint the repository, exit 1 on findings
    python3 tools/cdbp_lint.py --root DIR   # lint DIR's src/tests/bench/examples
    python3 tools/cdbp_lint.py --self-test  # verify the linter against its fixtures

Stdlib-only by design; runs identically in CI, `scripts/check.sh` and ctest.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

SCAN_DIRS = ("src", "tests", "bench", "examples")
EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")

# Files whose whole purpose is to define the checked discipline.
CAPACITY_EXEMPT = ("core/epsilon.hpp", "core/types.hpp")
RNG_EXEMPT = ("util/rng.hpp",)

EPSILON_HELPERS = ("leq(", "lt(", "approxEq(", "fitsCapacity(", "freeCapacity(")

LIB_IOSTREAM_DIRS = ("src/core/", "src/online/", "src/offline/", "src/multidim/")

SUPPRESS_RE = re.compile(
    r"cdbp-lint:\s*allow\(([a-z-]+)\)\s*(?::\s*(\S.*))?$"
)

# Comparison against the literal 1.0 (either side). Single `=` (assignment)
# and compound assignment never match; `1.05` etc. is excluded by the
# trailing guard.
CMP_1_0_RE = re.compile(
    r"(?:==|!=|<=|>=|<|>)\s*1\.0(?![\d.])|(?<![\d.])1\.0\s*(?:==|!=|<=|>=|<|>)"
)

RNG_RE = re.compile(r"\bstd::s?rand\b|\bs?rand\s*\(|\brandom_device\b")

IOSTREAM_RE = re.compile(r"#\s*include\s*<iostream>")

WALLCLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
)

# The sanctioned clock wrappers live here; everything else under src/ must
# go through them.
WALLCLOCK_EXEMPT_DIR = "src/telemetry/"

# Range-for over an openBins(...) list — the shape of a hand-rolled linear
# placement scan. The opening brace of the range-for body may sit on the
# same line or the loop header may span lines; matching the `: ...openBins(`
# core is enough for this codebase's formatting.
RAW_BIN_LOOP_RE = re.compile(r"for\s*\(.*:\s*[\w.\->]*openBins\s*\(")

# The substrate itself (manager, view, index) is the sanctioned home of
# linear reference scans.
RAW_BIN_LOOP_EXEMPT_DIR = "src/sim/"

# Partial-prefix/wraparound-prone parsers. `std::stoi` et al. are plain
# identifiers; `atof`/`strtod` et al. are matched as calls so words like
# "atoll" inside longer identifiers don't trip it.
RAW_PARSE_RE = re.compile(
    r"\bstd\s*::\s*sto(?:d|f|ld|i|l|ll|ul|ull)\b"
    r"|\bato(?:f|i|l|ll)\s*\("
    r"|\bstrto(?:d|f|ld|imax|umax|l|ll|ul|ull)\s*\("
)

# The checked helpers live here; they wrap std::from_chars directly.
RAW_PARSE_EXEMPT = ("util/parse.hpp",)

# A policy call on a view or a bin commit: the two halves of the
# per-placement step that only the kernel may perform in src/sim/.
COMMIT_RE = re.compile(r"\.addItem\s*\(|\bplace\s*\(\s*view\b")

COMMIT_DIR = "src/sim/"
COMMIT_EXEMPT = ("src/sim/stream_internals.hpp", "src/sim/bin_manager.hpp",
                 "src/sim/bin_manager.cpp")

# General-purpose heap primitives: departure order in the engines comes
# from stream_internal::DepartureQueue only.
HEAP_RE = re.compile(r"\b(?:push_heap|pop_heap|make_heap|priority_queue)\b")

HEAP_DIR = "src/sim/"
HEAP_EXEMPT = ("src/sim/stream_internals.hpp",)

# A metric lookup in the global registry, chained onto the lookup call.
REGISTRY_LOOKUP_RE = re.compile(
    r"\bRegistry\s*::\s*global\s*\(\s*\)\s*\.\s*"
    r"(?:counter|gauge|histogram)\s*\("
)
# The registry and the CDBP_TELEM_* macros live here.
REGISTRY_LOOKUP_EXEMPT_DIR = "src/telemetry/"

ALL_RULES = (
    "capacity-compare",
    "rng-discipline",
    "iostream-in-lib",
    "endl-in-lib",
    "pragma-once",
    "wallclock-in-lib",
    "raw-bin-loop",
    "raw-number-parse",
    "commit-outside-kernel",
    "departure-order-outside-queue",
    "registry-lookup-in-lib",
)


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code_line(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Removes comments and string/char literal contents from one line.

    Returns the stripped line and whether a /* block comment is still open.
    Literal contents are blanked (kept as spaces) so column positions and
    operators outside literals survive. This is a lexer-lite: good enough for
    the line-oriented patterns above, not a C++ parser.
    """
    out: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            break  # rest of line is a comment
        if c == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append(" ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


class FileLint:
    def __init__(self, root: str, relpath: str, text: str):
        self.relpath = relpath.replace(os.sep, "/")
        self.raw_lines = text.splitlines()
        self.findings: list[Finding] = []
        # suppressions[line_no] = set of rule names allowed on that line.
        self.suppressions: dict[int, set[str]] = {}
        self.code_lines: list[str] = []
        self._collect_suppressions()
        self._strip()

    def _collect_suppressions(self) -> None:
        for idx, line in enumerate(self.raw_lines, start=1):
            m = SUPPRESS_RE.search(line)
            if not m:
                continue
            rule, justification = m.group(1), m.group(2)
            if rule not in ALL_RULES:
                self.findings.append(
                    Finding(self.relpath, idx, "suppression",
                            f"unknown rule '{rule}' in cdbp-lint suppression"))
                continue
            if not justification:
                self.findings.append(
                    Finding(self.relpath, idx, "suppression",
                            f"suppression of '{rule}' lacks a justification "
                            "(write `// cdbp-lint: allow(rule): why`)"))
                continue
            self.suppressions.setdefault(idx, set()).add(rule)
            # A suppression on its own comment line covers the next line.
            stripped = line.strip()
            if stripped.startswith("//"):
                self.suppressions.setdefault(idx + 1, set()).add(rule)

    def _strip(self) -> None:
        in_block = False
        for line in self.raw_lines:
            stripped, in_block = strip_code_line(line, in_block)
            self.code_lines.append(stripped)

    def report(self, lineno: int, rule: str, message: str) -> None:
        if rule in self.suppressions.get(lineno, set()):
            return
        self.findings.append(Finding(self.relpath, lineno, rule, message))

    # --- rules ---

    def check_capacity_compare(self) -> None:
        if self.relpath.endswith(CAPACITY_EXEMPT):
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if "kBinCapacity" in code:
                if not any(h in code for h in EPSILON_HELPERS):
                    self.report(
                        idx, "capacity-compare",
                        "raw use of kBinCapacity outside the epsilon helpers "
                        "(route through leq/lt/approxEq/fitsCapacity/"
                        "freeCapacity from core/epsilon.hpp)")
                    continue
            if CMP_1_0_RE.search(code):
                self.report(
                    idx, "capacity-compare",
                    "raw comparison against literal 1.0 (use the epsilon "
                    "helpers, or kBinCapacity arithmetic through them)")

    def check_rng_discipline(self) -> None:
        if self.relpath.endswith(RNG_EXEMPT):
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if RNG_RE.search(code):
                self.report(
                    idx, "rng-discipline",
                    "non-reproducible RNG source (std::rand/random_device); "
                    "use cdbp::Rng from util/rng.hpp with an explicit seed")

    def check_iostream_in_lib(self) -> None:
        if not self.relpath.startswith(LIB_IOSTREAM_DIRS):
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if IOSTREAM_RE.search(code):
                self.report(
                    idx, "iostream-in-lib",
                    "#include <iostream> in algorithmic library code "
                    "(report through return values; use <ostream> for "
                    "operator<< declarations)")

    def check_endl_in_lib(self) -> None:
        if not self.relpath.startswith("src/"):
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if "std::endl" in code:
                self.report(
                    idx, "endl-in-lib",
                    "std::endl flushes on every use; write '\\n' and let the "
                    "stream flush on close")

    def check_wallclock_in_lib(self) -> None:
        if not self.relpath.startswith("src/"):
            return
        if self.relpath.startswith(WALLCLOCK_EXEMPT_DIR):
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if WALLCLOCK_RE.search(code):
                self.report(
                    idx, "wallclock-in-lib",
                    "direct clock ::now() call in library code; use "
                    "telemetry/clock.hpp (monotonicNanos / "
                    "wallclockUnixMicros) so timing stays centralized")

    def check_raw_bin_loop(self) -> None:
        if not self.relpath.startswith("src/"):
            return
        if self.relpath.startswith(RAW_BIN_LOOP_EXEMPT_DIR):
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if RAW_BIN_LOOP_RE.search(code):
                self.report(
                    idx, "raw-bin-loop",
                    "hand-rolled scan over openBins(); route placement "
                    "through the PlacementView queries (firstFit/bestFit/"
                    "worstFit/minScoreFitIn) so both engines serve it, or "
                    "justify why the selection rule cannot be expressed as "
                    "a substrate query")

    def check_raw_number_parse(self) -> None:
        if not self.relpath.startswith("src/"):
            return
        if self.relpath.endswith(RAW_PARSE_EXEMPT):
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if RAW_PARSE_RE.search(code):
                self.report(
                    idx, "raw-number-parse",
                    "partial-prefix-tolerant number parser (std::sto*/ato*/"
                    "strto*); use tryParseDouble/tryParseUint/tryParseLong "
                    "from util/parse.hpp, which reject trailing junk")

    def check_commit_outside_kernel(self) -> None:
        if not self.relpath.startswith(COMMIT_DIR):
            return
        if self.relpath in COMMIT_EXEMPT:
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if COMMIT_RE.search(code):
                self.report(
                    idx, "commit-outside-kernel",
                    "policy call or bin commit outside the placement kernel; "
                    "go through stream_internal::commitPlacement "
                    "(sim/stream_internals.hpp) so every engine commits "
                    "placements with the same code")

    def check_departure_order_outside_queue(self) -> None:
        if not self.relpath.startswith(HEAP_DIR):
            return
        if self.relpath in HEAP_EXEMPT:
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if HEAP_RE.search(code):
                self.report(
                    idx, "departure-order-outside-queue",
                    "heap primitive in an engine; pending departures go "
                    "through stream_internal::DepartureQueue "
                    "(sim/stream_internals.hpp) so every engine drains them "
                    "in the same (time, id) order")

    def check_registry_lookup_in_lib(self) -> None:
        if not self.relpath.startswith("src/"):
            return
        if self.relpath.startswith(REGISTRY_LOOKUP_EXEMPT_DIR):
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if REGISTRY_LOOKUP_RE.search(code):
                self.report(
                    idx, "registry-lookup-in-lib",
                    "metric lookup in the global registry (mutex and name "
                    "search on every call); use the CDBP_TELEM_* macros "
                    "from telemetry/telemetry.hpp, which resolve the metric "
                    "once per call site")

    def check_pragma_once(self) -> None:
        if not self.relpath.endswith((".hpp", ".h")):
            return
        for code in self.code_lines:
            if re.search(r"#\s*pragma\s+once", code):
                return
        self.report(1, "pragma-once", "header is missing #pragma once")

    def run(self) -> list[Finding]:
        self.check_capacity_compare()
        self.check_rng_discipline()
        self.check_iostream_in_lib()
        self.check_endl_in_lib()
        self.check_wallclock_in_lib()
        self.check_raw_bin_loop()
        self.check_raw_number_parse()
        self.check_commit_outside_kernel()
        self.check_departure_order_outside_queue()
        self.check_registry_lookup_in_lib()
        self.check_pragma_once()
        return self.findings


def lint_tree(root: str) -> list[Finding]:
    findings: list[Finding] = []
    for scan in SCAN_DIRS:
        base = os.path.join(root, scan)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                with open(path, encoding="utf-8", errors="replace") as fh:
                    text = fh.read()
                findings.extend(FileLint(root, rel, text).run())
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# --- self-test against the checked-in fixtures ---

# relpath (under the fixture root) -> set of rules that must fire there.
# An empty set means the file must lint clean.
FIXTURE_EXPECTATIONS = {
    "src/core/bad_capacity.cpp": {"capacity-compare"},
    "src/core/bad_header.hpp": {"pragma-once"},
    "src/core/bad_suppression.cpp": {"suppression", "capacity-compare"},
    "src/core/suppressed_ok.cpp": set(),
    "src/online/bad_iostream.cpp": {"iostream-in-lib"},
    "src/sim/bad_endl.cpp": {"endl-in-lib"},
    "src/workload/bad_rng.cpp": {"rng-discipline"},
    "src/core/clean.cpp": set(),
    "src/sim/bad_wallclock.cpp": {"wallclock-in-lib"},
    "src/telemetry/clock_ok.cpp": set(),
    "src/online/bad_bin_loop.cpp": {"raw-bin-loop"},
    "src/online/bin_loop_suppressed_ok.cpp": set(),
    "src/sim/bin_loop_substrate_ok.cpp": set(),
    "src/io/bad_raw_parse.cpp": {"raw-number-parse"},
    "src/io/raw_parse_suppressed_ok.cpp": set(),
    "src/util/parse.hpp": set(),
    "src/sim/bad_commit.cpp": {"commit-outside-kernel"},
    "src/sim/bad_heap.cpp": {"departure-order-outside-queue"},
    "src/sim/stream_internals.hpp": set(),
    "src/serve/bad_registry_lookup.cpp": {"registry-lookup-in-lib"},
    "src/serve/registry_lookup_suppressed_ok.cpp": set(),
    "src/telemetry/registry_ok.cpp": set(),
}


def self_test(fixture_root: str) -> int:
    findings = lint_tree(fixture_root)
    by_file: dict[str, set[str]] = {rel: set() for rel in FIXTURE_EXPECTATIONS}
    unexpected_files = []
    for f in findings:
        if f.path in by_file:
            by_file[f.path].add(f.rule)
        else:
            unexpected_files.append(f)
    failures = 0
    for rel, expected in sorted(FIXTURE_EXPECTATIONS.items()):
        got = by_file[rel]
        if got != expected:
            failures += 1
            print(f"self-test FAIL {rel}: expected rules {sorted(expected)}, "
                  f"got {sorted(got)}")
    for f in unexpected_files:
        failures += 1
        print(f"self-test FAIL unexpected finding: {f.render()}")
    if failures:
        return 1
    print(f"self-test OK: {len(FIXTURE_EXPECTATIONS)} fixtures, "
          f"{len(findings)} expected findings")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root to lint (default: the parent "
                             "of this script's directory)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter against tools/lint_fixtures and "
                             "verify the expected findings fire")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args(argv)

    script_dir = os.path.dirname(os.path.abspath(__file__))
    default_root = os.path.dirname(script_dir)

    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0

    if args.self_test:
        return self_test(os.path.join(script_dir, "lint_fixtures"))

    root = os.path.abspath(args.root or default_root)
    if not any(os.path.isdir(os.path.join(root, d)) for d in SCAN_DIRS):
        print(f"cdbp_lint: error: no {'/'.join(SCAN_DIRS)} directory under "
              f"{root} -- nothing would be linted (typo'd --root?)",
              file=sys.stderr)
        return 2
    findings = lint_tree(root)
    for f in findings:
        print(f.render())
    if findings:
        print(f"cdbp_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
