#!/usr/bin/env python3
"""wagg_lint: house-rule linter for invariants the generic tools can't see.

Rules (see README "Correctness tooling" for the catalogue and rationale):

  stats-struct  New ``struct FooStats`` definitions outside src/obs/ are
                rejected: hot-path metrics belong in obs::Registry (named
                counters/gauges/histograms), not in ad-hoc stat structs —
                the ROADMAP's standing rule since the telemetry spine
                landed. Pre-registry result-report structs (computed after
                the fact, returned by value, no cross-thread mutation) are
                grandfathered by name below.

  wall-clock    Deterministic code (all of src/) must not read wall-clock
                time or C-library randomness: std::chrono::system_clock,
                rand()/srand(), time(...), std::random_device. Timings use
                the monotonic util::Clock; seeded streams use util::rng.
                Plan digests are compared across runs and machines, so a
                wall-clock or nondeterministic-seed dependency is a
                correctness bug, not a style issue.

  naked-new     No naked new/delete in src/: ownership goes through
                make_unique/make_shared/containers. The rare justified use
                (a private constructor make_shared cannot reach) carries an
                allow comment with its reason.

  raw-sync      Raw std::mutex / std::condition_variable / std::lock_guard /
                std::unique_lock / std::scoped_lock are forbidden in src/
                outside util/mutex.h: synchronized code uses the annotated
                util::Mutex / util::MutexLock / util::CondVar wrappers so
                Clang's thread-safety analysis sees every lock.

  class-grid    ClassGrid (and including conflict/class_grid.h) is forbidden
                outside src/conflict/: the per-class endpoint grids are the
                private substrate of ConflictIndex's diff-maintained row
                cache, and an outside reader could observe rows mid-patch or
                bypass the cache's exactness invariant. Other layers go
                through ConflictIndex / conflict_neighbors_bucketed. The one
                allowed exception (mst/point_grid.h borrows the cell_key
                mixer only) carries an allow comment.

  stage-clock   Planner stages are timed only by obs::StageSpan, which reads
                the clock once per stage boundary, adds the elapsed time to
                the caller's core::StageTimes entry and records the trace
                event from the same timestamps — so reports, registry
                histograms and span trees cannot disagree. Clock reads
                (util::Clock::now, util::ms_since, raw steady or
                high-resolution clocks) are rejected in src/ except in obs/
                and util/ (the clock itself) and runtime/ (request and
                mailbox wall clocks, which are not stages).

  raw-thread    std::thread, std::jthread and std::async are rejected in
                src/ outside util/parallel.* (the process-wide helper pool
                behind util::parallel_for) and runtime/executor.* (the
                session pool): every thread in the library then belongs to
                one of the two pools the TSan job and the "caller never
                waits" contract cover. std::thread::hardware_concurrency()
                and std::this_thread start nothing and pass.

  power-solve   sinr::power_control_feasible and power_control_feasible_log2
                are called in src/ only from sinr/ (the solver itself) and
                schedule/ (the join rules and oracles of the one first-fit
                packer). Every slot vector a plan ships is the certificate
                the slot's last accepted check left, so no other layer may
                solve a slot again behind the packer's back.

  log-space     sinr::check_feasible_log2 and power_control_feasible_log2
                are called in src/ only from sinr/, where they are the
                fallbacks of the linear gain kernels for sets outside the
                [2^-900, 2^900] window. Everywhere else they would put a
                log2 and an exp2 per gain entry back on a hot path; tests
                call them as the kernels' references. A call to
                power_control_feasible_log2 outside sinr/ and schedule/
                draws this finding and a power-solve one.

  dense-prim    mst::dense_prim_mst, the O(n^2) Prim loop, is called in src/
                nowhere but its own definition in mst/mst.*: it is the
                tests' reference for euclidean_mst and wagg_bench's fixed
                tree-cost denominator. On a planning path it would put the
                quadratic seed back into every open, rebuild and audit.

Suppression: a line (or the line directly above it) containing
``wagg-lint: allow(<rule>)`` suppresses that rule on that line. Every allow
should carry a short justification after the closing parenthesis.

Usage:
  wagg_lint.py --root <repo>   lint <repo>/src
  wagg_lint.py --self-test     run every rule against its fixture files
  wagg_lint.py FILE...         lint specific files (fixture runner / ad hoc)

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Result-report structs that predate obs::Registry: filled once per
# run/epoch on one thread and returned by value — not mutable hot-path
# telemetry, so they stay. New *Stats types must register metrics instead.
GRANDFATHERED_STATS = {
    "RunningStats",        # util: Welford accumulator, a math helper
    "BatchStats",          # runtime: per-batch result summary
    "ConflictIndexStats",  # conflict: per-epoch engine-local marks,
                           # diffed INTO registry counters by the planner
    "IncrementalMstStats",  # mst: same engine-local-marks pattern
    "PhaseStats",          # distributed: per-phase round accounting
}

ALLOW_RE = re.compile(r"wagg-lint:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> list[str]:
    """Returns the file's lines with comments and string/char literals
    blanked out (structure and line numbers preserved), so rules match only
    real code tokens."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append(" ")
                i += 2
                out.append(" ")
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^()\\ ]*)\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append(" " * m.end())
                    i += m.end()
                    continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "string" or state == "char":
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out).split("\n")


def allowed_rules(raw_lines: list[str], lineno: int) -> set[str]:
    """Rules suppressed on 1-based line `lineno` (same line or line above)."""
    rules = set()
    for idx in (lineno - 2, lineno - 1):  # 0-based: line above, same line
        if 0 <= idx < len(raw_lines):
            rules.update(ALLOW_RE.findall(raw_lines[idx]))
    return rules


STATS_RE = re.compile(r"\b(?:struct|class)\s+([A-Za-z_0-9]*Stats)\b")
WALL_CLOCK_RES = [
    (re.compile(r"\bsystem_clock\b"),
     "wall-clock time in deterministic code (use util::Clock)"),
    (re.compile(r"\b(?:std::)?s?rand\s*\("),
     "C-library randomness (use util::rng's seeded streams)"),
    (re.compile(r"\brandom_device\b"),
     "nondeterministic seed source (use util::rng's seeded streams)"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock time in deterministic code (use util::Clock)"),
]
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (addr)` placement excluded too
DELETE_RE = re.compile(r"\bdelete\b(?!\s*[;,)\]])")  # skip `= delete;` forms
EQ_DELETE_RE = re.compile(r"=\s*delete\b")
RAW_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b")
CLASS_GRID_RE = re.compile(r"\bClassGrid\b")
# Matched on RAW lines: strip_code blanks string literals, which would hide
# the include path. Anchored so a mention in a comment cannot trip it.
CLASS_GRID_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s*["<](?:[^">]*/)?class_grid\.h[">]')
STAGE_CLOCK_RE = re.compile(
    r"\b(?:Clock::now|ms_since|steady_clock|high_resolution_clock)\b")
# Directories (under src/) that may read the clock directly.
STAGE_CLOCK_DIRS = ("obs/", "util/", "runtime/")
RAW_THREAD_RE = re.compile(
    r"\bstd::(?:j?thread\b(?!\s*::\s*hardware_concurrency)|async\b)")
# Files (under src/, without extension) that own the library's threads.
THREAD_POOL_FILES = ("util/parallel", "runtime/executor")
POWER_SOLVE_RE = re.compile(r"\bpower_control_feasible(?:_log2)?\b")
# Directories (under src/) that may solve a slot's power vector.
POWER_SOLVE_DIRS = ("sinr/", "schedule/")
LOG_SPACE_RE = re.compile(
    r"\b(?:check_feasible|power_control_feasible)_log2\b")
# Directories (under src/) that may run the log-space kernels.
LOG_SPACE_DIRS = ("sinr/",)
DENSE_PRIM_RE = re.compile(r"\bdense_prim_mst\b")
# Files (under src/, without extension) that declare and define it.
DENSE_PRIM_FILES = ("mst/mst",)


def lint_file(path: Path, relpath: str, rules: set[str]) -> list[Finding]:
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.split("\n")
    code_lines = strip_code(raw)
    findings: list[Finding] = []

    def report(lineno: int, rule: str, message: str) -> None:
        if rule in rules and rule not in allowed_rules(raw_lines, lineno):
            findings.append(Finding(path, lineno, rule, message))

    in_obs = relpath.startswith("src/obs/") or relpath.startswith("obs/")
    is_mutex_header = relpath.endswith("util/mutex.h")
    in_conflict = (relpath.startswith("src/conflict/") or
                   relpath.startswith("conflict/"))
    may_read_clock = relpath.removeprefix("src/").startswith(STAGE_CLOCK_DIRS)
    owns_threads = (relpath.removeprefix("src/").rsplit(".", 1)[0]
                    in THREAD_POOL_FILES)
    may_solve = relpath.removeprefix("src/").startswith(POWER_SOLVE_DIRS)
    may_log_space = relpath.removeprefix("src/").startswith(LOG_SPACE_DIRS)
    defines_dense_prim = (relpath.removeprefix("src/").rsplit(".", 1)[0]
                          in DENSE_PRIM_FILES)

    for idx, line in enumerate(code_lines, start=1):
        if not in_obs:
            for m in STATS_RE.finditer(line):
                name = m.group(1)
                if name not in GRANDFATHERED_STATS:
                    report(idx, "stats-struct",
                           f"ad-hoc stat struct '{name}': register named "
                           "metrics in obs::Registry instead (ROADMAP rule)")
        for pattern, message in WALL_CLOCK_RES:
            if pattern.search(line):
                report(idx, "wall-clock", message)
        stripped_eq_delete = EQ_DELETE_RE.sub("", line)
        if NEW_RE.search(line):
            report(idx, "naked-new",
                   "naked 'new': use make_unique/make_shared or a container")
        if DELETE_RE.search(stripped_eq_delete):
            report(idx, "naked-new",
                   "naked 'delete': ownership must not need manual frees")
        if not is_mutex_header and RAW_SYNC_RE.search(line):
            report(idx, "raw-sync",
                   "raw std sync primitive: use the annotated util::Mutex / "
                   "util::MutexLock / util::CondVar (util/mutex.h)")
        if not in_conflict:
            if CLASS_GRID_RE.search(line):
                report(idx, "class-grid",
                       "ClassGrid outside src/conflict/: the per-class grids "
                       "are ConflictIndex's private row-cache substrate — "
                       "query through ConflictIndex or "
                       "conflict_neighbors_bucketed")
            if CLASS_GRID_INCLUDE_RE.search(raw_lines[idx - 1]):
                report(idx, "class-grid",
                       "including conflict/class_grid.h outside "
                       "src/conflict/: query through ConflictIndex or "
                       "conflict_neighbors_bucketed")
        if not may_read_clock and STAGE_CLOCK_RE.search(line):
            report(idx, "stage-clock",
                   "clock read outside obs/util/runtime: time a "
                   "planner stage with obs::StageSpan on a "
                   "core::StageTimes slot")
        if not owns_threads and RAW_THREAD_RE.search(line):
            report(idx, "raw-thread",
                   "raw thread outside util/parallel and runtime/executor: "
                   "split work with util::parallel_for or run it on a "
                   "runtime::Executor queue")
        if not may_solve and POWER_SOLVE_RE.search(line):
            report(idx, "power-solve",
                   "slot power solve outside sinr/ and schedule/: read the "
                   "certificate the packer's join rule kept (SlotLoad, "
                   "PatchResult::log2_powers, the stitched assignment)")
        if not may_log_space and LOG_SPACE_RE.search(line):
            report(idx, "log-space",
                   "log-space kernel outside sinr/: call check_feasible / "
                   "power_control_feasible, which fall back to it only "
                   "outside the linear window")
        if not defines_dense_prim and DENSE_PRIM_RE.search(line):
            report(idx, "dense-prim",
                   "dense O(n^2) Prim outside mst/mst: build trees with "
                   "mst::euclidean_mst (the same edges, sub-quadratic); "
                   "dense_prim_mst is the tests' reference")
    return findings


ALL_RULES = {"stats-struct", "wall-clock", "naked-new", "raw-sync",
             "class-grid", "stage-clock", "raw-thread", "power-solve",
             "log-space", "dense-prim"}


def lint_tree(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    src = root / "src"
    if not src.is_dir():
        print(f"wagg_lint: no src/ under {root}", file=sys.stderr)
        sys.exit(2)
    for path in sorted(src.rglob("*")):
        if path.suffix in (".h", ".cpp", ".cc", ".hpp"):
            rel = path.relative_to(root).as_posix()
            findings.extend(lint_file(path, rel, ALL_RULES))
    return findings


# ------------------------------------------------------------- self-test
# Fixture protocol: every file under tools/lint_fixtures/<rule>/ declares
# its expectations on line 1:
#   // wagg-lint-fixture: <rule> expect=<n>
# The self-test lints the file with ONLY that rule active (fixtures may
# incidentally trip others) and asserts exactly n findings of it.

FIXTURE_RE = re.compile(
    r"//\s*wagg-lint-fixture:\s*([a-z-]+)\s+expect=(\d+)")


def self_test(root: Path) -> int:
    fixtures = root / "tools" / "lint_fixtures"
    if not fixtures.is_dir():
        print(f"wagg_lint: no fixtures under {fixtures}", file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    seen_rules = set()
    for path in sorted(fixtures.rglob("*.cpp")):
        first = path.read_text(encoding="utf-8").split("\n", 1)[0]
        m = FIXTURE_RE.search(first)
        if not m:
            print(f"FAIL {path}: missing '// wagg-lint-fixture: <rule> "
                  "expect=<n>' header")
            failures += 1
            continue
        rule, expected = m.group(1), int(m.group(2))
        if rule not in ALL_RULES:
            print(f"FAIL {path}: unknown rule '{rule}'")
            failures += 1
            continue
        seen_rules.add(rule)
        # Fixtures lint as if they lived in src/ (rel path 'src/<name>'),
        # so src-scoped rules apply.
        rel = "src/" + path.name
        got = [f for f in lint_file(path, rel, {rule}) if f.rule == rule]
        checked += 1
        if len(got) != expected:
            print(f"FAIL {path}: rule {rule} expected {expected} findings, "
                  f"got {len(got)}")
            for f in got:
                print(f"  {f}")
            failures += 1
    missing = ALL_RULES - seen_rules
    if missing:
        print(f"FAIL: rules without fixtures: {sorted(missing)}")
        failures += 1
    if failures:
        print(f"wagg_lint self-test: {failures} failure(s) over "
              f"{checked} fixtures")
        return 1
    print(f"wagg_lint self-test: {checked} fixtures, "
          f"{len(seen_rules)} rules, all green")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root; lints <root>/src")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite")
    parser.add_argument("files", nargs="*", type=Path,
                        help="specific files to lint (treated as src/)")
    args = parser.parse_args()

    if args.self_test:
        root = args.root or Path(__file__).resolve().parent.parent
        return self_test(root)

    findings: list[Finding] = []
    if args.files:
        for path in args.files:
            findings.extend(lint_file(path, "src/" + path.name, ALL_RULES))
    else:
        root = args.root or Path(__file__).resolve().parent.parent
        findings.extend(lint_tree(root))

    for finding in findings:
        print(finding)
    if findings:
        print(f"wagg_lint: {len(findings)} finding(s)")
        return 1
    print("wagg_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
