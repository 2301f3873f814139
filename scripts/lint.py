#!/usr/bin/env python3
"""The vodak lint: repo-specific contracts the bash greps can't check.

Run as `scripts/ci.sh --lint` (or directly: `python3 scripts/lint.py`).
Exit code 0 means every contract holds; violations print one line each
(path:line: message) and exit 1.

Contracts (docs/ARCHITECTURE.md §"Static analysis & concurrency
contracts"):

1. mutex-guards — every mutex member in src/ is the annotated
   vodak::Mutex or vodak::SharedMutex (raw std::mutex /
   std::shared_mutex members defeat the clang thread-safety analysis,
   which needs the CAPABILITY attribute) and has at least one
   GUARDED_BY/PT_GUARDED_BY(<name>) field in the same file. A mutex
   that deliberately guards a phase rather than fields carries
   `lint: no-guarded-fields(<why>)` on its declaration.

2. atomic-orders — every std::atomic operation in src/ spells its
   memory order explicitly. Implicit seq_cst (`.load()`, `ctr = 0`,
   `ctr++`) hides the strongest, most expensive ordering behind the
   most innocent syntax; the repo's rule is that ordering is always a
   written-down decision. `// lint: not-atomic` waives a line whose
   .load()/.store() call is not an atomic — except on atomics whose
   name contains epoch/version (the MVCC clock, version-chain stamps
   and reclaim counters): those orders are always load-bearing for
   snapshot visibility and must be spelled, waiver or not.

3. operator-contracts — every PhysOperator/BatchSource subclass
   anywhere in src/ (today they all live in src/exec/physical.{h,cc},
   but a subclass added elsewhere — e.g. under src/service/ — is held
   to the same bar) has a row in ARCHITECTURE.md's operator
   density-contract table (the table is how density bugs are reviewed;
   an operator missing from it has no reviewed contract).

4. bench-fields — every field of every BENCH_*.json at the repo root
   is documented in docs/BENCHMARKS.md (the JSONs are the archived
   perf trajectory; an undocumented field is unreviewable drift).

5. header-cycles — the `#include "..."` graph over src/ headers is
   acyclic (cycles compile by accident-of-order until they don't).

6. oracle-independence — the two reference evaluators
   (src/vql/interpreter.* and src/algebra/eval.*) name no batched
   entry point (EvalBatch, EvalPredicateBatch, EvalClosed,
   Invoke*Batch), no RowBatch, WorkerPool or Morsel, and include no
   exec/ header. They check the batch path, so they must not share it
   (docs/ARCHITECTURE.md §"The oracles").
"""

import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
ANNOTATIONS_HEADER = os.path.join("src", "common", "thread_annotations.h")

errors = []


def err(path, line, message):
    errors.append(f"{os.path.relpath(path, REPO)}:{line}: {message}")


def src_files(exts=(".h", ".cc")):
    for root, _dirs, names in sorted(os.walk(SRC)):
        for name in sorted(names):
            if name.endswith(exts):
                yield os.path.join(root, name)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def strip_comments(text):
    """Blanks out // and /* */ comments and string literals, preserving
    line structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | "str" | "chr"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("\\ ")
                i += 2
                continue
            if c == quote:
                state = None
            out.append(c)
        i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


# ----------------------------------------------------------- 1. mutexes
def check_mutex_guards():
    # `[ \t]*` (not `\s*`): under re.M a `\s*` after `^` walks across
    # newlines, so a match could start lines above the declaration and
    # the waiver-comment check would read the wrong line. The trailing
    # alternative matches declarations carrying an attribute macro
    # (`SharedMutex data_mu_ ACQUIRED_BEFORE(...)`).
    decl_re = re.compile(
        r"^[ \t]*(?:mutable\s+)?"
        r"(std::mutex|std::shared_mutex|(?:vodak::)?(?:Shared)?Mutex)"
        r"\s+(\w+)\s*(?:;|=|[A-Z_][A-Z0-9_]*\s*\()",
        re.M,
    )
    for path in src_files():
        if path.endswith(os.path.basename(ANNOTATIONS_HEADER)) and \
                os.path.relpath(path, REPO) == ANNOTATIONS_HEADER:
            continue  # the wrapper's own internals
        text = read(path)
        code = strip_comments(text)
        lines = text.splitlines()
        for m in decl_re.finditer(code):
            mutex_type, name = m.group(1), m.group(2)
            line = line_of(code, m.start())
            raw_line = lines[line - 1] if line <= len(lines) else ""
            if mutex_type.startswith("std::"):
                err(path, line,
                    f"raw {mutex_type} member '{name}': use the annotated "
                    "vodak::Mutex (common/thread_annotations.h) so the "
                    "clang thread-safety analysis can see it")
                continue
            if "lint: no-guarded-fields(" in raw_line:
                continue
            guard_re = re.compile(
                r"(?:PT_)?GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)")
            if not guard_re.search(text):
                err(path, line,
                    f"mutex '{name}' has no GUARDED_BY({name}) field set "
                    "in this file; annotate what it guards or waive with "
                    "`lint: no-guarded-fields(<why>)` on the declaration")


# ----------------------------------------------------------- 2. atomics
ATOMIC_METHODS = (
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
    "fetch_and", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong",
)

# Atomics whose name says epoch or version are the MVCC machinery: the
# global epoch clock, version-chain stamps, the reclaim counters. Their
# ordering is always load-bearing for snapshot visibility, so the
# `lint: not-atomic` waiver does not apply to them — the memory order
# must be spelled at every operation, no exceptions.
MVCC_NAME_RE = re.compile(r"epoch|version", re.I)


def call_args(code, open_paren):
    """The argument text of a call whose '(' is at open_paren."""
    depth, i = 0, open_paren
    while i < len(code):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1:i]
        i += 1
    return code[open_paren + 1:]


def check_atomic_orders():
    atomic_decl_re = re.compile(r"std::atomic<[^;{}]*?>\s+(\w+)\s*[{;=]")
    atomic_names = set()
    for path in src_files():
        for m in atomic_decl_re.finditer(strip_comments(read(path))):
            atomic_names.add(m.group(1))

    method_re = re.compile(
        r"\.\s*(" + "|".join(ATOMIC_METHODS) + r")\s*\(")
    for path in src_files():
        text = read(path)
        code = strip_comments(text)
        lines = text.splitlines()

        for m in method_re.finditer(code):
            name = m.group(1)
            args = call_args(code, m.end() - 1)
            line = line_of(code, m.start())
            raw_line = lines[line - 1] if line <= len(lines) else ""
            recv = re.search(r"(\w+)\s*$", code[:m.start()])
            recv_name = recv.group(1) if recv else ""
            mvcc = (recv_name in atomic_names
                    and MVCC_NAME_RE.search(recv_name))
            if "lint: not-atomic" in raw_line and not mvcc:
                continue
            if "memory_order" in args:
                continue
            # `.store()` / `.exchange()` etc. with NO value argument is
            # a same-named accessor, not an atomic op; `.load()` with no
            # argument IS an implicit seq_cst atomic load — but only
            # when the receiver is a known atomic member (getters named
            # load() would false-positive otherwise).
            if not args.strip():
                if name == "load" and recv_name in atomic_names:
                    if mvcc:
                        err(path, line,
                            f"epoch/version atomic '{recv_name}': "
                            "implicit seq_cst .load(); MVCC clock and "
                            "chain atomics must spell the memory order "
                            "(`lint: not-atomic` does not apply)")
                    else:
                        err(path, line,
                            "implicit seq_cst .load(): spell the memory "
                            "order (or waive with `lint: not-atomic`)")
                continue
            if mvcc:
                err(path, line,
                    f"epoch/version atomic '{recv_name}': .{name}() "
                    "without an explicit std::memory_order; MVCC clock "
                    "and chain atomics must spell the memory order "
                    "(`lint: not-atomic` does not apply)")
            else:
                err(path, line,
                    f"atomic .{name}() without an explicit "
                    "std::memory_order argument (or waive with "
                    "`lint: not-atomic`)")

        # Implicit operations spelled as plain arithmetic/assignment on
        # known atomic members: `ctr = 0`, `ctr++`, `++ctr`, `ctr += n`.
        if atomic_names:
            implicit_re = re.compile(
                r"(?:(\+\+|--)\s*(" + "|".join(map(re.escape, atomic_names))
                + r")\b|\b(" + "|".join(map(re.escape, atomic_names))
                + r")\s*(\+\+|--|(?:[+\-|&^]|<<|>>)?=(?!=)))")
            decl_or_type = re.compile(r"std::atomic|template|typename")
            for m in implicit_re.finditer(code):
                line = line_of(code, m.start())
                raw_line = lines[line - 1] if line <= len(lines) else ""
                if decl_or_type.search(raw_line):
                    continue  # declaration/initialization, not an op
                name = m.group(2) or m.group(3)
                if ("lint: not-atomic" in raw_line
                        and not MVCC_NAME_RE.search(name)):
                    continue
                err(path, line,
                    f"implicit seq_cst atomic op on '{name}': use "
                    ".store/.load/.fetch_* with an explicit memory order")


# ------------------------------------------------- 3. operator contracts
def check_operator_contracts():
    arch = read(os.path.join(REPO, "docs", "ARCHITECTURE.md"))
    section_re = re.compile(
        r"### Operator density contracts(.*?)(?:\n### |\n## |\Z)", re.S)
    section = section_re.search(arch)
    if not section:
        err(os.path.join(REPO, "docs", "ARCHITECTURE.md"), 1,
            "missing '### Operator density contracts' section")
        return
    table = section.group(1)
    subclass_re = re.compile(
        r"class\s+(\w+)\s*(?:final\s*)?:\s*public\s+"
        r"(PhysOperator|BatchSource)\b")
    # All of src/, not just physical.{h,cc}: src/service/ (or any other
    # subsystem) adding an operator is held to the same contract.
    for path in src_files():
        text = read(path)
        code = strip_comments(text)
        for m in subclass_re.finditer(code):
            cls = m.group(1)
            if not re.search(r"\b" + re.escape(cls) + r"\b", table):
                err(path, line_of(code, m.start()),
                    f"{m.group(2)} subclass '{cls}' has no row in the "
                    "operator density-contract table "
                    "(docs/ARCHITECTURE.md §'Selection vectors')")


# ------------------------------------------------------- 4. bench fields
def json_keys(obj):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield from json_keys(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from json_keys(v)


def check_bench_fields():
    bench_doc = read(os.path.join(REPO, "docs", "BENCHMARKS.md"))
    for name in sorted(os.listdir(REPO)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(REPO, name)
        try:
            record = json.load(open(path, encoding="utf-8"))
        except json.JSONDecodeError as e:
            err(path, e.lineno, f"unparseable JSON: {e.msg}")
            continue
        for key in sorted(set(json_keys(record))):
            if key not in bench_doc:
                err(path, 1,
                    f"field '{key}' is not documented in "
                    "docs/BENCHMARKS.md")


# ------------------------------------------------------ 5. header cycles
def check_header_cycles():
    include_re = re.compile(r'^\s*#include\s+"([^"]+)"', re.M)
    graph = {}
    for path in src_files(exts=(".h",)):
        rel = os.path.relpath(path, SRC)
        edges = []
        for m in include_re.finditer(read(path)):
            target = m.group(1)
            if os.path.exists(os.path.join(SRC, target)):
                edges.append(target)
        graph[rel] = edges

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack = []

    def dfs(node):
        color[node] = GRAY
        stack.append(node)
        for dep in graph.get(node, ()):
            if color.get(dep, BLACK) == GRAY:
                cycle = stack[stack.index(dep):] + [dep]
                err(os.path.join(SRC, node), 1,
                    "header include cycle: " + " -> ".join(cycle))
            elif color.get(dep, BLACK) == WHITE:
                dfs(dep)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node)


# ------------------------------------------------ 6. oracle independence
ORACLE_FILES = [os.path.join("vql", "interpreter.h"),
                os.path.join("vql", "interpreter.cc"),
                os.path.join("algebra", "eval.h"),
                os.path.join("algebra", "eval.cc")]


def check_oracle_independence():
    name_re = re.compile(
        r"\b(EvalBatch|EvalPredicateBatch|EvalClosed|Invoke\w*Batch|"
        r"RowBatch|WorkerPool|Morsel\w*)\b")
    include_re = re.compile(r'^\s*#include\s+"exec/[^"]*"', re.M)
    for rel in ORACLE_FILES:
        path = os.path.join(SRC, rel)
        if not os.path.exists(path):
            err(path, 1, "oracle source file is missing")
            continue
        code = strip_comments(read(path))
        for m in name_re.finditer(code):
            err(path, line_of(code, m.start()),
                f"oracle names '{m.group(1)}': the reference evaluators "
                "must stay row-at-a-time")
        for m in include_re.finditer(code):
            err(path, line_of(code, m.start()),
                "oracle includes an exec/ header")


def main():
    check_mutex_guards()
    check_atomic_orders()
    check_operator_contracts()
    check_bench_fields()
    check_header_cycles()
    check_oracle_independence()
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print(f"lint.py: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("lint.py: all contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
