#!/usr/bin/env python3
"""Project-invariant linter: repo-specific rules the compiler can't check.

Usage: check_invariants.py [ROOT]

Checks the tree at ROOT, by default the repository this file lives in
(two levels above it). Exit 0 = clean, 1 = violations (each printed as
path:line: [rule] message), 2 = usage/internal error.

Rules
-----
R1 rng-determinism
    The engine's bit-determinism contract pins every random decision to
    counter-based streams keyed by (seed, node, walk) in common/rng.*.
    Ambient randomness (std::rand, std::random_device, mt19937 seeded
    from time, ...) anywhere else in src/ would silently break
    reproducibility, so it is banned outside common/rng.* and an
    explicit allowlist (http_client's backoff jitter, which is
    documented as not the engine RNG).

R2 zero-alloc-hot-path
    Hot-path engine files (the walk kernel and the per-query SimPush
    stages) must stay free of std::unordered_map and std::function:
    both allocate on use and defeat the zero-alloc steady state the
    bench_micro allocs/query == 0 gauge enforces. The fan-out layer
    (ParallelQueryBatch in parallel.*, and join.* on top of it) is
    deliberately NOT in this set — std::function is its API.

R3 failpoint-coverage
    Every SIMPUSH_FAILPOINT / FailpointRegistry::Register name in src/
    must appear in chaos_test's AllInstrumentedFailpointsFired list (a
    renamed or new-but-untested seam fails the lint, not just rots),
    and no name may be claimed by two different source files (one seam,
    one owner; multiple sites within a file share a seam).

R4 locked-suffix-requires
    The *Locked naming convention ("caller must hold the mutex") must
    be machine-checked: every method declaration whose name ends in
    "Locked" carries a SIMPUSH_REQUIRES annotation on its declaration.

R5 annotated-locks-only
    src/ must not use std::mutex / std::condition_variable /
    std::lock_guard / std::unique_lock / std::scoped_lock directly —
    only the capability-annotated wrappers from common/annotations.h,
    so every lock site is visible to -Wthread-safety. (annotations.h
    itself wraps the std primitives and is exempt.)

R6 one-error-path
    src/serve/service.cc answers every failed request through one
    function, SimPushService::ErrorResponse, which holds the service's
    Status -> HTTP table. HTTP 4xx/5xx status literals and bad_requests_
    increments may appear only inside it, so a new endpoint cannot bring
    back an inline status code or a second bad-request counter site.

R7 pooled-scratch-only
    Every served query leases its scratch from the registry's one
    WorkspacePool, shared by every tenant and generation, so
    pool_capacity bounds the whole process's query scratch. Nothing
    under src/serve/ may construct a QueryWorkspace (a local, a member,
    new / make_unique, a container of them), and only serve/registry.cc
    may construct a WorkspacePool, so a per-tenant or per-generation
    pool cannot come back. Pointers, references and shared_ptr handles
    to either are fine.

R8 one-bitmask
    Source-Push and the hitting table both need "the indices this pass
    touched, ascending", and common/touched_bits.h (TouchedBits) is the
    one implementation of it. std::countr_zero scans and `>> 6]` word
    indexing may appear under src/ only in that header, so a hand-rolled
    bitmask (with its own word-range tracking or re-zero rule) cannot
    come back.

R9 rng-locals-only
    A query's randomness comes from streams derived from (seed, node)
    where it is used. An Rng held as a class or struct data member
    under src/simpush/ carries its state from one call into the next,
    so a result would depend on the calls before it. Rng there may be a
    local, a parameter or a return value, never a member.

R10 one-env-knob
    The library reads one environment variable, SIMPUSH_FAILPOINTS, in
    common/failpoint.cc. getenv may appear under src/ only there, so a
    setting cannot arrive through an environment variable that no flag,
    option or doc names.

R11 one-publish-path
    A tenant's generation carries its own options and publish record,
    stamped by the one function that builds and publishes it,
    GraphRegistry::Publish in serve/registry.cc. Nowhere else under src/
    may construct a GraphGeneration (make_shared / make_unique / new / a
    named local) or assign a `current` member (`= ...`, `.reset(x)`,
    `.swap(...)`), so a second publish path cannot come back with its
    own copy of the record. Remove() retiring a generation with a bare
    `current.reset()` publishes nothing and is allowed.

R12 two-thread-owners
    Every thread the library starts is counted by an option: the HTTP
    server's accept thread plus its num_workers, and each ThreadPool's
    num_threads. So under src/ only serve/http_server.* and
    common/thread_pool.* may construct or hold a std::thread or
    std::jthread or call std::async; a background thread elsewhere
    would be one no option bounds. std::thread::hardware_concurrency
    and std::this_thread stay allowed everywhere.

R13 no-test-only-surface
    Generality with no caller gets deleted. Every function a src/
    header declares at namespace scope must be called from a file
    outside tests/ (under src/, tools/, bench/ or examples/). A call in
    the function's own header or .cc counts; its declarations and its
    definition do not. Names are matched as identifiers, so one called
    overload keeps its siblings, and methods are out of reach. A
    test-only oracle or fixture lives under tests/ instead. The
    failpoint and annotation APIs (common/failpoint.h,
    common/annotations.h) are allowlisted: tests drive them by design.

R14 no-serving-master
    A tenant keeps the edits accepted since its live generation
    (PendingEdits), and every rebuild merges them into that
    generation's CSR pair. A mutable DynamicGraph beside it would store
    the graph a second time and bring back a second build path, so the
    DynamicGraph identifier may not appear in code under src/serve/.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

# R1: files allowed to use ambient (non-engine) randomness.
RNG_ALLOWLIST = {
    "src/common/rng.h",
    "src/common/rng.cc",
    # Retry backoff jitter; explicitly "not the engine RNG" and never
    # influences scores.
    "src/serve/http_client.h",
    "src/serve/http_client.cc",
}
RNG_BANNED = re.compile(
    r"std::rand\b|\bsrand\s*\(|std::random_device|std::mt19937"
    r"|std::default_random_engine|std::minstd_rand"
)

# R2: the hot-path engine set (per-query work; allocation-free once
# warm). The fan-out layer (parallel, join) is excluded by design.
HOT_PATH_STEMS = [
    "src/walk/",
    "src/simpush/source_graph",
    "src/simpush/source_push",
    "src/simpush/reverse_push",
    "src/simpush/hitting",
    "src/simpush/last_meeting",
    "src/simpush/single_pair",
    "src/simpush/workspace.",
    "src/simpush/query_runner",
    "src/simpush/engine_core",
    "src/simpush/topk",
]
HOT_BANNED = re.compile(r"std::unordered_map|std::function")

FAILPOINT_NAME = re.compile(
    r'SIMPUSH_FAILPOINT\("([^"]+)"\)|Register\("([^"]+)"\)'
)

LOCKED_DECL = re.compile(r"\b(\w*Locked)\s*\(")

RAW_LOCK = re.compile(
    r"std::mutex\b|std::condition_variable\b|std::lock_guard\b"
    r"|std::unique_lock\b|std::scoped_lock\b|std::shared_mutex\b"
)
RAW_LOCK_EXEMPT = {"src/common/annotations.h"}

# R6: the one error path of the request layer.
ERROR_PATH_FILE = "src/serve/service.cc"
ERROR_PATH_FUNCTION = re.compile(r"\bSimPushService::ErrorResponse\s*\(")
HTTP_ERROR_LITERAL = re.compile(r"(?<![\w.])[45]\d\d(?![\w.])")
BAD_REQUEST_BUMP = re.compile(
    r"\bbad_requests_\s*(\.\s*fetch_add|\+\+|\+=)|\+\+\s*bad_requests_\b"
)

# R7: the request layer owns no query scratch of its own, and the
# registry builds the one pool.
POOLED_SCRATCH_DIR = "src/serve/"
WORKSPACE_CONSTRUCTION = re.compile(
    r"(?<!class )(?<!struct )\bQueryWorkspace\b(?!\s*[*&])"
)
POOL_OWNER = "src/serve/registry.cc"
POOL_CONSTRUCTION = re.compile(
    r"(?<!class )(?<!struct )(?<!shared_ptr<)(?<!shared_ptr<const )"
    r"\bWorkspacePool\b(?!\s*(?:[*&]|::))"
)

# R8: the one word-packed bitmask implementation.
BITMASK_FILE = "src/common/touched_bits.h"
RAW_BITMASK = re.compile(r"std::countr_zero\b|>>\s*6\s*\]")

# R9: no member RNG in the engine.
RNG_MEMBER_DIR = "src/simpush/"
CLASS_HEAD = re.compile(r"\b(?:class|struct)\b[^();]*$")
RNG_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:simpush::)?Rng\s*[*&]?\s*\w+\s*[;={]"
)

# R10: the library's one environment read.
ENV_READ_FILE = "src/common/failpoint.cc"
ENV_READ = re.compile(r"\bgetenv\b")

# R11: the one publish path.
PUBLISH_FILE = "src/serve/registry.cc"
PUBLISH_FUNCTION = re.compile(r"\bGraphRegistry::Publish\s*\(")
GENERATION_BUILD = re.compile(
    r"\b(?:make_shared|make_unique|allocate_shared)\s*<\s*(?:const\s+)?"
    r"GraphGeneration\s*>|\bnew\s+(?:const\s+)?GraphGeneration\b"
    r"|\bGraphGeneration\s+\w+\s*[({]"
)
CURRENT_ASSIGN = re.compile(
    r"(?:->|\.)\s*current\s*"
    r"(?:=(?!=)|\.\s*(?:reset\s*\(\s*[^)\s]|swap\s*\())"
)

# R12: the two owners of library threads.
THREAD_OWNERS = {
    "src/serve/http_server.h",
    "src/serve/http_server.cc",
    "src/common/thread_pool.h",
    "src/common/thread_pool.cc",
}
THREAD_USE = re.compile(r"std::j?thread\b(?!\s*::)|std::async\b")

# R13: every namespace-scope function of a src/ header has a caller
# outside tests/.
CALLER_DIRS = ("src", "tools", "bench", "examples")
SURFACE_ALLOWLIST = {"src/common/failpoint.h", "src/common/annotations.h"}
# Words that, before `name(`, make it an expression rather than a
# declarator.
NOT_A_TYPE = {
    "return", "else", "do", "case", "default", "throw", "new", "delete",
    "goto", "co_return", "co_await", "co_yield", "typedef", "using",
}
# Names followed by `(` at namespace scope that are not functions.
NOT_A_FUNCTION = {
    "decltype", "alignas", "alignof", "sizeof", "static_assert",
    "noexcept", "requires", "__attribute__", "main",
}
DECLARATOR_PREFIX = re.compile(r"^[\w\s:<>,*&\[\]]*$")
CALLED_NAME = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
NAMESPACE_HEAD = re.compile(r"\bnamespace\b[\s\w:]*$")

# R14: no mutable master copy of a tenant's graph.
NO_MASTER_DIR = "src/serve/"
MASTER_USE = re.compile(r"\bDynamicGraph\b")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def function_body_lines(code: str, header: re.Pattern) -> range | None:
    """1-based line range of the body of the first function definition
    whose declarator matches `header` (comments and strings already
    stripped), or None when there is no such definition."""
    for match in header.finditer(code):
        open_at = code.find("{", match.end())
        if open_at < 0 or ";" in code[match.end():open_at]:
            continue  # A declaration or call, not the definition.
        depth = 0
        for i in range(open_at, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    first = code.count("\n", 0, match.start()) + 1
                    last = code.count("\n", 0, i) + 1
                    return range(first, last + 1)
    return None


def class_body_lines(code: str) -> set[int]:
    """1-based numbers of the lines that start directly inside a class or
    struct body (not inside one of its member functions or parameter
    lists). A `{` opens a class body when the text since the previous
    `;`, `{` or `}` names a class or struct and holds no parenthesis."""
    stack: list[bool] = []
    lines: set[int] = set()
    line = 1
    parens = 0
    statement_start = 0
    for i, c in enumerate(code):
        if c == "\n":
            line += 1
            if stack and stack[-1] and parens == 0:
                lines.add(line)
        elif c in "()":
            parens += 1 if c == "(" else -1
        elif c == "{":
            stack.append(bool(CLASS_HEAD.search(code[statement_start:i])))
            statement_start = i + 1
        elif c == "}":
            if stack:
                stack.pop()
            statement_start = i + 1
        elif c == ";":
            statement_start = i + 1
    return lines


def blank_preprocessor_lines(code: str) -> str:
    return "\n".join("" if line.lstrip().startswith("#") else line
                     for line in code.split("\n"))


def strip_template_head(prefix: str) -> str:
    """`prefix` without leading `template <...>` clauses."""
    match = re.match(r"\s*template\s*<", prefix)
    if not match:
        return prefix
    depth = 1
    for i in range(match.end(), len(prefix)):
        if prefix[i] == "<":
            depth += 1
        elif prefix[i] == ">":
            depth -= 1
            if depth == 0:
                return strip_template_head(prefix[i + 1:])
    return prefix


def is_declarator(prefix: str) -> bool:
    """True when `prefix`, the statement text before `name(`, makes that
    a declaration or definition: a return type (plus specifiers and an
    optional `ns::` qualifier) and nothing an expression would hold."""
    prefix = strip_template_head(prefix)
    if not DECLARATOR_PREFIX.match(prefix):
        return False
    type_part = re.sub(r"(?:\s*\w+\s*::)*\s*(?:::)?\s*$", "", prefix)
    words = re.findall(r"\w+", type_part)
    return bool(words) and not NOT_A_TYPE.intersection(words)


def namespace_scope_functions(code: str) -> list[tuple[str, int]]:
    """(name, line) of each function declared or defined at namespace
    scope (not inside a class, function or initializer body) in `code`,
    whose comments, strings and preprocessor lines are blanked."""
    visible = []
    scopes: list[bool] = []  # One entry per open brace: is it a namespace?
    start = 0
    found = []
    for c in code:
        if c in "{};":
            if all(scopes):
                statement = "".join(visible[start:])
                match = CALLED_NAME.search(statement)
                if (match and match.group(1) not in NOT_A_FUNCTION
                        and not match.group(1).isupper()
                        and is_declarator(statement[:match.start()])):
                    line = code.count("\n", 0, start + match.start()) + 1
                    found.append((match.group(1), line))
            if c == "{":
                scopes.append(all(scopes) and bool(
                    NAMESPACE_HEAD.search("".join(visible[start:]))))
            elif c == "}" and scopes:
                scopes.pop()
            visible.append(c)
            start = len(visible)
            continue
        visible.append(c if c == "\n" or all(scopes) else " ")
    return found


def iter_source_files(root: Path):
    for path in sorted(root.rglob("*")):
        if path.suffix in (".h", ".cc", ".hpp", ".cpp"):
            yield path


class Linter:
    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.chaos_test = root / "tests" / "chaos_test.cc"
        self.violations: list[str] = []

    def report(self, path: Path, line: int, rule: str, message: str) -> None:
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{line}: [{rule}] {message}")

    def check_file(self, path: Path, failpoints: dict[str, set[str]]) -> None:
        rel = str(path.relative_to(self.root))
        raw = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(raw)
        code_lines = code.splitlines()
        raw_lines = raw.splitlines()

        # R1 — ambient randomness.
        if rel not in RNG_ALLOWLIST:
            for lineno, line in enumerate(code_lines, 1):
                if RNG_BANNED.search(line):
                    self.report(
                        path, lineno, "rng-determinism",
                        "ambient RNG outside common/rng.* breaks the "
                        "(seed,node,walk) bit-determinism contract",
                    )

        # R2 — hot-path containers.
        if any(rel.startswith(stem) for stem in HOT_PATH_STEMS):
            for lineno, line in enumerate(code_lines, 1):
                if HOT_BANNED.search(line):
                    self.report(
                        path, lineno, "zero-alloc-hot-path",
                        "std::unordered_map/std::function allocate on the "
                        "query hot path (allocs/query must stay 0)",
                    )

        # R3 (collection) — failpoint names live in string literals, so
        # scan the raw text but still skip commented-out code.
        no_comments = re.sub(r"//[^\n]*", "", raw)
        for lineno, line in enumerate(no_comments.splitlines(), 1):
            for match in FAILPOINT_NAME.finditer(line):
                name = match.group(1) or match.group(2)
                failpoints.setdefault(name, set()).add(rel)

        # R4 — *Locked declarations must carry REQUIRES. Only headers
        # declare the contract; definitions inherit it.
        if path.suffix in (".h", ".hpp"):
            for lineno, line in enumerate(code_lines, 1):
                match = LOCKED_DECL.search(line)
                if not match or match.group(1) == "Locked":
                    continue
                # The annotation may trail on the same or next lines;
                # look at the declaration's statement (up to ; or {).
                stmt = line
                j = lineno
                while ";" not in stmt and "{" not in stmt and j < len(code_lines):
                    stmt += code_lines[j]
                    j += 1
                if "SIMPUSH_REQUIRES" not in stmt:
                    self.report(
                        path, lineno, "locked-suffix-requires",
                        f"{match.group(1)}() follows the *Locked naming "
                        "convention but has no SIMPUSH_REQUIRES annotation",
                    )

        # R5 — raw standard-library locks.
        if rel not in RAW_LOCK_EXEMPT:
            for lineno, line in enumerate(code_lines, 1):
                if RAW_LOCK.search(line):
                    self.report(
                        path, lineno, "annotated-locks-only",
                        "use the capability-annotated wrappers from "
                        "common/annotations.h, not raw std locks",
                    )

        # R6 — the request layer's one error path.
        if rel == ERROR_PATH_FILE:
            body = function_body_lines(code, ERROR_PATH_FUNCTION)
            if body is None:
                self.report(
                    path, 1, "one-error-path",
                    "SimPushService::ErrorResponse definition not found",
                )
                body = range(0)
            for lineno, line in enumerate(code_lines, 1):
                if lineno in body:
                    continue
                if HTTP_ERROR_LITERAL.search(line):
                    self.report(
                        path, lineno, "one-error-path",
                        "HTTP 4xx/5xx literal outside ErrorResponse; map a "
                        "Status code in its table instead",
                    )
                if BAD_REQUEST_BUMP.search(line):
                    self.report(
                        path, lineno, "one-error-path",
                        "bad_requests_ bumped outside ErrorResponse; return "
                        "a failed Status instead",
                    )

        # R7 — served queries lease pooled scratch only, from one pool.
        if rel.startswith(POOLED_SCRATCH_DIR):
            for lineno, line in enumerate(code_lines, 1):
                if WORKSPACE_CONSTRUCTION.search(line):
                    self.report(
                        path, lineno, "pooled-scratch-only",
                        "QueryWorkspace constructed in the request layer; "
                        "lease one from the registry's WorkspacePool",
                    )
                if rel != POOL_OWNER and POOL_CONSTRUCTION.search(line):
                    self.report(
                        path, lineno, "pooled-scratch-only",
                        "WorkspacePool constructed outside "
                        "serve/registry.cc; lease from the registry's one "
                        "pool",
                    )

        # R8 — one bitmask type.
        if rel != BITMASK_FILE:
            for lineno, line in enumerate(code_lines, 1):
                if RAW_BITMASK.search(line):
                    self.report(
                        path, lineno, "one-bitmask",
                        "hand-rolled bitmask scan or word index; use "
                        "TouchedBits (common/touched_bits.h)",
                    )

        # R9 — no member RNG in the engine.
        if rel.startswith(RNG_MEMBER_DIR):
            members = class_body_lines(code)
            for lineno, line in enumerate(code_lines, 1):
                if lineno in members and RNG_MEMBER.search(line):
                    self.report(
                        path, lineno, "rng-locals-only",
                        "Rng data member: its state carries from call to "
                        "call; derive a local stream from (seed, node)",
                    )

        # R10 — one environment knob.
        if rel != ENV_READ_FILE:
            for lineno, line in enumerate(code_lines, 1):
                if ENV_READ.search(line):
                    self.report(
                        path, lineno, "one-env-knob",
                        "getenv outside common/failpoint.cc; take the "
                        "setting as an option or flag",
                    )

        # R11 — the one publish path.
        publish_body = range(0)
        if rel == PUBLISH_FILE:
            publish_body = function_body_lines(code, PUBLISH_FUNCTION)
            if publish_body is None:
                self.report(
                    path, 1, "one-publish-path",
                    "GraphRegistry::Publish definition not found",
                )
                publish_body = range(0)
        for lineno, line in enumerate(code_lines, 1):
            if lineno in publish_body:
                continue
            if GENERATION_BUILD.search(line):
                self.report(
                    path, lineno, "one-publish-path",
                    "GraphGeneration constructed outside "
                    "GraphRegistry::Publish; publish through it",
                )
            if CURRENT_ASSIGN.search(line):
                self.report(
                    path, lineno, "one-publish-path",
                    "`current` assigned outside GraphRegistry::Publish; "
                    "publish through it",
                )

        # R12 — threads only where an option counts them.
        if rel not in THREAD_OWNERS:
            for lineno, line in enumerate(code_lines, 1):
                if THREAD_USE.search(line):
                    self.report(
                        path, lineno, "two-thread-owners",
                        "std::thread/jthread/async outside "
                        "serve/http_server.* and common/thread_pool.*; run "
                        "the work on a ThreadPool or the server's workers",
                    )

        # R14 — no mutable master copy of a tenant's graph.
        if rel.startswith(NO_MASTER_DIR):
            for lineno, line in enumerate(code_lines, 1):
                if MASTER_USE.search(line):
                    self.report(
                        path, lineno, "no-serving-master",
                        "DynamicGraph in the serving layer; keep the "
                        "tenant's PendingEdits and merge them at rebuild",
                    )

    def check_test_only_surface(self) -> None:
        """R13: each namespace-scope function of a src/ header needs a
        call outside tests/."""
        code: dict[Path, str] = {}
        for directory in CALLER_DIRS:
            if (self.root / directory).is_dir():
                for path in iter_source_files(self.root / directory):
                    code[path] = blank_preprocessor_lines(
                        strip_comments_and_strings(
                            path.read_text(encoding="utf-8")))
        declared: dict[str, tuple[Path, int]] = {}
        for path in sorted(self.src.rglob("*.h")):
            if str(path.relative_to(self.root)) in SURFACE_ALLOWLIST:
                continue
            for name, line in namespace_scope_functions(code[path]):
                declared.setdefault(name, (path, line))
        if not declared:
            return
        mention = re.compile(
            r"\b(" + "|".join(map(re.escape, declared)) + r")\b(\s*\()?")
        called: set[str] = set()
        for text in code.values():
            for match in mention.finditer(text):
                name = match.group(1)
                if name in called:
                    continue
                if match.group(2):  # `name(`: a call unless it declares.
                    start = max(text.rfind(c, 0, match.start())
                                for c in ";{})") + 1
                    if is_declarator(text[start:match.start()]):
                        continue
                called.add(name)
        for name, (path, line) in sorted(declared.items(),
                                         key=lambda item: item[1]):
            if name not in called:
                self.report(
                    path, line, "no-test-only-surface",
                    f"{name}() has no caller outside tests/; delete it or "
                    "move it under tests/",
                )

    def check_failpoints(self, failpoints: dict[str, set[str]]) -> None:
        if not self.chaos_test.exists():
            self.report(self.chaos_test, 1, "failpoint-coverage",
                        "tests/chaos_test.cc not found")
            return
        chaos = self.chaos_test.read_text(encoding="utf-8")
        anchor = "AllInstrumentedFailpointsFired"
        at = chaos.find(anchor)
        if at < 0:
            self.report(self.chaos_test, 1, "failpoint-coverage",
                        f"{anchor} test not found in chaos_test.cc")
            return
        block = chaos[at:chaos.find("}", chaos.find("{", at))]
        covered = set(re.findall(r'"([^"]+)"', block))
        for name, files in sorted(failpoints.items()):
            if name not in covered:
                self.report(
                    self.root / sorted(files)[0], 1, "failpoint-coverage",
                    f'failpoint "{name}" is not asserted by chaos_test\'s '
                    f"{anchor} (add it there or remove the seam)",
                )
            if len(files) > 1:
                self.report(
                    self.root / sorted(files)[0], 1, "failpoint-coverage",
                    f'failpoint "{name}" is registered from multiple files '
                    f"({', '.join(sorted(files))}); one seam, one owner",
                )
        for name in sorted(covered - set(failpoints)):
            self.report(
                self.chaos_test, 1, "failpoint-coverage",
                f'chaos_test asserts failpoint "{name}" which no src/ file '
                "instruments",
            )


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(f"usage: {argv[0]} [ROOT]", file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve() if len(argv) == 2 else REPO_ROOT
    linter = Linter(root)
    if not linter.src.is_dir():
        print(f"error: {linter.src} not found", file=sys.stderr)
        return 2
    failpoints: dict[str, set[str]] = {}
    for path in iter_source_files(linter.src):
        linter.check_file(path, failpoints)
    linter.check_test_only_surface()
    linter.check_failpoints(failpoints)
    if linter.violations:
        for violation in linter.violations:
            print(violation)
        print(f"\n{len(linter.violations)} invariant violation(s).",
              file=sys.stderr)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
