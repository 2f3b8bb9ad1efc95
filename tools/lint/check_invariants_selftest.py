#!/usr/bin/env python3
"""Self-test of tools/lint/check_invariants.py: proves every rule fires.

Copies the parts of the tree the linter reads into a temporary
directory, checks that the copy lints clean, then plants one violation
per rule R1-R14, one at a time, and asserts that the linter reports
exactly that violation: one line, naming the rule and the planted file.

Usage: check_invariants_selftest.py [ROOT]   (default: this repository)
Exit 0 = every rule fired on its plant, 1 = a rule did not.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

LINTER = Path(__file__).resolve().parent / "check_invariants.py"
COPIED = ("src", "tools", "bench", "examples", "tests/chaos_test.cc")

# (rule, file the plant is appended to, planted text). Each plant breaks
# its rule once and no other rule.
PLANTS = [
    ("rng-determinism", "src/simpush/join.cc",
     "int PlantR1() { return std::rand(); }"),
    ("zero-alloc-hot-path", "src/simpush/source_push.cc",
     "std::function<void()> plant_r2;"),
    ("failpoint-coverage", "src/simpush/join.cc",
     'void PlantR3() { SIMPUSH_FAILPOINT("selftest.unlisted"); }'),
    ("locked-suffix-requires", "src/serve/registry.h",
     "struct PlantR4 {\n  void FlushLocked();\n};"),
    ("annotated-locks-only", "src/simpush/join.cc",
     "std::mutex plant_r5;"),
    ("one-error-path", "src/serve/service.cc",
     "int PlantR6() { return 404; }"),
    ("pooled-scratch-only", "src/serve/json.cc",
     "QueryWorkspace plant_r7;"),
    ("one-bitmask", "src/simpush/join.cc",
     "int PlantR8(uint64_t w) { return std::countr_zero(w); }"),
    ("rng-locals-only", "src/simpush/join.h",
     "struct PlantR9 {\n  Rng rng;\n};"),
    ("one-env-knob", "src/simpush/join.cc",
     'const char* PlantR10() { return getenv("PLANT"); }'),
    ("one-publish-path", "src/serve/json.cc",
     "auto plant_r11 = std::make_shared<GraphGeneration>();"),
    ("two-thread-owners", "src/simpush/join.cc",
     "std::thread plant_r12;"),
    ("no-test-only-surface", "src/simpush/join.h",
     "double PlantR13(double x);"),
    ("no-serving-master", "src/serve/json.cc",
     "DynamicGraph* plant_r14 = nullptr;"),
]


def lint(root: Path) -> tuple[int, list[str]]:
    run = subprocess.run([sys.executable, str(LINTER), str(root)],
                         capture_output=True, text=True, check=False)
    return run.returncode, [line for line in run.stdout.splitlines()
                            if ": [" in line]


def main(argv: list[str]) -> int:
    source = Path(argv[1]).resolve() if len(argv) > 1 else \
        LINTER.parent.parent.parent
    failures = []
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = Path(tmp)
        for rel in COPIED:
            if (source / rel).is_dir():
                shutil.copytree(source / rel, root / rel)
            elif (source / rel).is_file():
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source / rel, root / rel)
        code, violations = lint(root)
        if code != 0 or violations:
            failures.append(f"clean copy: exit {code}, {violations}")
        for rule, rel, plant in PLANTS:
            path = root / rel
            original = path.read_text(encoding="utf-8")
            path.write_text(original + "\n" + plant + "\n", encoding="utf-8")
            code, violations = lint(root)
            path.write_text(original, encoding="utf-8")
            if (code != 1 or len(violations) != 1
                    or f"[{rule}]" not in violations[0]
                    or not violations[0].startswith(rel + ":")):
                failures.append(f"{rule} plant in {rel}: exit {code}, "
                                f"{violations}")
    for failure in failures:
        print(failure)
    if failures:
        print(f"\n{len(failures)} self-test failure(s).", file=sys.stderr)
        return 1
    print(f"check_invariants_selftest: all {len(PLANTS)} rules fired")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
