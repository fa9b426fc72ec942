#!/usr/bin/env python3
"""Docs consistency gate, run by the CI docs job.

Checks, over README.md and docs/*.md:
  1. every relative markdown link ([text](path), images included) resolves
     to an existing file or directory, anchors stripped;
  2. every bench binary named in docs/PAPER_MAPPING.md exists as a CMake
     target in bench/CMakeLists.txt (fdevolve_add_bench(<name> ...));
  3. every symbol docs/PAPER_MAPPING.md cites with a source file — written
     "`Name` in `src/x.cpp`" or "`src/x.cpp` (`Name`, ...)" — occurs in
     that file or its .h/.cpp sibling. Only the last `::` part of a name
     is looked up, and "A/B" names both A and B.

Exits non-zero with one line per problem, so a stale rename fails CI
instead of rotting in the docs.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# [text](target) — skips images' leading '!' implicitly, captures target.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BENCH_RE = re.compile(r"\b(bench_[a-z0-9_]+)\b")
SRC = r"`(src/[^`]+\.(?:h|cpp))`"
# "`A`/`B` in `src/x.h`" and "`src/x.h` (`A`, `B`)": (names, path) pairs.
NAMES_IN_RE = re.compile(r"((?:`[^`]+`/)*`[^`]+`) in " + SRC)
PATH_NAMES_RE = re.compile(SRC + r" \(([^)]*)\)")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def check_links(md_path: Path) -> list[str]:
    problems = []
    text = md_path.read_text(encoding="utf-8")
    # Fenced code blocks may show illustrative links; skip them.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for target in LINK_RE.findall(text):
        if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        resolved = (md_path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{md_path.relative_to(REPO)}: broken link -> {target}")
    return problems


def check_bench_targets(mapping_path: Path, cmake_path: Path) -> list[str]:
    problems = []
    named = set(BENCH_RE.findall(mapping_path.read_text(encoding="utf-8")))
    cmake = cmake_path.read_text(encoding="utf-8")
    declared = set(re.findall(r"fdevolve_add_bench\((bench_[a-z0-9_]+)", cmake))
    for bench in sorted(named - declared):
        problems.append(
            f"{mapping_path.relative_to(REPO)}: names '{bench}' but "
            f"{cmake_path.relative_to(REPO)} declares no such target"
        )
    return problems


def cited_symbols(text: str):
    for names, path in NAMES_IN_RE.findall(text):
        yield path, re.findall(r"`([^`]+)`", names)
    for path, names in PATH_NAMES_RE.findall(text):
        yield path, re.findall(r"`([^`]+)`", names)


def check_symbols(mapping_path: Path) -> list[str]:
    problems = []
    for path, names in cited_symbols(mapping_path.read_text(encoding="utf-8")):
        stem = (REPO / path).with_suffix("")
        sources = [f for f in (stem.with_suffix(".h"), stem.with_suffix(".cpp"))
                   if f.exists()]
        code = "".join(f.read_text(encoding="utf-8") for f in sources)
        for name in names:
            for part in name.split("/"):
                symbol = part.split("::")[-1]
                if not re.search(rf"(?<!\w){re.escape(symbol)}(?!\w)", code):
                    problems.append(
                        f"{mapping_path.relative_to(REPO)}: cites '{name}' in "
                        f"{path}, but '{symbol}' occurs in neither it nor its "
                        f".h/.cpp sibling"
                    )
    return problems


def main() -> int:
    problems = []
    doc_files = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    for md in doc_files:
        if md.exists():
            problems.extend(check_links(md))
        else:
            problems.append(f"missing expected doc: {md.relative_to(REPO)}")

    mapping = REPO / "docs" / "PAPER_MAPPING.md"
    cmake = REPO / "bench" / "CMakeLists.txt"
    if mapping.exists() and cmake.exists():
        problems.extend(check_bench_targets(mapping, cmake))
    if mapping.exists():
        problems.extend(check_symbols(mapping))

    for p in problems:
        print(f"check_docs: {p}", file=sys.stderr)
    if not problems:
        checked = ", ".join(str(d.relative_to(REPO)) for d in doc_files)
        print(f"check_docs: OK ({checked})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
