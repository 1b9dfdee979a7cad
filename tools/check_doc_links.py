#!/usr/bin/env python3
"""Markdown link checker for the repository documentation.

Scans ``README.md`` and every ``docs/*.md`` file for markdown links and
verifies that

* relative links resolve to an existing file or directory (anchors are
  stripped; ``#section`` fragments are not validated against headings);
* reference-style definitions (``[label]: target``) resolve too;
* absolute ``http(s)`` URLs are well-formed (no network access — CI must
  not flake on someone else's server).

Stdlib only; exits non-zero listing every broken link.  Run locally with

    python tools/check_doc_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from urllib.parse import urlparse

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Pages that must exist (beyond whatever ``docs/*.md`` happens to glob):
#: the checker fails loudly if one goes missing instead of silently
#: checking fewer files.
REQUIRED_PAGES = (
    "README.md",
    "docs/architecture.md",
    "docs/benchmarking.md",
    "docs/data-generators.md",
    "docs/dynamic.md",
    "docs/service.md",
)

#: Inline links/images: [text](target) — target ends at the first
#: unescaped closing paren; titles ("...") after the URL are dropped.
INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)<>\s]+)>?(?:\s+\"[^\"]*\")?\s*\)")
#: Reference definitions: [label]: target
REFERENCE_DEF = re.compile(r"^\[[^\]]+\]:\s+<?(\S+?)>?\s*$", re.MULTILINE)
FENCE = re.compile(r"^(```|~~~)", re.MULTILINE)


def _strip_code_blocks(text: str) -> str:
    """Blank out fenced code blocks so example links are not checked."""
    out: list[str] = []
    in_fence = False
    for line in text.splitlines():
        if FENCE.match(line):
            in_fence = not in_fence
            out.append("")
        else:
            out.append("" if in_fence else line)
    return "\n".join(out)


def _targets(text: str) -> list[str]:
    text = _strip_code_blocks(text)
    found = INLINE_LINK.findall(text)
    found += REFERENCE_DEF.findall(text)
    return found


def check_file(path: Path) -> list[str]:
    """Return a list of broken-link descriptions for one markdown file."""
    problems: list[str] = []
    for target in _targets(path.read_text(encoding="utf-8")):
        parsed = urlparse(target)
        if parsed.scheme in ("http", "https"):
            if not parsed.netloc:
                problems.append(f"{path}: malformed URL {target!r}")
            continue
        if parsed.scheme == "mailto" or target.startswith("#"):
            continue
        relative = parsed.path
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            problems.append(f"{path}: broken relative link {target!r}")
    return problems


def main() -> int:
    files = [REPO_ROOT / "README.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    files += [
        p for page in REQUIRED_PAGES
        if (p := REPO_ROOT / page) not in files
    ]
    missing = [f for f in files if not f.exists()]
    if missing:
        for f in missing:
            print(f"missing expected file: {f}", file=sys.stderr)
        return 1

    problems: list[str] = []
    checked = 0
    for path in files:
        problems += check_file(path)
        checked += 1
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{len(problems)} broken link(s) in {checked} file(s)",
              file=sys.stderr)
        return 1
    print(f"{checked} markdown files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
