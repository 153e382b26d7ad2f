#!/usr/bin/env python3
"""Fails on dead relative links in the repo's Markdown files and on
Markdown files named in source code that do not exist.

Scans every tracked *.md file for inline Markdown links ``[text](target)``
and verifies that each relative target exists on disk (anchors are
stripped; pure-anchor, absolute-URL and mailto links are skipped). Then
scans every tracked C++ and Python source file for names ending in
``.md`` (in comments, docstrings and printed text alike) and verifies
that each resolves, relative to the source file's directory or to the
repo root. CI runs this so subsystem READMEs and source comments cannot
drift into pointing at moved, deleted or never-written documents.

Usage: scripts/check_doc_links.py [repo_root]
"""

import os
import re
import subprocess
import sys

# Inline links only; reference-style links are not used in this repo.
# The target group stops at the first unescaped ')' — none of our paths
# contain parentheses.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
# A Markdown file name in source text: a path of word characters, dots,
# slashes and dashes that ends in ".md". Globs such as "*.md" do not match.
MD_NAME_RE = re.compile(r"(?<![\w./-])(\w[\w./-]*\.md)\b")
SOURCE_PATTERNS = ("*.h", "*.cc", "*.cpp", "*.py")


def tracked_files(root, patterns):
    # --others picks up not-yet-committed files; --exclude-standard keeps
    # build trees and other ignored paths out; -z survives paths with
    # spaces.
    globs = [g for p in patterns for g in (p, "**/" + p)]
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"] + globs,
        cwd=root,
        check=True,
        capture_output=True,
        text=True,
    )
    return sorted(set(p for p in out.stdout.split("\0") if p))


def dead_source_references(root):
    failures = []
    for src in tracked_files(root, SOURCE_PATTERNS):
        src_dir = os.path.dirname(os.path.join(root, src))
        with open(os.path.join(root, src), encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                for name in MD_NAME_RE.findall(line):
                    if not any(os.path.exists(os.path.join(base, name))
                               for base in (src_dir, root)):
                        failures.append(
                            f"{src}:{lineno}: names a missing file -> {name}")
    return failures


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    failures = []
    for md in tracked_files(root, ("*.md",)):
        md_dir = os.path.dirname(os.path.join(root, md))
        with open(os.path.join(root, md), encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                for target in LINK_RE.findall(line):
                    if target.startswith(SKIP_PREFIXES):
                        continue
                    path = target.split("#", 1)[0]
                    if not path:
                        continue
                    base = root if path.startswith("/") else md_dir
                    resolved = os.path.normpath(
                        os.path.join(base, path.lstrip("/"))
                    )
                    if not os.path.exists(resolved):
                        failures.append(f"{md}:{lineno}: dead link -> {target}")
    failures += dead_source_references(root)
    if failures:
        print("\n".join(failures))
        print(f"\n{len(failures)} dead link(s) or Markdown reference(s) "
              "found.")
        return 1
    print("all relative Markdown links and source references resolve.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
