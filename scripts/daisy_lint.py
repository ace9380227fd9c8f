#!/usr/bin/env python3
"""daisy_lint: fast source linter for invariants the compiler cannot see.

Rules (each scoped to the directories where the invariant applies):

  raw-io      [src/, tools/]   No raw file I/O — ``::open``/``::write``/
              ``::fsync``/``::rename``/``::unlink``, ``fopen``-family, or
              std file streams — outside src/persist/env.cc. All durable
              file operations route through persist::Env so fault
              injection, crash tests, and the health machine see them.

  raw-stderr  [src/, tools/]   No direct stderr output — ``std::cerr`` or
              ``fprintf(stderr, ...)`` — outside src/common/logger.cc.
              Diagnostics go through the structured logger
              (common/logger.h) so every line is JSON with a timestamp,
              level, and component; tool mains may pragma-allow usage/
              flag-parse text that must print before logging makes sense.

  raw-thread  [src/, tools/]   No ``std::mutex`` / ``std::shared_mutex`` /
              ``std::condition_variable`` / ``std::*_lock`` outside
              src/common/mutex.h — locking goes through the annotated
              daisy::Mutex wrappers so clang's -Wthread-safety can check
              the protocol. ``std::thread`` is additionally confined to
              the approved worker-pool files.

  test-nondet [tests/]         No nondeterminism sources on test golden
              paths: ``std::random_device``, ``srand``/``rand``,
              ``time(nullptr)``. Tests seed their PRNGs with constants so
              failures replay.

  layering    [src/{common,storage,constraints,detect,repair}/]  No
              ``#include`` of a ``clean/``, ``plan/``, ``persist/`` or
              ``server/`` header: the data, rule, detection and repair
              layers sit below the cleaning engine, the planner, the
              persistence layer and the service, never the other way
              round.

  comparators [src/, tools/]  No ``#include`` of an ``offline/``,
              ``holo/`` or ``datagen/`` header outside
              src/{offline,holo,datagen}/: the paper's comparators (the
              offline cleaner, the HoloClean simulator) and the data
              generators are for benches and tests, never for the engine,
              the service or its tools.

A finding can be suppressed with an inline pragma on the same line or the
line directly above, with a mandatory reason:

    // daisy-lint: allow(raw-io) socket file cleanup, not a data file

Exit status: 0 = clean, 1 = findings, 2 = usage/configuration error.
Run as ``daisy_lint.py --root <repo>``; CTest registers it over the tree.
"""

import argparse
import os
import re
import sys

# Per-rule whole-file exemptions (repo-relative, '/'-separated).
RAW_IO_EXEMPT = {
    "src/persist/env.cc",
}
RAW_STDERR_EXEMPT = {
    "src/common/logger.cc",  # the one sanctioned stderr writer
}
RAW_THREAD_EXEMPT = {
    "src/common/mutex.h",
    "src/common/thread_annotations.h",
}
# std::thread (but not raw mutexes) is allowed in the approved pool files.
# Queries run on the calling thread; only the server spawns threads.
THREAD_POOL_FILES = {
    "src/server/server.cc",      # accept/worker/watchdog threads
    "src/server/server.h",
}

# The paper's comparators and data generators: only each other, benches
# and tests may include their headers.
COMPARATOR_DIRS = ("src/offline", "src/holo", "src/datagen")

SOURCE_EXTS = (".cc", ".h", ".cpp", ".hpp")

# A preprocessor include on a comment-stripped line (strip_code blanks the
# quoted path, so the layering rule reads the path off the raw line).
INCLUDE_DIRECTIVE_RE = re.compile(r"^\s*#\s*include\b")

RULES = [
    {
        "name": "raw-io",
        "dirs": ("src", "tools"),
        "exempt": RAW_IO_EXEMPT,
        "patterns": [
            (re.compile(r"::(open|write|fsync|rename|unlink)\s*\("),
             "raw POSIX file I/O; route it through persist::Env"),
            (re.compile(r"\bf(open|write|sync)\s*\("),
             "raw stdio file I/O; route it through persist::Env"),
            (re.compile(r"\bstd::[io]?fstream\b"),
             "raw file stream; route it through persist::Env"),
        ],
    },
    {
        "name": "raw-stderr",
        "dirs": ("src", "tools"),
        "exempt": RAW_STDERR_EXEMPT,
        "patterns": [
            (re.compile(r"\bstd::cerr\b"),
             "direct stderr output; use the structured logger "
             "(common/logger.h)"),
            (re.compile(r"\bfprintf\s*\(\s*stderr\b"),
             "direct stderr output; use the structured logger "
             "(common/logger.h)"),
        ],
    },
    {
        "name": "raw-thread",
        "dirs": ("src", "tools"),
        "exempt": RAW_THREAD_EXEMPT,
        "patterns": [
            (re.compile(r"\bstd::(mutex|shared_mutex|recursive_mutex|"
                        r"condition_variable(_any)?|lock_guard|unique_lock|"
                        r"shared_lock|scoped_lock)\b"),
             "raw locking primitive; use the annotated wrappers in "
             "common/mutex.h"),
        ],
    },
    {
        "name": "raw-thread",  # std::thread: separate exemption set
        "dirs": ("src", "tools"),
        "exempt": RAW_THREAD_EXEMPT | THREAD_POOL_FILES,
        "patterns": [
            (re.compile(r"\bstd::thread\b"),
             "std::thread outside the approved worker-pool files"),
        ],
    },
    {
        "name": "test-nondet",
        "dirs": ("tests",),
        "exempt": set(),
        "patterns": [
            (re.compile(r"\bstd::random_device\b"),
             "nondeterministic seed; use a fixed constant"),
            (re.compile(r"\bs?rand\s*\("),
             "C PRNG; use a fixed-seed <random> engine"),
            (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"),
             "wall-clock seed; use a fixed constant"),
        ],
    },
    {
        "name": "layering",
        "dirs": ("src/common", "src/storage", "src/constraints",
                 "src/detect", "src/repair"),
        "exempt": set(),
        "includes_only": True,
        "patterns": [
            (re.compile(r'#\s*include\s*"(clean|plan|persist|server)/'),
             "lower layer includes an engine-layer header (clean/, plan/, "
             "persist/, server/)"),
        ],
    },
    {
        "name": "comparators",
        "dirs": ("src", "tools"),
        "exempt": set(),
        "exempt_dirs": COMPARATOR_DIRS,
        "includes_only": True,
        "patterns": [
            (re.compile(r'#\s*include\s*"(offline|holo|datagen)/'),
             "engine or tool includes a paper comparator or data generator "
             "header (offline/, holo/, datagen/)"),
        ],
    },
]

ALLOW_RE = re.compile(r"daisy-lint:\s*allow\(([a-z-]+)\)\s*(\S.*)?$")


def strip_code(text):
    """Returns `text` with comments and string/char literals blanked out
    (replaced by spaces, newlines preserved) so patterns only match code."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
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
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def allowances(raw_lines):
    """Maps 1-based line number -> set of rule names allowed there.

    A pragma covers its own line and the next line (the idiomatic
    comment-above placement). A pragma without a reason is itself a
    finding, returned as the second element.
    """
    allowed = {}
    bad_pragmas = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2)
        if not reason:
            bad_pragmas.append(
                (idx, "allow(%s) pragma without a reason" % rule))
            continue
        allowed.setdefault(idx, set()).add(rule)
        allowed.setdefault(idx + 1, set()).add(rule)
    return allowed, bad_pragmas


def lint_file(root, rel):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [(rel, 0, "lint", "unreadable file: %s" % e)]

    raw_lines = text.splitlines()
    code_lines = strip_code(text).splitlines()
    allowed, bad_pragmas = allowances(raw_lines)

    findings = [(rel, ln, "lint", msg) for ln, msg in bad_pragmas]
    for rule in RULES:
        if (not any(rel.startswith(d + "/") for d in rule["dirs"])
                or rel in rule["exempt"]
                or any(rel.startswith(d + "/")
                       for d in rule.get("exempt_dirs", ()))):
            continue
        for idx, line in enumerate(code_lines, start=1):
            if rule.get("includes_only"):
                if not INCLUDE_DIRECTIVE_RE.match(line):
                    continue
                line = raw_lines[idx - 1]
            for pattern, msg in rule["patterns"]:
                if not pattern.search(line):
                    continue
                if rule["name"] in allowed.get(idx, ()):
                    continue
                findings.append((rel, idx, rule["name"], msg))
    return findings


def iter_sources(root):
    for top in ("src", "tools", "tests"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root to lint (default: cwd)")
    parser.add_argument("files", nargs="*",
                        help="repo-relative files to lint (default: all)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print("daisy_lint: no such directory: %s" % root, file=sys.stderr)
        return 2

    rels = args.files or list(iter_sources(root))
    findings = []
    for rel in rels:
        findings.extend(lint_file(root, rel.replace(os.sep, "/")))

    for rel, line, rule, msg in findings:
        print("%s:%d: [%s] %s" % (rel, line, rule, msg))
    if findings:
        print("daisy_lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
