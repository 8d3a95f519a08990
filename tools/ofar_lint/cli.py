"""Command-line driver for ofar_lint.

Exit status 0 when no findings (or --list-only modes), 1 when findings
remain, 2 on usage/environment errors.
"""

import argparse
import os
import sys

from . import __version__
from .frontend_builtin import load_program
from .model import Finding  # noqa: F401  (re-export for embedders)
from .rules import RULES, Analyzer, analyze

DEFAULT_DIRS = ("src",)
SOURCE_EXTS = (".hpp", ".cpp", ".h", ".cc")


def _find_root(start):
    d = os.path.abspath(start)
    while True:
        if os.path.isdir(os.path.join(d, "src")) and \
                os.path.exists(os.path.join(d, "CMakeLists.txt")):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return None
        d = parent


def collect_files(root, dirs=DEFAULT_DIRS):
    out = []
    for rel in dirs:
        base = os.path.join(root, rel)
        for dirpath, _dirnames, filenames in os.walk(base):
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    out.append(os.path.relpath(
                        os.path.join(dirpath, fn), root))
    out.sort()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="ofar_lint",
        description="Determinism and phase-discipline analyzer for the "
                    "OFAR sharded kernel (DESIGN.md §8/§10/§12).")
    ap.add_argument("--root", default=None,
                    help="repository root (default: auto-detect upward "
                         "from cwd)")
    ap.add_argument("--rule", action="append", choices=RULES,
                    help="restrict to the given rule(s); repeatable")
    ap.add_argument("--list-waivers", action="store_true",
                    help="print every `// lint: allow(...)` site with its "
                         "rule and exit 0")
    ap.add_argument("--stale-waivers", action="store_true",
                    help="print waivers that suppress no finding or name "
                         "no rule; exit 1 if any")
    ap.add_argument("--version", action="version",
                    version=f"ofar_lint {__version__}")
    ap.add_argument("files", nargs="*",
                    help="restrict analysis paths (repo-relative); the "
                         "whole-program model still loads src/")
    args = ap.parse_args(argv)

    root = args.root or _find_root(os.getcwd())
    if root is None:
        print("ofar_lint: cannot locate repository root (need src/ + "
              "CMakeLists.txt); pass --root", file=sys.stderr)
        return 2

    files = collect_files(root)
    if not files:
        print(f"ofar_lint: no sources under {root}/src", file=sys.stderr)
        return 2

    program = load_program(root, files)

    if args.list_waivers:
        for (path, line), rule_set in sorted(program.waivers.items()):
            for rule in sorted(rule_set):
                print(f"{path}:{line}: allow({rule})")
        return 0

    findings = analyze(program)
    if args.rule:
        findings = [f for f in findings if f.rule in args.rule]
    if args.files:
        wanted = set(args.files)
        findings = [f for f in findings if f.file in wanted]

    if args.stale_waivers:
        # A waiver is stale when it names no rule, or when removing it
        # would still yield no finding at that site. The analyzer already
        # suppressed matching findings, so recompute without suppression.
        saved = program.waivers
        program.waivers = {}
        try:
            raw = Analyzer(program).run()
        finally:
            program.waivers = saved
        hit = {(f.file, f.line, f.rule) for f in raw}
        stale = []
        for (path, line), rule_set in sorted(saved.items()):
            for rule in sorted(rule_set):
                if rule not in RULES:
                    stale.append(f"{path}:{line}: allow({rule}) names no "
                                 "rule")
                elif (path, line, rule) not in hit:
                    stale.append(f"{path}:{line}: allow({rule}) "
                                 "suppresses nothing")
        for s in stale:
            print(s)
        if not stale:
            print("no stale waivers")
        return 1 if stale else 0

    for f in findings:
        print(f.format())
    if findings:
        print(f"\nofar_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"ofar_lint: OK — {len(files)} files, "
          f"{sum(len(v) for v in program.functions.values())} functions "
          "analyzed")
    return 0
