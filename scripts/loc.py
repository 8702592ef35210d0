#!/usr/bin/env python3
"""loc: non-test lines of Rust per crate, one rule for every tree.

Counts the lines of every `.rs` file under `crates/*/src` (subdirectories
included), less what only a test build compiles:

* each item under a `#[cfg(test)]` attribute, from the attribute line to the
  item's end -- its matching closing brace, or the `;` of a one-line item
  such as `mod stragglers;` (doc comments above the attribute still count);
* the files of the test-only modules a crate root declares that way
  (`#[cfg(test)] mod stragglers;` leaves `stragglers.rs` out);
* `tests/` directories, which lie outside `src/`.

Two columns: `code`, the lines that are neither blank nor a `//` comment
(doc comments included), and `lines`, every line. Prose that moves between
DESIGN.md and rustdoc moves `lines` only. Braces inside string and character
literals and comments are skipped when matching.

    python3 scripts/loc.py [--files] [ROOT]

ROOT is the checkout to count (default: the one holding this script), so two
trees -- a change and its parent -- are counted by the same rule.
`--files` lists every file's count under its crate.
"""

import argparse
import os
import re
import sys

CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")
TEST_MOD = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def skip_literal(text, i):
    """Index just past the string, char or comment opening at `text[i]`,
    or `i` if none opens there."""
    if text.startswith("//", i):
        end = text.find("\n", i)
        return len(text) if end < 0 else end
    if text.startswith("/*", i):
        depth, j = 1, i + 2
        while j < len(text) and depth:
            if text.startswith("/*", j):
                depth, j = depth + 1, j + 2
            elif text.startswith("*/", j):
                depth, j = depth - 1, j + 2
            else:
                j += 1
        return j
    raw = re.match(r'b?r(#*)"', text[i:i + 260])
    if raw and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
        close = '"' + raw.group(1)
        end = text.find(close, i + raw.end())
        return len(text) if end < 0 else end + len(close)
    if text[i] == '"':
        j = i + 1
        while j < len(text) and text[j] != '"':
            j += 2 if text[j] == "\\" else 1
        return j + 1
    if text[i] == "'":
        # A char literal ('x', '\n', '\u{1F600}'), not a lifetime ('a).
        lit = re.match(r"'(?:\\.|\\u\{[0-9a-fA-F]+\}|[^\\'])'", text[i:i + 12])
        if lit:
            return i + lit.end()
    return i


def item_end(text, start):
    """Index just past the item that begins at `text[start]`: its matching
    closing brace, or its `;` if one comes before any brace."""
    depth, i = 0, start
    while i < len(text):
        j = skip_literal(text, i)
        if j != i:
            i = j
            continue
        c = text[i]
        if c == ";" and depth == 0:
            return i + 1
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(text)


def is_code(line):
    """Neither blank nor a `//` comment."""
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("//")


def count(path):
    """Non-test (code, all) lines of one file, and the test-only modules it
    declares."""
    lines = open(path, encoding="utf-8").read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    # Character offset of each line start, to map an item's end to its line.
    offsets, at = [], 0
    for line in lines:
        offsets.append(at)
        at += len(line) + 1
    text = "\n".join(lines)
    code, kept, test_mods, n = 0, 0, [], 0
    while n < len(lines):
        if not CFG_TEST.match(lines[n]):
            code += is_code(lines[n])
            kept += 1
            n += 1
            continue
        # The item starts at the first line after the attributes.
        first = n + 1
        while first < len(lines) and lines[first].lstrip().startswith("#["):
            first += 1
        if first < len(lines):
            m = TEST_MOD.match(lines[first])
            if m:
                test_mods.append(m.group(1))
        end = item_end(text, offsets[min(first, len(lines) - 1)])
        while n < len(lines) and offsets[n] < end:
            n += 1
    return (code, kept), test_mods


def crate_files(src):
    """Every `.rs` file under `src`, sorted."""
    found = []
    for dirpath, _, names in os.walk(src):
        found += [os.path.join(dirpath, f) for f in names if f.endswith(".rs")]
    return sorted(found)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--files", action="store_true", help="list every file's count")
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("root", nargs="?", default=default_root, help="checkout to count")
    args = ap.parse_args()
    crates_dir = os.path.join(args.root, "crates")
    if not os.path.isdir(crates_dir):
        sys.exit(f"loc: no crates/ directory under {args.root}")
    print(f"{'code':>7} {'lines':>7}")
    total = (0, 0)
    for crate in sorted(os.listdir(crates_dir)):
        src = os.path.join(crates_dir, crate, "src")
        if not os.path.isdir(src):
            continue
        counts, skipped = {}, set()
        for path in crate_files(src):
            kept, test_mods = count(path)
            counts[path] = kept
            # A module declared in lib.rs, main.rs or mod.rs lives beside
            # it; one declared in foo.rs, in foo/.
            here, name = os.path.split(path)
            if name not in ("lib.rs", "main.rs", "mod.rs"):
                here = os.path.join(here, name[:-3])
            for mod in test_mods:
                skipped.add(os.path.join(here, mod + ".rs"))
                skipped.add(os.path.join(here, mod, "mod.rs"))
        files = {p: n for p, n in counts.items() if p not in skipped}
        crate_total = tuple(map(sum, zip(*files.values())))
        total = tuple(map(sum, zip(total, crate_total)))
        print(f"{crate_total[0]:>7} {crate_total[1]:>7}  crates/{crate}/src")
        if args.files:
            for path, (code, kept) in files.items():
                print(f"{code:>7} {kept:>7}    {os.path.relpath(path, args.root)}")
    print(f"{total[0]:>7} {total[1]:>7}  total")


if __name__ == "__main__":
    main()
