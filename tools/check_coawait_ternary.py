#!/usr/bin/env python3
"""Fails on `co_await` inside either arm of a conditional operator.

    python3 tools/check_coawait_ternary.py DIR...
    python3 tools/check_coawait_ternary.py --selftest

GCC 12 can evaluate a `co_await` written in one arm of `?:` even when the
other arm is taken: `out.push_back(hit ? *hit : co_await slow(...))` in a
loop runs `slow` on every iteration, hits included, at -O0 and -O2 alike.
The values come out right, so only side effects (hit counters, I/O) show
it. Fast paths are written as awaitables or as if/else instead, and this
check keeps the shape out of the tree (DESIGN.md §6).

Scans *.h and *.cc under each DIR with comments and literals blanked, and
prints file:line for every `?` whose true arm (up to the matching `:`) or
false arm (up to the end of the enclosing expression) contains `co_await`.
A `co_await` outside the conditional, e.g. `co_await f(a ? b : c)`, is
fine. Exit status 1 when anything is found.
"""

import os
import re
import sys

OPEN = "([{"
CLOSE = ")]}"
TOKEN = re.compile(r"\bco_await\b")


def blank(src):
    """Replaces comments and string/char literals with spaces, keeping
    newlines so offsets still map to lines."""
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif src.startswith("/*", i):
            j = src.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == 'R' and src.startswith('R"', i):
            m = re.match(r'R"([^(\s]*)\(', src[i:])
            end = src.find(")" + (m.group(1) if m else "") + '"', i)
            j = n if end < 0 else end + len(m.group(1) if m else "") + 2
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and src[j] != c:
                j += 2 if src[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def arms(code, q):
    """(true_arm, false_arm) of the conditional whose `?` is at index q,
    or None if no matching `:` follows."""
    depth = 0
    nested = 0
    i = q + 1
    colon = None
    while i < len(code):
        c = code[i]
        if c in OPEN:
            depth += 1
        elif c in CLOSE:
            if depth == 0:
                return None
            depth -= 1
        elif c == ";" and depth == 0:
            return None
        elif c == "?" and depth == 0:
            nested += 1
        elif c == ":" and depth == 0:
            if code.startswith("::", i):
                i += 2
                continue
            if i > 0 and code[i - 1] == ":":
                i += 1
                continue
            if nested:
                nested -= 1
            else:
                colon = i
                break
        i += 1
    if colon is None:
        return None
    depth = 0
    j = colon + 1
    while j < len(code):
        c = code[j]
        if c in OPEN:
            depth += 1
        elif c in CLOSE:
            if depth == 0:
                break
            depth -= 1
        elif c in ";," and depth == 0:
            break
        j += 1
    return code[q + 1:colon], code[colon + 1:j]


def findings(src):
    code = blank(src)
    out = []
    for m in re.finditer(r"\?", code):
        pair = arms(code, m.start())
        if pair and any(TOKEN.search(arm) for arm in pair):
            out.append(code.count("\n", 0, m.start()) + 1)
    return out


def scan(dirs):
    bad = []
    for top in dirs:
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for f in sorted(files):
                if not f.endswith((".h", ".cc")):
                    continue
                path = os.path.join(dirpath, f)
                with open(path, encoding="utf-8", errors="replace") as fh:
                    for line in findings(fh.read()):
                        bad.append("%s:%d" % (path, line))
    return bad


def selftest():
    flagged = [
        "out.push_back(hit ? *hit : co_await slow(in, fb));",
        "auto v = miss ? co_await fetch(k) : cached;",
        "x = a ? b : c ? co_await d() : e;",
    ]
    clean = [
        "auto r = co_await call(directory ? Proc::Mkdir : Proc::Create, a);",
        "auto s = std::string(\"a ? co_await b : c\");",
        "// hit ? *hit : co_await slow()\nint x = 1;",
        "switch (k) { case A: co_await f(); break; }",
        "y = cond ? ns::value : other; co_await g();",
    ]
    ok = True
    for s in flagged:
        if not findings(s):
            print("selftest: missed: " + s)
            ok = False
    for s in clean:
        if findings(s):
            print("selftest: false positive: " + s)
            ok = False
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if argv[1:] == ["--selftest"]:
        return selftest()
    if len(argv) < 2:
        print(__doc__)
        return 2
    bad = scan(argv[1:])
    for b in bad:
        print(b + ": co_await inside a conditional operator (see DESIGN.md §6)")
    if not bad:
        print("no co_await inside ?: in " + " ".join(argv[1:]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
