#!/usr/bin/env python3
"""Traffic census of the src/ lines: which the committed numbers run.

Runs the ctests of a build configured with gcc's --coverage twice and
reads the counts with gcov:

  1. the traffic: every golden bench, the examples, check_replay and the
     benchmark smoke (ctest -R TRAFFIC);
  2. the rest, i.e. the gtest suites (ctest -E TRAFFIC).

Each instrumented src/ line then falls in one class: run by the traffic,
run only by the gtest suites, or never run.  A line counts once however
many objects instantiate it.  Never-run lines inside a sim::panic,
sim::fatal or throw statement are also counted in a column of their own
("guards"), so that a never-run line outside one stands out.

  cmake -B build-cov -S . -G Ninja -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O1 --coverage" -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov
  python3 tools/census.py build-cov

--never also lists each never-run line outside a guard, as file:line.
The source tree is the one the build was configured from.
"""

import argparse
import concurrent.futures
import functools
import json
import os
import re
import subprocess
import sys

TRAFFIC = "^(golden_|example_|benchsuite_smoke|check_replay)"

# A call of sim::panic / sim::fatal (unqualified inside namespace sim),
# or a throw.
GUARD = re.compile(r"(?<![\w:])(?:sim::)?(?:panic|fatal)\s*\(|\bthrow\b")


def source_root(build):
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip())
    sys.exit(f"{build}: no CMAKE_HOME_DIRECTORY in CMakeCache.txt")


def find(build, suffix):
    for top, _, files in os.walk(build):
        for name in files:
            if name.endswith(suffix):
                yield os.path.join(top, name)


def run_ctest(build, select, jobs):
    cmd = ["ctest", "--test-dir", build, "-j", str(jobs), select, TRAFFIC]
    print("+", " ".join(cmd), file=sys.stderr)
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        print(f"census: ctest {select} failed; counting what ran",
              file=sys.stderr)


def gcov(notes):
    """[(source path, line, count)] of one object's notes file."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", notes],
        capture_output=True, text=True, cwd=os.path.dirname(notes))
    rows = []
    for doc in out.stdout.splitlines():
        doc = json.loads(doc)
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            rows += [(path, l["line_number"], l["count"]) for l in f["lines"]]
    return rows


def collect(build, src, jobs):
    """{(file, line): executed} over every object's src/ lines."""
    lines = {}
    notes = sorted(find(build, ".gcno"))
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        for rows in pool.map(gcov, notes):
            for path, n, count in rows:
                if not path.startswith(src + os.sep):
                    continue
                key = (os.path.relpath(path, os.path.dirname(src)), n)
                lines[key] = lines.get(key, False) or count > 0
    return lines


@functools.lru_cache(maxsize=None)
def guard_lines(path):
    """Line numbers inside a panic, fatal or throw statement of @p path
    (from the call to its closing semicolon)."""
    with open(path) as f:
        text = f.read()
    found = set()
    for m in GUARD.finditer(text):
        depth, end = 0, m.end()
        if text[m.end() - 1] == "(":
            depth = 1
        while end < len(text):
            c = text[end]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif depth == 0 and c in ";{":
                break
            end += 1
        if end < len(text) and text[end] == "{":
            continue  # a definition, not a call
        first = text.count("\n", 0, m.start()) + 1
        last = text.count("\n", 0, end) + 1
        found.update(range(first, last + 1))
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build", help="a build directory configured with "
                    "--coverage and built")
    ap.add_argument("-j", "--jobs", type=int, default=4,
                    help="ctest and gcov jobs (default 4)")
    ap.add_argument("--never", action="store_true",
                    help="list the never-run lines outside a guard")
    args = ap.parse_args()
    build = os.path.realpath(args.build)
    root = source_root(build)
    src = os.path.join(root, "src")

    def phase(select):
        for data in find(build, ".gcda"):
            os.remove(data)
        run_ctest(build, select, args.jobs)
        return collect(build, src, args.jobs)

    traffic = phase("-R")
    suites = phase("-E")

    table = {}
    dead = []
    for key in sorted(traffic.keys() | suites.keys()):
        path, n = key
        row = table.setdefault(path, [0, 0, 0, 0, 0])
        row[0] += 1
        if traffic.get(key):
            row[1] += 1
        elif suites.get(key):
            row[2] += 1
        else:
            row[3] += 1
            if n in guard_lines(os.path.join(root, path)):
                row[4] += 1
            else:
                dead.append(f"{path}:{n}")

    head = ("instrumented", "traffic", "gtest-only", "never", "never:guard")
    width = max(len(p) for p in table) if table else 4
    print(f"{'file':<{width}}  " + "  ".join(f"{h:>12}" for h in head))
    total = [0] * len(head)
    for path in sorted(table):
        row = table[path]
        total = [t + v for t, v in zip(total, row)]
        print(f"{path:<{width}}  " + "  ".join(f"{v:>12}" for v in row))
    print(f"{'total':<{width}}  " + "  ".join(f"{v:>12}" for v in total))
    if args.never:
        print("\nnever run, outside a guard:")
        print("\n".join(dead))


if __name__ == "__main__":
    main()
