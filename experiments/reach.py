"""Which statements of ``src/adds`` does no entry point reach?

Runs the program's entry points, each as a subprocess under a line tracer
(``sys.settrace`` and ``threading.settrace``, so worker threads are traced
too), and prints every statement of ``src/adds`` that no run reached, one a
line, sorted by file and line:

    src/adds/cli.py:97: raise ConfigurationError(...)

A statement is listed only where its enclosing statement was reached, so an
unreached branch is one line, not one per statement inside it, and a function
that no run called is its ``def`` line. Docstrings and other constant
expressions compile to nothing and are never listed.

The runs work on a copy of ``src``, ``bench``, ``demos`` and ``BENCHMARK.json``
in a temporary directory, so every output they write lands there and is
removed with it. Groups of runs, all by default:

    bench      bench/run.py --seconds 0 --trace 0, each workload
    plan       adds plan, text and record form
    train      adds train on experiments/arena.cfg (1 epoch, 16 images) and its
               --manifest rerun; adds eval, text and record form, and the
               --manifest rerun of the second
    gradcheck  adds gradcheck: --self-test, the decoder, --corrupt-gradient
    demos      the four demos, in order

Run from the repository root:

    python experiments/reach.py [--only GROUP ...]

Exit 0 with the list (which may be empty); exit 1 if a run exits other than
as expected, with its output.
"""

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ADDS = "adds.cli"  # the command line
RUN_TIMEOUT = 600  # seconds; a traced run takes a few

# One traced run: ``python -c CHILD HITS PREFIX TARGET ARGS...``, where TARGET
# is a module run as ``python -m`` runs it, or the path of a script. Writes
# the lines each file under PREFIX reached to HITS as {filename: [line, ...]}
# and exits as the run did.
CHILD = r"""
import json, os, runpy, sys, threading
hits_path, prefix, target, *argv = sys.argv[1:]
lines = {}

def local(frame, event, arg):
    if event == "line":
        lines[frame.f_code].add(frame.f_lineno)
    return local

def call(frame, event, arg):
    if frame.f_code.co_filename.startswith(prefix):
        lines.setdefault(frame.f_code, set())
        return local
    return None

code = 0
threading.settrace(call)
sys.settrace(call)
try:
    sys.argv = [target, *argv]
    if target.endswith(".py"):
        sys.path[0] = os.path.dirname(target)
        runpy.run_path(target, run_name="__main__")
    else:
        runpy.run_module(target, run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
finally:
    sys.settrace(None)
    threading.settrace(None)
    by_file = {}
    for c, seen in lines.items():
        by_file.setdefault(c.co_filename, set()).update(seen)
    with open(hits_path, "w") as fh:
        json.dump({f: sorted(s) for f, s in by_file.items()}, fh)
sys.exit(code)
"""


def groups(tmp: Path) -> dict:
    """Each group's runs, in order: (target, args, expected exit code)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    arena, out = str(ROOT / "experiments" / "arena.cfg"), str(tmp / "out")
    ckpt = f"{out}/train/checkpoint.adds"
    demos = sorted((tmp / "demos").glob("0*.py"))
    return {
        "bench": [(str(tmp / "bench" / "run.py"), ["--workload", w["name"], "--seed", "1",
                                                   "--seconds", "0", "--trace", "0"], 0)
                  for w in bench],
        "plan": [(ADDS, ["plan", "--base-size", "32", "--target-size", "240"], 0),
                 (ADDS, ["plan", "--base-size", "336", "--target-size", "1344",
                         "--levels", "0,2", "--cls-only", "--format", "record"], 0)],
        "train": [
            (ADDS, ["train", "--config", arena, "--epochs", "1", "--n-train", "16",
                    "--out", f"{out}/train"], 0),
            (ADDS, ["train", "--manifest", f"{out}/train/run_manifest.json",
                    "--out", f"{out}/rerun"], 0),
            (ADDS, ["eval", "--checkpoint", ckpt, "--n-eval", "8", "--out", f"{out}/e1"], 0),
            (ADDS, ["eval", "--checkpoint", ckpt, "--vocab", "baba,babe,babi", "--k", "1",
                    "--n-eval", "8", "--format", "record", "--out", f"{out}/e2"], 0),
            (ADDS, ["eval", "--manifest", f"{out}/e2/run_manifest.json",
                    "--out", f"{out}/e3"], 0),
        ],
        "gradcheck": [(ADDS, ["gradcheck", "--self-test"], 0),
                      (ADDS, ["gradcheck", "--dims", "8", "--depth", "1"], 0),
                      (ADDS, ["gradcheck", "--corrupt-gradient"], 1)],
        "demos": [(str(path), [], 0) for path in demos],
    }


def run_group(runs, tmp: Path, name: str) -> list[Path]:
    """Run a group's runs in order; the hit files they wrote."""
    env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    hit_files = []
    for i, (target, args, expected) in enumerate(runs):
        hits = tmp / f"hits-{name}-{i}.json"
        done = subprocess.run([sys.executable, "-c", CHILD, str(hits),
                               str(tmp / "src" / "adds"), target, *args],
                              cwd=tmp, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT)
        if done.returncode != expected:
            raise RuntimeError(f"{target} {' '.join(args)} exited {done.returncode}, "
                               f"not {expected}\n{done.stdout}{done.stderr}")
        hit_files.append(hits)
    return hit_files


def statements(tree: ast.Module):
    """(statement, parent statement or None) of a module, parents first."""
    todo = [(node, None) for node in tree.body]
    while todo:
        node, parent = todo.pop(0)
        yield node, parent
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                todo.append((child, node))
            elif isinstance(child, ast.excepthandler):
                todo.extend((s, node) for s in child.body)


def compiles_to_nothing(node: ast.stmt) -> bool:
    return (isinstance(node, (ast.Global, ast.Nonlocal))
            or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))


def own_lines(node: ast.stmt) -> range:
    """The lines whose events count as reaching a statement: a compound
    statement's header, decorators included, or the whole of a simple one.
    No lines for a function: its definition runs at import, but the function
    is reached only once a call runs its body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return range(0)
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(start, max(start, end) + 1)


def unreached(path: Path, hit: set) -> list[tuple[int, str]]:
    """(line, first source line) of each statement of ``path`` that no run
    reached, inside a statement that some run did."""
    source = path.read_text()
    tree, text = ast.parse(source), source.splitlines()
    reached = {}
    # children before parents: a compound statement is reached if its
    # header line was, or any statement inside it
    for node, parent in reversed(list(statements(tree))):
        reached[node] = reached.get(node, False) or any(i in hit for i in own_lines(node))
        if parent is not None and reached[node]:
            reached[parent] = True
    return sorted((node.lineno, text[node.lineno - 1].strip())
                  for node, parent in statements(tree)
                  if not reached[node] and not compiles_to_nothing(node)
                  and (parent is None or reached[parent]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="GROUP",
                        choices=("bench", "plan", "train", "gradcheck", "demos"),
                        help="run these groups alone (default all)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as name:
        tmp = Path(name).resolve()
        for part in ("src", "bench", "demos"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        chosen = {k: v for k, v in groups(tmp).items() if not args.only or k in args.only}
        with ThreadPoolExecutor(2) as pool:  # two runs at a time: small, 2-core friendly
            jobs = [pool.submit(run_group, runs, tmp, k) for k, runs in chosen.items()]
            try:
                hit_files = [f for job in jobs for f in job.result()]
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        hits = {}
        for f in hit_files:
            for filename, lines in json.loads(f.read_text()).items():
                hits.setdefault(Path(filename).name, set()).update(lines)
        for path in sorted((tmp / "src" / "adds").glob("*.py")):
            for line, text in unreached(path, hits.get(path.name, set())):
                print(f"src/adds/{path.name}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
