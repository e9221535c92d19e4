"""Check that two source trees write the same outputs, byte for byte.

    python tests/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository.  In a fresh interpreter per
tree, with that tree's src/ on the path, the script runs one cli.main call
per run of this set (425 runs):

* the nine scenarios at REFERENCE, in track and in fixed delta mode;
* the operations of perfbench's drive_sweep workload at seeds 7 and 131;
* the operation of perfbench's bound_states workload at seed 3;
* six runs at refused or refusing points (ERROR_RUNS), so that the
  exit-2 and exit-3 paths, validate's refusal rows, their messages and
  the files they leave are compared too.

The operations are read from the tree's perfbench/workloads.py, which is
left unchanged.  Each run writes into its own directory, named by its
position in the set, and records its exit code, stdout and stderr.  The
two trees must then agree on every exit code, stdout and stderr, on the
set of files written, and on every CSV, JSON and SVG byte for byte; a
manifest.json may differ only in its generated_at stamp.  For a CSV or
JSON file that differs, the listing gives the largest relative
difference between the numbers at the same position in the two files.

Exits 0 when the trees agree, and 1 after listing the differences.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = (
    "spectrum",
    "decay",
    "couplings",
    "susceptibility",
    "dispersion",
    "groupvel",
    "eigenstates",
    "pulse",
    "validate",
)
WORKLOAD_SEEDS = (("drive_sweep", 7), ("drive_sweep", 131), ("bound_states", 3))
ERROR_RUNS = (
    ("decay", "--set", "coupling_ratio=1.49753"),  # exit 3: the cascade grid is refused
    ("spectrum", "--set", "no_such_key=1"),  # exit 2: unknown config key
    ("decay", "--set", "coupling_ratio=0.5"),  # exit 2: outside the qutrit window
    ("couplings", "--set", "coupling_ratio=20000"),  # exit 2: far outside the window
    # exit 4: the refused cascade's two rows fail, with the refusal's message
    ("validate", "--set", "coupling_ratio=1.49753"),
    ("spectrum", "--set", "mass_ratio=1e308"),  # exit 2: nu overflows
)
VOLATILE = "generated_at"  # the manifest's only field that differs between reruns
SHOWN = 20  # differences listed at most

# Run in the tree's interpreter with the working directory at the run root:
# argv[1] is the tree, argv[2] the JSON file the run records go to.
CHILD = """
import contextlib, io, json, sys
tree, record_path = sys.argv[1], sys.argv[2]
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
import workloads
from slowsound.cli import main
runs = [[name] for name in %r] + [[name, "--delta-mode", "fixed"] for name in %r]
for workload, seed in %r:
    runs += [list(op.argv) for op in workloads.generate(workload, seed)]
runs += [list(argv) for argv in %r]
records = []
for i, argv in enumerate(runs):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out", "runs/%%04d" %% i])
        except SystemExit as exc:
            code = exc.code
    records.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                    "stderr": err.getvalue()})
with open(record_path, "w") as fh:
    json.dump(records, fh)
""" % (SCENARIOS, SCENARIOS, WORKLOAD_SEEDS, ERROR_RUNS)


def run_tree(tree, root):
    """Run the set from tree with root as working directory; return its records."""
    root.mkdir()
    record_path = root / "records.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, "-c", CHILD, str(Path(tree).resolve()), str(record_path)],
                   cwd=root, env=env, check=True)
    with open(record_path) as fh:
        return json.load(fh)


def _files(root):
    return {str(p.relative_to(root)): p for p in sorted((root / "runs").rglob("*")) if p.is_file()}


def _same_file(a, b):
    if a.name != "manifest.json":
        return a.read_bytes() == b.read_bytes()
    manifests = []
    for path in (a, b):
        with open(path) as fh:
            payload = json.load(fh)
        payload.pop(VOLATILE, None)
        manifests.append(payload)
    return manifests[0] == manifests[1]


def _numbers(path):
    """The numbers of a CSV or JSON file, keyed by their position in it.

    A CSV cell or a JSON string that reads as a number counts as one.
    """
    text = path.read_text()
    found = {}

    def keep(key, value):
        try:
            found[key] = float(value)
        except ValueError:
            pass

    if path.suffix == ".csv":
        for i, line in enumerate(text.splitlines()):
            for j, cell in enumerate(line.split(",")):
                keep((i, j), cell)
        return found

    def walk(node, key):
        if isinstance(node, dict):
            for name, value in node.items():
                walk(value, (*key, name))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, (*key, i))
        elif isinstance(node, (int, float, str)) and not isinstance(node, bool):
            keep(key, node)

    walk(json.loads(text), ())
    return found


def largest_relative_difference(a, b):
    """max |x - y| / max(|x|, |y|) over the numbers at the same position of a and b."""
    numbers_a, numbers_b = _numbers(a), _numbers(b)
    worst = 0.0
    for key in numbers_a.keys() & numbers_b.keys():
        x, y = numbers_a[key], numbers_b[key]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        finite = math.isfinite(scale) and not math.isnan(x - y)
        worst = max(worst, abs(x - y) / scale if finite else math.inf)
    return worst


def differences(parent_root, parent_records, change_root, change_records):
    """Yield a line for every way the change's runs depart from the parent's."""
    if len(parent_records) != len(change_records):
        yield f"run count {len(parent_records)} != {len(change_records)}"
    for i, (p, c) in enumerate(zip(parent_records, change_records)):
        for key in ("argv", "code", "stdout", "stderr"):
            if p[key] != c[key]:
                yield f"run {i:04d} {' '.join(p['argv'])}: {key} {p[key]!r} != {c[key]!r}"
    parent_files, change_files = _files(parent_root), _files(change_root)
    for name in sorted(parent_files.keys() ^ change_files.keys()):
        side = "parent" if name in parent_files else "change"
        yield f"{name}: written by the {side} only"
    for name in sorted(parent_files.keys() & change_files.keys()):
        parent, change = parent_files[name], change_files[name]
        if not _same_file(parent, change):
            detail = ""
            if parent.suffix in (".csv", ".json"):
                worst = largest_relative_difference(parent, change)
                detail = f", largest relative difference {worst:.3g}"
            yield f"{name}: contents differ{detail}"


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python tests/same_outputs.py PARENT_TREE CHANGE_TREE")
    with tempfile.TemporaryDirectory() as workdir:
        roots = [Path(workdir) / side for side in ("parent", "change")]
        records = [run_tree(tree, root) for tree, root in zip(argv, roots)]
        found = list(differences(roots[0], records[0], roots[1], records[1]))
        n_files = len(_files(roots[0]))
    for line in found[:SHOWN]:
        print(line)
    if len(found) > SHOWN:
        print(f"... and {len(found) - SHOWN} more")
    print(f"{len(records[0])} runs, {n_files} files: "
          f"{len(found)} difference{'s' if len(found) != 1 else ''}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
