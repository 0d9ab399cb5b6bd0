"""Check that two source trees of carbcal write byte-identical outputs.

    python3 scripts/compare_outputs.py TREE_A TREE_B [--work DIR]

Runs one fixed-seed command set with each tree's ``src/`` on its own
``PYTHONPATH``, the data files taken from that tree's ``data/``:
``calibrate`` and ``spd`` on the bundled dates, ``dpmm`` with each sampler
and with one and three chains, ``dpmm`` storing a single sample (so every
date's age summary comes from one draw) and at ``--resolution 1``, and
``simulate`` of all three scenario families on one and on two worker
processes, and of two families on three workers (more workers than runs of
one size, so that one worker gets runs of both sizes).  The bundled dates
all have sigma 25, so ``calibrate``, ``spd`` and one walker ``dpmm`` run again on a
copy of them, written beside the tree's outputs, whose sigmas cycle through
six values: more than the curve pass keeps variance terms for.  A polya
``dpmm`` of 1000 sweeps on that copy runs long enough for clusters to open
and close many times over.  A polya ``dpmm`` of 150 sweeps also runs on a
1000-date copy, the bundled rows ten times over with each id suffixed
``-k`` for copy k: the size at which the polya sweep's cost is measured.
``calibrate`` runs at ``--resolution 0.5`` on a copy of the first five
bundled dates, so that its HPD files hold runs of hundreds of cells.
Every output file except ``manifest.json`` (which records its output
directory and input paths) must be byte-identical between the trees.
Prints each difference and exits 1 if there is any, 0 otherwise.  For a file
that differs it also prints how many of its cells differ (the text between
commas, white space and JSON brackets) and the largest relative difference
among cells that are normal floats in both files.  For a ``.json`` or
``.jsonl`` file that differs it also names each top-level key whose values
differ and each key present in one tree only, with the number of records
(lines of a ``.jsonl`` file) where that holds: a planned change of a JSON
output, such as a field dropped from ``clusters.jsonl``, then reads as
``key `c` only in A`` and nothing else.  Standard library only, so it runs
against any checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SITE = "data/example_three_phase.csv"
CURVE = "data/synthetic_curve.14c"
#: Stand for the paths of the mixed-sigma, 1000-date and five-date copies of ``SITE``
#: in ``COMMANDS``.
MIXED = "<mixed-sigma copy>"
TENFOLD = "<1000-date copy>"
FIRST5 = "<five-date copy>"
MIXED_SIGMAS = ("17.5", "20", "25", "30", "40", "80")

#: (name, arguments): the ``--out`` directory is added per tree.
COMMANDS = [
    ("calibrate", ["calibrate", SITE, "--curve", CURVE]),
    ("spd", ["spd", SITE, "--curve", CURVE]),
    *[
        (
            f"dpmm-{sampler}-chains{chains}",
            ["dpmm", SITE, "--curve", CURVE, "--sampler", sampler, "--chains", str(chains),
             "--iters", "200", "--burn", "100", "--thin", "2", "--seed", "17"],
        )
        for sampler in ("walker", "polya")
        for chains in (1, 3)
    ],
    (
        "dpmm-one-stored",
        ["dpmm", SITE, "--curve", CURVE, "--iters", "3", "--burn", "2", "--thin", "1",
         "--seed", "17"],
    ),
    (
        "dpmm-resolution1",
        ["dpmm", SITE, "--curve", CURVE, "--resolution", "1",
         "--iters", "200", "--burn", "100", "--thin", "2", "--seed", "17"],
    ),
    *[
        (
            f"simulate-jobs{jobs}",
            ["simulate", "--curve", CURVE, "--family", "single_normal,three_normal,uniform",
             "--n", "12,30", "--runs", "2", "--iters", "120", "--burn", "60", "--thin", "2",
             "--seed", "5", "--jobs", str(jobs)],
        )
        for jobs in (1, 2)
    ],
    (
        "simulate-uneven-jobs3",
        ["simulate", "--curve", CURVE, "--family", "single_normal,uniform", "--n", "12,30",
         "--runs", "1", "--iters", "120", "--burn", "60", "--thin", "2", "--seed", "5",
         "--jobs", "3"],
    ),
    ("calibrate-mixed-sigma", ["calibrate", MIXED, "--curve", CURVE]),
    ("calibrate-fine", ["calibrate", FIRST5, "--curve", CURVE, "--resolution", "0.5"]),
    ("spd-mixed-sigma", ["spd", MIXED, "--curve", CURVE]),
    (
        "dpmm-walker-mixed-sigma",
        ["dpmm", MIXED, "--curve", CURVE, "--sampler", "walker",
         "--iters", "200", "--burn", "100", "--thin", "2", "--seed", "17"],
    ),
    (
        "dpmm-polya-mixed",
        ["dpmm", MIXED, "--curve", CURVE, "--sampler", "polya",
         "--iters", "1000", "--burn", "500", "--thin", "5", "--seed", "17"],
    ),
    (
        "dpmm-polya-n1000",
        ["dpmm", TENFOLD, "--curve", CURVE, "--sampler", "polya",
         "--iters", "150", "--burn", "50", "--thin", "1", "--seed", "17"],
    ),
]

IGNORED = {"manifest.json"}


def write_copy(site: Path, path: Path, copy_rows) -> None:
    """Write ``path``: the header of the determinations file ``site``, then ``copy_rows(rows)``."""
    with open(site, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(copy_rows(rows))


def mixed_sigma_rows(rows):
    """``rows`` with their sigmas cycling through ``MIXED_SIGMAS``."""
    return ([row[0], row[1], MIXED_SIGMAS[k % len(MIXED_SIGMAS)]] for k, row in enumerate(rows))


def tenfold_rows(rows):
    """``rows`` ten times over, each id suffixed ``-k`` in copy k."""
    return ([f"{row[0]}-{k}", *row[1:]] for k in range(10) for row in rows)


def first_five_rows(rows):
    """The first five of ``rows``."""
    return rows[:5]


#: Placeholder in ``COMMANDS`` -> (file name suffix, rows of the copy).
COPIES = {
    MIXED: ("mixed-sigma", mixed_sigma_rows),
    TENFOLD: ("n1000", tenfold_rows),
    FIRST5: ("first5", first_five_rows),
}


def run_tree(tree: Path, out_root: Path) -> list[str]:
    """Run every command with ``tree``'s sources; returns the failures."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    copies = {}
    for placeholder, (suffix, copy_rows) in COPIES.items():
        copies[placeholder] = out_root.with_name(f"{out_root.name}-{suffix}.csv")
        write_copy(tree / SITE, copies[placeholder], copy_rows)
    failures = []
    for name, args in COMMANDS:
        args = [str(copies.get(arg, arg)) for arg in args]
        argv = [sys.executable, "-m", "carbcal.cli", *args, "--out", str(out_root / name)]
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            failures.append(f"{tree}: {name} exited {done.returncode}: {done.stderr.strip()}")
    return failures


def files_under(root: Path) -> dict[str, Path]:
    return {
        str(path.relative_to(root)): path
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in IGNORED
    }


def compare(out_a: Path, out_b: Path) -> list[str]:
    """Differences between two output trees, one line each."""
    files_a, files_b = files_under(out_a), files_under(out_b)
    problems = [f"only in A: {rel}" for rel in sorted(files_a.keys() - files_b.keys())]
    problems += [f"only in B: {rel}" for rel in sorted(files_b.keys() - files_a.keys())]
    for rel in sorted(files_a.keys() & files_b.keys()):
        bytes_a, bytes_b = files_a[rel].read_bytes(), files_b[rel].read_bytes()
        if bytes_a != bytes_b:
            text_a, text_b = bytes_a.decode(), bytes_b.decode()
            detail = cell_differences(text_a, text_b)
            if rel.endswith((".json", ".jsonl")):
                detail += key_differences(text_a, text_b, rel.endswith(".jsonl"))
            problems.append(f"differs: {rel} ({detail})")
    return problems


def cells(text: str) -> list[str]:
    """The cells of a CSV, JSON or JSON-lines file: the text between separators."""
    return re.split(r"[\s,:\[\]{}]+", text)


def normal_float(cell: str):
    """The value of ``cell`` if it is a normal float (finite, nonzero, not subnormal), else None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) and abs(value) >= sys.float_info.min else None


def cell_differences(text_a: str, text_b: str) -> str:
    """How many cells differ, and the largest relative difference among normal floats."""
    cells_a, cells_b = cells(text_a), cells(text_b)
    if len(cells_a) != len(cells_b):
        return f"{len(cells_a)} cells against {len(cells_b)}"
    differing = [(a, b) for a, b in zip(cells_a, cells_b) if a != b]
    rel = [
        abs(va - vb) / max(abs(va), abs(vb))
        for va, vb in ((normal_float(a), normal_float(b)) for a, b in differing)
        if va is not None and vb is not None
    ]
    largest = f"{max(rel):.3g}" if rel else "none"
    return (
        f"{len(differing)} of {len(cells_a)} cells differ; "
        f"largest relative difference among normal floats {largest}"
    )


def key_differences(text_a: str, text_b: str, lines: bool) -> str:
    """The top-level keys whose values differ and the keys in one file only, as
    ``"; key `k` only in A (n of m records)"`` items; ``lines`` for JSON lines."""
    try:
        records_a, records_b = (
            [json.loads(line) for line in text.splitlines() if line.strip()]
            if lines
            else [json.loads(text)]
            for text in (text_a, text_b)
        )
    except ValueError:
        return "; not valid JSON"
    found = Counter()
    for rec_a, rec_b in zip(records_a, records_b):  # each record carbcal writes is an object
        for key in rec_a.keys() | rec_b.keys():
            if key not in rec_b:
                found[key, "only in A"] += 1
            elif key not in rec_a:
                found[key, "only in B"] += 1
            elif json.dumps(rec_a[key]) != json.dumps(rec_b[key]):  # as text: NaN equals NaN
                found[key, "differs"] += 1
    items = [
        f"; key `{key}` {how} ({n} of {len(records_a)} records)"
        for (key, how), n in sorted(found.items())
    ]
    if len(records_a) != len(records_b):
        items.append(f"; {len(records_a)} records against {len(records_b)}")
    return "".join(items)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--work", type=Path, help="directory for the outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    # absolute: each command runs in its tree, and reads and writes paths under ``work``
    work = (args.work or Path(tempfile.mkdtemp(prefix="carbcal-compare-"))).resolve()
    work.mkdir(parents=True, exist_ok=True)
    out_a, out_b = work / "a", work / "b"
    for out in (out_a, out_b):
        if out.exists() and any(out.iterdir()):
            parser.error(f"{out} is not empty")
    problems = run_tree(args.tree_a.resolve(), out_a) + run_tree(args.tree_b.resolve(), out_b)
    problems += compare(out_a, out_b)
    for line in problems:
        print(line)
    n_files = len(files_under(out_a))
    if problems:
        print(f"{len(problems)} difference(s); outputs kept in {work}")
        return 1
    print(f"{len(COMMANDS)} commands, {n_files} output files: byte-identical (outputs in {work})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
