#!/usr/bin/env python3
"""SHA-256 digests of every benchmark operation's output, to check that a
change keeps the program's outputs byte for byte.

Each operation of the four workloads of ``perfbench/workloads.py`` at seeds
1-3 runs in process through ``hypstab.cli.main``: an ``analyze`` input with
the benchmark's arguments, and a crosscheck input as one ``oracle`` run,
which decides its support by the torus LP and by the brute-force oracle.
The input files are written to a temporary directory, which is the working
directory while they run, so no output names the temporary path.

Each operation's record is its workload, seed and name, exit code, standard
output and standard error.  The script prints one digest per workload, over
that workload's records at seeds 1-3 in order, as ``<workload> <digest>``.
The last line is the overall digest, over every record in order, so when it
differs the workload lines name where.

Usage: python scripts/output_digest.py [ROOT]

ROOT is the checkout whose ``src/`` and ``perfbench/`` are used (default:
the one holding this script), so the same script can digest another
checkout, such as the parent of a change.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)


def argv_of(inp, path: str) -> list[str]:
    """The command line of one benchmark operation."""
    if inp.strict is None:
        argv = ["analyze", path, "--no-timestamp", "--json", "-", "--seed", str(inp.analyze_seed)]
        return argv + (["--fields", inp.fields] if inp.fields else [])
    return ["oracle", path, "--bound", str(inp.oracle_bound), "--json", "-"] + ["--strict"] * inp.strict


def file_text(inp) -> str:
    """The input as a polynomial file.  The CLI reads n as the largest
    variable index mentioned, so a crosscheck support that misses x_n gets a
    factor x_n^0, which leaves the form unchanged."""
    if inp.strict is None:
        return inp.text + "\n"
    return f"{inp.text}*x{inp.n}^0\n"


def main(root: Path) -> int:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from hypstab import cli

    digest = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for workload in workloads.WORKLOADS:
                part = hashlib.sha256()
                for seed in SEEDS:
                    for i, inp in enumerate(workloads.build(workload, seed)):
                        path = f"{workload}-{seed}-{i:03d}.poly"
                        Path(path).write_text(file_text(inp), encoding="utf-8")
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            rc = cli.main(argv_of(inp, path))
                        record = [workload, seed, inp.name, rc, out.getvalue(), err.getvalue()]
                        line = json.dumps(record).encode("utf-8") + b"\n"
                        digest.update(line)
                        part.update(line)
                print(workload, part.hexdigest())
        finally:
            os.chdir(home)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    here = Path(__file__).resolve().parent.parent
    sys.exit(main(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else here))
