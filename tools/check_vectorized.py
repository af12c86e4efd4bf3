#!/usr/bin/env python3
"""Fails when a CloverLeaf kernel on the committed lists stops vectorizing.

    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    python3 tools/check_vectorized.py build/compile_commands.json

Recompiles each source file in KERNELS with the command CMake recorded for
it, plus GCC's vectorization report (-fopt-info-vec-optimized, printed) and
the vectorizer's dump (-fdump-tree-vect-optimized). The report locates a
kernel's loop only at the row sweep in ops/par_loop.hpp; the dump also
names the function holding each vectorized loop. Every kernel is a Solver
method holding one or more par_loops, and each loop instantiates the row
sweep with its own kernel lambda. A method passes when at least its listed
number of row-sweep instantiations, in functions whose demangled name
contains `Solver::<method>(` (or `<` for a template), have the sweep loop
vectorized. Exits 1 naming every listed method short of its count. Needs
GCC and binutils' c++filt.
"""

import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# Kernel methods that must vectorize, per source file, with the number of
# their loops that must. ideal_gas stores c² and takes no root, so it
# vectorizes without -fno-math-errno. What stays scalar, and why:
#  * calc_dt: a reduction row, kept scalar and in order like every
#    reduction; it also holds the sound speed's std::sqrt, which sets
#    errno unless -fno-math-errno.
#  * field_summary: reduction rows, so partials associate exactly as
#    written.
#  * wall_bcs: one- or two-point face rows, not worth a vector loop.
KERNELS = {
    "src/apps/cloverleaf/cloverleaf2d.cpp": {
        "ideal_gas": 1,
        "calc_viscosity": 1,
        "accelerate": 1,
        "flux_calc_x": 1,
        "flux_calc_y": 1,
        "advec_donor_x": 1,
        "advec_donor_y": 1,
        "advec_update_x": 1,
        "advec_update_y": 1,
        "advec_mom_x": 1,
        "advec_mom_y": 1,
    },
    "src/apps/cloverleaf/cloverleaf3d.cpp": {
        "ideal_gas": 1,
        "calc_viscosity": 1,
        "accelerate": 1,
        "flux_calc": 3,
        "advec_sweep": 6,
        "advec_mom": 2,
    },
}


def compile_command(db, source):
    for entry in db:
        if entry["file"].endswith(source):
            args = entry.get("arguments") or shlex.split(entry["command"])
            return args, entry["directory"]
    sys.exit(f"check_vectorized: {source} not in the compile database")


def is_row_sweep(location):
    """Whether `file:line` is the kernel loop of ops/par_loop.hpp's sweep."""
    path, line = location.split(":")[:2]
    if not path.endswith("ops/par_loop.hpp"):
        return False
    text = Path(path).read_text().splitlines()[int(line) - 1]
    return "kernel(rs.at(i)" in text


def vectorized_functions(dump):
    """Demangled names of the functions in a GCC vect dump whose row sweep
    vectorized, clones folded into their origin. The dump's own name of a
    cloned function drops its template arguments, so the mangled name is
    demangled with c++filt."""
    found, fn = set(), ""
    for line in dump.splitlines():
        if line.startswith(";; Function "):
            fn = line.split(" (", 1)[1].split(",")[0].rstrip(")")
        elif ": optimized: loop vectorized" in line:
            if is_row_sweep(line.split(": optimized:")[0]):
                found.add(fn)
    names = subprocess.run(["c++filt"], input="\n".join(sorted(found)),
                           stdout=subprocess.PIPE, text=True, check=True)
    return {re.sub(r" \[clone [^]]*\]$", "", name)
            for name in names.stdout.splitlines()}


def check(db, source, kernels):
    """Recompiles `source` and returns the methods of `kernels` short of
    their count, each as `file: method (found/needed)`."""
    args, cwd = compile_command(db, source)
    stem = Path(source).stem
    with tempfile.TemporaryDirectory() as tmp:
        obj = Path(tmp) / f"{stem}.o"
        dump = Path(tmp) / f"{stem}.vect"
        out = args[:]
        out[out.index("-o") + 1] = str(obj)
        out += ["-fopt-info-vec-optimized", f"-fdump-tree-vect-optimized={dump}"]
        done = subprocess.run(out, cwd=cwd, stderr=subprocess.PIPE, text=True,
                              check=False)
        print(done.stderr, end="")
        if done.returncode != 0:
            sys.exit(f"check_vectorized: {source}: compile failed "
                     f"({done.returncode})")
        functions = vectorized_functions(dump.read_text())
    short = []
    print(f"{source}:")
    for method, needed in kernels.items():
        n = sum(f"Solver::{method}(" in fn or f"Solver::{method}<" in fn
                for fn in functions)
        print(f"  {method:16s} {n} of {needed} loop(s) vectorized")
        if n < needed:
            short.append(f"{Path(source).name}: {method} ({n}/{needed})")
    return short


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    db = json.loads(Path(sys.argv[1]).read_text())
    short = []
    for source, kernels in KERNELS.items():
        short += check(db, source, kernels)
    if short:
        sys.exit("check_vectorized: no longer vectorized: " + ", ".join(short))
    total = sum(len(k) for k in KERNELS.values())
    print(f"check_vectorized: all {total} kernel methods vectorize")


if __name__ == "__main__":
    main()
