#!/usr/bin/env python3
"""Fails when a CloverLeaf 2D kernel on the committed list stops vectorizing.

    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    python3 tools/check_vectorized.py build/compile_commands.json

Recompiles src/apps/cloverleaf/cloverleaf2d.cpp with the command CMake
recorded for it, plus GCC's vectorization report (-fopt-info-vec-optimized,
printed) and the vectorizer's dump (-fdump-tree-vect-optimized). The report
locates a kernel's loop only at the row sweep in ops/par_loop.hpp; the dump
also names the function holding each vectorized loop. Every kernel is a
Solver method named after its loop, so a kernel counts as vectorized when
the row-sweep loop is vectorized in a function whose demangled name
contains `Solver::<kernel>(`: the sweep instantiated with the method's
kernel lambda. Exits 1 naming every listed kernel without one. Needs GCC
and binutils' c++filt.
"""

import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SOURCE = "src/apps/cloverleaf/cloverleaf2d.cpp"
# Kernels that must vectorize. ideal_gas stays scalar (std::sqrt sets errno
# unless -fno-math-errno); viscosity_kernel and advec_mom_x/y select between
# values GCC computes in branches, which it will not if-convert.
KERNELS = (
    "accelerate",
    "flux_calc_x",
    "flux_calc_y",
    "advec_donor_x",
    "advec_donor_y",
    "advec_update_x",
    "advec_update_y",
)


def compile_command(db_path):
    for entry in json.loads(Path(db_path).read_text()):
        if entry["file"].endswith(SOURCE):
            args = entry.get("arguments") or shlex.split(entry["command"])
            return args, entry["directory"]
    sys.exit(f"check_vectorized: {SOURCE} not in {db_path}")


def is_row_sweep(location):
    """Whether `file:line` is the kernel loop of ops/par_loop.hpp's sweep."""
    path, line = location.split(":")[:2]
    if not path.endswith("ops/par_loop.hpp"):
        return False
    text = Path(path).read_text().splitlines()[int(line) - 1]
    return "kernel(rs.at(i)" in text


def vectorized_functions(dump):
    """Demangled names of the functions in a GCC vect dump whose row sweep
    vectorized. The dump's own name of a cloned function drops its template
    arguments, so the mangled name is demangled with c++filt."""
    found, fn = set(), ""
    for line in dump.splitlines():
        if line.startswith(";; Function "):
            fn = line.split(" (", 1)[1].split(",")[0].rstrip(")")
        elif ": optimized: loop vectorized" in line:
            if is_row_sweep(line.split(": optimized:")[0]):
                found.add(fn)
    names = subprocess.run(["c++filt"], input="\n".join(sorted(found)),
                           stdout=subprocess.PIPE, text=True, check=True)
    return names.stdout.splitlines()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    args, cwd = compile_command(sys.argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        obj = Path(tmp) / "cloverleaf2d.o"
        dump = Path(tmp) / "cloverleaf2d.vect"
        out = args[:]
        out[out.index("-o") + 1] = str(obj)
        out += ["-fopt-info-vec-optimized", f"-fdump-tree-vect-optimized={dump}"]
        done = subprocess.run(out, cwd=cwd, stderr=subprocess.PIPE, text=True,
                              check=False)
        print(done.stderr, end="")
        if done.returncode != 0:
            sys.exit(f"check_vectorized: compile failed ({done.returncode})")
        functions = vectorized_functions(dump.read_text())
    missing = []
    for kernel in KERNELS:
        n = sum(f"Solver::{kernel}(" in fn for fn in functions)
        print(f"{kernel:16s} {n} function(s) with a vectorized loop")
        if n == 0:
            missing.append(kernel)
    if missing:
        sys.exit("check_vectorized: no longer vectorized: " + ", ".join(missing))
    print(f"check_vectorized: all {len(KERNELS)} kernels vectorize")


if __name__ == "__main__":
    main()
