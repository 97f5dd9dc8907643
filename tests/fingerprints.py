"""Fingerprints of small assembled systems, and the script that writes them.

Each case assembles and solves one small problem through the public
pipeline (as ``polyds solve`` does, with the one-hump solution) and
records figures that move with any change to the matrix, the right-hand
side or the solution: the number of unknowns n, the stored entries nnz,
the Frobenius norm of A, u^T A v and w^T b for fixed seeded vectors
u, v, w, and the error norms.

``tests/fingerprints.json`` holds the figures; ``test_fingerprints.py``
compares against it.  The matrix and right-hand side figures must agree
to ``RTOL`` relative.  The error norms carry the round-off of the solve,
so each case stores its own relative tolerance ``error_rtol``: ten times
the spread of its error norms between the library's solve and the same
solve with the sparse LU ordered by COLAMD instead, and at least ``RTOL``.

Regenerate the file (only for a change that moves the numbers by design)
with

    PYTHONPATH=src python tests/fingerprints.py

and print, for each case, the largest relative deviation of this host's
matrix and right-hand side figures, and of its error norms, from the file,
next to their tolerances, and the spread of its error norms under the
COLAMD and the MMD_ATA orderings, the round-off that ``error_rtol`` must
cover (it writes nothing and exits 0), with

    PYTHONPATH=src python tests/fingerprints.py --report

A change that should keep every number bit for bit is checked with

    PYTHONPATH=src python tests/fingerprints.py --digest

which prints, for each case, the sha256 of the matrix's ``indptr``,
``indices`` and ``data``, of the right-hand side and of the solution,
and the ``repr`` of each error norm (it writes nothing and exits 0).  Run
it at the parent commit and at the change, and diff the two outputs.
"""

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import scipy.sparse.linalg as spla

from polyds import assembly
from polyds.cli import make_mesh

PATH = Path(__file__).with_name("fingerprints.json")

# Relative tolerance of the matrix and right-hand side figures.
RTOL = 1e-12

# Seed of the vectors u, v and w.
VECTOR_SEED = 20

# name: (family, mesh n, mesh seed, method, r, s); s is None for primal.
CASES = {
    "hex4-primal-r1": ("hex-dominant", 4, 0, "primal", 1, None),
    "hex4-primal-r4": ("hex-dominant", 4, 0, "primal", 4, None),
    "hex4-primal-r6": ("hex-dominant", 4, 0, "primal", 6, None),
    "pquad4-primal-r2": ("perturbed-quad", 4, 1, "primal", 2, None),
    "trapezoid4-primal-r3": ("trapezoid", 4, 0, "primal", 3, None),
    "hex4-mixed-r1-s1": ("hex-dominant", 4, 0, "mixed", 1, 1),
    "hex4-mixed-r3-s2": ("hex-dominant", 4, 0, "mixed", 3, 2),
    "pquad4-mixed-r2-s1": ("perturbed-quad", 4, 1, "mixed", 2, 1),
}


def _solve(case):
    """The assembled system, the solve report and the error norms of one
    case of ``CASES``."""
    family, n, seed, method, r, s = CASES[case]
    exact = assembly.manufactured_solution()
    mesh = make_mesh(family, n, seed)
    if method == "primal":
        system = assembly.assemble_primal(mesh, r, exact.f)
    else:
        system = assembly.assemble_mixed(mesh, r, s, exact.f)
    report = assembly.solve(system)
    return system, report, assembly.compute_errors(system, report, exact)


def fingerprint(case):
    """The figures of one case of ``CASES``: a dict of n, nnz, frobenius,
    uAv, wb and errors (name: norm)."""
    system, _, errors = _solve(case)
    A, b = system.matrix, system.rhs
    u, v, w = np.random.default_rng(VECTOR_SEED).standard_normal((3, system.n))
    return {
        "n": system.n,
        "nnz": A.nnz,
        "frobenius": float(np.sqrt((A.data**2).sum())),
        "uAv": float(u @ (A @ v)),
        "wb": float(w @ b),
        "errors": errors,
    }


def _spread(case, errors, ordering):
    """Largest relative deviation from ``errors`` of the error norms of one
    case solved with the sparse LU ordered by ``ordering`` (a ``permc_spec``
    of ``splu``) in place of ``assembly._spd_factor``'s."""
    def factor(A):
        try:
            return spla.splu(A.tocsc(), permc_spec=ordering)
        except RuntimeError as exc:
            raise assembly.SolveError(f"sparse factorization failed: {exc}") from None

    with mock.patch.object(assembly, "_spd_factor", factor):
        return _deviation(fingerprint(case)["errors"], errors)


def _deviation(got, want):
    """Largest relative deviation of the figures ``got`` from ``want``."""
    return max(abs(got[k] - x) / abs(x) for k, x in want.items())


def report():
    """Print each case's deviations from the stored figures, with their
    tolerances, and the spread of its error norms under two other LU
    orderings."""
    stored = json.loads(PATH.read_text())
    for case in CASES:
        want, got = stored["cases"][case], fingerprint(case)
        system = _deviation(got, {k: want[k] for k in ("frobenius", "uAv", "wb")})
        errors = _deviation(got["errors"], want["errors"])
        spreads = (f"{o} {_spread(case, got['errors'], o):.2e}" for o in ("COLAMD", "MMD_ATA"))
        print(f"{case}: A, b {system:.2e} (rtol {stored['rtol']:.2e}), "
              f"errors {errors:.2e} (error_rtol {want['error_rtol']:.2e}; spread",
              ", ".join(spreads) + ")")


def digest():
    """Print each case's sha256 of the matrix, right-hand side and solution,
    and the ``repr`` of its error norms."""
    for case in CASES:
        system, report, errors = _solve(case)
        A = system.matrix
        parts = {"matrix": (A.indptr, A.indices, A.data), "rhs": (system.rhs,),
                 "solution": (report.solution,)}
        hashes = (f"{name} {hashlib.sha256(b''.join(a.tobytes() for a in arrays)).hexdigest()}"
                  for name, arrays in parts.items())
        norms = (f"{name}={norm!r}" for name, norm in errors.items())
        print(f"{case}:", *hashes, *norms)


def main():
    out = {"rtol": RTOL, "vector_seed": VECTOR_SEED, "cases": {}}
    for case in CASES:
        figures = fingerprint(case)
        spread = _spread(case, figures["errors"], "COLAMD")
        figures["error_rtol"] = float(max(10.0 * spread, RTOL))
        out["cases"][case] = figures
        print(f"{case}: n={figures['n']} spread={spread:.2e}", file=sys.stderr)
    PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {PATH}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] == ["--report"]:
        report()
    elif sys.argv[1:] == ["--digest"]:
        digest()
    else:
        main()
