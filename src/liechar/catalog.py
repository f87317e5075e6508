"""Ready-made extensions and workspaces used by the shipped fixtures and demos.

All of these use adapted bases (kernel coordinates first or last as noted),
but nothing downstream relies on that; the extension machinery recovers
kernel coordinates by exact solves either way.
"""

from __future__ import annotations

from .cochains import SymMultiMap
from .extensions import Extension, Section
from .liealg import (abelian, algebra_from_brackets, heisenberg,
                     heisenberg3, oscillator, semidirect_product,
                     trivial_representation)
from .workspace import Workspace

__all__ = [
    "heisenberg_central_extension",
    "oscillator_extension",
    "filiform_extension",
    "affine_split_extension",
    "oscillator_workspace",
    "heisenberg_workspace",
    "filiform_workspace",
]


def heisenberg_central_extension(m: int = 1) -> Extension:
    """0 -> R z -> h_{2m+1} -> R^{2m} -> 0, the center as kernel."""
    total = heisenberg(m) if m != 1 else heisenberg3()
    base = abelian(2 * m)
    kernel = abelian(1, ("z",))
    iota = [[1 if r == 2 * m else 0] for r in range(2 * m + 1)]
    proj = [[1 if c == r else 0 for c in range(2 * m + 1)] for r in range(2 * m)]
    return Extension(total, base, kernel, iota, proj)


def oscillator_extension() -> Extension:
    """0 -> h3 -> oscillator -> R -> 0 with the rotation action on h3."""
    total = oscillator()
    base = abelian(1, ("w",))
    kernel = heisenberg3()
    iota = [[1 if r == c else 0 for c in range(3)] for r in range(4)]
    proj = [[0, 0, 0, 1]]
    return Extension(total, base, kernel, iota, proj)


def filiform_extension() -> Extension:
    """0 -> R c -> n4 -> h3 -> 0 for the filiform algebra n4.

    n4 has basis (x1, x2, x3, c) with [x1,x2] = x3 and [x1,x3] = c; the
    quotient by the center R c is the Heisenberg algebra in the basis
    (x1, x2, x3).
    """
    total = algebra_from_brackets(
        ("x1", "x2", "x3", "c"), {(0, 1): {2: 1}, (0, 2): {3: 1}})
    base = algebra_from_brackets(("x1", "x2", "x3"), {(0, 1): {2: 1}})
    kernel = abelian(1, ("c",))
    iota = [[0], [0], [0], [1]]
    proj = [[1 if c == r else 0 for c in range(4)] for r in range(3)]
    return Extension(total, base, kernel, iota, proj)


def affine_split_extension() -> Extension:
    """0 -> R c -> aff(1) + R c -> aff(1) -> 0, a split central extension.

    The base is the affine line algebra with [a, b] = b; the total algebra is
    its direct sum with a central line.
    """
    aff = algebra_from_brackets(("a", "b"), {(0, 1): {1: 1}})
    total = semidirect_product(aff, abelian(1, ("c",)), [[[0, 0], [0, 0]]])
    kernel = abelian(1, ("c",))
    iota = [[0], [0], [1]]
    proj = [[1, 0, 0], [0, 1, 0]]
    return Extension(total, aff, kernel, iota, proj)


def _workspace_for(ext: Extension, names, sections, polynomials) -> Workspace:
    total_name, base_name, kernel_name, ext_name = names
    ws = Workspace()
    ws.algebras[total_name] = ext.total
    ws.algebras[base_name] = ext.base
    ws.algebras[kernel_name] = ext.kernel
    ws.representations["triv"] = trivial_representation(ext.base, 1)
    ws.representations["triv_total"] = trivial_representation(ext.total, 1)
    ws.extensions[ext_name] = ext
    for name, matrix in sections.items():
        ws.sections[name] = Section(ext, matrix)
    for name, f in polynomials.items():
        ws.polynomials[name] = f
    return ws


def oscillator_workspace() -> Workspace:
    """The oscillator extension with its two distinguished sections and f_z.

    s0 lifts the line to (0,0,0,1); sz shifts the lift by the central z, the
    linear map r -> (0,0,r,r).  fz is the functional on h3 dual to z.
    """
    ext = oscillator_extension()
    fz = SymMultiMap(ext.kernel, 1, 1, {(0,): [0], (1,): [0], (2,): [1]})
    return _workspace_for(
        ext,
        ("oscillator", "line", "h3", "osc"),
        {
            "s0": [[0], [0], [0], [1]],
            "sz": [[0], [0], [1], [1]],
        },
        {"fz": fz},
    )


def heisenberg_workspace() -> Workspace:
    """The central extension of the plane by h3, three sections, f of degree 1 and 2."""
    ext = heisenberg_central_extension()
    f1 = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
    f2 = SymMultiMap(ext.kernel, 2, 1, {(0, 0): [1]})
    return _workspace_for(
        ext,
        ("h3", "plane", "center", "heis"),
        {
            "s0": [[1, 0], [0, 1], [0, 0]],
            "s1": [[1, 0], [0, 1], [1, 0]],
            "s2": [[1, 0], [0, 1], [0, 1]],
        },
        {"f1": f1, "f2": f2},
    )


def filiform_workspace() -> Workspace:
    """The filiform central extension over h3 with shifted sections."""
    ext = filiform_extension()
    f1 = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
    f2 = SymMultiMap(ext.kernel, 2, 1, {(0, 0): [1]})
    std = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]
    shift3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]
    shift1 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]
    return _workspace_for(
        ext,
        ("n4", "h3", "center", "fil"),
        {"s0": std, "s1": shift3, "s2": shift1},
        {"f1": f1, "f2": f2},
    )
