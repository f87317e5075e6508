"""Answers the benchmark knows without asking liechar.

Nothing here imports the library: each oracle is a closed formula or a
theorem, so a change that breaks the library cannot also break the check.
"""

from __future__ import annotations

from math import comb


def heisenberg_betti(m: int):
    """dim H^p(h_{2m+1}, R) for p = 0 .. 2m+1 (Santharoubane, Proc. AMS 1983).

    b_p = C(2m, p) - C(2m, p-2) for p <= m, and Poincare duality
    b_p = b_{2m+1-p} above the middle.
    """
    if m < 1:
        raise ValueError("h_{2m+1} needs m >= 1")
    low = [comb(2 * m, p) - (comb(2 * m, p - 2) if p >= 2 else 0)
           for p in range(m + 1)]
    return low + low[::-1]


def euler_characteristic(dim: int, module_dim: int) -> int:
    """sum_p (-1)^p dim C^p(g, V) = module_dim * (1 - 1)^dim.

    By rank-nullity this is also the alternating sum of the dimensions of
    H^p(g, V), so every complete cohomology sequence must add up to it.
    """
    return sum((-1) ** p * comb(dim, p) * module_dim for p in range(dim + 1))


def check_cohomology_counts(z_dim: int, b_dim: int, h_dim: int):
    """H = Z / B: the reported dimensions must satisfy z - b = h, 0 <= b <= z."""
    problems = []
    if z_dim - b_dim != h_dim:
        problems.append(f"z_dim - b_dim = {z_dim - b_dim} but h_dim = {h_dim}")
    if not 0 <= b_dim <= z_dim:
        problems.append(f"b_dim {b_dim} outside [0, z_dim = {z_dim}]")
    return problems


def check_theorem_signs(signs):
    """The boundary identity holds with sign +1, or both sides vanish (0).

    ``signs`` holds one (equal, sign) pair per verify_main_theorem job of a
    pass; at least one job must pin the sign to +1.
    """
    problems = [f"sign {sign!r} with equal={equal}" for equal, sign in signs
                if not equal or sign not in (0, 1)]
    if not any(sign == 1 for _, sign in signs):
        problems.append("no job pinned the global sign to +1")
    return problems
