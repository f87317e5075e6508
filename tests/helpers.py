"""Seeded random generators and shared fixture pools for the test suite."""

from fractions import Fraction
from itertools import combinations, product
from math import comb

from liechar import (
    Cochain, Extension, LieAlgebra, Section, SymMultiMap,
    abelian, adjoint_representation, algebra_from_brackets, bracket,
    column_space_basis, differential_matrix, increasing_tuples, mat_vec, nullspace,
    scalar_multiplication, solve_linear, sym_product, trivial_representation,
)
from liechar.catalog import (
    affine_split_extension, euclidean_extension, filiform_extension,
    heisenberg_central_extension, oscillator_extension,
)


def rand_fraction(rng, span=3, max_den=3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_vector(rng, m):
    return [rand_fraction(rng) for _ in range(m)]


def rand_matrix(rng, rows, cols):
    return [rand_vector(rng, cols) for _ in range(rows)]


def rand_cochain(rng, algebra, degree, target_dim) -> Cochain:
    return Cochain.from_function(
        algebra, degree, target_dim,
        lambda key: rand_vector(rng, target_dim))


def rand_symmap(rng, algebra, degree, target_dim=1) -> SymMultiMap:
    return SymMultiMap.from_function(
        algebra, degree, target_dim,
        lambda key: rand_vector(rng, target_dim))


def random_invertible(rng, d):
    """Invertible rational matrix built from elementary operations."""
    mat = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for _ in range(3 * d):
        op = rng.randrange(3)
        i = rng.randrange(d)
        j = rng.randrange(d)
        if op == 0 and i != j:
            c = rand_fraction(rng, span=2, max_den=2)
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        elif op == 1:
            mat[i], mat[j] = mat[j], mat[i]
        else:
            c = Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2]))
            mat[i] = [c * a for a in mat[i]]
    return mat


def conjugate_algebra(rng, algebra):
    """Change of basis e'_i = sum_j P[j][i] e_j; Jacobi is preserved."""
    d = algebra.dim
    pm = random_invertible(rng, d)
    cols = [[pm[r][i] for r in range(d)] for i in range(d)]
    structure = []
    for i in range(d):
        plane = []
        for j in range(d):
            w = bracket(algebra, cols[i], cols[j])
            plane.append(solve_linear(pm, w))
        structure.append(plane)
    names = tuple(f"b{i + 1}" for i in range(d))
    return LieAlgebra(names, structure, validate=True)


def greedy_cohomology(algebra, rep, degree):
    """Reference construction of H^p with one solve per cocycle.

    H collects each cocycle basis vector that solve_linear finds outside the
    span of B and the H vectors chosen before it.  The class projection and
    the coordinates of a cocycle come from one solve_linear each against
    B + H.  Returns (h_dim, class_projection, coords), where coords maps a
    cocycle to its H-coordinates.
    """
    dim_c = comb(algebra.dim, degree) * rep.space_dim
    zvecs = nullspace(differential_matrix(algebra, rep, degree), ncols=dim_c)
    bvecs = []
    if degree and dim_c:
        bvecs = column_space_basis(differential_matrix(algebra, rep, degree - 1))

    def solve(span, vec):
        return solve_linear([[col[i] for col in span] for i in range(dim_c)], vec)

    hvecs = []
    for z in zvecs:
        if solve(bvecs + hvecs, z) is None:
            hvecs.append(z)

    def coords_vec(vec):
        return tuple(solve(bvecs + hvecs, vec)[len(bvecs):])

    def coords(w):
        return coords_vec([x for key in increasing_tuples(algebra.dim, degree)
                           for x in w.values[key]])

    cols = [coords_vec(z) for z in zvecs]
    projection = [[col[i] for col in cols] for i in range(len(hvecs))]
    return len(zvecs) - len(bvecs), projection, coords


def _eval_vector_first(w, vec, rest):
    """w(vec, e_{r_1}, .., e_{r_{p-1}}) for a strictly increasing tuple rest."""
    out = [Fraction(0)] * w.target_dim
    for k, coeff in enumerate(vec):
        if coeff == 0 or k in rest:
            continue
        pos = sum(1 for r in rest if r < k)
        sgn = -1 if pos % 2 else 1
        val = w.entry(tuple(sorted(rest + (k,))))
        out = [o + coeff * sgn * x for o, x in zip(out, val)]
    return out


def reference_twisted_differential(w, mats):
    """Reference d_S w, term by term from the textbook formula

        (d_S w)(x_0..x_p) = sum_j (-1)^j S(x_j) . w(.., x_j omitted, ..)
                          + sum_{i<j} (-1)^{i+j} w([x_i,x_j], .., x_i, x_j omitted, ..),

    with the bracket evaluated in the first slot of w.
    """
    src = w.source
    p = w.degree

    def fn(key):
        out = [Fraction(0)] * w.target_dim
        for j, tj in enumerate(key):
            av = mat_vec(mats[tj], list(w.entry(key[:j] + key[j + 1:])))
            sgn = -1 if j % 2 else 1
            out = [o + sgn * x for o, x in zip(out, av)]
        for ai, bi in combinations(range(p + 1), 2):
            u = src.bracket_basis(key[ai], key[bi])
            if all(c == 0 for c in u):
                continue
            rest = tuple(key[x] for x in range(p + 1) if x not in (ai, bi))
            sgn = -1 if (ai + bi) % 2 else 1
            val = _eval_vector_first(w, u, rest)
            out = [o + sgn * x for o, x in zip(out, val)]
        return out

    return Cochain.from_function(src, p + 1, w.target_dim, fn)


def dense_differential_matrix(algebra, rep, degree):
    """Reference matrix of d: C^degree -> C^{degree+1}, one column per unit cochain."""
    keys = increasing_tuples(algebra.dim, degree)
    m = rep.space_dim
    cols = []
    for key in keys:
        for c in range(m):
            values = {k: [Fraction(0)] * m for k in keys}
            values[key] = [Fraction(int(i == c)) for i in range(m)]
            d = reference_twisted_differential(Cochain(algebra, degree, m, values),
                                               rep.matrices)
            cols.append([x for val in d.values.values() for x in val])
    nrows = comb(algebra.dim, degree + 1) * m
    return [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]


def _dense_evaluate(table, args, normalize):
    """Sum over all d^p index tuples, skipping those that meet a zero coordinate."""
    out = [Fraction(0)] * table.target_dim
    for combo in product(range(table.source.dim), repeat=table.degree):
        key, sgn = normalize(combo)
        if sgn == 0:
            continue
        coeff = Fraction(sgn)
        dead = False
        for vec, idx in zip(args, combo):
            v = vec[idx]
            if v == 0:
                dead = True
                break
            coeff = coeff * v
        if dead:
            continue
        out = [o + coeff * x for o, x in zip(out, table.values[key])]
    return out


def _sorted_with_sign(combo):
    if len(set(combo)) != len(combo):
        return None, 0
    inversions = sum(1 for i in range(len(combo)) for j in range(i + 1, len(combo))
                     if combo[i] > combo[j])
    return tuple(sorted(combo)), -1 if inversions % 2 else 1


def dense_cochain_evaluate(w, args):
    """Reference alternating multilinear extension of a Cochain."""
    return _dense_evaluate(w, args, _sorted_with_sign)


def dense_symmap_evaluate(f, args):
    """Reference symmetric multilinear extension of a SymMultiMap."""
    return _dense_evaluate(f, args, lambda combo: (tuple(sorted(combo)), 1))


SMALL_ALGEBRAS = {
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
    "aff1": lambda: algebra_from_brackets(("a", "b"), {(0, 1): {1: 1}}),
    "heisenberg3": lambda: algebra_from_brackets(("p", "q", "z"), {(0, 1): {2: 1}}),
    "sl2": lambda: algebra_from_brackets(
        ("h", "e", "f"), {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
    "filiform4": lambda: algebra_from_brackets(
        ("x1", "x2", "x3", "x4"), {(0, 1): {2: 1}, (0, 2): {3: 1}}),
}


def random_algebra(rng):
    name = rng.choice(sorted(SMALL_ALGEBRAS))
    alg = SMALL_ALGEBRAS[name]()
    if rng.random() < 0.5:
        alg = conjugate_algebra(rng, alg)
    return alg


def random_representation(rng, algebra):
    kind = rng.choice(["trivial1", "trivial2", "adjoint"])
    if kind == "trivial1":
        return trivial_representation(algebra, 1)
    if kind == "trivial2":
        return trivial_representation(algebra, 2)
    return adjoint_representation(algebra)


def fixture_extensions():
    return {
        "heisenberg": heisenberg_central_extension(),
        "heisenberg5": heisenberg_central_extension(2),
        "oscillator": oscillator_extension(),
        "filiform": filiform_extension(),
        "affine": affine_split_extension(),
        "euclidean": euclidean_extension(),
    }


def rand_section(rng, ext: Extension) -> Section:
    """A random valid section: particular right inverse plus kernel shifts."""
    dt, dg, dn = ext.total.dim, ext.base.dim, ext.kernel.dim
    cols = []
    for i in range(dg):
        unit = [Fraction(1) if r == i else Fraction(0) for r in range(dg)]
        part = solve_linear(ext.proj, unit)
        shift = rand_vector(rng, dn)
        full = [part[r] + sum(ext.iota[r][j] * shift[j] for j in range(dn))
                for r in range(dt)]
        cols.append(full)
    return Section(ext, [[cols[c][r] for c in range(dg)] for r in range(dt)])


def rand_section_oscillator_zline(rng, ext: Extension) -> Section:
    """Oscillator sections shifted along the central z only; the rotation-
    invariant symmetric maps stay invariant for these."""
    c = rand_fraction(rng)
    return Section(ext, [[0], [0], [c], [1]])


def oscillator_invariant_generators(kernel):
    """Degree-1 and degree-2 generators of the rotation-invariant maps on h3."""
    fz = SymMultiMap(kernel, 1, 1, {(0,): [0], (1,): [0], (2,): [1]})
    fp = SymMultiMap(kernel, 1, 1, {(0,): [1], (1,): [0], (2,): [0]})
    fq = SymMultiMap(kernel, 1, 1, {(0,): [0], (1,): [1], (2,): [0]})
    mult = scalar_multiplication(1)
    radial = sym_product(fp, fp, mult) + sym_product(fq, fq, mult)
    return fz, radial


def random_invariant_symmap(rng, name, ext, degree):
    """A random symmetric map invariant for the sections the suite draws.

    Central kernels accept anything; the oscillator uses the rotation
    invariants; the euclidean plane has invariants only in even degree.
    Returns None when no nonzero invariant exists for the requested degree.
    """
    if name in ("heisenberg", "heisenberg5", "filiform", "affine"):
        f = rand_symmap(rng, ext.kernel, degree)
        return f
    mult = scalar_multiplication(1)
    if name == "oscillator":
        fz, radial = oscillator_invariant_generators(ext.kernel)
        basis = []
        if degree == 1:
            basis = [fz]
        elif degree == 2:
            basis = [sym_product(fz, fz, mult), radial]
        elif degree == 3:
            basis = [sym_product(fz, sym_product(fz, fz, mult), mult),
                     sym_product(fz, radial, mult)]
        else:
            return None
        out = basis[0].scale(rand_fraction(rng))
        for extra in basis[1:]:
            out = out + extra.scale(rand_fraction(rng))
        return out
    if name == "euclidean":
        if degree % 2:
            return None
        fx = SymMultiMap(ext.kernel, 1, 1, {(0,): [1], (1,): [0]})
        fy = SymMultiMap(ext.kernel, 1, 1, {(0,): [0], (1,): [1]})
        radial = sym_product(fx, fx, mult) + sym_product(fy, fy, mult)
        out = radial
        for _ in range(degree // 2 - 1):
            out = sym_product(out, radial, mult)
        return out.scale(rand_fraction(rng))
    raise ValueError(f"unknown fixture extension {name!r}")


def section_pool(rng, name, ext, count):
    if name == "oscillator":
        return [rand_section_oscillator_zline(rng, ext) for _ in range(count)]
    return [rand_section(rng, ext) for _ in range(count)]
