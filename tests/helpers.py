"""Seeded random generators and shared fixture pools for the test suite."""

import json
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, prod
from types import SimpleNamespace

from liechar import (
    BilinearProduct, Cochain, Extension, LieAlgebra, MultiPoly, Representation, Section,
    SymMultiMap,
    abelian, adjoint_representation, algebra_from_brackets, as_poly, bracket,
    compose_sym, heisenberg, heisenberg3, identity, increasing_tuples,
    integrate_poly_simplex, kernel_coords, mat_mul, mat_vec, nondecreasing_tuples,
    param_curvature, param_section, rank, section_curvature, section_difference,
    semidirect_product, solve_linear, transpose, trivial_representation,
)
from liechar.linalg import zeros
from liechar.catalog import (
    affine_split_extension, filiform_extension, heisenberg_central_extension,
    oscillator_extension,
)


def raise_everywhere(monkeypatch, module, name):
    """Replace every binding of module.name inside liechar with a function that raises."""
    original = getattr(module, name)

    def boom(*args, **kwargs):
        raise AssertionError(f"{name} called")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("liechar") and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, boom)


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
    return LieAlgebra(names, structure)


def conjugate_extension(rng, ext):
    """ext written in a seeded basis of its total algebra: e'_i = sum_j P[j][i] e_j.

    The structure constants, iota and q become dense; the extension stays exact.
    """
    d = ext.total.dim
    pm = random_invertible(rng, d)
    cols = [[pm[r][i] for r in range(d)] for i in range(d)]
    structure = [[solve_linear(pm, bracket(ext.total, cols[i], cols[j])) for j in range(d)]
                 for i in range(d)]
    total = LieAlgebra(tuple(f"b{i + 1}" for i in range(d)), structure)
    iota = transpose([solve_linear(pm, col) for col in transpose(ext.iota)])
    proj = mat_mul(ext.proj, pm)
    return Extension(total, ext.base, ext.kernel, iota, proj)


def dense_cocycles_and_coboundaries(algebra, rep, degree):
    """Dense Z and B bases: the kernel of the reference matrix of d on degree p
    and the column space of the one on degree p-1 (none for p = 0), both read
    off dense_rref."""
    dim_c = comb(algebra.dim, degree) * rep.space_dim
    zvecs = dense_kernel(dense_differential_matrix(algebra, rep, degree), dim_c)
    bvecs = []
    if degree and dim_c:
        rows, pivots = dense_rref(transpose(dense_differential_matrix(algebra, rep, degree - 1)))
        bvecs = rows[:len(pivots)]
    return zvecs, bvecs


def greedy_cohomology(algebra, rep, degree):
    """Reference construction of H^p with one solve per cocycle.

    H collects each cocycle basis vector that dense_solve finds outside the
    span of B and the H vectors chosen before it.  The class projection and
    the coordinates of a cocycle come from one dense_solve each against
    B + H.  Returns (h_dim, class_projection, coords), where coords maps a
    cocycle to its H-coordinates.
    """
    dim_c = comb(algebra.dim, degree) * rep.space_dim
    zvecs, bvecs = dense_cocycles_and_coboundaries(algebra, rep, degree)

    def solve(span, vec):
        return dense_solve([[col[i] for col in span] for i in range(dim_c)], vec)

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


def dense_rref(a, ncols=None):
    """Reference Gauss-Jordan elimination on dense rows; (rows, pivot columns).

    Columns are scanned left to right and the first row with a nonzero entry
    in the column is the pivot row.  The first ncols columns (all by default)
    of a copy of a are reduced; entries past ncols are carried along and may
    be MultiPoly.  This is the loop linalg ran before it went sparse.
    """
    m = [list(row) for row in a]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def dense_kernel(a, ncols):
    """Kernel basis of a dense matrix with ncols columns, from dense_rref: for
    each free column, 1 there and minus the echelon entry at each pivot."""
    rows, pivots = dense_rref(a, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def dense_solve(a, b):
    """Reference solve_linear on dense_rref: free variables zero, None if inconsistent."""
    ncols = len(a[0]) if a else 0
    m, pivots = dense_rref([[*row, y] for row, y in zip(a, b)], ncols)
    if any(not row[ncols] == 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(m, pivots):
        x[p] = row[ncols]
    return x


def dense_cohomology(algebra, rep, degree):
    """Reference H^p on dense rows, as cohomology spaces were built before
    elimination went sparse.

    Z and B come from dense_cocycles_and_coboundaries, and one dense_rref of
    the dense matrix [B | Z] gives H and the class projection.  Bases are
    built through the checking Cochain constructor; coordinates_of solves
    with dense_solve.  Nothing here reaches sparse_rref or the library's rows
    of d.
    """
    m = rep.space_dim
    zvecs, bvecs = dense_cocycles_and_coboundaries(algebra, rep, degree)
    nb = len(bvecs)
    rows, pivots = dense_rref([list(col) for col in zip(*bvecs, *zvecs)])
    hvecs = [zvecs[c - nb] for c in pivots[nb:]]
    basis = bvecs + hvecs
    keys = increasing_tuples(algebra.dim, degree)

    def unflatten(vec):
        return Cochain(algebra, degree, m,
                       {key: vec[i * m:(i + 1) * m] for i, key in enumerate(keys)})

    def coordinates_of(w):
        vec = [x for key in keys for x in w.values[key]]
        x = dense_solve([[col[i] for col in basis] for i in range(len(vec))], vec)
        return None if x is None else tuple(x[len(x) - len(hvecs):])

    return SimpleNamespace(
        h_dim=len(hvecs),
        cocycle_basis=[unflatten(v) for v in zvecs],
        coboundary_basis=[unflatten(v) for v in bvecs],
        class_projection=[row[nb:] for row in rows[nb:nb + len(hvecs)]],
        coordinates_of=coordinates_of)


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
    return tuple(sorted(combo)), _inversion_sign(combo)


def dense_cochain_evaluate(w, args):
    """Reference alternating multilinear extension of a Cochain."""
    return _dense_evaluate(w, args, _sorted_with_sign)


def dense_symmap_evaluate(f, args):
    """Reference symmetric multilinear extension of a SymMultiMap."""
    return _dense_evaluate(f, args, lambda combo: (tuple(sorted(combo)), 1))


def reference_section_curvature(ext, sec):
    """Reference R(x,y) = [sigma x, sigma y] - sigma([x,y]) in kernel coordinates."""
    g = ext.base

    def fn(key):
        i, j = key
        val = bracket(ext.total, sec.column(i), sec.column(j))
        for k, c in enumerate(g.bracket_basis(i, j)):
            if c == 0:
                continue
            val = [v - c * x for v, x in zip(val, sec.column(k))]
        return kernel_coords(ext, val)

    return Cochain.from_function(g, 2, ext.kernel.dim, fn)


def to_poly(table, nvars):
    """The same table with every entry promoted to a MultiPoly in nvars variables."""
    return table.map_values(lambda x: as_poly(x, nvars))


def poly_diff(p, index):
    """Partial derivative of a MultiPoly with respect to t_{index+1}."""
    return MultiPoly(p.nvars, {e[:index] + (e[index] - 1,) + e[index + 1:]: c * e[index]
                               for e, c in p.terms.items() if e[index]})


def poly_eval_at(p, point):
    """A MultiPoly evaluated at a rational point (a sequence of nvars values)."""
    point = [Fraction(x) for x in point]
    if len(point) != p.nvars:
        raise ValueError("evaluation point has wrong length")
    total = Fraction(0)
    for e, c in p.terms.items():
        total += c * prod(x ** k for x, k in zip(point, e) if k)
    return total


def poly_total_degree(p):
    return max((sum(e) for e in p.terms), default=0)


def reference_delta_f(ext, f, sections):
    """Reference Delta_f: every argument a MultiPoly, every entry integrated over D_n."""
    p = f.degree
    n = len(sections) - 1
    if n == 0:
        if p == 0:
            return Cochain(ext.base, 0, f.target_dim, {(): f.entry(())})
        return compose_sym(f, [section_curvature(ext, sections[0])] * p)
    args = [to_poly(section_difference(ext, sections[i], sections[0]), n)
            for i in range(1, n + 1)]
    if p > n:
        args.extend([param_curvature(ext, param_section(ext, sections))] * (p - n))
    integrand = compose_sym(f, args)
    return integrand.map_values(lambda s: integrate_poly_simplex(as_poly(s, n)))


def reference_kernel_action(ext, v):
    """ad(v) on the kernel in kernel coordinates: one solve per bracket [v, iota e_j].

    Column j is kernel_coords of reference_bracket(total, v, iota e_j), so it
    shares neither the bracket loop nor the stored echelon with the library.
    """
    dn, dt = ext.kernel.dim, ext.total.dim
    iota_cols = [[ext.iota[r][j] for r in range(dt)] for j in range(dn)]
    cols = [kernel_coords(ext, reference_bracket(ext.total, v, col)) for col in iota_cols]
    return [[cols[j][r] for j in range(dn)] for r in range(dn)]


def reference_is_invariant(f, ext, rep, mode, sigma=None):
    """Reference invariance check on basis data, through unit vectors and evaluate:

        x.f(e_k1..e_kp) == sum_slot f(e_k1, .., S(x) e_k_slot, .., e_kp)

    with S(x) = ad(sigma e_x) on the kernel and x over the base (mode "section"),
    or S(x) = ad(e_x) on the kernel, x over the total algebra and the module
    action pulled back along q (mode "strict").
    """
    dn, dt = ext.kernel.dim, ext.total.dim

    def unit(d, i):
        return [Fraction(1) if r == i else Fraction(0) for r in range(d)]

    if mode == "section":
        s_mats = [reference_kernel_action(ext, sigma.column(i)) for i in range(ext.base.dim)]
        act_mats = rep.matrices
    else:
        s_mats = [reference_kernel_action(ext, unit(dt, x)) for x in range(dt)]
        act_mats = []
        for x in range(dt):
            qx = mat_vec(ext.proj, unit(dt, x))
            act_mats.append([[sum(qx[b] * rep.matrices[b][r][s] for b in range(ext.base.dim))
                              for s in range(rep.space_dim)] for r in range(rep.space_dim)])
    for s_mat, act in zip(s_mats, act_mats):
        for key in nondecreasing_tuples(dn, f.degree):
            lhs = mat_vec(act, list(f.entry(key)))
            rhs = [Fraction(0)] * f.target_dim
            for slot in range(f.degree):
                moved = [s_mat[r][key[slot]] for r in range(dn)]
                vecs = [moved if t == slot else unit(dn, key[t]) for t in range(f.degree)]
                rhs = [a + b for a, b in zip(rhs, f.evaluate(vecs))]
            if lhs != rhs:
                return False
    return True


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


def random_module(rng, algebra):
    """The adjoint module plus a trivial line, in a random basis P: P rho P^-1."""
    d = algebra.dim + 1
    pm = random_invertible(rng, d)
    inv = transpose([solve_linear(pm, [Fraction(int(i == j)) for i in range(d)])
                     for j in range(d)])
    mats = []
    for mat in adjoint_representation(algebra).matrices:
        block = [[*row, Fraction(0)] for row in mat] + [[Fraction(0)] * d]
        mats.append(mat_mul(mat_mul(pm, block), inv))
    return Representation(algebra, d, mats)


def random_representation(rng, algebra):
    kind = rng.choice(["trivial1", "trivial2", "adjoint"])
    if kind == "trivial1":
        return trivial_representation(algebra, 1)
    if kind == "trivial2":
        return trivial_representation(algebra, 2)
    return adjoint_representation(algebra)


def lie_bracket_product(alg) -> BilinearProduct:
    """The bracket of alg as a bilinear product V x V -> V."""
    return BilinearProduct(alg.dim, alg.dim, alg.dim, alg.structure)


def scalar_multiplication(dim=1) -> BilinearProduct:
    """Multiplication R x V -> V; with dim=1 plain scalar multiplication."""
    coeffs = [[[Fraction(int(k == j)) for k in range(dim)] for j in range(dim)]]
    return BilinearProduct(1, dim, dim, coeffs)


def evaluation_product(dim) -> BilinearProduct:
    """End(V) x V -> V with endomorphisms flattened row-major (E_ij at i*dim+j)."""
    coeffs = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim * dim)]
    for i in range(dim):
        for j in range(dim):
            coeffs[i * dim + j][j][i] = Fraction(1)
    return BilinearProduct(dim * dim, dim, dim, coeffs)


def sym_tensor_product(dim, p, q) -> BilinearProduct:
    """S^p(V) x S^q(V) -> S^{p+q}(V) in the monomial bases of non-decreasing tuples."""
    left = nondecreasing_tuples(dim, p)
    right = nondecreasing_tuples(dim, q)
    out_index = {key: idx for idx, key in enumerate(nondecreasing_tuples(dim, p + q))}
    coeffs = [[[Fraction(0)] * len(out_index) for _ in right] for _ in left]
    for a, ka in enumerate(left):
        for b, kb in enumerate(right):
            coeffs[a][b][out_index[tuple(sorted(ka + kb))]] = Fraction(1)
    return BilinearProduct(len(left), len(right), len(out_index), coeffs)


def ad_matrix(alg, x):
    """Matrix of ad(x): y -> [x, y] in the basis of alg."""
    return transpose([bracket(alg, x, e) for e in identity(alg.dim)])


def euclidean_extension() -> Extension:
    """0 -> R^2 -> e(2) -> R -> 0: translations inside the planar motion algebra."""
    kernel = abelian(2, ("x", "y"))
    total = semidirect_product(kernel, abelian(1, ("r",)), [[[0, -1], [1, 0]]])
    iota = [[1, 0], [0, 1], [0, 0]]
    return Extension(total, abelian(1, ("r",)), kernel, iota, [[0, 0, 1]])


def fixture_extensions():
    return {
        "heisenberg": heisenberg_central_extension(),
        "heisenberg5": heisenberg_central_extension(2),
        "oscillator": oscillator_extension(),
        "filiform": filiform_extension(),
        "affine": affine_split_extension(),
        "euclidean": euclidean_extension(),
    }


def direct_sum_extension() -> Extension:
    """h_5 + R^3 -> h_5 with the abelian summand (k1, k2, k3) as kernel."""
    base = heisenberg(2)
    brackets = {(i, j): {k: c for k, c in enumerate(base.bracket_basis(i, j)) if c}
                for i, j in combinations(range(5), 2)}
    total = algebra_from_brackets(base.basis_names + ("k1", "k2", "k3"), brackets)
    iota = [[int(r == 5 + c) for c in range(3)] for r in range(8)]
    proj = [[int(c == r) for c in range(8)] for r in range(5)]
    return Extension(total, base, abelian(3, ("k1", "k2", "k3")), iota, proj)


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


def boolean_document(field, value):
    """A valid document in which ``field`` holds ``value`` (an int or its JSON boolean)."""
    doc = {"algebras": {
        "a": {"dim": 2, "basis": ["x", "y"], "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}]},
        "b": {"dim": 1, "basis": ["x"]}},
        "representations": {"r": {"algebra": "b", "space_dim": 1, "matrices": [[["0"]]]}},
        "polynomials": {"f": {"degree": 1, "source": "a", "target_dim": 1, "entries": [
            {"tuple": [0], "value": ["1"]}, {"tuple": [1], "value": ["0"]}]}}}
    owner, key = {
        "dim": (doc["algebras"]["b"], "dim"),
        "i": (doc["algebras"]["a"]["brackets"][0], "i"),
        "j": (doc["algebras"]["a"]["brackets"][0], "j"),
        "space_dim": (doc["representations"]["r"], "space_dim"),
        "degree": (doc["polynomials"]["f"], "degree"),
        "target_dim": (doc["polynomials"]["f"], "target_dim"),
        "tuple": (doc["polynomials"]["f"]["entries"][0], "tuple"),
    }[field]
    owner[key] = [value] if field == "tuple" else value
    return json.dumps(doc)


BOOLEAN_FIELDS = [
    ("dim", 1, r"^algebras\.b: dim must be a non-negative integer$"),
    ("i", 0, r"^algebras\.a\.brackets\[0\]: bracket indices must satisfy"),
    ("j", 1, r"^algebras\.a\.brackets\[0\]: bracket indices must satisfy"),
    ("space_dim", 1, r"^representations\.r: space_dim must be a positive integer$"),
    ("degree", 1, r"^polynomials\.f: degree must be a non-negative integer$"),
    ("target_dim", 1, r"^polynomials\.f: target_dim must be a positive integer$"),
    ("tuple", 0, r"^polynomials\.f\.entries\[0\]: entry 0 must be for tuple \[0\]$"),
]


_H3_DOCUMENT = {"dim": 3, "basis": ["p", "q", "z"],
                "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]}

# (id, document, error class, message) of load failures whose wording the
# workspace and the CLI keep: invariant violations are ValidationErrors (exit 1),
# duplicate basis names stay ParseErrors (exit 2).
PINNED_LOAD_FAILURES = [
    ("jacobi", {"algebras": {"broken": {
        "dim": 3, "basis": ["p", "q", "z"],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}},
                     {"i": 1, "j": 2, "coeffs": {"1": "1"}}]}}},
     "ValidationError",
     "algebra 'broken': Jacobi identity fails at (p,q,z) with defect ['0', '0', '-1']"),
    ("inline-jacobi", {"algebras": {"h3": _H3_DOCUMENT}, "extensions": {"e": {
        "total": {"dim": 3, "basis": ["p", "q", "z"],
                  "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}},
                               {"i": 1, "j": 2, "coeffs": {"1": "1"}}]},
        "base": "h3", "kernel": "h3", "iota": [], "q": []}}},
     "ValidationError",
     "algebra 'extension 'e' (total)': Jacobi identity fails at (p,q,z) "
     "with defect ['0', '0', '-1']"),
    ("representation", {"algebras": {"h3": _H3_DOCUMENT}, "representations": {"r": {
        "algebra": "h3", "space_dim": 2,
        "matrices": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]],
                     [["0", "0"], ["0", "0"]]]}}},
     "ValidationError", "representation 'r': representation property fails on (p,q)"),
    ("duplicate-basis", {"algebras": {"a": {"dim": 2, "basis": ["x", "x"], "brackets": []}}},
     "ParseError", "algebras.a: basis names must be unique"),
    ("inline-duplicate-basis", {"extensions": {"e": {
        "total": {"dim": 2, "basis": ["x", "x"], "brackets": []},
        "base": "a", "kernel": "a", "iota": [], "q": []}}},
     "ParseError", "extension 'e' (total): basis names must be unique"),
]


def dense_mat_mul(a, b):
    """The dense product: every entry a sum over all k, zero factors included."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    return [[sum(row[k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]) if b else 0)] for row in a]


def dense_mat_vec(a, x):
    """The dense matrix-vector product, zero factors included."""
    if a and len(a[0]) != len(x):
        raise ValueError("matrix dimension mismatch")
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def reference_validate_extension(ext):
    """validate_extension with dense products and one solve per ideal pair."""
    failures = []
    dn, dg, dt = ext.kernel.dim, ext.base.dim, ext.total.dim
    if dn + dg != dt:
        failures.append(
            f"dimension count fails: dim kernel {dn} + dim base {dg} != dim total {dt}")
    if rank(ext.iota) != dn:
        failures.append("iota is not injective")
    if rank(ext.proj) != dg:
        failures.append("q is not surjective")
    if any(c != 0 for row in dense_mat_mul(ext.proj, ext.iota) for c in row):
        failures.append("q . iota is not zero")
    iota_cols = transpose(ext.iota)
    for i, j in combinations(range(dn), 2):
        if dense_mat_vec(ext.iota, ext.kernel.structure[i][j]) != bracket(
                ext.total, iota_cols[i], iota_cols[j]):
            failures.append(f"iota is not a homomorphism on kernel pair ({i},{j})")
    for x, plane in enumerate(ext.total.structure):
        ad_x = transpose(plane)
        for j, col in enumerate(iota_cols):
            if solve_linear(ext.iota, dense_mat_vec(ad_x, col)) is None:
                failures.append(
                    f"iota image is not an ideal: [e_{x}, iota e_{j}] escapes")
    q_cols = transpose(ext.proj)
    for i, j in combinations(range(dt), 2):
        if dense_mat_vec(ext.proj, ext.total.structure[i][j]) != bracket(
                ext.base, q_cols[i], q_cols[j]):
            failures.append(f"q is not a homomorphism on pair ({i},{j})")
    return failures


def oversized_polynomial_document():
    """About 250 bytes naming a degree-30 map on a 20-dimensional algebra.

    Such a map has C(49, 30) table entries; the document lists none.
    """
    return json.dumps({
        "algebras": {"g": {"dim": 20, "basis": [f"e{i}" for i in range(20)]}},
        "polynomials": {"f": {"degree": 30, "source": "g", "target_dim": 1,
                              "entries": []}}})


def no_enumeration(dim, degree):
    raise AssertionError(f"enumerated the tuples of degree {degree} over dim {dim}")


def _inversion_sign(seq) -> int:
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def alt(source, degree, target_dim, table):
    """Antisymmetrization sum over permutations s of sign(s) * f(w_s(1),..,w_s(p)).

    ``table`` maps every length-``degree`` index tuple (repeats allowed) to a
    value vector; callables are accepted in place of a dict.  Already
    alternating input comes back multiplied by degree!.  The oracle for the
    shuffle-sum wedge: a ^_m b = Alt(a ._m b) / (p! q!).
    """
    get = table if callable(table) else table.__getitem__

    def fn(key):
        out = [Fraction(0)] * target_dim
        for perm in permutations(range(degree)):
            sgn = _inversion_sign(perm)
            val = get(tuple(key[i] for i in perm))
            out = [o + sgn * x for o, x in zip(out, val)]
        return out

    return Cochain.from_function(source, degree, target_dim, fn)


# Reference loops for the identities the library computes through one shared
# path each: the representation and derivation checks on dense scratch
# matrices, the bracket's own triple loop, and a separate partition enumeration
# per product.  None of them goes through _defect, _contract or _shuffle_sum.

def _reference_unit(d, i):
    v = [Fraction(0)] * d
    v[i] = Fraction(1)
    return v


def _reference_mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def reference_bracket(alg, x, y):
    """The triple loop of the bracket over the structure constants."""
    d = alg.dim
    if len(x) != d or len(y) != d:
        raise ValueError("dimension mismatch")
    out = [Fraction(0)] * d
    c = alg.structure
    for i in range(d):
        xi = x[i]
        if xi == 0:
            continue
        for j in range(d):
            yj = y[j]
            if yj == 0:
                continue
            row = c[i][j]
            for k in range(d):
                if row[k]:
                    out[k] = out[k] + xi * yj * row[k]
    return out


def reference_is_derivation(alg, mat) -> bool:
    """D[e_i,e_j] == [De_i,e_j] + [e_i,De_j] on every basis pair i < j."""
    d = alg.dim
    if len(mat) != d or any(len(row) != d for row in mat):
        raise ValueError("dimension mismatch")
    cols = [[mat[r][j] for r in range(d)] for j in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            lhs = mat_vec(mat, alg.bracket_basis(i, j))
            rhs = [a + b for a, b in zip(reference_bracket(alg, cols[i], _reference_unit(d, j)),
                                         reference_bracket(alg, _reference_unit(d, i), cols[j]))]
            if any(a - b != 0 for a, b in zip(lhs, rhs)):
                return False
    return True


def reference_check_jacobi(alg):
    """Triples i<j<k with [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] != 0."""
    e = [_reference_unit(alg.dim, i) for i in range(alg.dim)]
    violations = []
    for i, j, k in combinations(range(alg.dim), 3):
        terms = [reference_bracket(alg, reference_bracket(alg, e[a], e[b]), e[c])
                 for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
        defect = tuple(sum(col) for col in zip(*terms))
        if any(defect):
            violations.append((i, j, k, defect))
    return violations


def reference_check_representation(rep):
    """Pairs i<j with defect [rho(e_i), rho(e_j)] - rho([e_i,e_j]) != 0, on dense scratch."""
    alg, mats = rep.algebra, rep.matrices
    violations = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            comm = _reference_mat_sub(mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i]))
            expect = zeros(rep.space_dim, rep.space_dim)
            for k in range(alg.dim):
                c = alg.structure[i][j][k]
                if c:
                    for r in range(rep.space_dim):
                        for s in range(rep.space_dim):
                            expect[r][s] += c * mats[k][r][s]
            defect = _reference_mat_sub(comm, expect)
            if any(any(x != 0 for x in row) for row in defect):
                violations.append((i, j, defect))
    return violations


def reference_semidirect_product(h, a, action):
    """h x| a with the derivation and representation checks written out inline."""
    dh, da = h.dim, a.dim
    action = [[[Fraction(c) for c in row] for row in mat] for mat in action]
    if len(action) != da or any(
        len(mat) != dh or any(len(row) != dh for row in mat) for mat in action
    ):
        raise ValueError("action must supply one dim(h) x dim(h) matrix per basis element of a")
    for j, mat in enumerate(action):
        if not reference_is_derivation(h, mat):
            raise ValueError(f"action matrix for {a.basis_names[j]} is not a derivation of h")
    for i in range(da):
        for j in range(i + 1, da):
            comm = [[sum(action[i][r][k] * action[j][k][s] -
                         action[j][r][k] * action[i][k][s] for k in range(dh))
                     for s in range(dh)] for r in range(dh)]
            expect = zeros(dh, dh)
            for k in range(da):
                ck = a.structure[i][j][k]
                if ck:
                    for r in range(dh):
                        for s in range(dh):
                            expect[r][s] += ck * action[k][r][s]
            if comm != expect:
                raise ValueError(
                    f"action is not a representation of a: fails on "
                    f"({a.basis_names[i]},{a.basis_names[j]})"
                )
    names = h.basis_names + a.basis_names
    d = dh + da
    structure = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(dh):
        for j in range(dh):
            for k in range(dh):
                structure[i][j][k] = h.structure[i][j][k]
    for i in range(da):
        for j in range(da):
            for k in range(da):
                structure[dh + i][dh + j][dh + k] = a.structure[i][j][k]
    for j in range(da):
        for i in range(dh):
            for k in range(dh):
                c = action[j][k][i]
                structure[dh + j][i][k] = c
                structure[i][dh + j][k] = -c
    return LieAlgebra(names, structure)


def _reference_apply(m, u, v):
    """BilinearProduct.apply as its own triple loop."""
    if len(u) != m.left_dim or len(v) != m.right_dim:
        raise ValueError("dimension mismatch")
    out = [Fraction(0)] * m.out_dim
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        plane = m.coeffs[i]
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            row = plane[j]
            for k in range(m.out_dim):
                if row[k]:
                    out[k] = out[k] + ui * vj * row[k]
    return out


def reference_wedge(a, b, m):
    """The (p,q)-shuffle sum over combinations of left positions."""
    if a.source.dim != b.source.dim:
        raise ValueError("source algebra mismatch")
    if a.target_dim != m.left_dim or b.target_dim != m.right_dim:
        raise ValueError("dimension mismatch")
    p, q = a.degree, b.degree

    def fn(key):
        out = [Fraction(0)] * m.out_dim
        for left_pos in combinations(range(p + q), p):
            sgn = -1 if (sum(left_pos) - sum(range(p))) % 2 else 1
            left_key = tuple(key[i] for i in left_pos)
            right_key = tuple(key[i] for i in range(p + q) if i not in left_pos)
            val = _reference_apply(m, a.entry(left_key), b.entry(right_key))
            out = [o + sgn * x for o, x in zip(out, val)]
        return out

    return Cochain.from_function(a.source, p + q, m.out_dim, fn)


def sym_product(f, g, m):
    """The symmetric product (f v g)(y_1..y_{p+q}) = sum m(f(block), g(block)),
    an unsigned shuffle sum over combinations of left positions."""
    if f.source.dim != g.source.dim:
        raise ValueError("source algebra mismatch")
    if f.target_dim != m.left_dim or g.target_dim != m.right_dim:
        raise ValueError("dimension mismatch")
    p, q = f.degree, g.degree

    def fn(key):
        out = [Fraction(0)] * m.out_dim
        for left_pos in combinations(range(p + q), p):
            left_key = tuple(key[i] for i in left_pos)
            right_key = tuple(key[i] for i in range(p + q) if i not in left_pos)
            val = _reference_apply(m, f.entry(left_key), g.entry(right_key))
            out = [o + x for o, x in zip(out, val)]
        return out

    return SymMultiMap.from_function(f.source, p + q, m.out_dim, fn)


def _reference_partitions(positions, sizes):
    if not sizes:
        yield []
        return
    for block in combinations(positions, sizes[0]):
        chosen = set(block)
        remaining = tuple(p for p in positions if p not in chosen)
        for tail in _reference_partitions(remaining, sizes[1:]):
            yield [block] + tail


def _support_symmap_evaluate(f, vectors):
    """Reference f(vectors): coeff * f(sorted index tuple) summed from Fraction(0)
    over the product of the vectors' supports."""
    supports = [[(i, x) for i, x in enumerate(vec) if x != 0] for vec in vectors]
    out = [Fraction(0)] * f.target_dim
    for terms in product(*supports):
        coeff = Fraction(1)
        for _, x in terms:
            coeff = coeff * x
        val = f.values[tuple(sorted(i for i, _ in terms))]
        out = [o + coeff * x for o, x in zip(out, val)]
    return out


def reference_compose_sym(f, args):
    """f applied to the iterated wedge, summed over ordered partitions with signs;
    each term is a sum over the product of its vectors' supports."""
    if len(args) != f.degree:
        raise ValueError(
            f"slot-count mismatch: map of degree {f.degree} applied to {len(args)} cochains")
    if not args:
        raise ValueError("need at least one argument cochain")
    src = args[0].source
    for a in args:
        if a.source.dim != src.dim:
            raise ValueError("source algebra mismatch")
        if a.target_dim != f.source.dim:
            raise ValueError("dimension mismatch")
    degrees = [a.degree for a in args]
    total = sum(degrees)

    def fn(key):
        out = [Fraction(0)] * f.target_dim
        for blocks in _reference_partitions(tuple(range(total)), degrees):
            sgn = _inversion_sign([pos for block in blocks for pos in block])
            vectors = [list(args[i].entry(tuple(key[pos] for pos in block)))
                       for i, block in enumerate(blocks)]
            val = _support_symmap_evaluate(f, vectors)
            out = [o + sgn * x for o, x in zip(out, val)]
        return out

    return Cochain.from_function(src, total, f.target_dim, fn)


def point_base_extension():
    """0 -> h3 -> h3 -> 0 -> 0: iota the identity, q with no rows."""
    h3 = heisenberg3()
    return Extension(h3, abelian(0), h3, identity(3), [])


def kernel_functional(kernel, index):
    """The degree-1 symmetric map e_index^* on the kernel."""
    return SymMultiMap(kernel, 1, 1, {(k,): [int(k == index)] for k in range(kernel.dim)})


def point_base_document():
    """point_base_extension as a workspace, with a section and the maps z* and 0."""
    entries = [[{"tuple": [k], "value": [str(int(k == z))]} for k in range(3)]
               for z in (2, None)]
    return json.dumps({
        "algebras": {
            "h3": {"dim": 3, "basis": ["p", "q", "z"],
                   "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]},
            "point": {"dim": 0, "basis": []}},
        "extensions": {"e": {"total": "h3", "base": "point", "kernel": "h3",
                             "iota": [[str(int(r == c)) for c in range(3)] for r in range(3)],
                             "q": []}},
        "sections": {"s": {"extension": "e", "matrix": [[], [], []]}},
        "polynomials": {
            name: {"degree": 1, "source": "h3", "target_dim": 1, "entries": ents}
            for name, ents in zip(("zstar", "zero"), entries)}})
