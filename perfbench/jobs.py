"""The benchmark's three workloads, built from a seed.

A workload is an ordered job list plus the oracles that judge one complete
pass over it.  Every job is one call into liechar's public API; ``call``
looks the API up on the module at call time, so the tracer's wrappers see
it.  ``answer`` turns the result into a small JSON value: the runner
compares it across passes, against the oracles, and against the answers
recorded at the seed commit (``expected/``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path
from typing import Any, Callable

import oracles

DEFAULT_SEED = 1
WORKLOADS = ("cohomology_ladder", "classes_ladder", "cli_session")
FIXTURES = ("oscillator", "heisenberg", "filiform")
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    answer: Callable[[Any], Any]
    check: Callable[[Any], list] | None = None
    # Exception type of a known library defect: raising it counts as an
    # error of the run, not as a failure of the benchmark.
    known_defect: type | None = None


@dataclass
class Workload:
    name: str
    jobs: list
    check_pass: Callable[[dict], list] = lambda answers: []
    seed_independent: set = field(default_factory=set)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _cochain_table(w):
    return [[str(x) for x in w.values[key]] for key in w.values]


def build(name: str, seed: int, lib) -> Workload:
    builders = {
        "cohomology_ladder": _cohomology_ladder,
        "classes_ladder": _classes_ladder,
        "cli_session": _cli_session,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return builders[name](random.Random(seed), lib)


# --------------------------------------------------------------------------
# cohomology_ladder

_SHEAR_VALUES = (1, -1, 2, -2, 3, -3)


def seeded_heisenberg(rng, lib, m: int):
    """h_{2m+1} in a seeded basis b_i = e_i + c_i e_{i+1 mod 2m}, z kept.

    The brackets [b_i, b_j] = omega(b_i, b_j) z have a fixed pattern of
    nonzeros for every seed (draws with an accidental cancellation or a
    singular basis change are redrawn), so the cost varies little with the
    seed while the structure constants are denser than in the standard
    basis.
    """
    n = 2 * m

    def omega(u, v):
        return sum(u[a] * v[m + a] - u[m + a] * v[a] for a in range(m))

    while True:
        shift = [rng.choice(_SHEAR_VALUES) for _ in range(n)]
        cols = [[int(r == i) + (shift[i] if r == (i + 1) % n else 0)
                 for r in range(n)] for i in range(n)]
        form = {(i, j): omega(cols[i], cols[j])
                for i in range(n) for j in range(i + 1, n)}
        # omega(b_i, b_j) gets a term from each pair of coordinates (a, m+a)
        # the two columns share; "structural" pairs have at least one.
        structural = {(i, j) for (i, j) in form
                      if any(cols[i][a] and cols[j][(a + m) % n] for a in range(n))}
        det = 1 - prod(shift)  # det(I + weighted cyclic shift) for even n
        if det != 0 and all(bool(form[key]) == (key in structural) for key in form):
            break
    brackets = {key: {n: c} for key, c in form.items() if c}
    names = tuple(f"b{i + 1}" for i in range(n)) + ("z",)
    return lib.algebra_from_brackets(names, brackets)


def filiform5(lib):
    """n_5: [x1, x_i] = x_{i+1} for i = 2, 3, 4."""
    return lib.algebra_from_brackets(
        ("x1", "x2", "x3", "x4", "x5"), {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}})


def sl2(lib):
    return lib.algebra_from_brackets(
        ("h", "e", "f"), {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def _cohomology_answer(space):
    z_dim, b_dim = len(space.cocycle_basis), len(space.coboundary_basis)
    payload = {
        "cocycles": [_cochain_table(w) for w in space.cocycle_basis],
        "coboundaries": [_cochain_table(w) for w in space.coboundary_basis],
        "projection": [[str(x) for x in row] for row in space.class_projection],
    }
    return {"z": z_dim, "b": b_dim, "h": space.h_dim, "bases": digest(payload)}


# Seeded bases per Heisenberg size: cheap sizes get several, so that every
# seed sees the same mix of costs.
_SEEDED_BASES = {1: 3, 2: 5, 3: 1}
# Degrees left out because one call takes 0.5-4 s: without them a pass takes
# about 2.5 s, so every job is timed more than ten times in a run.
_HEAVY = {"h7.seeded": (3, 4), "h5.ad": (2, 3), "n5.ad": (2, 3)}


def _light(label, degrees):
    return [p for p in degrees if p not in _HEAVY.get(label.rstrip("0123456789"), ())]


def _cohomology_ladder(rng, lib) -> Workload:
    L = lib.liechar
    ladders = []  # (label, algebra, module, degrees, oracle dimensions or None)
    for m in (1, 2, 3):
        std = L.heisenberg(m) if m > 1 else L.heisenberg3()
        betti = oracles.heisenberg_betti(m)
        ladders.append((f"h{2 * m + 1}.std", std, L.trivial_representation(std, 1),
                        range(2 * m + 2), betti))
        for i in range(_SEEDED_BASES[m]):
            seeded = seeded_heisenberg(rng, L, m)
            ladders.append((f"h{2 * m + 1}.seeded{i}", seeded,
                            L.trivial_representation(seeded, 1), range(2 * m + 2), betti))
    h9 = L.heisenberg(4)
    ladders.append(("h9.std", h9, L.trivial_representation(h9, 1), range(3),
                    oracles.heisenberg_betti(4)))
    # Whitehead: H^p(sl_2, V) = 0 for every p and nontrivial irreducible V;
    # with trivial coefficients H^*(sl_2) is an exterior algebra on one
    # generator of degree 3.
    for label, alg, degrees, oracle in (
            ("h3.ad", L.heisenberg3(), range(4), None),
            ("h5.ad", L.heisenberg(2), range(6), None),
            ("n5.ad", filiform5(L), range(6), None),
            ("oscillator.ad", L.oscillator(), range(5), None),
            ("sl2.ad", sl2(L), range(4), [0, 0, 0, 0])):
        ladders.append((label, alg, L.adjoint_representation(alg), degrees, oracle))
    for label, alg, oracle in (
            ("n5.triv", filiform5(L), None),
            ("oscillator.triv", L.oscillator(), None),
            ("sl2.triv", sl2(L), [1, 0, 0, 1])):
        ladders.append((label, alg, L.trivial_representation(alg, 1), range(alg.dim + 1),
                        oracle))

    jobs = []
    complete = {}
    for label, alg, rep, degrees, oracle in ladders:
        degrees = _light(label, degrees)
        names = []
        for p in degrees:
            expected_h = oracle[p] if oracle else None
            jobs.append(Job(
                name=f"{label}.p{p}",
                call=lambda alg=alg, rep=rep, p=p: lib.liechar.cohomology_space(alg, rep, p),
                answer=_cohomology_answer,
                check=lambda a, expected_h=expected_h: _check_cohomology(a, expected_h)))
            names.append(f"{label}.p{p}")
        if degrees == list(range(alg.dim + 1)):
            complete[label] = (names, oracles.euler_characteristic(alg.dim, rep.space_dim))

    def check_pass(answers):
        problems = []
        for label, (names, chi) in complete.items():
            total = sum((-1) ** p * answers[n]["h"] for p, n in enumerate(names))
            if total != chi:
                problems.append(f"{label}: alternating sum of h_dim is {total}, expected {chi}")
        return problems

    return Workload("cohomology_ladder", jobs, check_pass,
                    seed_independent={j.name for j in jobs if ".seeded" not in j.name})


def _check_cohomology(answer, expected_h):
    problems = oracles.check_cohomology_counts(answer["z"], answer["b"], answer["h"])
    if expected_h is not None and answer["h"] != expected_h:
        problems.append(f"h_dim {answer['h']}, oracle says {expected_h}")
    return problems


# --------------------------------------------------------------------------
# classes_ladder

_VALUES = tuple(Fraction(v) for v in ("-2", "-1", "-1/2", "1/2", "1", "2"))


def _rational(rng) -> Fraction:
    return rng.choice(_VALUES)


def _selection_inverse(proj):
    """Right inverse of a projection whose rows are unit vectors."""
    cols = []
    for row in proj:
        hits = [c for c, x in enumerate(row) if x != 0]
        if len(hits) != 1 or row[hits[0]] != 1:
            raise ValueError("projection is not a coordinate selection")
        cols.append(hits[0])
    return cols


def seeded_sections(rng, lib, ext, count):
    """Standard lifts of the base vectors plus seeded shifts in the kernel.

    The shifts of the ``count`` sections differ in every entry, so every
    difference of two sections is nonzero wherever it can be.
    """
    total, base, kernel = ext.total.dim, ext.base.dim, ext.kernel.dim
    lift = _selection_inverse(ext.proj)
    shifts = [[rng.sample(_VALUES, count) for _ in range(kernel)] for _ in range(base)]
    out = []
    for s in range(count):
        matrix = [[Fraction(int(r == lift[c])) for c in range(base)] for r in range(total)]
        for c in range(base):
            for r in range(total):
                matrix[r][c] += sum(ext.iota[r][j] * shifts[c][j][s] for j in range(kernel))
        out.append(lib.Section(ext, matrix))
    return out


def oscillator_section(lib, ext, c):
    """Sections (0, 0, c, 1): shifts along the central z keep rotation invariance."""
    return lib.Section(ext, [[0], [0], [c], [1]])


def seeded_symmap(rng, lib, kernel, degree):
    return lib.SymMultiMap.from_function(kernel, degree, 1, lambda key: [_rational(rng)])


def oscillator_invariant(rng, lib, kernel, degree):
    """a z^k + b z^(k-2) (p^2 + q^2): rotation-invariant maps on h3 = (p, q, z)."""
    a, b = _rational(rng), _rational(rng)

    def value(key):
        zs = key.count(2)
        if zs == degree:
            return [a]
        if zs == degree - 2 and (key.count(0) == 2 or key.count(1) == 2):
            return [b]
        return [0]

    return lib.SymMultiMap.from_function(kernel, degree, 1, value)


def trivial_extension(L):
    """h5 + R^3 -> h5: the direct sum with an abelian kernel (k1, k2, k3)."""
    names = ("p1", "p2", "q1", "q2", "z", "k1", "k2", "k3")
    total = L.algebra_from_brackets(names, {(0, 2): {4: 1}, (1, 3): {4: 1}})
    base = L.heisenberg(2)
    kernel = L.abelian(3, ("k1", "k2", "k3"))
    iota = [[int(r == 5 + c) for c in range(3)] for r in range(8)]
    proj = [[int(c == r) for c in range(8)] for r in range(5)]
    return L.Extension(total, base, kernel, iota, proj)


def _class_answer(cls):
    return {"degree": cls.degree, "h": cls.h_space.h_dim,
            "coordinates": [str(c) for c in cls.coordinates],
            "representative": digest(_cochain_table(cls.representative))}


def _theorem_answer(report):
    return {"equal": report.equal, "sign": report.sign,
            "sides": digest([_cochain_table(report.lhs), _cochain_table(report.rhs)])}


def _classes_ladder(rng, lib) -> Workload:
    L = lib.liechar
    catalog = lib.catalog
    jobs = []

    ext = trivial_extension(L)
    triv = L.trivial_representation(ext.base, 1)
    sections = seeded_sections(rng, L, ext, 4)
    for p in range(1, 5):
        f = seeded_symmap(rng, L, ext.kernel, p)
        for n in range(min(p, 3) + 1):
            jobs.append(Job(
                name=f"delta_f.p{p}.n{n}",
                call=lambda f=f, secs=sections[:n + 1]: lib.liechar.delta_f(ext, f, secs, triv),
                answer=lambda w: {"degree": w.degree, "values": digest(_cochain_table(w))}))

    extensions = {
        "oscillator": catalog.oscillator_extension(),
        "heisenberg": catalog.heisenberg_central_extension(1),
        "heisenberg5": catalog.heisenberg_central_extension(2),
        "filiform": catalog.filiform_extension(),
        "affine": catalog.affine_split_extension(),
    }

    def draw_sections(name, e, count):
        if name == "oscillator":
            return [oscillator_section(L, e, c) for c in rng.sample(_VALUES, count)]
        return seeded_sections(rng, L, e, count)

    def draw_map(name, e, degree):
        if name == "oscillator":
            return oscillator_invariant(rng, L, e.kernel, degree)
        return seeded_symmap(rng, L, e.kernel, degree)

    theorem_jobs = []
    for name, e in extensions.items():
        rep = L.trivial_representation(e.base, 1)
        for n, k, i in product((1, 2), (1, 2, 3), (0, 1)):
            if k < n:
                continue
            f = draw_map(name, e, k)
            secs = draw_sections(name, e, n + 1)
            job_name = f"theorem.{name}.n{n}.k{k}.{i}"
            theorem_jobs.append(job_name)
            jobs.append(Job(
                name=job_name,
                call=lambda e=e, f=f, secs=secs, rep=rep:
                    lib.liechar.verify_main_theorem(e, f, secs, rep),
                answer=_theorem_answer))

    primary_groups = []
    for name, e in extensions.items():
        rep = L.trivial_representation(e.base, 1)
        for k in (1, 2, 3):
            f = draw_map(name, e, k)
            group = []
            for i, sec in enumerate(draw_sections(name, e, 3)):
                job_name = f"chern_weil.{name}.k{k}.s{i}"
                group.append(job_name)
                jobs.append(Job(
                    name=job_name,
                    call=lambda e=e, f=f, sec=sec, rep=rep: lib.liechar.chern_weil(e, f, sec, rep),
                    answer=_class_answer))
            primary_groups.append(group)

    ws = catalog.oscillator_workspace()
    osc = ws.extensions["osc"]
    fz = ws.polynomials["fz"]
    osc_triv = ws.representations["triv"]
    pairs = [("s0.sz", ws.sections["s0"], ws.sections["sz"], Fraction(1))]
    for i in range(3):
        ca, cb = rng.sample(_VALUES, 2)
        pairs.append((f"seeded{i}", oscillator_section(L, osc, ca),
                      oscillator_section(L, osc, cb), cb - ca))
    for label, sa, sb, expected in pairs:
        # Delta_f(s_a, s_b) = f(s_b - s_a) for a map of degree 1, and the
        # sections differ by (c_b - c_a) z with f_z(z) = 1.
        jobs.append(Job(
            name=f"secondary.oscillator.{label}",
            call=lambda sa=sa, sb=sb: lib.liechar.secondary_class(osc, fz, sa, sb, osc_triv),
            answer=_class_answer,
            check=lambda a, expected=expected: (
                [] if a["coordinates"] == [str(expected)]
                else [f"coordinates {a['coordinates']}, oracle says [{expected}]"])))

    def check_pass(answers):
        problems = oracles.check_theorem_signs(
            [(answers[n]["equal"], answers[n]["sign"]) for n in theorem_jobs])
        for group in primary_groups:
            coords = {json.dumps(answers[n]["coordinates"]) for n in group}
            if len(coords) != 1:
                problems.append(f"{group[0]}: primary class depends on the section: {coords}")
        return problems

    return Workload("classes_ladder", jobs, check_pass,
                    seed_independent={"secondary.oscillator.s0.sz"})


# --------------------------------------------------------------------------
# cli_session

_FIXTURE_NAMES = {
    # fixture: (total algebra, base algebra, extension, sections, degree-1 map, top map)
    "oscillator": ("oscillator", "line", "osc", ("s0", "sz"), "fz", "fz"),
    "heisenberg": ("h3", "plane", "heis", ("s0", "s1", "s2"), "f1", "f2"),
    "filiform": ("n4", "h3", "fil", ("s0", "s1", "s2"), "f1", "f2"),
}


def _fixture_commands(fixture):
    path = f"fixtures/{fixture}.json"
    total, base, ext, secs, f1, ftop = _FIXTURE_NAMES[fixture]
    commands = [("validate", ["validate", path])]
    for degree in (1, 2, 3):
        commands.append((f"cohomology.total.p{degree}",
                         ["cohomology", path, "--algebra", total, "--rep", "triv_total",
                          "--degree", str(degree)]))
    for degree in (0, 1, 2):
        commands.append((f"cohomology.base.p{degree}",
                         ["cohomology", path, "--algebra", base, "--rep", "triv",
                          "--degree", str(degree)]))
    for sec in secs:
        commands.append((f"curvature.{sec}",
                         ["curvature", path, "--extension", ext, "--section", sec]))
        commands.append((f"chern-weil.{sec}",
                         ["chern-weil", path, "--extension", ext, "--poly", f1,
                          "--section", sec]))
    commands.append(("secondary", ["secondary", path, "--extension", ext, "--poly", f1,
                                   "--sections", f"{secs[0]},{secs[1]}"]))
    for count in sorted({2, len(secs)}):
        commands.append((f"verify-theorem.{count}",
                         ["verify-theorem", path, "--extension", ext, "--poly", ftop,
                          "--sections", ",".join(secs[:count])]))
    return commands


# Cases whose exit code the CLI contract fixes.  The last two are known
# defects: they end in an uncaught ValueError where the contract expects
# exit 1, and until they are fixed the run counts them as errors.
_ERROR_CASES = [
    ("unknown-name", ["cohomology", "fixtures/heisenberg.json", "--algebra", "nosuch",
                      "--rep", "triv", "--degree", "1"], 1, None),
    ("malformed-json", ["validate", "perfbench/data/malformed.json"], 2, None),
    ("missing-file", ["validate", "perfbench/data/missing.json"], 2, None),
    ("negative-degree", ["cohomology", "fixtures/heisenberg.json", "--algebra", "h3",
                         "--rep", "triv_total", "--degree", "-1"], 1, ValueError),
    ("base-rep-mismatch", ["secondary", "fixtures/heisenberg.json", "--extension", "heis",
                           "--poly", "f2", "--sections", "s0,s0", "--rep", "triv_total"],
     1, ValueError),
]


def run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run_command(argv)
    return code, out.getvalue()


def _cli_answer(result):
    code, stdout = result
    return {"exit": code, "stdout": stdout}


def _contract_exit(expected_code):
    def check(answer):
        if answer["exit"] != expected_code:
            return [f"exit code {answer['exit']}, contract says {expected_code}"]
        return []
    return check


def _round_trip_check(text):
    def check(answer):
        return [] if answer == digest(text) else ["serialize(parse(text)) != text"]
    return check


def seeded_workspace(rng, lib, base_ws, sections: int, maps: int):
    """A catalog workspace with extra seeded sections and symmetric maps."""
    L = lib.liechar
    ext_name, ext = next(iter(base_ws.extensions.items()))
    if ext_name == "osc":
        drawn = [oscillator_section(L, ext, c) for c in rng.sample(_VALUES, sections)]
    else:
        drawn = seeded_sections(rng, L, ext, sections)
    for i, sec in enumerate(drawn):
        base_ws.sections[f"seeded{i}"] = sec
    for i in range(maps):
        degree = 1 + i % 3
        if ext_name == "osc":
            f = oscillator_invariant(rng, L, ext.kernel, degree)
        else:
            f = seeded_symmap(rng, L, ext.kernel, degree)
        base_ws.polynomials[f"seeded{i}"] = f
    return lib.liechar.serialize_workspace(base_ws)


def _cli_session(rng, lib) -> Workload:
    jobs = []
    for fixture in FIXTURES:
        for label, argv in _fixture_commands(fixture):
            for output in ("text", "json"):
                jobs.append(Job(
                    name=f"cli.{fixture}.{label}.{output}",
                    call=lambda argv=argv + ["--output", output]: run_cli(lib, argv),
                    answer=_cli_answer))
    for label, argv, code, defect in _ERROR_CASES:
        jobs.append(Job(name=f"cli.error.{label}", call=lambda argv=argv: run_cli(lib, argv),
                        answer=_cli_answer, check=_contract_exit(code), known_defect=defect))

    texts = {f"fixture.{f}": (BENCH_DIR.parent / "fixtures" / f"{f}.json").read_text("utf-8")
             for f in FIXTURES}
    for f in FIXTURES:
        texts[f"catalog.{f}"] = lib.liechar.serialize_workspace(
            getattr(lib.catalog, f"{f}_workspace")())
    for f in FIXTURES:
        texts[f"seeded.{f}"] = seeded_workspace(
            rng, lib, getattr(lib.catalog, f"{f}_workspace")(), sections=3, maps=3)
    for label, text in texts.items():
        jobs.append(Job(
            name=f"round_trip.{label}",
            call=lambda text=text: lib.liechar.serialize_workspace(
                lib.liechar.parse_workspace(text)),
            answer=digest,
            check=_round_trip_check(text)))

    seed_independent = {j.name for j in jobs if j.name.startswith("cli.")
                        and j.known_defect is None}
    return Workload("cli_session", jobs, seed_independent=seed_independent)
