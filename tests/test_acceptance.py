"""Acceptance suite: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
All tolerances are pinned here; the property suites each run 10,000
randomized cases from a fixed seed.
"""

import random
import time

import pytest

from conftest import are_equal
from contracta import catalog, contraction, covers, gomega, grig, growth
from contracta import marked, metabelian, rewriting
from contracta.contraction import nucleus
from contracta.cosets import (
    FreeProductSignature,
    enumerate_cosets,
    kernel_rank_free_product,
)
from contracta.marked import converge_report, valuation
from contracta.words import concat, format_word, invert, parse_word

SEED = 987123
CASES = 10_000


def report(number, message):
    print(f"ACCEPTANCE {number} PASS: {message}")


def random_letters(rng, ngens, max_len):
    letters = [s for s in range(-ngens, ngens + 1) if s]
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def test_criterion_1_nucleus_sizes():
    expected = {
        "grigorchuk": 5,
        "basilica": 7,
        "img_z2_plus_i": 4,
        "gupta_sidki": 5,
        "fabrykowski_gupta": 5,
        "hanoi3": 4,
    }
    times = []
    for name, size in expected.items():
        g = catalog.load(name)
        t0 = time.perf_counter()
        nuc = nucleus(g.recursion)
        elapsed = time.perf_counter() - t0
        assert len(nuc) == size, f"{name}: nucleus {len(nuc)} != {size}"
        assert elapsed < 5.0, f"{name}: nucleus took {elapsed:.1f}s"
        times.append(elapsed)
    report(1, f"nucleus sizes 5/7/4/5/5/4, max {max(times) * 1000:.0f} ms")


def test_criterion_2_cover_presentations():
    shapes = {
        "grigorchuk": (4, ["a a", "b b", "b c d", "c c", "d d"]),  # C2 * V
        "basilica": (2, []),  # F_2
        "img_z2_plus_i": (3, ["a a", "b b", "c c"]),  # C2 * C2 * C2
        "hanoi3": (3, ["a a", "b b", "c c"]),  # C2 * C2 * C2
        "gupta_sidki": (2, ["a a a", "b b b"]),  # C3 * C3
        "fabrykowski_gupta": (2, ["a a a", "b b b"]),  # C3 * C3
    }
    for name, (ngens, relators) in shapes.items():
        cover, sys_ = catalog.cover_for(name)
        assert len(cover.presentation.gens) == ngens, name
        got = sorted(
            format_word(r, cover.presentation.gens)
            for r in cover.presentation.relators
        )
        assert got == relators, f"{name}: {got} != {relators}"
        result = covers.standard_cover(cover, sys=sys_)
        assert result.already_self_replicating, name
    report(2, "covers C2*V, F2, C2*C2*C2 (x2), C3*C3 (x2); all self-replicating")


def test_criterion_3_coset_indices():
    checks = [
        ("Xi_0 in level-0 truncation", 0, grig.XI0_GENS, 2),
        ("B_0 in level-0 truncation", 0, grig.B0_GENS, 8),
        ("K_0 in level-0 truncation", 0, grig.K0_GENS, 16),
        ("H_1 in level-1 truncation", 1, grig.h_n_generators(1), 64),
    ]
    worst = 0.0
    for label, n, gens, expected in checks:
        pres = grig.g_n_presentation(n)
        t0 = time.perf_counter()
        table = enumerate_cosets(pres, gens, max_cosets=2**22)
        elapsed = time.perf_counter() - t0
        assert table.index == expected, f"{label}: {table.index} != {expected}"
        assert elapsed < 60.0, f"{label}: {elapsed:.1f}s"
        worst = max(worst, elapsed)
    report(3, f"indices 2/8/16/64, max {worst * 1000:.0f} ms")


def test_criterion_4_euler_ranks():
    triples = [
        (FreeProductSignature((2, 4)), 8, 3),
        (FreeProductSignature((2, 2, 2)), 8, 5),
        (FreeProductSignature((3, 3)), 9, 4),
    ]
    for sig, index, expected in triples:
        rank = kernel_rank_free_product(sig, index)
        assert isinstance(rank, int) and rank == expected
    report(4, "free-kernel ranks 3/5/4, exact integers")


def test_criterion_5_substitution_relators():
    g = catalog.load("grigorchuk")
    t0 = time.perf_counter()
    for n in range(7):
        for kind in ("u", "v"):
            relator = grig.lysenok_relator(kind, n)
            assert contraction.is_trivial(g.recursion, relator), (kind, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(5, f"u_n, v_n trivial for n <= 6 in {elapsed:.2f}s")


def test_criterion_6_kernel_chain_convergence():
    def chain_report(base, radius):
        chain = catalog.chain(base)
        return converge_report([(n, chain.member(n)) for n in range(5)], chain.limit, radius)

    # non-decreasing, so a strict increase shows as first < last
    cover_report = chain_report("grigorchuk", 8)
    assert cover_report.non_decreasing
    assert cover_report.values[0] < cover_report.values[-1]

    omega_report = chain_report("gomega::012", 8)
    assert omega_report.non_decreasing
    assert omega_report.values[0] < omega_report.values[-1]

    bs_report = chain_report("bs:2:3", 6)
    assert bs_report.non_decreasing
    # radius 6 cannot see the shortest disagreement (a length-8 word); the
    # strict increase of the same tower shows up one radius later
    bs_report8 = chain_report("bs:2:3", 8)
    assert bs_report8.non_decreasing and bs_report8.values[0] < bs_report8.values[-1]

    report(
        6,
        "valuations non-decreasing; strict increase at "
        f"n=0->1 (cover {cover_report.values[0]}->{cover_report.values[1]}, "
        f"omega {omega_report.values[0]}->{omega_report.values[1]}); "
        "BS tower non-decreasing at radius 6",
    )


def test_criterion_7_non_hopf_witness():
    # the commutator [t^-1 s t, s]
    witness = parse_word("t^-1 s t s t^-1 s^-1 t s^-1", metabelian.GENS)
    datum = metabelian.BsDatum(2, 3)
    assert not metabelian.britton_reduce(datum, witness).is_trivial
    assert metabelian.bs_kernel_chain_member(2, 3, witness, 1)
    assert metabelian.met_eval(2, 3, witness).is_identity
    report(7, "witness nontrivial by pinch-free form, dies after one "
              "substitution, matrix image is the identity")


@pytest.fixture(scope="module")
def groups():
    return [catalog.load(name) for name in catalog.RECURSION_NAMES]


class TestCriterion8PropertySuites:
    """Eight suites, 10,000 randomized cases each, fixed seed."""

    def test_section_composition(self, groups):
        rng = random.Random(SEED)
        for case in range(CASES):
            g = groups[case % len(groups)]
            rec = g.recursion
            u = random_letters(rng, len(rec.gens), 12)
            v = tuple(rng.randrange(rec.degree) for _ in range(rng.randint(0, 3)))
            x = tuple(rng.randrange(rec.degree) for _ in range(rng.randint(0, 3)))
            assert rec.section(u, v + x) == rec.section(rec.section(u, v), x)
            # the section is what acts below the vertex
            tail = tuple(rng.randrange(rec.degree) for _ in range(2))
            assert rec.act(u, v + tail) == rec.act(u, v) + rec.act(
                rec.section(u, v), tail
            )
        report(8.1, f"section composition, {CASES} cases")

    def test_right_action_law(self, groups):
        rng = random.Random(SEED + 1)
        for case in range(CASES):
            g = groups[case % len(groups)]
            rec = g.recursion
            u = random_letters(rng, len(rec.gens), 10)
            v = random_letters(rng, len(rec.gens), 10)
            x = tuple(rng.randrange(rec.degree) for _ in range(rng.randint(0, 4)))
            assert rec.act(v, rec.act(u, x)) == rec.act(concat(u, v), x)
        report(8.2, f"right-action law, {CASES} cases")

    def test_iteration_composition_law(self, groups):
        rng = random.Random(SEED + 2)
        for case in range(CASES):
            g = groups[case % len(groups)]
            rec = g.recursion
            u = random_letters(rng, len(rec.gens), 8)
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            d = rec.degree
            v = tuple(rng.randrange(d) for _ in range(n))
            t = tuple(rng.randrange(d) for _ in range(m))
            outer = rec.section(u, v)
            assert rec.section(u, v + t) == rec.section(outer, t)
            # vertex vt goes to (v u)(t u_v), at index i_v d^m + i_t
            iv, it = (sum(x * d**k for k, x in enumerate(reversed(p))) for p in (v, t))
            image = rec.level_permutation(u, n)[iv] * d**m
            image += rec.level_permutation(outer, m)[it]
            assert rec.level_permutation(u, m + n)[iv * d**m + it] == image
        report(8.3, f"two-stage iteration composition, {CASES} cases")

    def test_nucleus_closure(self, groups):
        rng = random.Random(SEED + 3)
        nuclei = [(g, nucleus(g.recursion)) for g in groups]
        for case in range(CASES):
            g, nuc = nuclei[case % len(nuclei)]
            rec = g.recursion
            i = rng.randrange(len(nuc))
            x = rng.randrange(rec.degree)
            j = nuc.sections[i][x]
            assert 0 <= j < len(nuc)
            k = nuc.inverses[i]
            assert nuc.inverses[k] == i
            if case % 10 == 0:  # exact spot checks with the equality oracle
                assert are_equal(
                    rec, rec.section(nuc.elements[i], (x,)), nuc.elements[j]
                )
                assert are_equal(
                    rec, invert(nuc.elements[i]), nuc.elements[k]
                )
        report(8.4, f"nucleus closed under sections and inverses, {CASES} cases")

    def test_rewrite_confluence(self):
        rng = random.Random(SEED + 4)
        _, c2v = catalog.cover_for("grigorchuk")
        gs_cover, gs_sys = catalog.cover_for("gupta_sidki")
        systems = [(4, c2v), (2, gs_sys)]
        for case in range(CASES):
            ngens, sys_ = systems[case % 2]
            u = random_letters(rng, ngens, 10)
            v = random_letters(rng, ngens, 10)
            direct = rewriting.normal_form(sys_, concat(u, v))
            stitched = rewriting.normal_form(
                sys_,
                concat(rewriting.normal_form(sys_, u), rewriting.normal_form(sys_, v)),
            )
            assert direct == stitched
        report(8.5, f"rewriting confluence on completed systems, {CASES} cases")

    def test_ultrametric_inequality(self):
        rng = random.Random(SEED + 5)
        pool = [catalog.marked(f"bs:2:3@{n}") for n in range(4)]
        pool += [catalog.marked(name) for name in ("met:2:3", "bs:2:3", "wreath:z", "w_n:2")]
        radius = 4
        cache = {}
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                cache[(i, j)] = valuation(pool[i], pool[j], radius).value

        def v(i, j):
            return radius if i == j else cache[(min(i, j), max(i, j))]

        for case in range(CASES):
            i, j, k = (rng.randrange(len(pool)) for _ in range(3))
            assert min(v(i, j), v(j, k)) <= v(i, k)
        report(8.6, f"ultrametric inequality over {len(pool)} marked groups, "
                    f"{CASES} cases")

    def test_growth_submultiplicativity(self, groups):
        rng = random.Random(SEED + 6)
        tables = []
        for g in groups[:4]:
            tables.append(
                growth.ball_sizes(g.equal, len(g.gens), 6, invariant=g.invariant)
            )
        for case in range(CASES):
            table = tables[case % len(tables)]
            n_max = len(table.gamma) - 1
            m = rng.randint(0, n_max)
            n = rng.randint(0, n_max - m)
            assert table.gamma[m + n] <= table.gamma[m] * table.gamma[n]
        report(8.7, f"growth submultiplicativity, {CASES} cases")

    def test_dual_oracle_agreement(self, groups):
        rng = random.Random(SEED + 7)
        for case in range(CASES):
            g = groups[case % len(groups)]
            rec = g.recursion
            depth = 6 if rec.degree == 2 else 4
            u = random_letters(rng, len(rec.gens), 12)
            v = random_letters(rng, len(rec.gens), 12)
            perm_equal = rec.level_permutation(u, depth) == rec.level_permutation(
                v, depth
            )
            assert perm_equal == are_equal(rec, u, v)
        report(8.8, f"bisimulation vs level-permutation dedup, {CASES} cases")


def test_criterion_9_growth_tables():
    t0 = time.perf_counter()
    f2 = growth.ball_sizes(lambda u, v: u == v, 2, 7, invariant=lambda w: w)
    assert f2.gamma == [2 * 3**n - 1 for n in range(8)]
    f2_elapsed = time.perf_counter() - t0
    assert f2_elapsed < 120.0

    g = catalog.load("grigorchuk")
    rec = g.recursion
    t0 = time.perf_counter()
    by_bisim = growth.ball_sizes(g.equal, 4, 8, invariant=g.invariant)
    t1 = time.perf_counter()
    by_perm = growth.ball_sizes(lambda u, v: True, 4, 8, invariant=rec.level_action(8))
    t2 = time.perf_counter()
    assert by_bisim.gamma == by_perm.gamma
    assert t1 - t0 < 120.0 and t2 - t1 < 120.0
    report(
        9,
        f"F2 balls match 2*3^n-1 (n<=7); both dedup oracles give "
        f"{by_bisim.gamma} for the four-involution group (n<=8)",
    )
