"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import dataclasses
import random
from fractions import Fraction

from threedom.cli import evaluate_corpus_entry, load_corpus
from threedom.engine import (
    cross_check_sweep,
    dominated_by_any_circle_bundle,
    dominated_by_nontrivial_circle_bundle,
    dominated_by_product,
    presentable_by_products,
    sweep_inputs,
)
from threedom.groups import (
    FreeProductData,
    free_cover_rank,
    nielsen_schreier_rank,
    reidemeister_schreier_rank_oracle,
    stallings_fold,
)
from threedom.manifold import (
    SeifertData,
    classify_geometry,
    Geometry,
    euler_number,
    normalize_manifold,
    orbifold_euler_characteristic,
    parse_manifold,
)
from threedom.witness import (
    FiniteCoverWitness,
    MonodromyData,
    bundle_branched_cover_schema,
    pillowcase_schema,
    product_branched_cover_schema,
    verify_finite_cover,
    verify_schema,
)

EXPECTED_TRUTH_TABLE = {
    # description: (product, ntbundle)
    "SFS(g=1; b=0)": ("YES", "NO"),
    "SFS(g=2; b=0)": ("YES", "NO"),
    "SFS(g=1; b=-1)": ("NO", "YES"),
    "SFS(g=2; b=1)": ("NO", "YES"),
    "Hyperbolic": ("NO", "NO"),
    "Sol": ("NO", "NO"),
    "OtherAspherical": ("NO", "NO"),
    "S3": ("YES", "YES"),
    "S2xS1": ("YES", "YES"),
    "Spherical(120)": ("YES", "YES"),
    "Spherical(2) # Spherical(2)": ("YES", "YES"),
    "S2xS1 # Spherical(2)": ("YES", "YES"),
    "SFS(g=2; b=0) # Spherical(3)": ("NO", "NO"),
    # The SL2R-tilde small Seifert sample: chi_orb = -1/42 < 0, e != 0.
    "SFS(g=0; b=1; (2,1), (3,1), (7,1))": ("NO", "YES"),
}


def test_criterion_1_corpus_truth_table():
    entries = load_corpus()
    assert len(entries) >= 14
    corpus = {desc: expected for desc, expected in entries}
    assert set(EXPECTED_TRUTH_TABLE) == set(corpus)
    for description, (product, ntbundle) in EXPECTED_TRUTH_TABLE.items():
        actual = evaluate_corpus_entry(description)
        assert actual["product"] == product, description
        assert actual["ntbundle"] == ntbundle, description
        assert actual == corpus[description], description
    print("\nACCEPTANCE 1 (corpus truth table, "
          f"{len(entries)} entries): PASS")


def test_criterion_2_cross_check_sweep():
    count, discrepancies = cross_check_sweep()
    assert count > 4000
    assert discrepancies == [], [d.traces for d in discrepancies]
    print(f"\nACCEPTANCE 2 (cross-check sweep over {count} inputs, "
          "0 discrepancies): PASS")


def _order_multisets(bound, smallest=2):
    yield ()
    q = smallest
    while q <= bound:
        for rest in _order_multisets(bound // q, q):
            yield (q,) + rest
        q += 1


def test_criterion_3_rank_oracle_equivalence():
    checked = 0
    for l in range(4):
        for orders in _order_multisets(200):
            d = FreeProductData(l, orders)
            assert free_cover_rank(d).rank \
                == reidemeister_schreier_rank_oracle(d), d
            checked += 1
    # anchored cases with known covers
    assert free_cover_rank(FreeProductData(0, (2,))).rank == 0       # RP^3
    assert free_cover_rank(FreeProductData(0, (2, 2))).rank == 1     # RP^3#RP^3
    assert free_cover_rank(FreeProductData(0, (120,))).rank == 0     # Poincare
    print(f"\nACCEPTANCE 3 (rank oracle equivalence, {checked} inputs): PASS")


def test_criterion_4_certificate_verification():
    # pillowcase: 0 = 4 - 4
    pc = pillowcase_schema()
    assert verify_schema(pc).passed
    sl = pc.slice_check
    assert sl.degree * sl.chi_target - sum(d - 1 for d in sl.local_degrees) == 0

    for n in range(9):
        product = product_branched_cover_schema(n)
        bundle = bundle_branched_cover_schema(n)
        assert verify_schema(product).passed, (n, verify_schema(product).failures())
        assert verify_schema(bundle).passed, (n, verify_schema(bundle).failures())
        if n >= 1:
            assert bundle.source_euler == n
        if n <= 2:
            assert product.pi1_data is not None

    # injected faults must fail
    faults = [
        dataclasses.replace(product_branched_cover_schema(2),
                            branch_components=5),
        dataclasses.replace(
            bundle_branched_cover_schema(2),
            fiber_sum=dataclasses.replace(
                bundle_branched_cover_schema(2).fiber_sum, total=3)),
        dataclasses.replace(product_branched_cover_schema(2),
                            pi1_data=("aa", "b")),
        dataclasses.replace(
            bundle_branched_cover_schema(1),
            monodromy=MonodromyData(((1, 1), (0, 1)), ((-1, 0), (0, 1)))),
    ]
    for bad in faults:
        assert not verify_schema(bad).passed

    # finite covers: genuine witnesses pass, injected faults must fail
    euclidean = SeifertData(0, -1, ((3, 1),) * 3)
    triangle = SeifertData(0, 1, ((2, 1), (3, 1), (7, 1)))
    assert verify_finite_cover(
        euclidean, FiniteCoverWitness("product", 1, 0, 3, "existence-backed")).passed
    assert verify_finite_cover(
        triangle, FiniteCoverWitness("bundle", 2, -166, 84, "existence-backed")).passed
    cover_faults = [
        # degree 1 does not unwrap the order-3 fibers
        (euclidean, FiniteCoverWitness("product", 1, 0, 1, "existence-backed"),
         "lcm_divides_degree"),
        # L = 42 and 42 * chi_orb = -1 is odd: no surface has that chi
        (triangle, FiniteCoverWitness("bundle", 1, -83, 42, "existence-backed"),
         "riemann_hurwitz"),
        # e' must be d * e = -166
        (triangle, FiniteCoverWitness("bundle", 2, -165, 84, "existence-backed"),
         "euler_scaling"),
        # a cover has degree >= 1, though 0 is a multiple of every L
        (euclidean, FiniteCoverWitness("product", 1, 0, 0, "existence-backed"),
         "lcm_divides_degree"),
        # a cover is a product or a bundle, nothing else
        (triangle, FiniteCoverWitness("bogus", 2, -166, 84, "existence-backed"),
         "kind_matches_euler"),
    ]
    for data, bad, check in cover_faults:
        report = verify_finite_cover(data, bad)
        assert [c.name for c in report.failures()] == [check], report
    print("\nACCEPTANCE 4 (certificate verification n=0..8 + fault "
          "injection, schemas and finite covers): PASS")


def test_criterion_5_presentability_table():
    def load(text):
        return normalize_manifold(parse_manifold(text))

    seifert_yes = ["SFS(g=1; b=0)", "SFS(g=2; b=0)", "SFS(g=1; b=-1)",
                   "SFS(g=2; b=1)", "SFS(g=0; b=1; (2,1), (3,1), (7,1))",
                   "SFS(g=0; b=-2; (2,1), (2,1), (2,1), (2,1))"]
    for text in seifert_yes:
        assert presentable_by_products(load(text)).verdict, text
    assert presentable_by_products(load("Spherical(2) # Spherical(2)")).verdict
    for text in ["Hyperbolic", "Sol", "OtherAspherical",
                 "S2xS1 # S2xS1", "S2xS1 # Spherical(2)",
                 "Spherical(2) # Spherical(3)", "Hyperbolic # Spherical(2)",
                 "SFS(g=1; b=0) # SFS(g=1; b=0)"]:
        assert not presentable_by_products(load(text)).verdict, text
    # Nil / SL2R-tilde: presentable yet not product-dominated
    for text in ["SFS(g=1; b=-1)", "SFS(g=2; b=1)",
                 "SFS(g=0; b=1; (2,1), (3,1), (7,1))"]:
        m = load(text)
        assert classify_geometry(m.pieces[0]) in (Geometry.Nil,
                                                  Geometry.SL2Rtilde)
        assert presentable_by_products(m).verdict
        assert not dominated_by_product(m).verdict
    print("\nACCEPTANCE 5 (presentability table): PASS")


def test_criterion_6_property_suites():
    rng = random.Random(20240821)

    # normalization idempotence and invariant preservation: the constructor
    # normalizes raw data, and keeps e and chi_orb as exact raw sums
    for _ in range(300):
        fibers = []
        for _ in range(rng.randint(0, 4)):
            alpha = rng.randint(2, 9)
            beta = rng.choice([b for b in range(-20, 21)
                               if b % alpha != 0
                               and _gcd(alpha, b % alpha) == 1])
            fibers.append((alpha, beta))
        genus, b = rng.randint(0, 4), rng.randint(-10, 10)
        once = SeifertData(genus, b, tuple(fibers))
        assert all(0 < beta < alpha for alpha, beta in once.fibers)
        assert SeifertData(once.genus, once.obstruction, once.fibers) == once
        assert euler_number(once) \
            == -(b + sum(Fraction(beta, alpha) for alpha, beta in fibers))
        assert orbifold_euler_characteristic(once) \
            == 2 - 2 * genus - sum(1 - Fraction(1, alpha) for alpha, _ in fibers)

    # folding confluence
    for _ in range(50):
        alphabet = "abc"[: rng.randint(1, 3)]
        words = ["".join(rng.choice(alphabet + alphabet.upper())
                         for _ in range(rng.randint(1, 8)))
                 for _ in range(rng.randint(1, 4))]
        reference = stallings_fold(words, alphabet=alphabet)
        assert stallings_fold(words, alphabet=alphabet,
                              _rng=random.Random(rng.random())) == reference

    # Nielsen-Schreier via folding on explicit finite-index subgroups
    for _ in range(50):
        rank = rng.randint(1, 3)
        size = rng.randint(1, 5)
        words, letters = _schreier_words(rng, rank, size)
        graph = stallings_fold(words, alphabet=letters)
        assert graph.index() == size
        assert graph.rank() == nielsen_schreier_rank(rank, size)

    # disjunction identity for dominated_by_any_circle_bundle
    for m in sweep_inputs():
        assert dominated_by_any_circle_bundle(m).verdict == (
            dominated_by_product(m).verdict
            or dominated_by_nontrivial_circle_bundle(m).verdict)
    print("\nACCEPTANCE 6 (property suites, fixed seeds): PASS")


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _schreier_words(rng, rank, size):
    letters = "abcdefghij"[:rank]
    while True:
        perms = [list(rng.sample(range(size), size)) for _ in range(rank)]
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for p in perms:
                for w in (p[v], p.index(v)):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
        if len(seen) == size:
            break
    coset_word = {0: ""}
    queue = [0]
    while queue:
        v = queue.pop(0)
        for i, p in enumerate(perms):
            w = p[v]
            if w not in coset_word:
                coset_word[w] = coset_word[v] + letters[i]
                queue.append(w)
    words = []
    for v in range(size):
        for i, p in enumerate(perms):
            w = p[v]
            words.append(coset_word[v] + letters[i]
                         + coset_word[w][::-1].swapcase())
    return words, letters


def test_full_sweep_runs_quickly_enough():
    # guard for the "under one minute" budget: the sweep is the dominant cost
    import time
    start = time.time()
    count, discrepancies = cross_check_sweep()
    elapsed = time.time() - start
    assert not discrepancies
    assert elapsed < 30, f"sweep over {count} inputs took {elapsed:.1f}s"
