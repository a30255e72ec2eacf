"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with -s to see them all) and
asserts its stated bound.  All comparisons are exact; there are no
tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction

import homsuper as hs
from homsuper import freealg
from homsuper.search import SearchSpec, run_search
from homsuper.serialize import algebra_to_document, canonical_text
from homsuper import identities as idn
import naive

SHLY = ["SHLY%d" % i for i in range(1, 9)]


def _report(number, name, ok, detail=""):
    print("ACCEPTANCE %d %-24s %s%s" % (number, name,
                                        "PASS" if ok else "FAIL",
                                        " " + detail if detail else ""))
    return ok


# --------------------------------------------------------------------------
# 1. Every Leibniz fixture carries the derived binary-ternary structure.

def test_criterion_1_ly_structure_on_corpus(corpus_leibniz):
    start = time.monotonic()
    names = {path.name for path, _ in corpus_leibniz}
    required = {"zero_1_1.json", "leibniz_a2_b.json", "leibniz_f2_e.json",
                "yau_a2_b_diag24.json", "yau_f2_e_diag42.json",
                "leibniz_2_1_search.json"}
    ok = required <= names and len(corpus_leibniz) >= 6
    failures = []
    for path, algebra in corpus_leibniz:
        assert all(r.passed for r in hs.check_suite("leibniz", algebra))
        derived = hs.build_hom_ly(algebra, verify=False)
        for name in SHLY:
            report = hs.check_identity(hs.REGISTRY[name], derived, name=name)
            if not report.passed:
                failures.append((path.name, name))
    elapsed = time.monotonic() - start
    ok = ok and not failures and elapsed < 10.0
    assert _report(1, "ly-structure", ok,
                   "(%d fixtures, %.2fs)" % (len(corpus_leibniz), elapsed))
    assert not failures
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# 2. Commutator/associator structure on random multiplicative algebras.

def _random_multiplicative(rng):
    dims = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2), (2, 0), (0, 2),
                       (1, 0)])
    space = hs.SuperSpace(*dims)
    n = space.dim
    if rng.random() < 0.4:
        diag = [Fraction(1)] * n
    else:
        diag = [Fraction(rng.choice([1, -1, 2])) for _ in range(n)]
    entries = {}
    for i in range(n):
        for j in range(n):
            want = (space.parity(i) + space.parity(j)) % 2
            for k in range(n):
                # Multiplicativity of a diagonal map pins each slot:
                # c[i][j][k] must vanish unless d_k = d_i d_j.
                if space.parity(k) != want or diag[k] != diag[i] * diag[j]:
                    continue
                value = rng.choice([-2, -1, 0, 0, 1, 2])
                if value:
                    entries[(i, j, k)] = Fraction(value)
    algebra = hs.HomSuperalgebra(space, hs.BilinearOp(space, entries=entries),
                                 hs.EvenMap.diagonal(space, diag))
    return algebra


def test_criterion_2_akivis_on_random_algebras():
    rng = random.Random(20260810)
    trials = 100
    failures = 0
    with_odd = 0
    for _ in range(trials):
        algebra = _random_multiplicative(rng)
        assert hs.check_multiplicativity(algebra).passed
        if algebra.space.dim_odd and not algebra.product.is_zero():
            with_odd += 1
        derived = hs.build_hom_akivis(algebra, verify=False)
        if not all(r.passed for r in hs.check_suite("akivis", derived)):
            failures += 1
    ok = failures == 0 and with_odd >= 20
    assert _report(2, "akivis-random", ok,
                   "(%d trials, %d graded, %d failures)"
                   % (trials, with_odd, failures))
    assert failures == 0


# --------------------------------------------------------------------------
# 3. Symbolic proof replay.

def test_criterion_3_symbolic_proofs():
    start = time.monotonic()
    verdicts = {}
    for target in ("akivis-free", "eq12", "prop32-i", "prop32-ii",
                   "ternary-equiv", "shly5", "shly6", "shly7", "shly8"):
        report = freealg.prove_identity_free(target)
        verdicts[target] = report.extra["verdict"]
    elapsed = time.monotonic() - start
    ok = all(v == "PROVED" for v in verdicts.values()) and elapsed < 30.0
    assert _report(3, "symbolic-proofs", ok, "(%.2fs)" % elapsed)
    assert verdicts == {t: "PROVED" for t in verdicts}
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# 4. Admissibility verdict equals the bracket Jacobi verdict.

def _search_candidates():
    plans = [
        ((2, 0), ("-1", "0", "1")),
        ((1, 1), ("-2", "-1", "0", "1", "2")),
        ((1, 2), ("0", "1")),
        ((2, 1), ("0", "1")),
    ]
    candidates = []
    for dims, coeffs in plans:
        spec = SearchSpec(dims, coeffs, "id", "leibniz", max_results=10 ** 6)
        outcome = run_search(spec)
        assert not outcome.partial
        for doc in outcome.documents:
            candidates.append(spec.candidate(doc["metadata"]["candidate"]))
    return candidates


def test_criterion_4_admissibility_equivalence(corpus_leibniz):
    candidates = [algebra for _, algebra in corpus_leibniz]
    searched = _search_candidates()
    assert len(searched) >= 100
    candidates.extend(searched[:100])
    disagreements = 0
    for algebra in candidates:
        admissible = hs.check_lie_admissible(algebra).passed
        bracket_algebra = hs.HomSuperalgebra(
            algebra.space, hs.supercommutator(algebra), algebra.alpha)
        jacobi = hs.check_identity(hs.REGISTRY["HOM_SUPER_JACOBI"],
                                   bracket_algebra).passed
        if admissible != jacobi:
            disagreements += 1
    ok = disagreements == 0
    assert _report(4, "lie-admissibility", ok,
                   "(%d algebras)" % len(candidates))
    assert disagreements == 0


# --------------------------------------------------------------------------
# 5. Left/right duality and the associator form, as verdict equalities.

def test_criterion_5_duality_metamorphic(corpus):
    mismatches = []
    for path, algebra in corpus:
        if algebra.kind != "hom_superalgebra":
            continue
        llsi = hs.check_identity(hs.REGISTRY["LLSI"], algebra).passed
        rlsi = hs.check_identity(hs.REGISTRY["RLSI"],
                                 hs.left_to_right(algebra)).passed
        assoc = hs.check_identity(hs.REGISTRY["ASSOC_FORM"], algebra).passed
        if llsi != rlsi or assoc != llsi:
            mismatches.append(path.name)
    ok = not mismatches
    assert _report(5, "duality-metamorphic", ok)
    assert not mismatches


# --------------------------------------------------------------------------
# 6. Purely even fixtures: graded verdicts equal the classical ones, read
# from each law's text without its Koszul signs.

def test_criterion_6_even_part_reduction(corpus):
    compared = 0
    mismatches = []
    for path, algebra in corpus:
        if algebra.space.dim_odd != 0 or algebra.kind != "hom_superalgebra":
            continue
        if all(r.passed for r in hs.check_suite("leibniz", algebra)):
            derived = hs.build_hom_ly(algebra, verify=False)
        else:
            derived = hs.build_hom_akivis(algebra, verify=False)
        for name in SHLY:
            graded = hs.check_identity(hs.REGISTRY[name], derived,
                                       name=name).passed
            ungraded = hs.check_identity(naive.classical(hs.REGISTRY[name]),
                                         derived, name=name).passed
            compared += 1
            if graded != ungraded:
                mismatches.append((path.name, name))
        # Independent ungraded oracles for two of the axioms.
        n = derived.space.dim
        binary = derived.binary.table
        ternary = derived.ternary.table
        rows = derived.alpha.rows
        naive5 = all(
            all(v == 0 for v in naive.hly5_residual_ungraded(
                binary, ternary, rows, i, j, k))
            for i, j, k in itertools.product(range(n), repeat=3))
        naive7 = all(
            all(v == 0 for v in naive.hly7_residual_ungraded(
                binary, ternary, rows, i, j, k, l))
            for i, j, k, l in itertools.product(range(n), repeat=4))
        if naive5 != hs.check_identity(hs.REGISTRY["SHLY5"], derived).passed:
            mismatches.append((path.name, "naive-HLY5"))
        if naive7 != hs.check_identity(hs.REGISTRY["SHLY7"], derived).passed:
            mismatches.append((path.name, "naive-HLY7"))
    ok = not mismatches and compared >= 24
    assert _report(6, "even-part-reduction", ok,
                   "(%d verdicts compared against classical texts)"
                   % compared)
    assert not mismatches


# --------------------------------------------------------------------------
# 7. Search reproducibility.

def test_criterion_7_search_reproducibility():
    start = time.monotonic()
    spec = SearchSpec((2, 0), ("-1", "0", "1"), "id", "leibniz",
                      max_results=10 ** 6)
    first = run_search(spec)
    second = run_search(spec)
    same = ([d["name"] for d in first.documents]
            == [d["name"] for d in second.documents]
            and first.documents == second.documents)
    reverified = all(
        all(r.passed for r in hs.check_suite(
            "leibniz", spec.candidate(doc["metadata"]["candidate"])))
        for doc in first.documents)
    products = {tuple(tuple(e) for e in doc["product"])
                for doc in first.documents}
    has_square = ((1, 1, 2, "1"),) in products
    has_zero = () in products
    elapsed = time.monotonic() - start
    ok = same and reverified and has_square and has_zero and elapsed < 60.0
    assert _report(7, "search-reproducibility", ok,
                   "(%d found, %.2fs)" % (len(first.documents), elapsed))
    assert same and reverified and has_square and has_zero
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# 8. Round-trips: registry identities and corpus documents.

def test_criterion_8_round_trips(corpus):
    parser_ok = all(
        hs.parse_identity(idn.pretty(ident)) == ident
        for ident in hs.REGISTRY.values())
    byte_stable = all(
        canonical_text(algebra_to_document(algebra))
        == path.read_text(encoding="utf-8")
        for path, algebra in corpus)
    reload_stable = all(
        algebra_to_document(
            hs.load_algebra(path)) == algebra_to_document(algebra)
        for path, algebra in corpus)
    ok = parser_ok and byte_stable and reload_stable
    assert _report(8, "round-trips", ok,
                   "(%d identities, %d documents)"
                   % (len(hs.REGISTRY), len(corpus)))
    assert parser_ok and byte_stable and reload_stable
