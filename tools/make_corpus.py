"""Regenerate the packaged example corpus (src/homsuper/corpus).

Every fixture is produced deterministically: the hand-picked algebras are
spelled out below, the twisted ones come from yau_twist, and the (2,1)
fixture is the first search hit with at least three nonzero constants, one
of them involving the odd generator.  Expected-verdict metadata is measured,
not asserted, so the corpus contract test cannot drift from the checker.

Run from the repository root:  python tools/make_corpus.py [OUT_DIR]
(OUT_DIR defaults to the packaged corpus directory).  Any other arguments,
or one that starts with "-", print the usage line on stderr and exit 2
without writing anything.
"""

import sys
from pathlib import Path

import homsuper as hs
from homsuper.search import SearchSpec, run_search
from homsuper.serialize import algebra_to_document, canonical_text

CORPUS = Path(__file__).resolve().parent.parent / "src" / "homsuper" / "corpus"

VERDICT_SUITES = ("multiplicativity", "leibniz", "lie")

USAGE = "usage: python tools/make_corpus.py [OUT_DIR]"


def measure(algebra, suites=VERDICT_SUITES):
    return {suite: all(r.passed for r in hs.check_suite(suite, algebra))
            for suite in suites}


def emit(algebra, filename, source, out_dir):
    algebra.metadata = {"source": source, "expected": measure(algebra)}
    doc = algebra_to_document(algebra)
    path = out_dir / filename
    path.write_text(canonical_text(doc), encoding="utf-8")
    print("wrote %-28s expected=%s" % (filename, algebra.metadata["expected"]))


def hand_picked(out_dir):
    sp11 = hs.SuperSpace(1, 1)
    sp20 = hs.SuperSpace(2, 0)

    zero = hs.HomSuperalgebra(sp11, hs.BilinearOp(sp11),
                              hs.EvenMap.identity(sp11), name="zero_1_1")
    emit(zero, "zero_1_1.json", "hand-picked: zero product", out_dir)

    a2b = hs.HomSuperalgebra(sp20, hs.BilinearOp(sp20, entries={(0, 0, 1): 1}),
                             hs.EvenMap.identity(sp20), name="leibniz_a2_b")
    emit(a2b, "leibniz_a2_b.json", "hand-picked: b1*b1=b2", out_dir)

    f2e = hs.HomSuperalgebra(sp11, hs.BilinearOp(sp11, entries={(1, 1, 0): 1}),
                             hs.EvenMap.identity(sp11), name="leibniz_f2_e")
    emit(f2e, "leibniz_f2_e.json", "hand-picked: odd*odd=even", out_dir)

    twist_a = hs.yau_twist(a2b, hs.EvenMap.diagonal(sp20, [2, 4]))
    twist_a.name = "yau_a2_b_diag24"
    emit(twist_a, "yau_a2_b_diag24.json",
         "yau_twist(leibniz_a2_b, diag(2,4))", out_dir)

    twist_f = hs.yau_twist(f2e, hs.EvenMap.diagonal(sp11, [4, 2]))
    twist_f.name = "yau_f2_e_diag42"
    emit(twist_f, "yau_f2_e_diag42.json",
         "yau_twist(leibniz_f2_e, diag(4,2))", out_dir)

    aff = hs.HomSuperalgebra(
        sp20, hs.BilinearOp(sp20, entries={(0, 1, 1): 1, (1, 0, 1): -1}),
        hs.EvenMap.identity(sp20), name="lie_aff2")
    emit(aff, "lie_aff2.json", "hand-picked: nonabelian 2-dim bracket",
         out_dir)

    nonl = hs.HomSuperalgebra(
        sp20, hs.BilinearOp(sp20, entries={(0, 0, 0): 1, (0, 0, 1): 1}),
        hs.EvenMap.identity(sp20), name="nonleibniz_a2_ab")
    emit(nonl, "nonleibniz_a2_ab.json", "hand-picked: b1*b1=b1+b2", out_dir)


def searched(out_dir):
    spec = SearchSpec((2, 1), coeffs=("0", "1"), alpha="id", suite="leibniz",
                      max_results=10 ** 6)
    outcome = run_search(spec)
    assert not outcome.partial
    pick = None
    for doc in outcome.documents:
        if len(doc["product"]) >= 3 and any(3 in entry[:3]
                                            for entry in doc["product"]):
            pick = doc
            break
    assert pick is not None, "no suitable (2,1) candidate found"
    index = pick["metadata"]["candidate"]
    algebra = spec.candidate(index)
    algebra.name = "leibniz_2_1_search"
    algebra.metadata = {
        "source": "run_search dims 2,1 coeffs 0,1 alpha id suite leibniz",
        "candidate": index,
        "expected": measure(algebra),
    }
    doc = algebra_to_document(algebra)
    (out_dir / "leibniz_2_1_search.json").write_text(canonical_text(doc),
                                                     encoding="utf-8")
    print("wrote leibniz_2_1_search.json     candidate=%d expected=%s"
          % (index, algebra.metadata["expected"]))


def write_corpus(out_dir=CORPUS):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    hand_picked(out_dir)
    searched(out_dir)


def main(argv):
    """Write the corpus into OUT_DIR, the one optional argument; return the
    exit status."""
    if len(argv) > 1 or any(arg.startswith("-") for arg in argv):
        print(USAGE, file=sys.stderr)
        return 2
    write_corpus(*argv)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
