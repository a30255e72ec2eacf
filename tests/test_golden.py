"""Golden outputs: the prover's reports and expansions, the constructed
documents and their logs, `verify` over the corpus, the ternary equivalence
reports, the derived ternary tables, the admissibility reports, the
refusals of the constructions and `search` on a few plans must stay
byte-identical.

`golden.json` holds the sha256 digests of these outputs as the code
produced them before the derived operations were declared once, in
`identities.DERIVED` (the admissibility reports and refusals: before the
constructions read their laws from the tensor; the searches: before
witnesses were read off the monomials).  Refactors must not move them.
When an output is meant to change, print the new digests with

    PYTHONPATH=src python tests/test_golden.py

and review the difference before writing them into `golden.json`.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
from pathlib import Path

import pytest

import homsuper as hs
from homsuper import cli, constructions
from homsuper import freealg as fa
from conftest import non_admissible_witnesses

GOLDEN = Path(__file__).with_name("golden.json")


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return "exit %d\n%s--- stderr\n%s" % (code, out.getvalue(), err.getvalue())


@contextlib.contextmanager
def _cwd(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def prove_digests():
    return {target: _digest(_run_cli(["prove", target, "--report", "json"]))
            for target in fa.PROOF_TARGETS}


def expansion_digests():
    """Every obligation's free expansion, for every parity assignment, before
    normalization."""
    digests = {}
    for target in fa.PROOF_TARGETS:
        rendered = []
        for identity, structure, _ in fa.TARGETS[target]:
            names = identity.variables
            for combo in itertools.product((0, 1), repeat=len(names)):
                parities = dict(zip(names, combo))
                rendered.append(fa.expand_template(
                    identity, parities, structure=structure).rendered())
        digests[target] = _digest(json.dumps(rendered))
    return digests


def construct_digests(workdir):
    """Document and log of `construct` for each corpus file and target, run
    inside workdir so that no absolute path enters the output."""
    digests = {}
    with _cwd(workdir):
        for path in hs.corpus_paths():
            for target in ("akivis", "ly"):
                out = "%s_%s" % (target, path.name)
                log = _run_cli(["construct", str(path), "--target", target,
                                "--out", out, "--report", "json"])
                document = Path(out).read_text(encoding="utf-8") \
                    if Path(out).exists() else None
                digests["%s/%s" % (target, path.name)] = {
                    "log": _digest(log),
                    "document": document and _digest(document)}
    return digests


def verify_digest():
    names = [path.name for path in hs.corpus_paths()]
    with _cwd(hs.corpus_dir()):
        return _digest(_run_cli(["verify", *names, "--suite", "all",
                                 "--report", "json"]))


# The four plans of the acceptance search, a diagonal-map plan stopped by
# the result cap, and a capped plan of the lie suite.
SEARCH_PLANS = (
    ("--dims", "2,0", "--coeffs=-1,0,1"),
    ("--dims", "1,1", "--coeffs=-2,-1,0,1,2"),
    ("--dims", "1,2", "--coeffs", "0,1"),
    ("--dims", "2,1", "--coeffs", "0,1"),
    ("--dims", "1,1", "--coeffs=-1,0,1", "--alpha", "diag:0,-1,2,1/2"),
    ("--dims", "2,0", "--suite", "lie", "--max", "3"),
)


def search_digests():
    """`search --report json` on each plan: every hit, in order, and the
    number of candidates examined."""
    return {" ".join(plan): _digest(_run_cli(["search", *plan,
                                              "--report", "json"]))
            for plan in SEARCH_PLANS}


def _full_report(report):
    return json.dumps({"name": report.name, "passed": report.passed,
                       "checked": report.checked,
                       "counterexamples": report.counterexamples},
                      sort_keys=True)


def ternary_equivalence_digests():
    return {path.name: _digest(_full_report(
                constructions.check_ternary_equivalence(algebra)))
            for path, algebra in _corpus()
            if algebra.metadata["expected"].get("leibniz")}


def table_digests():
    return {path.name: {
                "hom_associator": _digest(repr(
                    constructions.hom_associator(algebra).constants)),
                "hom_super_jacobian": _digest(repr(
                    constructions.hom_super_jacobian(algebra).constants))}
            for path, algebra in _corpus()}


def admissibility_digests():
    """check_lie_admissible on the corpus Leibniz algebras and on the two
    non-admissible witnesses, every counterexample kept."""
    algebras = [(path.name, algebra) for path, algebra in _corpus()
                if algebra.metadata["expected"].get("leibniz")]
    algebras += [(algebra.name, algebra)
                 for algebra in non_admissible_witnesses()]
    return {name: _digest(json.dumps(
                constructions.check_lie_admissible(algebra).to_dict(cap=None),
                sort_keys=True))
            for name, algebra in algebras}


def refusal_digests():
    """The PreconditionError texts of build_hom_ly, check_lie_admissible
    and yau_twist (by the identity map) on the non-Leibniz corpus
    algebras."""
    calls = {"build_hom_ly": constructions.build_hom_ly,
             "check_lie_admissible": constructions.check_lie_admissible,
             "yau_twist": lambda algebra: constructions.yau_twist(
                 algebra, hs.EvenMap.identity(algebra.space))}
    digests = {}
    for path, algebra in _corpus():
        if algebra.metadata["expected"].get("leibniz"):
            continue
        for name, call in calls.items():
            with pytest.raises(constructions.PreconditionError) as err:
                call(algebra)
            digests["%s/%s" % (name, path.name)] = _digest(str(err.value))
    return digests


def _corpus():
    return [(path, hs.load_algebra(path)) for path in hs.corpus_paths()]


def all_digests(workdir):
    return {"prove": prove_digests(),
            "expansions": expansion_digests(),
            "construct": construct_digests(workdir),
            "verify": verify_digest(),
            "ternary_equivalence": ternary_equivalence_digests(),
            "tables": table_digests(),
            "admissibility": admissibility_digests(),
            "refusals": refusal_digests(),
            "search": search_digests()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_prove_reports_are_golden(golden):
    assert prove_digests() == golden["prove"]


def test_prover_expansions_are_golden(golden):
    assert expansion_digests() == golden["expansions"]


def test_construct_documents_and_logs_are_golden(golden, tmp_path):
    assert construct_digests(tmp_path) == golden["construct"]


def test_verify_over_the_corpus_is_golden(golden):
    assert verify_digest() == golden["verify"]


def test_ternary_equivalence_reports_are_golden(golden):
    assert ternary_equivalence_digests() == golden["ternary_equivalence"]


def test_derived_tables_are_golden(golden):
    assert table_digests() == golden["tables"]


def test_admissibility_reports_are_golden(golden):
    assert admissibility_digests() == golden["admissibility"]


def test_construction_refusals_are_golden(golden):
    assert refusal_digests() == golden["refusals"]


def test_search_output_is_golden(golden):
    assert search_digests() == golden["search"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        print(json.dumps(all_digests(workdir), indent=1, sort_keys=True))
