"""The four workloads of the homsuper benchmark.

A workload turns a seed into one *pass*: a list of jobs in seeded order,
with its input documents written to a work directory.  The runner repeats
the pass back to back.  Each workload provides

    round_jobs                jobs per round, the unit over which the runner
                              takes its medians
    run(job)                  the timed call into the package's public API
    fingerprint(job, output)  canonical text of the job's verdicts and
                              output documents; counters and timings stay
                              out, so a report that gains statistics fields
                              keeps its fingerprint
    check(job, output)        problems an independent oracle (oracle.py,
                              built on tests/naive.py) finds in the output

Shapes (dimensions, pool sizes, job counts) are fixed for every seed, so
runs with different seeds do the same amount of work; the seed picks the
structure constants, twisting maps and job order.  The pass of search,
verify and derive is SETS rounds of 40 jobs, each round a fresh draw of
inputs of the same shapes, so that a run's median over rounds averages over
several draws instead of one.  Anchor jobs have the same input for every
seed and appear in every round; the digest of their fingerprints is
compared with digests.json.
"""

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction

import homsuper as hs
from homsuper import cli, constructions, freealg, search, serialize

import oracle

NONZERO = ("-2", "-1", "1", "2", "1/2", "-1/2", "3")
DIAGONAL = ("1", "-1", "2", "1/2", "-2", "3")
SETS = 3


class Job:
    __slots__ = ("key", "spec", "anchor")

    def __init__(self, key, spec, anchor=False):
        self.key = key
        self.spec = spec
        self.anchor = anchor


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(data):
    return json.dumps(data, sort_keys=True, ensure_ascii=False)


def input_digest(inputs, jobs):
    """Digest of the generated inputs and the job order of a pass."""
    return sha256(canonical({"inputs": inputs,
                             "order": [job.key for job in jobs]}))


def anchor_digest(fingerprints):
    """Digest of the anchor jobs' fingerprints, independent of job order."""
    return sha256(canonical(sorted(fingerprints.items())))


def _shuffled(rng, jobs):
    jobs = list(jobs)
    rng.shuffle(jobs)
    return jobs


def _histogram(values):
    return dict(sorted(Counter(values).items()))


def _listify(table):
    if isinstance(table, (tuple, list)):
        return [_listify(t) for t in table]
    return table


def _diagonal_values(rng, n):
    values = [rng.choice(DIAGONAL) for _ in range(n)]
    if all(v == "1" for v in values):
        values[0] = "2"
    return values


def _program_algebra(raw, name, metadata):
    """The package's algebra object for a RawAlgebra."""
    space = hs.SuperSpace(*raw.dims)
    algebra = hs.HomSuperalgebra(space,
                                 hs.BilinearOp(space, entries=raw.entries()),
                                 hs.EvenMap(space, raw.rows), name=name)
    algebra.metadata = metadata
    return algebra


# --------------------------------------------------------------------------
# search: many tiny algebras, each decided with first_only early exit

# One round: (dims, coefficient-pool size including 0, diagonal-pool size
# or None for alpha=id, plans).  The seed picks the pool values.  With the
# two anchors a round has 40 plans in four size classes (64-81, 256, 324
# and 625-1024 candidates), so that the median and the 11th slowest plan
# fall inside a class rather than on the edge between two.
SEARCH_MENU = (
    ((1, 1), 3, None, 6),
    ((1, 1), 2, 2, 7),
    ((1, 1), 4, None, 6),
    ((2, 0), 2, None, 5),
    ((1, 1), 3, 2, 8),
    ((1, 1), 5, None, 3),
    ((2, 0), 2, 2, 3),
)
# Rejected candidates per plan that the gate re-decides.
SEARCH_SAMPLE = 32
# Plans in the style of acceptance criterion 4, the same for every seed.
SEARCH_ANCHORS = (
    {"dims": [1, 1], "coeffs": ["-1", "0", "1"], "alpha": "id"},
    {"dims": [2, 0], "coeffs": ["0", "1"], "alpha": "id"},
)


class SearchWorkload:
    name = "search"
    round_jobs = 40

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = random.Random("search:%d" % seed)
        anchors = [Job("anchor%d" % i, dict(plan), anchor=True)
                   for i, plan in enumerate(SEARCH_ANCHORS)]
        plans = [job.spec for job in anchors]
        self.jobs = []
        for _ in range(SETS):
            jobs = list(anchors)
            for dims, pool, diagonal, count in SEARCH_MENU:
                for _ in range(count):
                    coeffs = ["0"] + rng.sample(NONZERO, pool - 1)
                    rng.shuffle(coeffs)
                    alpha = ("id" if diagonal is None
                             else rng.sample(DIAGONAL, diagonal))
                    plan = {"dims": list(dims), "coeffs": coeffs,
                            "alpha": alpha}
                    jobs.append(Job("plan%03d" % len(plans), plan))
                    plans.append(plan)
            self.jobs += _shuffled(rng, jobs)
        text = json.dumps(plans, indent=1, sort_keys=True) + "\n"
        (workdir / "plans.json").write_text(text, encoding="utf-8")
        self.input_digest = input_digest(text, self.jobs)
        sizes = [oracle.space_size(job.spec) for job in self.jobs]
        id_candidates = sum(size for size, job in zip(sizes, self.jobs)
                            if job.spec["alpha"] == "id")
        self.properties = {
            "jobs_per_pass": len(self.jobs),
            "candidates_per_pass": sum(sizes),
            "alpha_id_share": id_candidates / sum(sizes),
            "dims": _histogram("%d|%d" % tuple(job.spec["dims"])
                               for job in self.jobs),
            "nonzero_pool_values": _histogram(
                sum(1 for c in job.spec["coeffs"] if Fraction(c) != 0)
                for job in self.jobs),
            "suite": "leibniz",
        }

    def run(self, job):
        plan = job.spec
        spec = search.SearchSpec(plan["dims"], plan["coeffs"], plan["alpha"],
                                 "leibniz", max_results=10 ** 6)
        return search.run_search(spec)

    def fingerprint(self, job, outcome):
        documents = [{key: doc[key] for key in ("name", "kind", "dims",
                                                "product", "alpha")}
                     for doc in outcome.documents]
        for stable, doc in zip(documents, outcome.documents):
            stable["candidate"] = doc["metadata"]["candidate"]
            stable["expected"] = doc["metadata"]["expected"]
        return canonical({"partial": outcome.partial, "documents": documents})

    def check(self, job, outcome):
        """Every hit, and a seeded sample of the rejected candidates, is
        re-decided with the naive oracle; each hit document must describe
        its candidate."""
        plan = job.spec
        problems = []
        if outcome.partial:
            problems.append("scan was partial")
        dims = tuple(plan["dims"])
        found = [doc["metadata"]["candidate"] for doc in outcome.documents]
        if found != sorted(set(found)):
            problems.append("hits are not in increasing candidate order")
        for doc in outcome.documents:
            index = doc["metadata"]["candidate"]
            want = oracle.decode_candidate(plan, index)
            got = oracle.raw_from_document(doc)
            if (doc["name"] != "search_%d_%d_%d" % (dims + (index,))
                    or got.table != want.table or got.rows != want.rows
                    or doc["metadata"]["expected"] != {"leibniz": True}):
                problems.append("hit document %s does not describe "
                                "candidate %d" % (doc["name"], index))
            elif not oracle.is_leibniz(want):
                problems.append("hit %d is not left Leibniz" % index)
        rejected = sorted(set(range(oracle.space_size(plan))) - set(found))
        rng = random.Random("search-sample:%d:%s" % (self.seed, job.key))
        for index in rng.sample(rejected, min(SEARCH_SAMPLE, len(rejected))):
            if oracle.is_leibniz(oracle.decode_candidate(plan, index)):
                problems.append("missed hit %d" % index)
        return problems

    def output_counts(self, outcome):
        return {}


# --------------------------------------------------------------------------
# verify: the CLI over larger documents, full scans, every witness recorded

# (dims, documents) of the seeded documents of one round, every other one
# with a diagonal alpha; 2n nonzero constants on allowed slots.  With the 8
# corpus documents a round has 40 jobs; the median falls among the
# 4-dimensional documents and the 11th slowest among the 5-dimensional ones.
VERIFY_SHAPES = (((2, 1), 3), ((1, 2), 3), ((2, 2), 4), ((3, 1), 4),
                 ((1, 3), 4), ((3, 2), 4), ((2, 3), 4), ((4, 2), 3),
                 ((3, 3), 3))


class VerifyWorkload:
    name = "verify"
    round_jobs = 40

    def __init__(self, seed, workdir):
        rng = random.Random("verify:%d" % seed)
        self.raw = {}
        self.paths = {}
        anchors = []
        texts = []
        for path in hs.corpus_paths():
            self.paths[path.name] = path
            texts.append((path.name, path.read_text(encoding="utf-8")))
            anchors.append(Job(path.name, path, anchor=True))
        self.jobs = []
        for _ in range(SETS):
            jobs = list(anchors)
            for dims, count in VERIFY_SHAPES:
                for _ in range(count):
                    number = len(self.raw)
                    n = dims[0] + dims[1]
                    table = oracle.empty_table(n)
                    for i, j, k in rng.sample(oracle.allowed_slots(dims),
                                              2 * n):
                        table[i][j][k] = Fraction(rng.choice(NONZERO))
                    values = ([1] * n if number % 2 == 0
                              else _diagonal_values(rng, n))
                    raw = oracle.RawAlgebra(dims, table,
                                            oracle.diagonal_rows(values))
                    name = "seeded_%03d_%d_%d" % (number, dims[0], dims[1])
                    path = workdir / (name + ".json")
                    serialize.save_algebra(_program_algebra(
                        raw, name,
                        {"source": "perfbench verify seed %d" % seed}), path)
                    self.raw[path.name] = raw
                    self.paths[path.name] = path
                    texts.append((path.name,
                                  path.read_text(encoding="utf-8")))
                    jobs.append(Job(path.name, path))
            self.jobs += _shuffled(rng, jobs)
        self.input_digest = input_digest(texts, self.jobs)
        seeded = list(self.raw.values())
        self.properties = {
            "jobs_per_pass": len(self.jobs),
            "corpus_documents": len(anchors),
            "seeded_dims": _histogram("%d|%d" % raw.dims for raw in seeded),
            "nonzero_constants": _histogram(len(raw.entries())
                                            for raw in seeded),
            "alpha_id_share": sum(raw.alpha_is_identity() for raw in seeded)
                              / len(seeded),
            "suite": "all",
        }
        # Filled in by the gate, from the oracle: key -> left Leibniz.
        self.leibniz = {}

    def run(self, job):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", str(job.spec), "--suite", "all",
                             "--report", "json"])
        return code, out.getvalue()

    @staticmethod
    def records(output):
        return [json.loads(line) for line in output[1].splitlines()]

    def fingerprint(self, job, output):
        code, _ = output
        stable = [{key: record[key] for key in ("name", "passed",
                                                "counterexamples_total",
                                                "counterexamples")}
                  for record in self.records(output)]
        return canonical({"file": job.key, "exit": code, "records": stable})

    def check(self, job, output):
        code, _ = output
        records = {r["name"]: r for r in self.records(output)}
        if code != (0 if all(r["passed"] for r in records.values()) else 1):
            return ["exit code %r does not match the records" % code]
        if job.key in self.raw:
            problems = self._check_seeded(job.key, records)
        else:
            problems = self._check_expected(job, records)
        self.properties["leibniz_share"] = (sum(self.leibniz.values())
                                            / len(self.leibniz))
        return problems

    def _check_expected(self, job, records):
        """Corpus documents: suite verdicts equal metadata.expected."""
        doc = json.loads(self.paths[job.key].read_text(encoding="utf-8"))
        self.leibniz[job.key] = doc["metadata"]["expected"]["leibniz"]
        suites = {"multiplicativity": ("multiplicativity",),
                  "leibniz": ("grading", "multiplicativity", "LLSI"),
                  "lie": ("grading", "multiplicativity", "SKEW_SUPER",
                          "HOM_SUPER_JACOBI")}
        problems = []
        for suite, want in doc["metadata"]["expected"].items():
            got = all(records[name]["passed"] for name in suites[suite])
            if got != want:
                problems.append("%s: %s verdict %s, expected %s"
                                % (job.key, suite, got, want))
        return problems

    def _check_seeded(self, key, records):
        """Seeded documents: each naive failure count equals the number of
        witnesses the report recorded."""
        nv = oracle.naive()
        raw = self.raw[key]
        want = {
            "grading": 0 if oracle.graded(raw) else None,
            "multiplicativity": oracle.multiplicativity_failures(raw),
            "LLSI": oracle.llsi_failures(raw),
            "SKEW_SUPER": oracle.residual_failures(nv.skew_residual, raw, 2),
            "HOM_SUPER_JACOBI": oracle.residual_failures(nv.jacobi_residual,
                                                         raw, 3),
        }
        self.leibniz[key] = not any(want[name] != 0 for name in (
            "grading", "multiplicativity", "LLSI"))
        problems = []
        for name, failures in want.items():
            record = records.get(name)
            if (record is None or record["counterexamples_total"] != failures
                    or record["passed"] != (failures == 0)):
                problems.append("%s: report %s, naive failures %s"
                                % (name, record and (
                                    record["passed"],
                                    record["counterexamples_total"]),
                                   failures))
        return problems

    def output_counts(self, output):
        return {"cli.bytes_out": len(output[1].encode("utf-8"))}


# --------------------------------------------------------------------------
# derive: binary-ternary constructions on left Leibniz direct sums

# (total dims, inputs) of the seeded inputs of one round; the purely even
# ones are also checked against the sign-free SHLY5 and SHLY7 oracles.  With
# the two anchors a round has 4 inputs of dimension 2, 32 of dimension 3
# (all with an odd part, which cost alike) and 4 of dimension 4, so the
# median and the 11th slowest job both fall well inside the 3-dimensional
# ones.
DERIVE_SHAPES = (((2, 0), 2), ((1, 1), 2), ((2, 1), 15), ((1, 2), 16),
                 ((4, 0), 1), ((3, 1), 1), ((2, 2), 1))
# Corpus blocks summed into the anchor inputs, the same for every seed.
DERIVE_ANCHORS = (("leibniz_2_1_search",),
                  ("yau_f2_e_diag42", "leibniz_a2_b"))


def direct_sum(blocks):
    """Direct sum of RawAlgebras, basis reordered even-then-odd."""
    even = sum(b.dims[0] for b in blocks)
    odd = sum(b.dims[1] for b in blocks)
    n = even + odd
    table = oracle.empty_table(n)
    rows = [[Fraction(0)] * n for _ in range(n)]
    next_even, next_odd = 0, even
    for block in blocks:
        place = []
        for i in range(block.n):
            if i < block.dims[0]:
                place.append(next_even)
                next_even += 1
            else:
                place.append(next_odd)
                next_odd += 1
        for (i, j, k), value in block.entries().items():
            table[place[i]][place[j]][place[k]] = value
        for i in range(block.n):
            for k in range(block.n):
                rows[place[i]][place[k]] = block.rows[i][k]
    return oracle.RawAlgebra((even, odd), table, rows)


def _diagonal_endomorphisms(raw):
    """Non-identity diagonal maps over DIAGONAL that are endomorphisms of
    the product: d_k = d_i d_j wherever c[i][j][k] != 0."""
    values = [Fraction(v) for v in DIAGONAL]
    found = []

    def extend(prefix):
        if len(prefix) == raw.n:
            if any(d != 1 for d in prefix) and all(
                    prefix[k] == prefix[i] * prefix[j]
                    for (i, j, k) in raw.entries()):
                found.append(list(prefix))
            return
        for value in values:
            extend(prefix + [value])

    extend([])
    return found


def leibniz_blocks():
    """Nonzero left Leibniz blocks, decided by the naive oracle so that a
    faulty package cannot change the inputs: the corpus ones and the
    candidates of two small search plans (named as run_search names its
    hits), plus the 1-dimensional zero blocks."""
    blocks = {}
    for path in hs.corpus_paths():
        raw = oracle.raw_from_document(
            json.loads(path.read_text(encoding="utf-8")))
        if raw.entries() and oracle.is_leibniz(raw):
            blocks[path.stem] = raw
    for plan in SEARCH_ANCHORS:
        for index in range(oracle.space_size(plan)):
            raw = oracle.decode_candidate(plan, index)
            if raw.entries() and oracle.is_leibniz(raw):
                blocks["search_%d_%d_%d" % (raw.dims + (index,))] = raw
    zeros = [oracle.RawAlgebra(dims, oracle.empty_table(1),
                               oracle.diagonal_rows([1]))
             for dims in ((1, 0), (0, 1))]
    return blocks, zeros


class DeriveWorkload:
    name = "derive"
    round_jobs = 40

    def __init__(self, seed, workdir):
        rng = random.Random("derive:%d" % seed)
        blocks, zeros = leibniz_blocks()
        pool = [blocks[name] for name in sorted(blocks)]
        self.outdir = workdir / "derived"
        self.outdir.mkdir()
        self.raw = {}
        self.texts = []
        anchors = [self._write(workdir, "anchor_%02d" % i,
                               [blocks[name] for name in names], True)
                   for i, names in enumerate(DERIVE_ANCHORS)]
        self.jobs = []
        for _ in range(SETS):
            jobs = list(anchors)
            for shape, count in DERIVE_SHAPES:
                for _ in range(count):
                    jobs.append(self._write(
                        workdir, "seeded_%03d" % len(self.raw),
                        self._fill(rng, pool, zeros, shape), False))
            self.jobs += _shuffled(rng, jobs)
        self.input_digest = input_digest(self.texts, self.jobs)
        raws = [self.raw[job.key] for job in self.jobs]
        self.properties = {
            "jobs_per_pass": len(self.jobs),
            "dims": _histogram("%d|%d" % raw.dims for raw in raws),
            "nonzero_constants": _histogram(len(raw.entries())
                                            for raw in raws),
            "alpha_id_share": sum(raw.alpha_is_identity() for raw in raws)
                              / len(raws),
            "purely_even_share": sum(raw.dims[1] == 0 for raw in raws)
                                 / len(raws),
            "leibniz_share": 1.0,
        }

    def _write(self, workdir, name, parts, anchor):
        """Write the direct sum of `parts` (the gate confirms that it is
        left Leibniz)."""
        raw = direct_sum(parts)
        path = workdir / (name + ".json")
        serialize.save_algebra(
            _program_algebra(raw, name, {"source": "direct sum"}), path)
        self.raw[path.name] = raw
        self.texts.append((path.name, path.read_text(encoding="utf-8")))
        return Job(path.name, path, anchor=anchor)

    @staticmethod
    def _fill(rng, pool, zeros, shape):
        """Blocks whose dims add up to `shape`, nonzero ones first; each
        untwisted block is Yau-twisted with probability one half."""
        even, odd = shape
        parts = []
        while (even, odd) != (0, 0):
            fits = [b for b in pool if b.dims[0] <= even and b.dims[1] <= odd]
            block = rng.choice(fits or [z for z in zeros
                                        if z.dims[0] <= even
                                        and z.dims[1] <= odd])
            if fits and block.alpha_is_identity() and rng.random() < 0.5:
                maps = _diagonal_endomorphisms(block)
                if maps:
                    block = _yau_twist(block, rng.choice(maps))
            parts.append(block)
            even -= block.dims[0]
            odd -= block.dims[1]
        return parts

    def run(self, job):
        algebra = serialize.load_algebra(job.spec)
        ly = constructions.build_hom_ly(algebra, verify=True)
        akivis = constructions.build_hom_akivis(algebra, verify=True)
        admissible = constructions.check_lie_admissible(algebra)
        equivalence = constructions.check_ternary_equivalence(algebra)
        serialize.save_algebra(ly, self.outdir / job.key)
        return ly, akivis, admissible.passed, equivalence.passed

    def fingerprint(self, job, output):
        ly, akivis, admissible, equivalence = output
        return canonical({
            "ly": serialize.algebra_to_document(ly),
            "akivis": serialize.algebra_to_document(akivis),
            "lie_admissible": admissible,
            "ternary_equivalence": equivalence,
        })

    def check(self, job, output):
        ly, akivis, admissible, equivalence = output
        raw = self.raw[job.key]
        bracket = oracle.commutator_table(raw)
        ternary = oracle.ly_ternary_table(raw)
        problems = []
        if not oracle.is_leibniz(raw):
            problems.append("generated input is not left Leibniz")
        if not equivalence:
            problems.append("ternary equivalence failed on a Leibniz input")
        if admissible != oracle.lie_admissible(raw):
            problems.append("Lie-admissibility verdict %s disagrees with the "
                            "naive Jacobi check" % admissible)
        if (_listify(ly.binary.table) != bracket
                or _listify(ly.ternary.table) != ternary
                or _listify(ly.alpha.rows) != raw.rows):
            problems.append("LY structure differs from its definition")
        if (_listify(akivis.binary.table) != bracket
                or _listify(akivis.ternary.table)
                != oracle.associator_table(raw)):
            problems.append("Akivis structure differs from its definition")
        if raw.dims[1] == 0 and not oracle.shly5_shly7_hold(bracket, ternary,
                                                             raw.rows):
            problems.append("derived structure fails naive SHLY5/SHLY7")
        return problems

    def output_counts(self, output):
        return {}


def _yau_twist(raw, diagonal):
    """x *' y = beta(x*y) with twisting map beta = diag(diagonal)."""
    n = raw.n
    table = [[[diagonal[k] * raw.table[i][j][k] for k in range(n)]
              for j in range(n)] for i in range(n)]
    return oracle.RawAlgebra(raw.dims, table, oracle.diagonal_rows(diagonal))


# --------------------------------------------------------------------------
# prove: the rewriting prover on every target, no numeric kernel

class ProveWorkload:
    name = "prove"
    # Four passes of the nine targets: the median falls on shly5 and the
    # 11th slowest job on shly7, each repeated four times.
    round_jobs = 36

    def __init__(self, seed, workdir):
        rng = random.Random("prove:%d" % seed)
        targets = list(freealg.PROOF_TARGETS)
        self.jobs = _shuffled(rng, [Job(t, t, anchor=True) for t in targets])
        text = canonical([job.key for job in self.jobs])
        (workdir / "targets.json").write_text(text + "\n", encoding="utf-8")
        self.input_digest = input_digest(targets, self.jobs)
        self.properties = {"jobs_per_pass": len(targets)}

    def run(self, job):
        return freealg.prove_identity_free(job.spec)

    def fingerprint(self, job, report):
        record = report.to_dict()
        return canonical({key: record[key] for key in (
            "name", "passed", "verdict", "counterexamples")})

    def check(self, job, report):
        if report.extra.get("verdict") != "PROVED" or not report.passed:
            return ["%s: %s" % (job.key, report.extra.get("verdict"))]
        return []

    def output_counts(self, report):
        return {}


WORKLOADS = {w.name: w for w in (SearchWorkload, VerifyWorkload,
                                 DeriveWorkload, ProveWorkload)}


def generate(name, seed, workdir):
    """Build workload `name` for `seed`, writing its inputs to workdir."""
    return WORKLOADS[name](seed, workdir)
