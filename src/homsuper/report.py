"""Pass/fail reports shared by the structural checks, the identity checker
and the symbolic prover.

A report never raises on failure: a failed law is an outcome, not an error.
Counterexamples are kept in full; only rendering is capped.
"""

# Default number of counterexamples shown when rendering a report.
DISPLAY_CAP = 16


class Report:
    """Outcome of one check: a name, a verdict and the witnesses against it.

    counterexamples is a list of JSON-ready dicts (the payload shape depends
    on the check that produced the report).  checked counts how many cases
    were examined; with early abort it is the number examined before the
    first failure.
    """

    def __init__(self, name, passed, checked, counterexamples=(), extra=None):
        self.name = name
        self.passed = bool(passed)
        self.checked = checked
        self.counterexamples = list(counterexamples)
        self.extra = dict(extra or {})

    def __bool__(self):
        return self.passed

    def __repr__(self):
        return "Report(%r, %s, checked=%d, counterexamples=%d)" % (
            self.name, "pass" if self.passed else "FAIL",
            self.checked, len(self.counterexamples))

    def summary(self, cap=DISPLAY_CAP):
        verdict = "PASS" if self.passed else "FAIL"
        line = "%s %s (checked %d)" % (verdict, self.name, self.checked)
        if not self.passed and self.counterexamples:
            shown = self.counterexamples[:cap]
            line += " counterexamples: " + "; ".join(
                _render_counterexample(c) for c in shown)
            omitted = len(self.counterexamples) - len(shown)
            if omitted > 0:
                line += " (+%d more)" % omitted
        return line

    def to_dict(self, cap=DISPLAY_CAP):
        d = {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "counterexamples_total": len(self.counterexamples),
            "counterexamples": self.counterexamples[:cap],
        }
        d.update(self.extra)
        return d


def _render_counterexample(c):
    if "tuple" in c:
        parts = ",".join(c["tuple"])
        rest = {k: v for k, v in c.items() if k != "tuple"}
        return "(%s) -> %s" % (parts, rest.get("residual", rest))
    return repr(c)
