"""Exact-message coverage for the ``determinism`` rule."""

from tests.analysis.helpers import lint_fixture, rule_findings

ENTROPY = ("is nondeterministic; fingerprint-covered modules must "
           "compute results purely from (spec, sources)")


class TestDeterminismFixture:
    def setup_method(self):
        self.findings = lint_fixture("det_bad.py")
        self.determinism = rule_findings(self.findings, "determinism")

    def test_entropy_sources(self):
        assert (16, f"time.time {ENTROPY}") in self.determinism
        assert (20, f"datetime.datetime.now {ENTROPY}") \
            in self.determinism
        assert (24, f"os.urandom {ENTROPY}") in self.determinism

    def test_global_rng(self):
        assert (28, "random.random uses the process-global unseeded "
                    "RNG; use a random.Random(seed) instance derived "
                    "from the spec") in self.determinism

    def test_unseeded_constructor(self):
        assert (32, "random.Random() without an explicit seed is "
                    "nondeterministic; pass a seed derived from the "
                    "spec") in self.determinism

    def test_numpy_global_rng(self):
        assert (40, "numpy.random.rand uses numpy's global RNG; use "
                    "numpy.random.default_rng(seed) derived from the "
                    "spec") in self.determinism

    def test_set_iteration(self):
        order = ("iterates a set, whose order is randomized per "
                 "process (PYTHONHASHSEED); iterate sorted(...) "
                 "instead")
        assert (49, f"for loop {order}") in self.determinism
        assert (55, f"comprehension {order}") in self.determinism

    def test_list_of_set(self):
        assert (59, "list() of a set depends on hash order, which is "
                    "randomized per process; sort it with "
                    "sorted(...) instead") in self.determinism

    def test_seeded_and_sorted_sites_are_clean(self):
        flagged_lines = {line for line, _ in self.determinism}
        # random.Random(seed), default_rng(seed) and sorted({...})
        assert not flagged_lines & {36, 44, 63}

    def test_justified_pragma_suppresses_its_line(self):
        assert 67 not in {line for line, _ in self.determinism}

    def test_unjustified_pragma_keeps_the_finding(self):
        lines = {line for line, _ in self.determinism}
        assert 70 in lines  # allow() without a reason
        pragma = rule_findings(self.findings, "pragma")
        assert any(line == 70 and "has no justification" in message
                   for line, message in pragma)

    def test_exact_finding_count(self):
        # Everything intended, nothing else: 9 bad sites + 3 sites
        # whose pragmas are invalid (unjustified/unknown/malformed).
        assert len(self.determinism) == 12


def test_deferred_numpy_import_is_still_resolved():
    assert lint_fixture("det_deferred.py") == [
        (11, "determinism",
         "numpy.random.default_rng() without an explicit seed is "
         "nondeterministic; pass a seed derived from the spec")]
