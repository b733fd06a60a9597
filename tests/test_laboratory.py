import hashlib
import json
from fractions import Fraction as F

import pytest

from powmon import (
    FinSet,
    InvalidInputError,
    NumericalMonoid,
    PowerMonoidView,
    PuiseuxMonoid,
    geometric,
)
from powmon import decompose
from powmon import laboratory as lab


M23 = PuiseuxMonoid([2, 3])
N0 = PuiseuxMonoid([1])


def test_accp_finitely_generated_stabilizes():
    report = lab.accp_chain_search(M23, F(6), 10)
    assert report.stabilizes and report.passed
    assert report.chain_steps == 3  # bounded by the longest factorization of 6
    assert report.chain[0] == "6" and report.chain[-1] == "0"


def test_accp_identity_is_trivial():
    report = lab.accp_chain_search(M23, F(0), 4)
    assert report.stabilizes and report.chain_steps == 0


def test_accp_geometric_chain():
    monoid = geometric(F(2, 3), 5)
    report = lab.accp_chain_search(monoid, F(2), 4)
    assert not report.stabilizes
    assert report.passed
    assert report.chain == ("2", "4/3", "8/9", "16/27")
    assert all(c["singleton_lift_recombines"] for c in report.certificates)
    with pytest.raises(InvalidInputError):
        lab.accp_chain_search(monoid, F(1), 4)  # chain starts at the numerator


def test_accp_on_a_built_geometric_handle_builds_no_table(monkeypatch):
    """The chain is checked in the handle's own truncation, at every depth
    up to its level and past it, with the reports the chain built from a
    fresh truncation at the used depth gave."""
    handles = {level: geometric(F(2, 3), level) for level in (4, 17)}
    builds = []
    build = NumericalMonoid.__dict__["_compute_apery"].__func__

    def counting(gens):
        builds.append(len(gens))
        return build(gens)

    monkeypatch.setattr(NumericalMonoid, "_compute_apery", staticmethod(counting))
    for level, start, depth, digest in (
        (4, None, 4, "ed6f13159951deb456fdc603bcd2eeb8b234a584658b84fe616aff1fc852a8a0"),
        (4, None, 3, "f0528d21a352e37d7f1cf0e3fc66a070dc6d08283968e79d4a21370477587ef0"),
        (4, None, 9, "0b5fa6bee5ff4c2af5765a02bead350a02fa6b4c1744ddbe135199d68494f323"),
        (17, 2, 17, "6db306be7b026ce328eec22d5a8d2853629f43911c9a8345914c4872e374ec5d"),
        (17, None, 5, "e844b9b08fb93649e3cb9f222069d4fa2da89b5f096a95a6278e3761e454bd1d"),
    ):
        report = lab.accp_chain_search(handles[level], start, depth)
        assert report.passed
        encoded = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(encoded.encode()).hexdigest() == digest, (level, depth)
    assert builds == []


def test_accp_step_certificate_is_computed(monkeypatch):
    """Each step's membership is checked, not assumed: a monoid that
    rejects one step gets a false certificate and a failed report."""
    shared = geometric(F(2, 3), 4)
    monoid = PuiseuxMonoid(shared.generators, family=shared.family)
    rejected = F(4, 9)  # the step of n = 2: x_2 - x_3 = 4/3 - 8/9
    contains = monoid.contains
    monkeypatch.setattr(monoid, "contains", lambda q: q != rejected and contains(q))
    report = lab.accp_chain_search(monoid, None, 4)
    steps = {c["step"]: c["step_in_monoid"] for c in report.certificates}
    assert steps == {"2/3": True, "4/9": False, "8/27": True, "16/81": True}
    assert not report.passed


def test_accp_start_defaults_only_on_geometric_handles():
    report = lab.accp_chain_search(geometric(F(2, 3), 5), None, 4)
    assert report.passed and report.chain == ("2", "4/3", "8/9", "16/27")
    with pytest.raises(InvalidInputError):
        lab.accp_chain_search(M23, None, 3)


def test_accp_refuses_a_set_start_on_an_element_handle():
    with pytest.raises(InvalidInputError):
        lab.accp_chain_search(M23, FinSet([0, 2]), 3)


def test_accp_truncates_display_to_requested_depth():
    report = lab.accp_chain_search(M23, F(12), 2)
    assert report.passed and report.chain_steps == 2
    assert report.certificates[0]["longest_proper_chain_steps"] == 6
    assert report.certificates[0]["divisor_dfs_cross_check"] is True


def test_accp_on_prime_sequence_family():
    """Chains certify instantly even where divisor sets are astronomical:
    the bound is the maximum factorization length."""
    from powmon import example33

    monoid = example33(1)
    report = lab.accp_chain_search(monoid, F(4, 5), 5)
    assert report.stabilizes and report.passed
    assert report.chain_steps == 5
    fam = monoid.family
    assert report.certificates[0]["longest_proper_chain_steps"] == fam.prime(4) + 2


def test_accp_power_view():
    view = PowerMonoidView(N0, restricted=True)
    report = lab.accp_chain_search(view, FinSet([0, 1, 2, 3]), 6)
    assert report.stabilizes and report.passed
    assert report.chain_steps == 3


def test_bfm_reports_max_lengths():
    view = PowerMonoidView(N0, restricted=True)
    report = lab.bfm_check(view, [FinSet([0, 1, 2, 3])], 10)
    assert report.passed and not report.failure_candidates
    assert report.rows[0].max_length == 3
    elem = lab.bfm_check(M23, [F(6)], 10)
    assert elem.rows[0].max_length == 3
    atom = lab.bfm_check(M23, [F(2)], 10)
    assert atom.rows[0].max_length == 1


def test_bfm_flags_cap_hits():
    report = lab.bfm_check(M23, [F(12)], 2)
    assert not report.passed
    assert report.rows[0].cap_hit
    assert report.failure_candidates == ("12",)


def test_ffm_counts():
    view = PowerMonoidView(N0, restricted=True)
    report = lab.ffm_check(view, [FinSet([0, 1, 2, 3]), FinSet([0, 1, 2, 3, 4, 5])])
    assert report.passed
    assert report.rows[0].count == 2
    assert report.rows[1].by_length[3] >= 2  # two distinct same-length factorizations
    elem = lab.ffm_check(M23, [F(2)])
    assert elem.rows[0].count == 1


def test_ffm_never_hits_caps_on_restricted_corpus():
    view = PowerMonoidView(N0, restricted=True)
    corpus = [FinSet(range(k + 1)) for k in range(1, 7)]
    bfm = lab.bfm_check(view, corpus, 24)
    assert bfm.passed and not bfm.failure_candidates
    ffm = lab.ffm_check(view, corpus)
    assert ffm.passed


def test_mcd_probe():
    report = lab.mcd_probe(M23, (F(4), F(6)))
    assert report.passed and report.mcds == ("4",)
    assert report.witness is None
    same = lab.mcd_probe(M23, (F(7), F(7)))
    assert same.mcds == ("7",)
    coprime = lab.mcd_probe(M23, (F(2), F(3)))
    assert coprime.mcds == ("0",)


def test_bfm_cap_semantics_on_prime_sequence_family():
    """In the example33 truncation the shortest factorization of 4/5 has
    length p1 + 1 = 128, so small caps flag it and mid caps stay partial."""
    from powmon import example33

    monoid = example33(1)
    below = lab.bfm_check(monoid, [F(4, 5)], 10)
    assert below.rows[0].cap_hit and below.rows[0].lengths == ()
    between = lab.bfm_check(monoid, [F(4, 5)], 200)
    assert between.rows[0].lengths == (128,)
    assert between.rows[0].cap_hit  # the length-12901 factorization was cut


def test_ffm_exact_counts_on_prime_sequence_family():
    from powmon import example33

    monoid = example33(1)
    report = lab.ffm_check(monoid, [F(4, 5), F(6, 7)])
    assert report.passed
    fam = monoid.family
    assert report.rows[0].by_length == {fam.prime(1) + 1: 1, fam.prime(4) + 2: 1}
    assert report.rows[1].by_length == {fam.prime(2) + 1: 1, fam.prime(5) + 2: 1}


def test_mcd_probe_attaches_witness_on_example33():
    from powmon import example33

    report = lab.mcd_probe(example33(1), (F(4, 5), F(6, 7)))
    assert report.passed
    assert report.witness is not None
    assert report.witness.passed


def test_mcd_probe_and_witness_build_no_table(monkeypatch):
    """The probe at level 3 and the witness over levels 0..3 share the family
    handles and answer membership with the solver at every level, so not
    even example33(0), whose multiplicity could be tabled, builds a table."""
    from powmon import puiseux

    builds = []
    build = NumericalMonoid.__dict__["_compute_apery"].__func__

    def counting(gens):
        builds.append(len(gens))
        return build(gens)

    monkeypatch.setattr(NumericalMonoid, "_compute_apery", staticmethod(counting))
    puiseux._example33.cache_clear()
    assert lab.mcd_probe(puiseux.example33(3), (F(4, 5), F(6, 7))).passed
    assert lab.non_2mcd_witness([0, 1, 2, 3]).passed
    assert builds == []


def test_non_2mcd_witness_chain():
    report = lab.non_2mcd_witness([0, 1])
    assert report.passed and report.strictly_increasing
    assert len(report.links) == 2
    assert report.links[0].divisor == F(1, 17)
    assert report.links[1].divisor == F(1, 17) + F(1, 137)
    assert report.links[1].extending_atoms == ("a_1 = 1/137",)
    for link in report.links:
        assert link.is_mcd_at_level
        assert link.residual_checks["divides_4/5"]
        assert link.residual_checks["divides_6/7"]


def test_non_2mcd_witness_validation():
    with pytest.raises(InvalidInputError):
        lab.non_2mcd_witness([])
    with pytest.raises(InvalidInputError):
        lab.non_2mcd_witness([1, 1])
    with pytest.raises(InvalidInputError):
        lab.non_2mcd_witness([2, 1])


def test_atomicity_sweep():
    report = lab.atomicity_sweep(M23, 3, 8)
    assert report.passed and not report.failures
    assert report.checked == sum(report.by_cardinality.values())
    n0 = lab.atomicity_sweep(N0, 2, 6)
    assert n0.passed


def test_atomicity_sweep_reports_a_failure_as_its_set(monkeypatch):
    """A stand-in engine that finds no factorization of {1/2, 1}: the
    report names that set as the sweep always did, str(FinSet(...))."""
    half_third = PuiseuxMonoid([F(1, 2), F(1, 3)])
    engine = decompose._Engine(half_third)
    unfactorable = engine.to_mask(FinSet([F(1, 2), 1]))
    factorable = engine.factorable

    def stand_in(bmask):
        return bmask != unfactorable and factorable(bmask)

    monkeypatch.setattr(engine, "factorable", stand_in)
    monkeypatch.setattr(decompose, "_ENGINES", {half_third: engine})
    report = lab.atomicity_sweep(half_third, 3, 2)
    assert report.failures == (str(FinSet([F(1, 2), 1])),) == ("{1/2, 1}",)
    assert not report.passed
    assert report.summary()[0].endswith("1 without a factorization")
    assert report.to_json()["certificates"] == [{"failures": ["{1/2, 1}"]}]


def test_example33_suite_level1():
    report = lab.example33_suite(1)
    assert report.passed
    assert report.primes[0] == "17"
    assert report.partial_sum_below_2_15
    assert report.members == {"4/5": True, "6/7": True}
    assert report.atom_report.passed
    data = report.to_json()
    assert data["suite"] == "example33" and data["passed"]
    assert isinstance(data["certificates"], list) and data["certificates"]


def test_reports_have_json_and_summaries():
    reports = [
        lab.accp_chain_search(M23, F(6), 3),
        lab.bfm_check(M23, [F(6)], 8),
        lab.ffm_check(M23, [F(6)]),
        lab.mcd_probe(M23, (F(4), F(6))),
        lab.atomicity_sweep(M23, 2, 6),
    ]
    for report in reports:
        data = report.to_json()
        assert "passed" in data
        assert any(key in data for key in ("certificates", "chain"))
        assert all(isinstance(line, str) for line in report.summary())
