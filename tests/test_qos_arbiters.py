"""Unit tests for output-port arbitration policies."""

import pytest

from repro.transport.qos import (
    AgeArbiter,
    Candidate,
    PriorityArbiter,
    RoundRobinArbiter,
    make_arbiter,
)


def cand(port, priority=0, age=0):
    return Candidate(port=port, priority=priority, age=age)


class TestRoundRobin:
    def test_rotates_fairly(self):
        arb = RoundRobinArbiter()
        candidates = [cand("a"), cand("b"), cand("c")]
        winners = [arb.pick("out", candidates).port for __ in range(6)]
        assert winners == ["a", "b", "c", "a", "b", "c"]

    def test_least_recently_granted_across_subsets(self):
        """Rotation state is fair across *filtered* candidate subsets:
        after {a, b} -> a and {c} -> c, the next {a, b} contest must go
        to b (never granted), not back to a."""
        arb = RoundRobinArbiter()
        assert arb.pick("out", [cand("a"), cand("b")]).port == "a"
        assert arb.pick("out", [cand("c")]).port == "c"
        assert arb.pick("out", [cand("a"), cand("b")]).port == "b"
        assert arb.pick("out", [cand("a"), cand("b")]).port == "a"

    def test_per_output_state(self):
        arb = RoundRobinArbiter()
        assert arb.pick("o1", [cand("a"), cand("b")]).port == "a"
        assert arb.pick("o2", [cand("a"), cand("b")]).port == "a"

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter().pick("out", [])

    def test_no_starvation_under_alternating_subsets(self):
        """The old "first port after the last winner" pointer starved a
        middle port forever when contests alternated between subsets on
        either side of it ({a, b} then {c}: winners went a, c, a, c, …
        and b never won).  Least-recently-granted serves every
        persistent contender."""
        arb = RoundRobinArbiter()
        wins = {"a": 0, "b": 0, "c": 0}
        for round_no in range(300):
            subset = [cand("a"), cand("b")] if round_no % 2 == 0 else [cand("c")]
            wins[arb.pick("out", subset).port] += 1
        assert all(count > 0 for count in wins.values())
        assert wins["a"] == wins["b"]  # the {a, b} contests split evenly

    def test_priority_arbiter_fair_on_filtered_subsets(self):
        """PriorityArbiter delegates the tie-break to _round_robin on a
        *subset* (the priority winners); rotation must stay fair when
        that subset changes shape between contests."""
        arb = PriorityArbiter()
        wins = {"a": 0, "b": 0}
        for round_no in range(200):
            # c outranks everyone in odd rounds, so the tie-break subset
            # alternates between {a, b} and {c}.
            if round_no % 2 == 0:
                subset = [cand("a", 1), cand("b", 1)]
            else:
                subset = [cand("a", 1), cand("b", 1), cand("c", 5)]
            winner = arb.pick("out", subset).port
            if winner in wins:
                wins[winner] += 1
        assert wins["a"] == wins["b"] == 50


class TestPriority:
    def test_highest_priority_wins(self):
        arb = PriorityArbiter()
        winner = arb.pick("out", [cand("a", 0), cand("b", 2), cand("c", 1)])
        assert winner.port == "b"

    def test_ties_round_robin(self):
        arb = PriorityArbiter()
        candidates = [cand("a", 1), cand("b", 1)]
        winners = [arb.pick("out", candidates).port for __ in range(4)]
        assert winners == ["a", "b", "a", "b"]


class TestAge:
    def test_oldest_wins(self):
        arb = AgeArbiter()
        winner = arb.pick("out", [cand("a", age=3), cand("b", age=9)])
        assert winner.port == "b"

    def test_age_ignores_priority(self):
        arb = AgeArbiter()
        winner = arb.pick("out", [cand("a", 5, age=0), cand("b", 0, age=1)])
        assert winner.port == "b"


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_arbiter("priority"), PriorityArbiter)
        assert isinstance(make_arbiter("round-robin"), RoundRobinArbiter)
        assert isinstance(make_arbiter("age"), AgeArbiter)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_arbiter("random")
