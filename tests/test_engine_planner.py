"""Cost-model tests for the pushdown decision."""


from repro.xpath.parser import parse_xpath
from repro.xpath.planner import Planner, TagStatistics


def _decisions(plan):
    """The steps whose name-test placement the cost model had to choose."""
    return [d for d in plan.steps if d.cost_alternative is not None]


class TestCostModel:
    def test_tag_cardinalities(self, small_xmark):
        stats = TagStatistics.from_doc(small_xmark)
        assert stats.count("increase") == len(small_xmark.pres_with_tag("increase"))
        assert stats.count("no-such-tag") == 0

    def test_selective_tag_prefers_pushdown(self, small_xmark):
        """'pushing the name test ... obviously makes sense for selective
        name tests only': education is rare → pushdown wins."""
        stats = TagStatistics.from_doc(small_xmark)
        query = "/descendant::profile/descendant::education"
        push = Planner(stats, pushdown=True).plan(query).steps[1]
        no_push = Planner(stats, pushdown=False).plan(query).steps[1]
        assert push.cost < no_push.cost
        assert (push.cost, no_push.cost) == (no_push.cost_alternative, push.cost_alternative)

    def test_estimates_are_positive_and_bounded(self, small_xmark):
        stats = TagStatistics.from_doc(small_xmark)
        planner = Planner(stats)
        for axis in ("descendant", "ancestor", "following"):
            plan = planner.plan(f"/descendant::bidder/{axis}::node()")
            for decision in plan.steps:
                assert 0 <= decision.est_out <= len(small_xmark)


class TestChoice:
    def test_q1_decisions(self, small_xmark):
        plan = Planner(TagStatistics.from_doc(small_xmark)).plan(
            "/descendant::profile/descendant::education"
        )
        decisions = _decisions(plan)
        assert [d.index for d in decisions] == [0, 1]
        assert [d.step.test.name for d in decisions] == ["profile", "education"]
        # Both tags are highly selective in XMark → pushdown for both.
        assert all(d.pushdown for d in decisions)
        assert [d.reason for d in decisions] == ["cost model", "cost model"]

    def test_ineligible_steps_skipped(self, small_xmark):
        plan = Planner(TagStatistics.from_doc(small_xmark)).plan("/site/people/person")
        assert _decisions(plan) == []
        assert plan.pushdown_steps == frozenset()

    def test_accepts_parsed_path(self, small_xmark):
        path = parse_xpath("/descendant::increase/ancestor::bidder")
        plan = Planner(TagStatistics.from_doc(small_xmark)).plan(path)
        assert len(_decisions(plan)) == 2
