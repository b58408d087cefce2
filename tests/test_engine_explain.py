"""EXPLAIN output tests: what ``repro explain`` prints for a document."""


from repro.core.staircase import SkipMode
from repro.xpath.pipeline import compile_plan
from repro.xpath.planner import Planner, TagStatistics


def explain(doc, query, pushdown="auto", mode=None):
    """The logical plan and the physical pipeline, as ``explain`` prints them."""
    plan = Planner(TagStatistics.from_doc(doc), pushdown=pushdown).plan(query)
    return plan.describe() + "\n\n" + compile_plan(plan, skip_mode=mode).describe()


class TestExplain:
    def test_q1_plan_shape(self, small_xmark):
        text = explain(small_xmark, "/descendant::profile/descendant::education")
        assert "XPath: /descendant::profile/descendant::education" in text
        assert "ContextInit(document)" in text
        assert "staircase_join_desc" in text
        assert "scalar skip=estimate" in text
        assert "step 1" in text and "step 2" in text
        assert "terminal Materialize" in text

    def test_q2_plan_mentions_both_operators(self, small_xmark):
        text = explain(small_xmark, "/descendant::increase/ancestor::bidder")
        assert "staircase_join_desc" in text
        assert "staircase_join_anc" in text

    def test_auto_pushdown_decides_for_selective_tags(self, small_xmark):
        text = explain(small_xmark, "/descendant::profile/descendant::education")
        assert "PUSHDOWN" in text
        assert "cost model" in text

    def test_forced_pushdown_off(self, small_xmark):
        text = explain(
            small_xmark, "/descendant::profile/descendant::education", pushdown=False
        )
        assert "PUSHDOWN" not in text
        assert "forced" in text

    def test_forced_pushdown_on(self, small_xmark):
        text = explain(
            small_xmark, "/descendant::profile/descendant::education", pushdown=True
        )
        assert text.count("PUSHDOWN") == 2

    def test_skip_mode_in_plan(self, small_xmark):
        text = explain(small_xmark, "/descendant::bidder", mode=SkipMode.SKIP)
        assert "skip=skip" in text

    def test_structural_axes_described(self, small_xmark):
        text = explain(small_xmark, "/site/people/person/@id")
        assert "parent-column equi-join" in text
        assert "kind = attribute" in text

    def test_degenerate_axes_described(self, small_xmark):
        text = explain(small_xmark, "following::node()")
        assert "degenerates to a singleton" in text

    def test_predicates_listed(self, small_xmark):
        text = explain(small_xmark, "//open_auction[bidder]")
        assert "predicate   : [child::bidder]" in text
        assert "PredicateFilter([child::bidder])" in text

    def test_union_plans(self, small_xmark):
        text = explain(small_xmark, "//bidder | //seller")
        assert "union of sub-plans" in text
        assert "branch 1:" in text and "branch 2:" in text
        assert "DocOrderDedup(merge branches)" in text

    def test_cardinalities_from_catalogue(self, small_xmark):
        expected = len(small_xmark.pres_with_tag("increase"))
        text = explain(small_xmark, "/descendant::increase")
        assert f"'increase' — {expected:,} elements" in text
