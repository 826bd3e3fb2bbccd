"""Engine-level tests against a small synthetic rulebase.

The geometry rulebase has its own integration tests; here we pin the
scheduling, caching and casting semantics in isolation.
"""

import itertools

import pytest

from polylat.errors import (
    CastRefusedError,
    PolylatError,
    RegistrationError,
    RuleBodyError,
    UnknownPropertyError,
    UnsatisfiableRequestError,
)
from polylat.ruleengine import (
    CastStep,
    ClassSpec,
    ComputationObject,
    Kind,
    RuleBase,
    RuleSpec,
    Schedule,
)

from oracles import total_weight


def make_rulebase():
    """A base class with properties A..F and a subclass owning Z.

    Rule graph:  A -> B (w1),  B -> C,D (w1),  A -> D (w3),
                 D -> E (w1),  A,C -> F (w1),  GOOD : B (precondition),
                 Z : E  (subclass-only)
    """
    rb = RuleBase()
    rb.register_class(ClassSpec("Base", "Base", None))
    for name in "ABCDEF":
        rb.register_property(name, Kind.INT, "Base")
    rb.register_property("GOOD", Kind.BOOL, "Base")
    rb.register_class(ClassSpec("Derived", "Derived", "Base",
                                preconditions=(("GOOD", True),)))
    rb.register_property("Z", Kind.INT, "Derived")

    def arith(out, fn):
        return lambda src: {out: fn(src)}

    def rule(rid, targets, sources, body, **kw):
        kw.setdefault("required_class", "Base")
        return RuleSpec(rid, targets, sources, body, **kw)

    rb.register_rule(rule("B:A", ("B",), ("A",),
                              arith("B", lambda s: s["A"] + 1)))
    rb.register_rule(rule("CD:B", ("C", "D"), ("B",),
                              lambda s: {"C": s["B"] * 2, "D": s["B"] * 3}))
    rb.register_rule(rule("D:A", ("D",), ("A",),
                              arith("D", lambda s: (s["A"] + 1) * 3), weight=3))
    rb.register_rule(rule("E:D", ("E",), ("D",),
                              arith("E", lambda s: s["D"] - 1)))
    rb.register_rule(rule("F:A,C", ("F",), ("A", "C"),
                              arith("F", lambda s: s["A"] + s["C"])))
    rb.register_rule(rule("GOOD:A", ("GOOD",), ("A",),
                              arith("GOOD", lambda s: s["A"] % 2 == 0)))
    rb.register_rule(rule("Z:E", ("Z",), ("E",),
                              arith("Z", lambda s: s["E"] * 10),
                              required_class="Derived"))
    return rb


def fresh(rb, a=4):
    obj = ComputationObject(rb, "Base")
    obj.take("A", a)
    return obj


def brute_force_min_weight(rb, start_keys, targets, class_name):
    """Exhaustive search over rule sequences; independent of Dijkstra."""
    rules = [r for _, r in rb.rules_for_class(class_name)]
    best = [None]

    def walk(state, cost):
        if best[0] is not None and cost >= best[0]:
            return
        if set(targets) <= state:
            best[0] = cost
            return
        for r in rules:
            if set(r.sources) <= state and not set(r.targets) <= state:
                walk(state | set(r.targets), cost + r.weight)

    walk(frozenset(start_keys), 0)
    return best[0]


class TestScheduling:
    def test_minimal_schedule_chosen(self):
        obj = fresh(make_rulebase())
        s = obj.get_schedule("D")
        # B:A + CD:B (weight 2) beats D:A (weight 3)
        assert s.list() == ["B : A", "C, D : B"]

    def test_target_already_present_empty(self):
        obj = fresh(make_rulebase())
        s = obj.get_schedule("A")
        assert len(s) == 0
        assert str(s) == "(already computed)"

    def test_weight_change_flips_choice(self):
        rb = make_rulebase()
        obj = fresh(rb)
        rb.register_rule(RuleSpec("D:A-cheap", ("D",), ("A",),
                                  lambda s: {"D": 42},
                                  required_class="Base", weight=1))
        s = obj.get_schedule("D")
        assert s.list() == ["D : A"]  # the new single-rule path wins

    def test_tie_broken_by_registration_order(self):
        rb = RuleBase()
        rb.register_class(ClassSpec("Base", "Base", None))
        for name in ("X", "Y"):
            rb.register_property(name, Kind.INT, "Base")
        rb.register_rule(RuleSpec("first", ("Y",), ("X",),
                                  lambda s: {"Y": 1},
                                  required_class="Base"))
        rb.register_rule(RuleSpec("second", ("Y",), ("X",),
                                  lambda s: {"Y": 2},
                                  required_class="Base"))
        obj = ComputationObject(rb, "Base")
        obj.take("X", 0)
        obj.request("Y")
        assert obj.get("Y") == 1

    def test_unsatisfiable_names_missing(self):
        rb = make_rulebase()
        obj = ComputationObject(rb, "Base")  # nothing stored, A underivable
        with pytest.raises(UnsatisfiableRequestError) as exc:
            obj.get_schedule("F")
        assert "F" in str(exc.value) or "A" in str(exc.value)

    def test_unknown_target_rejected(self):
        obj = fresh(make_rulebase())
        with pytest.raises(UnknownPropertyError):
            obj.get_schedule("NOPE")

    def test_schedule_weight_matches_exhaustive_search(self):
        rb = make_rulebase()
        for targets in (("D",), ("E",), ("F",), ("C", "E"), ("F", "E")):
            obj = fresh(rb)
            s = obj.get_schedule(*targets)
            expected = brute_force_min_weight(rb, {"A"}, targets, "Base")
            assert total_weight(s) == expected

    def test_schedules_always_executable(self):
        rb = make_rulebase()
        for targets in itertools.combinations("BCDEF", 2):
            obj = fresh(rb)
            s = obj.get_schedule(*targets)
            known = set(obj.list_properties())
            for entry in s.entries:
                assert set(entry.sources) <= known
                known |= set(entry.targets)
            assert set(targets) <= known


class TestApply:
    def test_apply_stores_all_targets(self):
        obj = fresh(make_rulebase())
        s = obj.get_schedule("F")
        s.apply(obj)
        assert obj.list_properties() == ["A", "B", "C", "D", "F"]
        assert obj.get("F") == 4 + 10

    def test_empty_schedule_no_change(self):
        obj = fresh(make_rulebase())
        Schedule([]).apply(obj)
        assert obj.list_properties() == ["A"]

    def test_reapply_warns_and_keeps_values(self):
        obj = fresh(make_rulebase())
        s = obj.get_schedule("D")
        s.apply(obj)
        before = dict(obj.store_items())
        with pytest.warns(UserWarning):
            s.apply(obj)
        assert dict(obj.store_items()) == before

    def test_body_failure_carries_rule_id_and_keeps_partials(self):
        rb = make_rulebase()
        rb.register_property("BAD", Kind.INT, "Base")

        def boom(src):
            raise PolylatError("kaboom")

        rb.register_rule(RuleSpec("BAD:C", ("BAD",), ("C",), boom,
                                  required_class="Base"))
        obj = fresh(rb)
        s = obj.get_schedule("BAD")
        with pytest.raises(RuleBodyError) as exc:
            s.apply(obj)
        assert "BAD : C" in str(exc.value)
        assert "C" in obj.list_properties()  # earlier results kept

    def test_body_must_produce_every_target(self):
        rb = make_rulebase()
        rb.register_property("HALF", Kind.INT, "Base")
        rb.register_rule(RuleSpec("bad-producer", ("HALF", "E"), ("A",),
                                  lambda s: {"HALF": 1},
                                  required_class="Base"))
        obj = fresh(rb)
        with pytest.raises(RuleBodyError):
            Schedule([rb.rules[-1]]).apply(obj)


class TestRequestCaching:
    def test_request_computes_then_caches(self):
        rb = make_rulebase()
        fired = []
        rb.trace_hooks.append(lambda rule, obj: fired.append(rule.id))
        obj = fresh(rb)
        v1 = obj.request("E")
        n_first = len(fired)
        v2 = obj.request("E")
        assert v1 == v2 == (4 + 1) * 3 - 1
        assert n_first > 0
        assert len(fired) == n_first  # cache hit executed zero rules

    def test_empty_object_has_no_properties(self):
        obj = ComputationObject(make_rulebase(), "Base")
        assert obj.list_properties() == []

    def test_take_never_overwrites(self):
        obj = fresh(make_rulebase())
        obj.take("A", 999)
        assert obj.get("A") == 4

    def test_kind_checked(self):
        obj = fresh(make_rulebase())
        with pytest.raises(PolylatError):
            obj.take("B", True)  # bool is not an INT


class TestCasting:
    def test_request_subclass_property_casts(self):
        obj = fresh(make_rulebase(), a=4)
        assert obj.class_tag == "Base"
        z = obj.request("Z")
        assert z == ((4 + 1) * 3 - 1) * 10
        assert obj.class_tag == "Derived"

    def test_cast_refused_names_condition(self):
        obj = fresh(make_rulebase(), a=3)  # GOOD will be False
        with pytest.raises(CastRefusedError) as exc:
            obj.request("Z")
        assert "GOOD" in str(exc.value)
        assert obj.class_tag == "Base"
        assert obj.get("GOOD") is False  # precondition value stays cached

    def test_get_schedule_plans_through_cast(self):
        obj = fresh(make_rulebase())
        s = obj.get_schedule("Z")
        labels = s.list()
        assert labels[-1] == "Z : E"
        assert "(cast to Derived)" in labels
        # executable end to end
        s.apply(obj)
        assert obj.get("Z") is not None
        assert obj.class_tag == "Derived"

    def test_hand_built_cast_needs_computed_preconditions(self):
        obj = fresh(make_rulebase())
        with pytest.raises(PolylatError) as exc:
            Schedule([CastStep("Derived")]).apply(obj)
        assert "before its precondition GOOD" in str(exc.value)
        assert obj.class_tag == "Base"

    def test_cast_refused_before_the_next_entry(self):
        rb = make_rulebase()
        obj = fresh(rb)
        obj.take("GOOD", False)
        rule_b = next(r for r in rb.rules if r.id == "B:A")
        with pytest.raises(CastRefusedError) as exc:
            Schedule([rule_b, CastStep("Derived")]).apply(obj)
        assert exc.value.condition == "GOOD"
        assert "B" not in obj  # refused before B:A ran

    def test_casting_is_monotone(self):
        obj = fresh(make_rulebase())
        obj.request("Z")
        obj.cast_if_needed("Derived")  # no-op, never moves up
        assert obj.class_tag == "Derived"
        obj.request("F")  # base property computable on subclass
        assert obj.class_tag == "Derived"


class TestRegistration:
    def test_duplicate_rule_id(self):
        rb = make_rulebase()
        with pytest.raises(RegistrationError):
            rb.register_rule(RuleSpec("B:A", ("C",), ("B",),
                                      lambda s: {"C": 0},
                                      required_class="Base"))

    def test_empty_targets(self):
        rb = make_rulebase()
        with pytest.raises(RegistrationError):
            rb.register_rule(RuleSpec("no-targets", (), ("A",),
                                      lambda s: {},
                                      required_class="Base"))

    def test_unknown_key(self):
        rb = make_rulebase()
        with pytest.raises(RegistrationError):
            rb.register_rule(RuleSpec("mystery", ("WHAT",), ("A",),
                                      lambda s: {"WHAT": 0},
                                      required_class="Base"))

    def test_source_target_overlap(self):
        rb = make_rulebase()
        with pytest.raises(RegistrationError):
            rb.register_rule(RuleSpec("loop", ("A",), ("A",),
                                      lambda s: {"A": 0},
                                      required_class="Base"))

    def test_new_rule_visible_immediately(self):
        rb = make_rulebase()
        rb.register_property("Q", Kind.INT, "Base")
        obj = fresh(rb)
        with pytest.raises(UnsatisfiableRequestError):
            obj.get_schedule("Q")
        rb.register_rule(RuleSpec("Q:A", ("Q",), ("A",),
                                  lambda s: {"Q": 7},
                                  required_class="Base"))
        assert obj.get_schedule("Q").list() == ["Q : A"]
