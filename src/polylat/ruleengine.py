"""Rule-driven lazy computation over immutable property bags.

An object is a typed bag of named properties.  Rules declare which
properties they can produce (targets) from which they need (sources), and
carry a pure body.  Requesting a property triggers a shortest-path search
over property-set states; the resulting schedule is an object of its own
and can be inspected before it is applied.

Classes form a single-inheritance hierarchy.  A subclass lists
precondition properties with required boolean values; requesting a
subclass-owned property first casts the object down, computing and
checking the preconditions on the way.
"""

from __future__ import annotations

import enum
import heapq
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import (
    CastRefusedError,
    PolylatError,
    RegistrationError,
    RuleBodyError,
    UnknownPropertyError,
    UnsatisfiableRequestError,
)
from .exactmath import Matrix, Vector


class Kind(enum.Enum):
    """Value tag of a property; fixed at registration."""

    BOOL = "bool"
    INT = "int"
    VECTOR = "vector"
    MATRIX = "matrix"
    INCIDENCE = "incidence"
    GRAPH = "graph"
    HASSE = "hasse"

    def check(self, value) -> bool:
        if self is Kind.BOOL:
            return isinstance(value, bool)
        if self is Kind.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is Kind.VECTOR:
            return isinstance(value, Vector)
        if self is Kind.MATRIX:
            return isinstance(value, Matrix)
        if self is Kind.INCIDENCE:
            from .geomcore import IncidenceMatrix
            return isinstance(value, IncidenceMatrix)
        if self is Kind.GRAPH:
            from .graphiso import Graph
            return isinstance(value, Graph)
        if self is Kind.HASSE:
            from .geomcore import HasseDiagram
            return isinstance(value, HasseDiagram)
        raise AssertionError(self)


@dataclass(frozen=True)
class PropertySpec:
    name: str
    kind: Kind
    klass: str = "Polytope"


@dataclass(frozen=True)
class ClassSpec:
    """Object class with the preconditions guarding a downward cast."""

    name: str
    full_name: str
    parent: str | None = None
    preconditions: tuple[tuple[str, bool], ...] = ()


@dataclass(frozen=True)
class RuleSpec:
    """Declarative rule: pure body mapping source values to target values."""

    id: str
    targets: tuple[str, ...]
    sources: tuple[str, ...]
    body: Callable[[Mapping[str, object]], dict]
    required_class: str = "Polytope"
    weight: int = 1

    @property
    def label(self) -> str:
        return ", ".join(self.targets) + " : " + ", ".join(self.sources)


@dataclass(frozen=True)
class CastStep:
    """Schedule entry that flips the object's class after its precondition
    properties (computed by earlier entries) have been verified."""

    target_class: str

    @property
    def label(self) -> str:
        return f"(cast to {self.target_class})"


class RuleBase:
    """Registry of properties, classes and rules, shared by objects."""

    def __init__(self):
        self._properties: dict[str, PropertySpec] = {}
        self._classes: dict[str, ClassSpec] = {}
        self._rules: list[RuleSpec] = []
        self._rule_ids: set[str] = set()
        self.trace_hooks: list[Callable[[RuleSpec, "ComputationObject"], None]] = []

    # -- registration ------------------------------------------------

    def register_property(self, name: str, kind: Kind, klass: str = "Polytope"):
        if not name or not isinstance(name, str):
            raise RegistrationError("property name must be a nonempty string")
        if name in self._properties:
            raise RegistrationError(f"property {name} already registered")
        if klass not in self._classes:
            raise RegistrationError(f"unknown class {klass}")
        self._properties[name] = PropertySpec(name, kind, klass)

    def register_class(self, spec: ClassSpec):
        if spec.name in self._classes:
            raise RegistrationError(f"class {spec.name} already registered")
        if spec.parent is not None and spec.parent not in self._classes:
            raise RegistrationError(f"unknown parent class {spec.parent}")
        for key, wanted in spec.preconditions:
            if key not in self._properties:
                raise RegistrationError(
                    f"precondition property {key} not registered")
            if not isinstance(wanted, bool):
                raise RegistrationError("precondition values must be boolean")
        self._classes[spec.name] = spec

    def register_rule(self, rule: RuleSpec):
        if rule.id in self._rule_ids:
            raise RegistrationError(f"duplicate rule id {rule.id!r}")
        if not rule.targets:
            raise RegistrationError("rule must have at least one target")
        overlap = set(rule.targets) & set(rule.sources)
        if overlap:
            raise RegistrationError(
                f"rule sources and targets overlap: {sorted(overlap)}")
        for key in (*rule.targets, *rule.sources):
            if key not in self._properties:
                raise RegistrationError(f"unknown property {key} in rule")
        if rule.required_class not in self._classes:
            raise RegistrationError(f"unknown class {rule.required_class}")
        if rule.weight < 1:
            raise RegistrationError("rule weight must be a positive integer")
        self._rules.append(rule)
        self._rule_ids.add(rule.id)

    # -- lookups -----------------------------------------------------

    def property_spec(self, name: str) -> PropertySpec:
        try:
            return self._properties[name]
        except KeyError:
            raise UnknownPropertyError(f"unknown property {name!r}") from None

    def class_spec(self, name: str) -> ClassSpec:
        try:
            return self._classes[name]
        except KeyError:
            raise PolylatError(f"unknown class {name!r}") from None

    @property
    def rules(self) -> tuple[RuleSpec, ...]:
        return tuple(self._rules)

    def ancestors(self, name: str) -> list[str]:
        """name itself, then its parents up to the root."""
        chain = [name]
        while (parent := self.class_spec(chain[-1]).parent) is not None:
            chain.append(parent)
        return chain

    def is_same_or_descendant(self, name: str, ancestor: str) -> bool:
        return ancestor in self.ancestors(name)

    def rules_for_class(self, name: str) -> list[tuple[int, RuleSpec]]:
        """(registration index, rule) pairs usable on objects of this class."""
        chain = set(self.ancestors(name))
        return [(i, r) for i, r in enumerate(self._rules)
                if r.required_class in chain]

    def _notify(self, rule: RuleSpec, obj: "ComputationObject"):
        for hook in self.trace_hooks:
            hook(rule, obj)


class Schedule:
    """Ordered, executable sequence of rules (plus possible cast steps)."""

    def __init__(self, entries: Iterable[RuleSpec | CastStep]):
        self.entries: tuple[RuleSpec | CastStep, ...] = tuple(entries)

    def list(self) -> list[str]:
        return [e.label for e in self.entries]

    def apply(self, obj: "ComputationObject"):
        """Run every entry in order, storing each rule's targets.

        Existing properties are never overwritten; a rule whose every
        target is already present is skipped with a warning.  A cast is
        refused as soon as one of its preconditions is stored with the
        wrong value.  A failing body or refusal aborts the run but keeps
        the results of earlier entries.
        """
        casts = [e.target_class for e in self.entries
                 if isinstance(e, CastStep)]
        for entry in self.entries:
            if casts:
                spec = obj.rulebase.class_spec(casts[0])
                for key, wanted in spec.preconditions:
                    if obj._store.get(key, wanted) is not wanted:
                        raise CastRefusedError(spec.name, key, obj._store[key])
            if isinstance(entry, CastStep):
                obj._perform_cast(casts.pop(0))
                continue
            rule = entry
            if all(t in obj._store for t in rule.targets):
                warnings.warn(f"rule [{rule.label}] skipped: targets already "
                              "present", stacklevel=2)
                continue
            missing = [s for s in rule.sources if s not in obj._store]
            if missing:
                raise PolylatError(
                    f"schedule not executable here: rule [{rule.label}] "
                    f"missing sources {missing}")
            srcs = {s: obj._store[s] for s in rule.sources}
            try:
                produced = rule.body(srcs)
            except Exception as exc:
                raise RuleBodyError(rule.label, exc) from exc
            if set(produced) != set(rule.targets):
                raise RuleBodyError(
                    rule.label,
                    f"body produced {sorted(produced)} instead of "
                    f"{sorted(rule.targets)}")
            for key in rule.targets:
                obj.take(key, produced[key])
            obj.rulebase._notify(rule, obj)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "(already computed)"
        return "\n".join(self.list())

    def __repr__(self) -> str:
        return f"Schedule({self.list()!r})"


class ComputationObject:
    """Typed bag of immutable named properties with a class tag."""

    def __init__(self, rulebase: RuleBase, class_tag: str = "Polytope"):
        rulebase.class_spec(class_tag)
        self.rulebase = rulebase
        self.class_tag = class_tag
        self._store: dict[str, object] = {}

    # -- store -------------------------------------------------------

    def take(self, key: str, value):
        """Store a property value.  Re-setting an existing key is a no-op."""
        spec = self.rulebase.property_spec(key)
        if key in self._store:
            return
        if not spec.kind.check(value):
            raise PolylatError(
                f"value of kind {type(value).__name__} does not match "
                f"{key} ({spec.kind.value})")
        self._store[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def get(self, key: str):
        """Cached value or None; never computes."""
        return self._store.get(key)

    def list_properties(self) -> list[str]:
        return list(self._store)

    def store_items(self) -> tuple[tuple[str, object], ...]:
        return tuple(self._store.items())

    # -- scheduling --------------------------------------------------

    def get_schedule(self, *targets: str) -> Schedule:
        """Minimum-weight executable rule sequence producing the targets.

        Ties are broken by rule registration order.  If a target belongs
        to a subclass, the schedule first derives the precondition
        properties, one at a time in declared order, and contains an
        explicit cast step.  ``request`` applies exactly this schedule.
        """
        deepest = self.class_tag
        for t in targets:
            owner = self.rulebase.property_spec(t).klass
            if self.rulebase.is_same_or_descendant(deepest, owner):
                continue
            if self.rulebase.is_same_or_descendant(owner, deepest):
                deepest = owner
            else:
                raise UnsatisfiableRequestError([t])
        entries, state = self._cast_plan(deepest)
        entries.extend(self._search(state, targets, deepest))
        return Schedule(entries)

    def _cast_plan(self, target_class: str):
        """Entries casting down to target_class (a descendant or the class
        itself), and the property-key state they leave."""
        entries: list[RuleSpec | CastStep] = []
        state = frozenset(self._store)
        cur_class = self.class_tag
        chain = self.rulebase.ancestors(target_class)
        for cls_name in reversed(chain[:chain.index(cur_class)]):
            for key, _ in self.rulebase.class_spec(cls_name).preconditions:
                plan = self._search(state, (key,), cur_class)
                entries.extend(plan)
                state = state.union(*(r.targets for r in plan))
            entries.append(CastStep(cls_name))
            cur_class = cls_name
        return entries, state

    def _search(self, start: frozenset, targets: tuple[str, ...],
                class_name: str) -> list[RuleSpec]:
        """Dijkstra over property-key-set states."""
        goal = set(targets)
        if goal <= start:
            return []
        rules = self.rulebase.rules_for_class(class_name)
        counter = 0
        heap = [(0, (), 0, start)]
        settled: set[frozenset] = set()
        while heap:
            cost, path, _, state = heapq.heappop(heap)
            if state in settled:
                continue
            settled.add(state)
            if goal <= state:
                by_index = dict(rules)
                return [by_index[i] for i in path]
            for idx, rule in rules:
                if not set(rule.sources) <= state:
                    continue
                nxt = state | set(rule.targets)
                if nxt == state or nxt in settled:
                    continue
                counter += 1
                heapq.heappush(
                    heap, (cost + rule.weight, path + (idx,), counter, nxt))
        raise UnsatisfiableRequestError(sorted(goal - start))

    # -- casting and requests ----------------------------------------

    def cast_if_needed(self, target_class: str):
        """Cast down to target_class, deriving preconditions on demand."""
        if self.rulebase.is_same_or_descendant(self.class_tag, target_class):
            return
        if not self.rulebase.is_same_or_descendant(target_class, self.class_tag):
            raise PolylatError(
                f"{target_class} is not a descendant of {self.class_tag}")
        Schedule(self._cast_plan(target_class)[0]).apply(self)

    def _perform_cast(self, cls_name: str):
        """Flip the class tag; Schedule.apply has checked the values."""
        if self.rulebase.is_same_or_descendant(self.class_tag, cls_name):
            return
        for key, _ in self.rulebase.class_spec(cls_name).preconditions:
            if key not in self._store:
                raise PolylatError(
                    f"cast to {cls_name} scheduled before its "
                    f"precondition {key} was computed")
        self.class_tag = cls_name

    def request(self, key: str):
        """Cached value if present, otherwise get_schedule + apply, then read."""
        if key not in self._store:
            self.get_schedule(key).apply(self)
        return self._store[key]

    def __repr__(self) -> str:
        return (f"<{self.class_tag} object with "
                f"{len(self._store)} properties>")
