"""What ``src/`` may hold: definitions the engine uses, or that a tree outside
the tests names, or that :data:`KEPT` keeps on purpose.

The scan parses ``src/repro/**/*.py``.  A non-dunder function or class
counts as used when its name appears anywhere in ``src`` as an ``ast.Name``,
as an ``ast.Attribute`` attribute, or as an equal string constant.  A method
counts as used only through an attribute access whose receiver may be its
class (``self``, an annotated name, a class named directly, or an attribute
every ``src`` definition gives one class narrow the receiver to a class and
its relatives; a string literal, a builtin constructor call or an
annotation subscripting a builtin (``dict[str, X]``) types it as a builtin,
which no ``src`` method is; anything else may be any class), or
through a string that can name an attribute (``getattr`` and kin, and
outside ``src`` a string following a name in a tuple, as perflab's tracer
names the methods it wraps); a local variable, an XML tag or a table header
of the same name is not a use, and neither is an access on an untyped
receiver inside the method's own body (``Relation.column`` reading
``batch.column(i)`` does not use itself).
Names listed in an ``__all__`` do not count.  A definition unused in ``src`` passes
only when the same scan finds its name in ``perflab/`` or ``examples/``,
or when :data:`KEPT` lists it under ``"module:name"`` with a
reason of kind ``paper`` (an entry point the paper describes) or
``invariant`` (a probe through which the tests assert an engine invariant).
Anything else fails, named; so does a ``KEPT`` entry whose definition is
gone or no longer needs it.  Test-only behaviour belongs in ``tests/``.
A second scan fails on a ``.next_batch(`` call outside :data:`PULLERS`: a
second loop driving an operator tree.  A third fails on ``EventType.THRESHOLD``
named outside :data:`THRESHOLD_SITES`: a second path raising that event.  A
fourth fails on :class:`Row` imported outside :data:`ROW_SITES`: a new site
boxing tuples.

The scan still under-reports where it cannot tell a receiver's class: one
``x.peek()`` on an unknown ``x`` elsewhere covers every method named
``peek`` (``SourceCache.peek`` hides ``OverflowFile.peek`` today).
Bare-name matching once hid ``Rule.matches`` behind ``module.matches(...)``
and ``EventHandler.rule`` behind locals named ``rule``; untyped literal and
attribute receivers hid ``Relation.join`` behind ``", ".join(...)`` and
``self.schema.join(...)``; and a method's own body hid it
(``Relation.project`` behind its loop variable's ``row.project(...)``,
``Relation.column`` behind ``batch.column(idx)``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUTSIDE = ("perflab", "examples")

#: ``"module:name" -> (kind, reason)`` for definitions nothing outside the
#: tests uses but that stay in ``src/``.
KEPT = {
    "repro.catalog.statistics:set_join_selectivity": (
        "paper",
        "§3: the optimizer costs joins with catalog selectivity statistics; "
        "this is how they are stated",
    ),
    "repro.core.policies:contact_all_policy": ("paper", "§4.1: collector policy"),
    "repro.core.policies:primary_with_fallback_policy": ("paper", "§4.1: collector policy"),
    "repro.core.policies:race_policy": ("paper", "§4.1: the race example's collector policy"),
    "repro.core.policies:apply_policy": ("paper", "§4.1: installs a collector policy"),
    "repro.plan.physical:select_": ("paper", "§3.1: the physical algebra's selection"),
    "repro.plan.physical:project_": ("paper", "§3.1: the physical algebra's projection"),
    "repro.plan.planio:plan_to_xml": ("paper", "§3: plans are written in an XML plan language"),
    "repro.plan.planio:plan_from_xml": ("paper", "§3: plans are read from that language"),
    "repro.server.scheduler:submit_plan": (
        "paper",
        "§3.1: a whole fragmented plan with its rules, admitted to the server",
    ),
    "repro.engine.operators.exchange:lane_operators": (
        "invariant",
        "broker usage equals the resident bytes of every exchange lane's hash tables",
    ),
    "repro.server.broker:pools": ("invariant", "broker usage equals the sum of its pools' leases"),
    "repro.server.broker:granted_bytes": ("invariant", "outstanding leases, against capacity"),
    "repro.server.clock:session_clocks": (
        "invariant",
        "a refused submission registers no clock; a lane's clock holds its frontier",
    ),
    "repro.storage.hash_table:bucket_rows": (
        "invariant",
        "a bucket's resident rows, in insertion order, as overflow resolution joins them",
    ),
    "repro.storage.hash_table:check_accounting": (
        "invariant",
        "budget usage equals resident bytes; the key index names each live slot once",
    ),
    "repro.storage.memory:granted_bytes": ("invariant", "a closed operator returns its grant"),
    "repro.storage.tuples:counting_row_constructions": ("invariant", "hot paths box no Row"),
}


def _listed_in_all(tree: ast.AST) -> set[int]:
    """Ids of the nodes inside every ``__all__`` assignment of ``tree``."""
    listed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            listed.update(map(id, ast.walk(node.value)))
    return listed


def annotated_class(annotation) -> str | None:
    """The class an annotation names (``X``, ``mod.X``, ``"X"``, ``X | None``,
    and ``dict`` for ``dict[str, X]``: a subscript names its container)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = {annotated_class(annotation.left), annotated_class(annotation.right)} - {"None"}
        return sides.pop() if len(sides) == 1 else None
    if isinstance(annotation, ast.Constant) and annotation.value is None:
        return "None"
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Subscript):
        return annotated_class(annotation.value)
    return None


class Uses:
    """What a tree mentions: bare names, ``receiver.attribute`` accesses and
    string constants.  An access's receiver is the class it is known to be —
    ``self`` / ``cls`` / ``super()`` in a method, a name annotated with a
    class, a class named directly, a builtin for a string literal or a
    builtin constructor call (``str``, ``frozenset``, ...) — or
    ``".name"`` for an attribute access ``x.name``, which :meth:`resolve`
    types through :attr:`attribute_classes`; else ``None``.
    Each access also records the method whose body holds it (``(class,
    name)``, or ``None`` outside any method).
    ``attribute_classes`` maps an attribute name to the classes its ``src``
    definitions give it: a property's return annotation, an annotated
    field, or an assignment of a typed name or a constructor call (``None``
    for anything else).  ``attribute_strings`` are the strings that can name
    an attribute: the attribute argument of ``getattr`` / ``hasattr`` /
    ``setattr``, and outside ``src`` a string following a name in a tuple
    (``(Class, "method", ...)``: how a tool names the methods it patches)."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.attributes: set[tuple[str, str | None, tuple[str | None, str] | None]] = set()
        self.strings: set[str] = set()
        self.attribute_strings: set[str] = set()
        self.attribute_classes: dict[str, set[str | None]] = {}

    def scan(self, path: Path, in_src: bool) -> None:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        self._listed = _listed_in_all(tree)
        self._in_src = in_src
        self._within: tuple[str | None, str] | None = None
        self._visit(tree, None, {})

    def _visit(self, node, owner: str | None, known: dict) -> None:
        if id(node) in self._listed:
            return
        if isinstance(node, ast.ClassDef):
            for child in node.bases + node.keywords + node.decorator_list:
                self._visit(child, owner, known)
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(
                        isinstance(d, ast.Name) and d.id == "property" for d in child.decorator_list
                    ):
                        self._typed(child.name, child.returns)
                    self._visit_function(child, node.name, {}, method=True)
                else:
                    if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                        self._typed(child.target.id, child.annotation)
                    elif isinstance(child, ast.Assign):
                        for target in child.targets:
                            if isinstance(target, ast.Name):
                                self._given(target.id, None)  # a class attribute, untyped
                    self._visit(child, node.name, {})
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            self._visit_function(node, owner, known, method=False)
            return
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            known[node.target.id] = annotated_class(node.annotation)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Attribute):
            self._typed(node.target.attr, node.annotation)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._assigned(target, node.value, known)
        if isinstance(node, ast.Name):
            self.names.add(node.id)
        elif isinstance(node, ast.Attribute):
            receiver = self._receiver(node.value, owner, known)
            self.attributes.add((node.attr, receiver, self._within))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            self.strings.add(node.value)
        elif isinstance(node, ast.Tuple) and not self._in_src:
            for owner_node, item in zip(node.elts, node.elts[1:]):
                if isinstance(owner_node, (ast.Name, ast.Attribute)) and (
                    isinstance(item, ast.Constant) and isinstance(item.value, str)
                ):
                    self.attribute_strings.add(item.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr", "setattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            self.attribute_strings.add(node.args[1].value)
        for child in ast.iter_child_nodes(node):
            self._visit(child, owner, known)

    def _typed(self, attribute: str, annotation) -> None:
        self._given(attribute, annotated_class(annotation) if annotation is not None else None)

    def _given(self, attribute: str, given: str | None) -> None:
        if self._in_src:
            self.attribute_classes.setdefault(attribute, set()).add(given)

    def _assigned(self, target, value, known: dict) -> None:
        """Record the class ``value`` gives each attribute ``target`` stores."""
        if isinstance(target, (ast.Tuple, ast.List)):
            pairs = isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(target.elts)
            for at, part in enumerate(target.elts):
                self._assigned(part, value.elts[at] if pairs else None, known)
        elif isinstance(target, ast.Attribute):
            if isinstance(value, ast.Name):
                given = known.get(value.id)
            elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                given = value.func.id if value.func.id[:1].isupper() else None
            else:
                given = None
            self._given(target.attr, given)

    def resolve(self, receiver: str | None) -> str | None:
        """The class of a receiver: ``".name"`` when every definition of
        attribute ``name`` gives it one class, else what was recorded."""
        if receiver is None or receiver[0] != ".":
            return receiver
        found = self.attribute_classes.get(receiver[1:], {None})
        return next(iter(found)) if len(found) == 1 else None

    def _visit_function(self, node, owner: str | None, known: dict, method: bool) -> None:
        arguments = node.args
        for child in arguments.defaults + [d for d in arguments.kw_defaults if d is not None]:
            self._visit(child, owner, known)
        inner = dict(known)
        every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        for argument in every:
            if argument.annotation is not None:
                self._visit(argument.annotation, owner, known)
            inner[argument.arg] = (
                annotated_class(argument.annotation) if argument.annotation is not None else None
            )
        if not isinstance(node, ast.Lambda):
            for child in node.decorator_list + ([node.returns] if node.returns else []):
                self._visit(child, owner, known)
        static = method and any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        if method and every and not static:
            inner[every[0].arg] = owner  # self / cls
        within = self._within
        if method:
            self._within = (owner, node.name)
        for child in node.body if isinstance(node.body, list) else [node.body]:
            self._visit(child, owner, inner)
        self._within = within

    @staticmethod
    def _receiver(value, owner: str | None, known: dict) -> str | None:
        if isinstance(value, ast.JoinedStr):
            return "str"
        if isinstance(value, ast.Constant) and isinstance(value.value, (str, bytes)):
            return type(value.value).__name__  # ``", ".join(...)`` is ``str.join``
        if isinstance(value, ast.Name):
            if value.id in known:
                return known[value.id]
            return value.id if value.id[:1].isupper() else None  # ``Class.attribute``
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id in BUILTIN_RECEIVERS:
                return value.func.id  # ``frozenset().union(...)``
            return owner if value.func.id == "super" else None
        if isinstance(value, ast.Attribute):
            return "." + value.attr
        return None


def definitions() -> tuple[dict[str, tuple[str, str | None]], dict[str, set[str]]]:
    """``"module:name" -> (name, class)`` for every non-dunder def and class in
    ``src`` (``class`` is ``None`` unless it is a method of that class), and
    each ``src`` class's base-class names."""
    found: dict[str, tuple[str, str | None]] = {}
    bases: dict[str, set[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(map(annotated_class, node.bases))
                for child in node.body:
                    methods[id(child)] = node.name
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.setdefault(f"{module}:{name}", (name, methods.get(id(node))))
    return found, bases


def related_classes(bases: dict[str, set[str]]) -> dict[str, set[str]]:
    """Each class with every ancestor and descendant among the ``src`` classes:
    an access through one may dispatch to a method any of them defines."""

    def ancestors(name: str) -> set[str]:
        found, todo = set(), [name]
        while todo:
            for base in bases.get(todo.pop(), ()):
                if base and base not in found:
                    found.add(base)
                    todo.append(base)
        return found

    above = {name: ancestors(name) for name in bases}
    return {
        name: {name} | above[name] | {other for other in bases if name in above[other]}
        for name in bases
    }


#: Receivers a literal or a builtin constructor call types: an access on one
#: calls a builtin's method, never a ``src`` one.
BUILTIN_RECEIVERS = ("str", "bytes", "list", "tuple", "dict", "set", "frozenset")


def is_used(name: str, owner: str | None, uses: Uses, related: dict[str, set[str]]) -> bool:
    """A function or class is used when its name is mentioned.  A method is
    used only through a string that can name an attribute, or an attribute
    access (a local variable of the same name does not call it) whose
    receiver may be its class: an access on a known ``src`` class counts only
    for that class's relatives, and a ``Protocol`` (structural) or unknown
    receiver for every method of the name but the one whose body it is in."""
    if owner is None:
        return name in uses.names or name in uses.strings or any(
            attribute == name for attribute, _, _ in uses.attributes
        )
    if name in uses.attribute_strings:
        return True
    for attribute, receiver, within in uses.attributes:
        if attribute != name:
            continue
        receiver = uses.resolve(receiver)
        if receiver in BUILTIN_RECEIVERS or (receiver is None and within == (owner, name)):
            continue
        family = related.get(receiver)
        if family is None or "Protocol" in family or owner in family:
            return True
    return False


@pytest.fixture(scope="module")
def scan():
    uses = Uses()
    for path in (SRC / "repro").rglob("*.py"):
        uses.scan(path, in_src=True)
    for path in (path for tree in OUTSIDE for path in (ROOT / tree).rglob("*.py")):
        uses.scan(path, in_src=False)
    defined, bases = definitions()
    related = related_classes(bases)
    return {
        key: is_used(name, owner, uses, related) for key, (name, owner) in defined.items()
    }


def test_every_src_definition_is_used_or_kept(scan):
    unexplained = sorted(key for key, used in scan.items() if not used and key not in KEPT)
    assert not unexplained, (
        "defined in src/ but used only by the tests: move to tests/, delete, or KEPT: "
        + ", ".join(unexplained)
    )


def test_no_kept_entry_is_stale(scan):
    stale = sorted(key for key in KEPT if scan.get(key, True))
    assert not stale, "KEPT entries whose definition is gone or used: " + ", ".join(stale)


def test_a_subscripted_attribute_is_its_container(tmp_path):
    """``self._relations: dict[str, int]`` types ``self._relations.clear()``
    as ``dict.clear``, which uses no ``src`` method named ``clear``."""
    module = tmp_path / "store.py"
    module.write_text(
        "class Store:\n"
        "    def __init__(self) -> None:\n"
        "        self._relations: dict[str, int] = {}\n"
        "    def empty(self) -> None:\n"
        "        self._relations.clear()\n"
        "class Cache:\n"
        "    def clear(self) -> None:\n"
        "        pass\n",
        encoding="utf-8",
    )
    uses = Uses()
    uses.scan(module, in_src=True)
    assert uses.resolve("._relations") == "dict"
    assert not is_used("clear", "Cache", uses, related_classes({"Store": set(), "Cache": set()}))


def test_kept_reasons_are_paper_or_invariant():
    assert {kind for kind, _ in KEPT.values()} <= {"paper", "invariant"}


#: Where ``src/`` may pull an operator: inside operators (the exchange's
#: lane steps among them), in the ``Operator`` base class, and in the
#: executor's fragment loop — the one loop that drives a plan's root, which
#: server sessions and the figure harness reach with a one-fragment plan.
PULLERS = ("engine/operators/", "engine/iterators.py", "engine/executor.py")


def test_one_drive_loop():
    package = SRC / "repro"
    drivers = set()
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        if where.startswith(PULLERS):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "next_batch"
            ):
                drivers.add(where)
    assert not drivers, (
        "a second drive loop pulls batches outside the executor; hand it a "
        "one-fragment QueryPlan instead: " + ", ".join(sorted(drivers))
    )


#: Where ``src/`` may name ``EventType.THRESHOLD``: the rule language that
#: defines it, the policies and the rule ablation's inert probes, whose rules
#: trigger on it, the ``Operator`` base class — the one place the event is
#: raised — and the event handler, where the executor derives each watched
#: operator's next trigger count.
THRESHOLD_SITES = (
    "plan/rules.py",
    "core/policies.py",
    "bench/figures.py",
    "engine/iterators.py",
    "engine/event_handler.py",
)


def test_one_threshold_emitter():
    package = SRC / "repro"
    naming = set()
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        if where in THRESHOLD_SITES:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "THRESHOLD"
                and isinstance(node.value, ast.Name)
                and node.value.id == "EventType"
            ):
                naming.add(where)
    assert not naming, (
        "a second threshold path: the Operator base raises the event at the "
        "counts the executor derives from the rules; " + ", ".join(sorted(naming))
    )


#: Where ``src/`` may import :class:`~repro.storage.tuples.Row`: the storage
#: modules that define it, batch it and box it on demand, the two packages
#: that re-export it, and the speculative follower and publisher loop, which
#: stays row-based (the cache's partial extents, the wrapper's
#: ``fetch_batch``, the scan's row loop).  A stored relation is read by
#: position everywhere else.
ROW_SITES = (
    "storage/tuples.py",
    "storage/batch.py",
    "storage/relation.py",
    "__init__.py",
    "storage/__init__.py",
    "network/cache.py",
    "network/wrapper.py",
    "engine/operators/scan.py",
)


def test_no_new_row_boxing_site():
    package = SRC / "repro"
    importing = set()
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        if where in ROW_SITES:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "Row" for a in node.names):
                importing.add(where)
            elif isinstance(node, ast.Attribute) and node.attr == "Row":
                importing.add(where)
    assert not importing, (
        "Row reached a new module; read stored relations by position (column "
        "spans, match positions) instead: " + ", ".join(sorted(importing))
    )
