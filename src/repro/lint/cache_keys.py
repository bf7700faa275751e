"""Cache-key completeness rule: every spec field reaches its digest.

The result store trusts that two runs sharing a cache key would execute
the identical simulation.  That breaks the moment a field that can
change the outcome stays out of the digest — cached results silently
stop matching what a cold run would produce.  Engine request kinds hash
every dataclass field generically
(:func:`repro.core.serialization.request_cache_key`), so the only way to
keep a field out of a key is the ``derived("why")`` marker on the field
itself.  This rule checks the markers and the places keys are still
built by hand:

* every ``derived(...)`` marker carries a literal, non-empty
  justification and is the default of an annotated dataclass field — a
  marker that names no field (say, its annotation was lost, leaving a
  plain class attribute) is a finding;
* every parameter of a hand-written ``*_cache_key`` function must be
  *read* inside its body;
* every field of a dataclass that defines its own ``cache_key`` method
  must be consumed (``self.<field>``) inside that method;
* every field of a ``*Spec`` dataclass must be consumed by its
  ``requests()`` expansion, which is where spec fields become request
  fields and therefore digest inputs.

Fields marked ``derived`` are exempt from the two consumption checks.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.engine import LintContext, Rule, SourceModule, register_rule
from repro.lint.findings import Finding

#: Name of the field marker this rule consumes.
MARKER = "derived"

#: Function-name suffix marking a digest builder.
_KEY_SUFFIX = "_cache_key"

#: Parameters of digest builders that are plumbing, not content.
_IGNORED_PARAMS = frozenset({"self", "cls"})


def _is_marker(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    target = node.func
    if isinstance(target, ast.Name):
        return target.id == MARKER
    return isinstance(target, ast.Attribute) and target.attr == MARKER


def _justification(call: ast.Call) -> Optional[str]:
    """The marker's literal justification, or ``None`` if it has none."""
    arguments = list(call.args) + [keyword.value for keyword in call.keywords]
    if len(arguments) != 1:
        return None
    argument = arguments[0]
    if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
        return argument.value.strip() or None
    return None


def _read_names(body: List[ast.stmt]) -> Set[str]:
    names: Set[str] = set()
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
    return names


def _self_attribute_reads(function: ast.FunctionDef) -> Set[str]:
    reads: Set[str] = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            reads.add(node.attr)
    return reads


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    fields: List[Tuple[str, ast.AnnAssign]] = []
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            annotation = ast.unparse(statement.annotation)
            if "ClassVar" in annotation:
                continue
            name = statement.target.id
            if name.startswith("_"):
                continue
            fields.append((name, statement))
    return fields


def _method(node: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for statement in node.body:
        if isinstance(statement, ast.FunctionDef) and statement.name == name:
            return statement
    return None


class CacheKeyRule(Rule):
    name = "cache-key"
    description = (
        "spec/request dataclass fields and *_cache_key parameters must all "
        "reach the digest (or carry a justified derived() marker)"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        for module in context.modules:
            placed: Set[int] = set()
            for node in module.tree.body:
                if isinstance(node, ast.FunctionDef) and node.name.endswith(
                    _KEY_SUFFIX
                ):
                    yield from self._check_key_function(module, node)
                elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                    yield from self._check_dataclass(module, node, placed)
            for node in ast.walk(module.tree):
                if _is_marker(node) and id(node) not in placed:
                    yield self.finding(
                        module,
                        node,
                        f"{MARKER}() marker names no field: it must be the "
                        "default of an annotated dataclass field",
                    )

    # ------------------------------------------------------------------

    def _check_key_function(
        self, module: SourceModule, function: ast.FunctionDef
    ) -> Iterator[Finding]:
        parameters = [
            argument.arg
            for argument in (
                function.args.posonlyargs
                + function.args.args
                + function.args.kwonlyargs
            )
            if argument.arg not in _IGNORED_PARAMS
        ]
        reads = _read_names(function.body)
        for parameter in parameters:
            if parameter not in reads:
                yield self.finding(
                    module,
                    function,
                    f"{function.name}() parameter {parameter!r} never reaches "
                    "the digest: every key input must be hashed",
                )

    def _check_dataclass(
        self, module: SourceModule, node: ast.ClassDef, placed: Set[int]
    ) -> Iterator[Finding]:
        derived: Set[str] = set()
        for field_name, field_node in _dataclass_fields(node):
            marker = field_node.value
            if isinstance(marker, ast.Call) and _is_marker(marker):
                placed.add(id(marker))
                derived.add(field_name)
                if _justification(marker) is None:
                    yield self.finding(
                        module,
                        field_node,
                        f"{node.name}.{field_name} has a {MARKER}() marker "
                        "without a literal justification: say why the field "
                        "cannot change the outcome",
                    )
        consumer: Optional[ast.FunctionDef] = _method(node, "cache_key")
        consumer_label = "cache_key()"
        if consumer is None and node.name.endswith("Spec"):
            consumer = _method(node, "requests")
            consumer_label = "requests()"
        if consumer is None:
            return
        consumed = _self_attribute_reads(consumer)
        for field_name, field_node in _dataclass_fields(node):
            if field_name not in derived and field_name not in consumed:
                yield self.finding(
                    module,
                    field_node,
                    f"{node.name}.{field_name} is not consumed by "
                    f"{consumer_label}: a field that can change the outcome "
                    f"must reach the cache key, or be marked {MARKER}() "
                    "with a justification",
                )


register_rule(CacheKeyRule())
