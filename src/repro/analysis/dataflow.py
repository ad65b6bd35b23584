"""Static state-access dataflow classification (``scr-repro/state-facts/v1``).

For every packet program in a module, derive — **without importing it** —
the facts the parallelization-technique advisor needs:

* which state-value fields the transition closure *writes*, and how: pure
  accumulate-add, OR-accumulate, max-accumulate, a monotone threshold over
  such an accumulator, a plain overwrite, an entry delete, or a general
  read-modify-write;
* whether each written field is **commutative** (replicas converge under
  any interleaving — the soundness condition for relaxed SCR's merged-delta
  history) and **monotonic**;
* the **key locality**: does one state entry belong to one flow
  (``flow_local``), aggregate many flows (``cross_flow``, e.g. a per-source
  counter), touch several entries per packet (``multi_key`` — the NAT's
  binding + global pool), or is the program ``stateless``;
* the piggybacked history width (the packed metadata size).

The classifier is deliberately *sound for commutativity, not complete*:
anything it cannot prove to be an order-independent accumulate is reported
as ``rmw`` (non-commutative).  A wrong ``SCR_COMMUTATIVE_FIELDS``
declaration therefore cannot slip past rule SCR007, which cross-checks the
declaration against this classification in both directions.

Analysis is an environment-based single-assignment resolution over the
transition body: locals assigned exactly once at the top level resolve to
their expression; names reassigned, or assigned under a branch, join the
classifications of all their bindings.  Helper calls through ``self.x(...)``
are opaque — one that receives the old state value is a read-modify-write,
one that does not is a plain recompute.
"""

from __future__ import annotations

import ast
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .model import ClassModel, ModuleModel

__all__ = [
    "FACTS_SCHEMA",
    "FieldFacts",
    "ProgramFacts",
    "analyze_module",
    "analyze_source",
    "analyze_path",
    "facts_report",
    "COMMUTATIVE_KINDS",
]

FACTS_SCHEMA = "scr-repro/state-facts/v1"

#: Update kinds whose merged application is order-independent.
COMMUTATIVE_KINDS = frozenset({"add", "or", "max", "threshold"})

#: Kinds that additionally never decrease the stored value.
_MONOTONIC_KINDS = COMMUTATIVE_KINDS

#: The five header fields whose full set identifies one flow.
_FLOW_FIELDS = frozenset({"src_ip", "dst_ip", "src_port", "dst_port", "proto"})


@dataclass(frozen=True)
class FieldFacts:
    """Classification of one written state-value field."""

    field: str
    #: update kinds observed across all transition paths, sorted.
    kinds: Tuple[str, ...]
    reads_old: bool

    @property
    def commutative(self) -> bool:
        written = [k for k in self.kinds if k != "identity"]
        return bool(written) and all(k in COMMUTATIVE_KINDS for k in written)

    @property
    def monotonic(self) -> bool:
        written = [k for k in self.kinds if k != "identity"]
        return bool(written) and all(k in _MONOTONIC_KINDS for k in written)

    def to_dict(self) -> Dict[str, object]:
        return {
            "field": self.field,
            "kinds": list(self.kinds),
            "reads_old": self.reads_old,
            "commutative": self.commutative,
            "monotonic": self.monotonic,
        }


@dataclass(frozen=True)
class ProgramFacts:
    """The state-access facts of one packet program."""

    class_name: str
    program_name: Optional[str]
    path: str
    line: int
    key_locality: str  # flow_local | cross_flow | multi_key | stateless | global
    key_fields: Tuple[str, ...]
    metadata_bytes: Optional[int]
    bidirectional: bool
    has_global_state: bool
    #: Table 1's "Atomic HW vs. Locks" column (class literal; default True).
    needs_locks: bool
    multi_key: bool
    fields: Tuple[FieldFacts, ...]
    #: the class's SCR_COMMUTATIVE_FIELDS literal; None when not declared.
    declared_commutative: Optional[Tuple[str, ...]]

    @property
    def all_commutative(self) -> bool:
        """Is relaxed SCR's merged-delta history sound for this program?"""
        return bool(self.fields) and all(f.commutative for f in self.fields)

    def field(self, name: str) -> Optional[FieldFacts]:
        for f in self.fields:
            if f.field == name:
                return f
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "class": self.class_name,
            "program": self.program_name,
            "path": self.path,
            "line": self.line,
            "key_locality": self.key_locality,
            "key_fields": list(self.key_fields),
            "metadata_bytes": self.metadata_bytes,
            "bidirectional": self.bidirectional,
            "has_global_state": self.has_global_state,
            "needs_locks": self.needs_locks,
            "multi_key": self.multi_key,
            "fields": [f.to_dict() for f in self.fields],
            "all_commutative": self.all_commutative,
            "declared_commutative": (
                None if self.declared_commutative is None
                else list(self.declared_commutative)
            ),
        }


# -- expression classification ------------------------------------------------


class _Env:
    """Local-name bindings of one transition body.

    ``bindings[name]`` lists every expression assigned to ``name`` together
    with whether that assignment sits under a branch; single unconditional
    bindings resolve transparently, everything else joins.
    """

    def __init__(self, func: ast.FunctionDef) -> None:
        self.bindings: Dict[str, List[Tuple[ast.expr, bool]]] = {}
        self._collect(func.body, conditional=False)

    def _collect(self, body: Sequence[ast.stmt], conditional: bool) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                value = stmt.value
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.bindings.setdefault(target.id, []).append(
                            (value, conditional)
                        )
                    elif isinstance(target, ast.Tuple):
                        # `a, b = expr`: opaque — record the whole RHS so
                        # old-reads still propagate, kinds join to rmw.
                        for el in target.elts:
                            if isinstance(el, ast.Name):
                                self.bindings.setdefault(el.id, []).append(
                                    (value, True)
                                )
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                    self.bindings.setdefault(stmt.target.id, []).append(
                        (stmt.value, conditional)
                    )
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    synthetic = ast.BinOp(
                        left=ast.Name(id=stmt.target.id, ctx=ast.Load()),
                        op=stmt.op,
                        right=stmt.value,
                    )
                    self.bindings.setdefault(stmt.target.id, []).append(
                        (synthetic, True)
                    )
            for field in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field, None)
                if sub:
                    self._collect(sub, conditional=True)
            for handler in getattr(stmt, "handlers", ()) or ():
                self._collect(handler.body, conditional=True)


class _TransitionClassifier:
    """Classify the state value(s) returned by one transition method."""

    def __init__(self, model: ModuleModel, func: ast.FunctionDef) -> None:
        self.model = model
        self.func = func
        args = func.args
        names = [a.arg for a in args.posonlyargs + args.args]
        # (self, value, meta) by contract; be positional, not name-bound.
        self.old_name = names[1] if len(names) > 1 else "value"
        self.env = _Env(func)
        #: field -> set of kinds
        self.writes: Dict[str, Set[str]] = {}
        self.reads_old_fields: Set[str] = set()
        self.any_old_read = False

    # -- old-value tracking -------------------------------------------------

    def _reads_old(self, expr: ast.expr, seen: frozenset = frozenset()) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                if node.id == self.old_name:
                    return True
                if node.id in self.env.bindings and node.id not in seen:
                    deeper = seen | {node.id}
                    if any(
                        self._reads_old(v, deeper)
                        for v, _ in self.env.bindings[node.id]
                    ):
                        return True
        return False

    def _is_default_literal(self, expr: ast.expr) -> bool:
        """A falsy default: 0, False, (), or a zero-arg constructor call."""
        if isinstance(expr, ast.Constant):
            return not expr.value
        if isinstance(expr, ast.Call) and not self._reads_old(expr):
            return not expr.args and not expr.keywords
        return False

    def _is_old_ref(self, expr: ast.expr, seen: frozenset = frozenset()) -> bool:
        """Does ``expr`` denote the (possibly defaulted) old value itself?"""
        if isinstance(expr, ast.Name):
            if expr.id == self.old_name:
                return True
            if expr.id in self.env.bindings and expr.id not in seen:
                binds = self.env.bindings[expr.id]
                if len(binds) == 1 and not binds[0][1]:
                    return self._is_old_ref(binds[0][0], seen | {expr.id})
            return False
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.Or):
            if len(expr.values) == 2 and self._is_default_literal(expr.values[1]):
                return self._is_old_ref(expr.values[0], seen)
            return False
        if isinstance(expr, ast.IfExp):
            # `value if value is not None else <default>`
            return self._is_old_ref(expr.body, seen) and not self._reads_old(
                expr.orelse
            )
        return False

    def _is_old_field_read(self, expr: ast.expr) -> Optional[str]:
        """``old.packets`` / ``value.milli_tokens`` → the field name."""
        if isinstance(expr, ast.Attribute) and self._is_old_ref(expr.value):
            return expr.attr
        return None

    # -- scalar kinds --------------------------------------------------------

    def _classify_scalar(self, expr: ast.expr, seen: frozenset = frozenset()) -> Set[str]:
        """Kinds of one scalar state expression."""
        if isinstance(expr, ast.Constant) and expr.value is None:
            return {"delete"}
        if not self._reads_old(expr, seen):
            return {"overwrite"}
        self.any_old_read = True
        if self._is_old_ref(expr, seen):
            return {"identity"}
        field = self._is_old_field_read(expr)
        if field is not None:
            self.reads_old_fields.add(field)
            return {"identity"}
        if isinstance(expr, ast.Name) and expr.id in self.env.bindings and expr.id not in seen:
            kinds: Set[str] = set()
            for value, _cond in self.env.bindings[expr.id]:
                kinds |= self._classify_scalar(value, seen | {expr.id})
            return kinds
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.BitOr)):
            kind = "add" if isinstance(expr.op, ast.Add) else "or"
            left_old = self._reads_old(expr.left, seen)
            right_old = self._reads_old(expr.right, seen)
            if left_old != right_old:
                old_side = expr.left if left_old else expr.right
                if self._accumulator_base(old_side, seen):
                    return {kind}
            return {"rmw"}
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "max"
        ):
            old_args = [a for a in expr.args if self._reads_old(a, seen)]
            if len(old_args) == 1 and self._accumulator_base(old_args[0], seen):
                return {"max"}
            return {"rmw"}
        if isinstance(expr, ast.Compare):
            # A comparison over a commutative accumulator is itself a
            # monotone threshold (heavy_hitter's is_heavy flag).
            operands = [expr.left] + list(expr.comparators)
            old_ops = [o for o in operands if self._reads_old(o, seen)]
            if len(old_ops) == 1:
                kinds = self._classify_scalar(old_ops[0], seen)
                if kinds and kinds <= COMMUTATIVE_KINDS:
                    return {"threshold"}
            return {"rmw"}
        return {"rmw"}

    def _accumulator_base(self, expr: ast.expr, seen: frozenset) -> bool:
        """Is the old-reading side of an accumulate a direct old reference
        (the whole value, one of its fields, or a chained accumulator)?"""
        if self._is_old_ref(expr, seen):
            return True
        field = self._is_old_field_read(expr)
        if field is not None:
            self.reads_old_fields.add(field)
            return True
        if isinstance(expr, ast.Name) and expr.id in self.env.bindings and expr.id not in seen:
            kinds = self._classify_scalar(expr, seen)
            return bool(kinds) and kinds <= COMMUTATIVE_KINDS
        return False

    # -- returned state values ----------------------------------------------

    def _ctor_params(self, cls: ClassModel) -> List[str]:
        """Positional field order of a value class: __new__, __init__, or
        dataclass annotations."""
        for ctor, skip in (("__new__", 1), ("__init__", 1)):
            method = cls.methods.get(ctor)
            if method is not None:
                names = method.arg_names
                return names[skip:]
        fields = []
        for item in cls.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                fields.append(item.target.id)
        return fields

    def _record(self, field: str, kinds: Set[str]) -> None:
        self.writes.setdefault(field, set()).update(kinds)

    def _classify_state_value(self, expr: ast.expr, seen: frozenset = frozenset()) -> None:
        """Record field writes for one returned state expression."""
        if self._is_old_ref(expr, seen):
            self.any_old_read = self.any_old_read or self._reads_old(expr, seen)
            return  # identity: no write
        if isinstance(expr, ast.Constant) and expr.value is None:
            self._record("value", {"delete"})
            return
        if isinstance(expr, ast.Name) and expr.id in self.env.bindings and expr.id not in seen:
            binds = self.env.bindings[expr.id]
            if len(binds) == 1 and not binds[0][1]:
                self._classify_state_value(binds[0][0], seen | {expr.id})
            else:
                for value, _cond in binds:
                    self._classify_state_value(value, seen | {expr.id})
            return
        if isinstance(expr, ast.Call):
            ctor = self._value_class_for(expr)
            if ctor is not None:
                self._classify_ctor(expr, ctor, seen)
                return
            if self._is_dataclass_replace(expr):
                self._classify_replace(expr, seen)
                return
        # Scalar value: the single field "value".
        self._record("value", self._classify_scalar(expr, seen))

    def _value_class_for(self, call: ast.Call) -> Optional[ClassModel]:
        if isinstance(call.func, ast.Name):
            return self.model.classes.get(call.func.id)
        return None

    def _is_dataclass_replace(self, call: ast.Call) -> bool:
        origin = self.model.call_origin(call)
        return origin == "dataclasses.replace"

    def _classify_ctor(
        self, call: ast.Call, cls: ClassModel, seen: frozenset
    ) -> None:
        params = self._ctor_params(cls)
        for i, arg in enumerate(call.args):
            field = params[i] if i < len(params) else f"arg{i}"
            self._record(field, self._classify_scalar(arg, seen))
        for kw in call.keywords:
            if kw.arg is not None:
                self._record(kw.arg, self._classify_scalar(kw.value, seen))

    def _classify_replace(self, call: ast.Call, seen: frozenset) -> None:
        # replace(old_entry, field=..., ...): unnamed fields carry over.
        base_ok = bool(call.args) and self._reads_old(call.args[0], seen)
        for kw in call.keywords:
            if kw.arg is None:
                continue
            kinds = self._classify_scalar(kw.value, seen)
            if not base_ok:
                kinds = {"rmw"}
            self._record(kw.arg, kinds)

    def run(self) -> None:
        for node in ast.walk(self.func):
            if isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                if isinstance(value, ast.Tuple) and len(value.elts) == 2:
                    self._classify_state_value(value.elts[0])


# -- program-level analysis ---------------------------------------------------


def _class_bool(cls: ClassModel, name: str) -> bool:
    value = cls.assigns.get(name)
    return isinstance(value, ast.Constant) and value.value is True


def _class_str(cls: ClassModel, name: str) -> Optional[str]:
    value = cls.assigns.get(name)
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value
    return None


def _declared_commutative(cls: ClassModel) -> Optional[Tuple[str, ...]]:
    value = cls.assigns.get("SCR_COMMUTATIVE_FIELDS")
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    fields = []
    for el in value.elts:
        if isinstance(el, ast.Constant) and isinstance(el.value, str):
            fields.append(el.value)
        else:
            return None
    return tuple(fields)


def _meta_fields_read(model: ModuleModel, program: ClassModel, method: str) -> Set[str]:
    """Attributes of the ``meta`` parameter read in a method's closure."""
    read: Set[str] = set()
    for m in model.method_closure(program, [method]):
        args = m.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if len(names) < 2:
            continue
        meta_name = names[-1]  # (self, meta) / (self, value, meta)
        for node in ast.walk(m.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == meta_name
            ):
                read.add(node.attr)
    return read


def _concrete_transition(
    model: ModuleModel, program: ClassModel
) -> Optional[ast.FunctionDef]:
    """The program's transition, when it has a tuple-returning body."""
    method = program.methods.get("transition")
    if method is None:
        return None
    for node in ast.walk(method.node):
        if (
            isinstance(node, ast.Return)
            and isinstance(node.value, ast.Tuple)
            and len(node.value.elts) == 2
        ):
            return method.node
    return None


def _metadata_bytes(model: ModuleModel, program: ClassModel) -> Optional[int]:
    metadata = model.metadata_for(program)
    if metadata is None:
        return None
    fmt, _fields = model.metadata_layout(metadata)
    if fmt is None:
        return None
    try:
        return struct.calcsize(fmt)
    except struct.error:
        return None


def analyze_program(model: ModuleModel, program: ClassModel) -> ProgramFacts:
    """Classify one program class's state accesses."""
    transition = _concrete_transition(model, program)
    multi_key = False
    fields: Tuple[FieldFacts, ...]
    any_old_read = False

    if transition is not None:
        clf = _TransitionClassifier(model, transition)
        clf.run()
        any_old_read = clf.any_old_read
        facts = []
        for name in sorted(clf.writes):
            kinds = clf.writes[name]
            facts.append(
                FieldFacts(
                    field=name,
                    kinds=tuple(sorted(kinds)),
                    reads_old=any_old_read or name in clf.reads_old_fields,
                )
            )
        # A program that only ever "writes" None without reading the old
        # value keeps no state at all (the forwarder's `return None, TX`).
        if (
            len(facts) == 1
            and facts[0].kinds == ("delete",)
            and not any_old_read
        ):
            facts = []
        fields = tuple(facts)
    elif "apply" in program.methods:
        # transition is not implemented (NAT): the program updates several
        # entries per packet through apply(); never commutative.
        multi_key = True
        fields = (FieldFacts(field="value", kinds=("rmw",), reads_old=True),)
    else:
        fields = ()

    key_fields = tuple(sorted(_meta_fields_read(model, program, "key")))
    has_global = _class_bool(program, "has_global_state")
    if not fields:
        locality = "stateless"
    elif multi_key or has_global:
        locality = "multi_key" if multi_key else "global"
    elif set(key_fields) >= _FLOW_FIELDS:
        locality = "flow_local"
    elif key_fields:
        locality = "cross_flow"
    else:
        locality = "global"

    return ProgramFacts(
        class_name=program.name,
        program_name=_class_str(program, "name"),
        path=model.path,
        line=program.node.lineno,
        key_locality=locality,
        key_fields=key_fields,
        metadata_bytes=_metadata_bytes(model, program),
        bidirectional=_class_bool(program, "bidirectional"),
        has_global_state=has_global,
        needs_locks=(
            _class_bool(program, "needs_locks")
            or "needs_locks" not in program.assigns
        ),
        multi_key=multi_key,
        fields=fields,
        declared_commutative=_declared_commutative(program),
    )


def analyze_module(model: ModuleModel) -> List[ProgramFacts]:
    """Facts for every program class in a module, in definition order."""
    return [
        analyze_program(model, cls)
        for cls in model.program_classes()
        if cls.name != "PacketProgram"  # the abstract root has no dataflow
    ]


def analyze_source(source: str, path: str = "<source>") -> List[ProgramFacts]:
    return analyze_module(ModuleModel.from_source(path, source))


def analyze_path(path: str) -> List[ProgramFacts]:
    with open(path, "r", encoding="utf-8") as fh:
        return analyze_source(fh.read(), path)


def facts_report(paths: Sequence[str]) -> Dict[str, object]:
    """The ``scr-repro/state-facts/v1`` document for a set of files."""
    programs: List[Dict[str, object]] = []
    for path in paths:
        programs.extend(f.to_dict() for f in analyze_path(path))
    return {
        "schema": FACTS_SCHEMA,
        "paths": list(paths),
        "programs": programs,
    }
