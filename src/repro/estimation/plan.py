"""Class plans: compile each structural class once, price points flat.

A DHDL design is a parameterized template (paper Fig. 3): tile sizes and
parallelization factors bind into a controller tree whose *shape* only
the MetaPipe toggles change. A design space therefore falls into a
handful of structural classes, one per (benchmark, dataset, toggle
tuple), and every point of a class has the same controllers, memories
and primitives — only the numbers differ.

:class:`ClassPlan` exploits that. It builds the class's IR once with
:class:`~repro.ir.builder.Param` integers, so the builder records which
IR fields come straight from a parameter (loop dims, ``par``, BRAM dims,
tile sizes). A second legal point of the class is built too; if any
field the builder did *not* record differs between the two, the class's
structure depends on its parameters in a way a plan cannot follow, and
it is priced per point instead.

The estimator's walk (:mod:`repro.estimation.walk`) then runs once on
:class:`_Symbols`: the cost model the per-design path evaluates on a
design's numbers is lowered into one straight-line Python function of
the parameter values, constants folded while compiling. The symbol
backend alone derives what the builder and ``Design.finalize`` derive
from parameters — the value-dependent :class:`~repro.ir.IRError` checks,
vector widths, banking, replication and transfer streams. The generated
code replays the walk's float operations in the walk's order and takes
template values from the scalar :meth:`TemplateModels.predict`, so a
plan's estimate is bit-identical to building the design and calling
:meth:`Estimator.estimate <repro.estimation.estimator.Estimator.estimate>`.

The evaluation form is plain Python, not numpy: a sweep hands blocks of
at most 100 points (``runtime.checkpoint.BLOCK_POINTS``) to
:func:`price_points` and guided search prices one point at a time, so
per-call array overhead would outweigh any vector win
(``docs/estimation_performance.md``). A ``lookup`` or template whose
arguments are not all constants becomes a subscript of a :class:`_Table`
(``T0``, ``T1``, ... for templates; ``DELAY``, ``BRAM_BLOCKS``,
``STREAM``), a dict that fills a missing key once, so a repeat costs one
C-level lookup. Tables belong to the family, one per lookup function and
one per template ``(key, parameter names)``, so a key one class filled
is a hit for every other class. A product the raw counts use more than
once (identical Pipes) is one local. The NN corrections run as one
:meth:`~repro.estimation.train.CorrectionModels.predict_batch` per block.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
import random
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from .. import obs
from ..ir.builder import Param
from ..ir.controllers import Controller, CounterChain, Pipe
from ..ir.graph import Design
from ..ir.memories import BRAM, OnChipMemory
from ..ir.memops import TileTransfer
from ..ir.node import IRError, Node
from ..params import BoolParam, IntParam, ParamSpace
from . import walk
from .area import _finalize_area
from .cache import point_key
from .counts import Counts

#: The Counts fields, in constructor order.
_FIELDS = ("luts_packable", "luts_unpackable", "regs", "dsps", "brams")

#: Attempts at drawing a second point that differs in every parameter.
_SECOND_POINT_TRIES = 64

Row = Tuple[float, Counts, List[float]]


@dataclass(frozen=True)
class ClassPlan:
    """The compiled estimate of one structural class.

    ``evaluate(params)`` returns ``(cycles, raw counts, features)`` for a
    point of the class, or ``None`` when its IR would be illegal.
    ``source`` is the generated function, kept for inspection. ``tables``
    maps the names ``source`` subscripts to the family's shared tables.
    """

    label: str
    design_name: str
    nodes: int
    terms: int
    source: str
    tables: Dict[str, "_Table"]
    evaluate: Callable[[Dict[str, object]], Optional[Row]]


# -- pricing ------------------------------------------------------------------


def price_points(family, params_list, classes):
    """Estimates for ``params_list`` (``None`` = IR-illegal), in order.

    Points are grouped by their structural class (``classes``, from
    :meth:`_Family.class_key`); each class is compiled on first sight
    (``estimate.compile`` span) and evaluated per block (``estimate.plan``
    span). Classes a plan cannot express, and points whose class is
    ``None``, take the per-design path.
    """
    from .estimator import Estimate  # local import: estimator imports us

    estimator = family.estimator
    out: List[object] = [None] * len(params_list)
    groups: Dict[object, List[int]] = {}
    for i, key in enumerate(classes):
        groups.setdefault(key, []).append(i)
    rows: List[Tuple[int, ClassPlan, Row]] = []
    for key, indices in groups.items():
        points = [params_list[i] for i in indices]
        plan = family.plan(key, points) if key is not None else None
        if plan is None:
            for i, params in zip(indices, points):
                out[i] = estimator._estimate_built(
                    family.benchmark, family.dataset, params)
            continue
        with obs.span("estimate.plan", **{"class": plan.label,
                                          "n": len(points)}):
            for i, params in zip(indices, points):
                row = plan.evaluate(params)
                if row is not None:
                    rows.append((i, plan, row))
    if not rows:
        return out
    board = estimator.board
    with obs.span("area.nn", batch=len(rows)):
        corrections = estimator.corrections.predict_batch(
            [row[2] for _, _, row in rows], [row[1] for _, _, row in rows]
        )
    for (i, plan, (cycles, raw, _)), routing, dup_regs, unavailable, \
            dup_brams in zip(rows, *(c.tolist() for c in corrections)):
        out[i] = Estimate(
            plan.design_name, cycles, cycles / board.fabric_clock_hz,
            _finalize_area(raw, board.device, routing, dup_regs,
                           unavailable, dup_brams),
            board,
        )
    return out


class _Family:
    """The plans of one (benchmark, dataset), keyed by toggle tuple."""

    def __init__(self, key: tuple, benchmark, dataset, estimator) -> None:
        self.key = key  # point_key's (name, dataset) prefix
        self.benchmark = benchmark
        self.dataset = dict(dataset)  # a copy: family_of compares it
        self.estimator = estimator
        self.space: ParamSpace = benchmark.param_space(dataset)
        self.names = frozenset(self.space.names)
        self.int_names = [
            p.name for p in self.space.params if isinstance(p, IntParam)
        ]
        self.toggle_names = [
            p.name for p in self.space.params if isinstance(p, BoolParam)
        ]
        # (stride, size, candidates) of each toggle's index digit.
        self.toggle_digits = []
        stride = 1
        for p in reversed(self.space.params):
            if isinstance(p, BoolParam):
                self.toggle_digits.insert(0, (stride, p.size, p.candidates))
            stride *= p.size
        self.plans: Dict[tuple, Optional[ClassPlan]] = {}
        # Every plan of the family subscripts these: each function is pure
        # and bound to the family's one estimator, so a key one class
        # filled holds for every class.
        board = estimator.board
        self.tables: Dict[str, _Table] = {
            name: _Table(fn)
            for name, fn in walk.tables(board.device, board).items()
        }
        self.templates: Dict[Tuple[str, Tuple[str, ...]], _Table] = {}

    def index(self, params: Dict[str, object]) -> Optional[int]:
        """``params``' index in the space, or None if it is not a point."""
        try:
            return self.space.encode(params)
        except ValueError:
            return None

    def class_key(
        self, params: Dict[str, object], index: Optional[int] = None
    ) -> Optional[tuple]:
        """The point's toggle tuple, or None if a plan cannot price it.

        A point of the space reads it from its index's toggle digits;
        any other dict (``index=None``) from its values.
        """
        if index is not None:
            return tuple([values[index // stride % size]
                          for stride, size, values in self.toggle_digits])
        if params.keys() != self.names:
            return None
        for name in self.int_names:
            if type(params[name]) is not int:
                return None
        return tuple(params[name] for name in self.toggle_names)

    def plan(self, key: tuple, points: Sequence[Dict[str, object]]):
        """The class's plan, compiling it from ``points`` on first use."""
        try:
            return self.plans[key]
        except KeyError:
            pass
        label = ",".join(
            f"{name}={value}" for name, value in zip(self.toggle_names, key)
        ) or "-"
        with obs.span(
            "estimate.compile", bench=self.benchmark.name, **{"class": label}
        ) as sp:
            first = _first_design(self, points)
            if first is None:
                sp.set(refused="no legal point")
                return None  # every point here is illegal; retry later
            plan = _compile(self, first, label)
            if plan is None:
                sp.set(refused="shape depends on parameters")
            else:
                sp.set(nodes=plan.nodes, terms=plan.terms,
                       lines=plan.source.count("\n"))
        self.plans[key] = plan
        return plan


def family_of(estimator, benchmark, dataset) -> _Family:
    """The estimator's plan family for ``benchmark`` on ``dataset``; the
    last one found answers a repeat call without keying the dataset."""
    caches = estimator.caches
    family = caches.last_family
    if (family is not None and family.benchmark is benchmark
            and family.estimator is estimator and family.dataset == dataset):
        return family
    key = point_key(benchmark.name, dataset, None)[:2]
    family = caches.plans.get(key)
    if (family is None or family.benchmark is not benchmark
            or family.estimator is not estimator):
        family = caches.plans[key] = _Family(key, benchmark, dataset,
                                             estimator)
    caches.last_family = family
    return family


# -- compiling a class --------------------------------------------------------


def _build_tagged(family: _Family, params: Dict[str, object]) -> Design:
    """Build ``params`` with every integer parameter passed as a Param."""
    tagged = {
        name: Param(value, name) if name in family.int_names else value
        for name, value in params.items()
    }
    return family.benchmark.build(family.dataset, **tagged)


def _first_design(family: _Family, points) -> Optional[Tuple[dict, Design]]:
    for params in points:
        try:
            return params, _build_tagged(family, params)
        except IRError:
            continue
    return None


def _other_points(
    space: ParamSpace, first: Dict[str, object], int_names: List[str]
) -> Iterator[Dict[str, object]]:
    """Legal points of ``first``'s class, preferring all-new int values."""
    rng = random.Random(0)
    params = [p for p in space.params if p.name in int_names]
    for attempt in range(2 * _SECOND_POINT_TRIES):
        point = dict(first)
        for param in params:
            choices = list(param.candidates)
            if attempt < _SECOND_POINT_TRIES:  # first try: change them all
                choices = [v for v in choices if v != first[param.name]]
                choices = choices or list(param.candidates)
            point[param.name] = rng.choice(choices)
        if point != first and space.is_legal(point):
            yield point


def _compile(family: _Family, first, label: str) -> Optional[ClassPlan]:
    """Lower ``first``'s design after checking a second point's shape."""
    params, design = first
    for other in _other_points(family.space, params, family.int_names):
        try:
            second = _build_tagged(family, other)
        except IRError:
            continue
        if not _same_shape(design, second):
            return None
        return _Symbols(design, family).plan(
            f"{family.benchmark.name}:{label}", label)
    return None  # a one-point class: nothing to check the shape against


#: Node fields a plan re-derives from parameters, never compared.
_DERIVED = frozenset(("design", "width", "banks"))


def _same_shape(a: Design, b: Design) -> bool:
    """Whether every IR field except bound and derived ones matches."""
    if a.name != b.name or a.bindings != b.bindings:
        return False
    if len(a.nodes) != len(b.nodes):
        return False
    bound = a.bindings
    bound_fields = {(nid, path[0]) for nid, path in bound}
    for x, y in zip(a.nodes, b.nodes):
        if type(x) is not type(y):
            return False
        fx, fy = vars(x), vars(y)
        if fx.keys() != fy.keys():
            return False
        for name, value in fx.items():
            other = fy[name]
            if value is other or name in _DERIVED or name[0] == "_":
                continue
            if (x.nid, name) in bound_fields:
                value = _masked(value, x.nid, (name,), bound)
                other = _masked(other, x.nid, (name,), bound)
            if not _same(value, other):
                return False
    return True


def _same(x, y) -> bool:
    if x is y:
        return True
    if isinstance(x, Node):
        return isinstance(y, Node) and x.nid == y.nid
    if isinstance(x, (list, tuple)):
        return (type(x) is type(y) and len(x) == len(y)
                and all(map(_same, x, y)))
    return type(x) is type(y) and x == y


def _masked(value, nid: int, path: tuple, bound) -> object:
    """``value`` with every parameter-bound entry replaced by its name."""
    name = bound.get((nid, path))
    if name is not None:
        return ("param", name)
    if isinstance(value, (list, tuple)):
        return tuple(
            _masked(v, nid, path + (i,), bound) for i, v in enumerate(value)
        )
    return value


# -- lowering -----------------------------------------------------------------


class _Sym(NamedTuple):
    """A value in the generated code: a folded constant or an expression."""

    src: str
    value: object = None
    const: bool = False


def _const(value: object) -> _Sym:
    return _Sym(repr(value), value, True)


_ONE = _const(1)


class _Symbols:
    """The walk's symbol backend (:mod:`repro.estimation.walk`).

    Every number the walk computes becomes a :class:`_Sym`: constants
    fold while compiling, everything that depends on a parameter becomes
    a line (or an inline expression) of the generated function. What
    :meth:`Design.finalize <repro.ir.graph.Design.finalize>` and the
    builder's checks derive from parameters — the IRError rules, vector
    widths, banking, replication and transfer streams — is derived here
    on symbols, independently of the IR code that derives it on numbers.
    """

    def __init__(self, design: Design, family: _Family) -> None:
        self.design = design
        self.family = family
        self.models = family.estimator.templates
        # Template values come from ``predictor.predict``: the estimator's
        # memoized view, so classes of a family share their predictions.
        self.predictor = family.estimator.models
        self.bound = design.bindings
        # What generated code names besides its tables; ``call`` adds the
        # formulas it uses.
        self.env: Dict[str, object] = {
            "Counts": Counts, "ZERO": (0.0,) * len(_FIELDS)}
        # The family's tables generated code subscripts; T0, T1, ... join
        # on first use.
        self.tables: Dict[str, _Table] = dict(family.tables)
        self.lines: List[str] = []
        self.params: Dict[str, _Sym] = {}
        self.sums: List[List[str]] = [[] for _ in _FIELDS]
        self.prefix = [0.0] * len(_FIELDS)
        self.terms = 0
        # Each product ``term`` adds to a sum: its source -> its operands.
        self._products: Dict[str, Tuple[str, str]] = {}
        self._templates: Dict[Tuple[str, Tuple[str, ...]], str] = {}
        self._rows: Dict[tuple, List[_Sym]] = {}
        self._memo: Dict[object, _Sym] = {}
        self._seen: Dict[str, _Sym] = {}
        self._width: Dict[int, _Sym] = {}
        # The transfers into each BRAM, in build order (``legality``).
        self._transfers: Dict[int, List[TileTransfer]] = {}

    # -- expression helpers ----------------------------------------------------

    def op(self, template: str, *args: _Sym, fold=None) -> _Sym:
        """A value bound to a local of the generated function, or
        ``fold`` of the arguments now if they are all constants.

        Every helper the generated code calls is pure, so an expression
        that was already computed is reused rather than emitted again.
        """
        if fold is not None and all(a.const for a in args):
            return _const(fold(*(a.value for a in args)))
        source = template.format(*(a.src for a in args))
        sym = self._seen.get(source)
        if sym is None:
            sym = self._seen[source] = _Sym(f"v{len(self.lines)}")
            self.lines.append(f"{sym.src} = {source}")
        return sym

    def check(self, template: str, *args: _Sym) -> None:
        """An IRError rule: the point is illegal unless it holds."""
        if all(a.const for a in args):
            return  # held at the compile-time point, so at every point
        if template == "{} <= {}" and args[0].src == args[1].src:
            return  # an int is never above itself
        line = "if not (" + template.format(*(a.src for a in args)) + "):"
        if line not in self._seen:
            self._seen[line] = _const(True)
            self.lines.append(line + " return None")

    # -- the walk's arithmetic -------------------------------------------------

    const = staticmethod(_const)

    # Integer arithmetic is exact in any order, so constants are gathered
    # and integer identities dropped; float terms are never reassociated
    # (the walk adds floats two at a time).

    def add(self, *syms: _Sym) -> _Sym:
        out = _const(sum(s.value for s in syms if s.const))
        for sym in syms:
            if not sym.const:
                out = sym if _is_int(out, 0) else self.op("{} + {}", out, sym)
        return out

    def mul(self, *syms: _Sym) -> _Sym:
        const = math.prod(s.value for s in syms if s.const)
        out = _const(const)
        for sym in syms:
            if not sym.const and const != 0:
                out = sym if _is_int(out, 1) else self.op("{} * {}", out, sym)
        return out

    def max(self, *syms: _Sym) -> _Sym:
        return self.op(
            "max(" + ", ".join("{}" for _ in syms) + ")", *syms, fold=max)

    def call(self, fn: Callable, *args) -> _Sym:
        """``fn`` of ``args``; a list argument is passed as a tuple."""
        self.env[fn.__name__] = fn
        parts, flat, values = [], [], []
        for arg in args:
            if isinstance(arg, list):
                parts.append("(" + "{}, " * len(arg) + ")")
                flat += arg
                values.append([a.value for a in arg])
            else:
                parts.append("{}")
                flat.append(arg)
                values.append(arg.value)
        if all(a.const for a in flat):
            return _const(fn(*values))
        return self.op(fn.__name__ + "(" + ", ".join(parts) + ")", *flat)

    def lookup(self, table: str, *args: _Sym) -> _Sym:
        """``table``'s function of ``args``: folded, or a table subscript."""
        if all(a.const for a in args):
            return _const(self.tables[table].fn(*(a.value for a in args)))
        return self.op(table + "[" + "{}, " * len(args) + "]", *args)

    def attr(self, value: _Sym, name: str) -> _Sym:
        if value.const:
            return _const(getattr(value.value, name))
        return _Sym(f"{value.src}.{name}")

    def template(
        self, key: str, params: Dict[str, _Sym], guard: Optional[_Sym] = None
    ) -> Optional[List[_Sym]]:
        """One template's five predicted resource values.

        With a ``guard``, the template is only predicted where the guard
        is non-zero and reads as all zeros elsewhere; a guard that is
        zero at every point gives ``None``.
        """
        if guard is not None and guard.const and not guard.value:
            return None
        names, args = tuple(params), list(params.values())
        # A repeated call (identical Pipes of one class) reuses its row.
        row = (key, names, guard and guard.src, *[a.src for a in args])
        if row not in self._rows:
            self._rows[row] = self._template_row(key, names, args, guard)
        return list(self._rows[row])

    def _template_row(self, key, names, args, guard) -> List[_Sym]:
        if all(a.const for a in args):
            values = (a.value for a in args)
            return [_const(v) for v in _template_values(
                self.predictor, key, names, *values)]
        table = self._templates.get((key, names))
        if table is None:
            table = self._templates[(key, names)] = f"T{len(self._templates)}"
            self.tables[table] = self.family.templates.setdefault(
                (key, names), _Table(functools.partial(
                    _template_values, self.predictor, key, names)))
        call = f"{table}[" + "".join(f"{a.src}, " for a in args) + "]"
        call += "" if guard is None else f" if {guard.src} else ZERO"
        prefix = self._seen.get(call)
        if prefix is None:
            prefix = self._seen[call] = _Sym(f"t{len(self.lines)}_")
            names = [f"{prefix.src}{i}" for i in range(len(_FIELDS))]
            self.lines.append(", ".join(names) + " = " + call)
        fitted = self.models.coefs[key]
        return [
            _Sym(f"{prefix.src}{i}") if f in fitted else _const(0.0)
            for i, f in enumerate(_FIELDS)
        ]

    def term(self, values: List[_Sym], *scales: _Sym) -> None:
        """Accumulate ``values`` times each scale, in order."""
        self.terms += 1
        for i, value in enumerate(values):
            if value.const and value.value == 0.0:
                continue  # zero times a scale, added to a non-negative sum
            for scale in scales:
                if scale.const and scale.value == 1:
                    continue
                if value.const and scale.const:
                    value = _const(value.value * scale.value)
                    continue
                src = f"({value.src} * {scale.src})"
                self._products.setdefault(src, (value.src, scale.src))
                value = _Sym(src)
            if value.const:
                if not self.sums[i]:  # still in the constant prefix
                    self.prefix[i] += value.value
                    continue
            self.sums[i].append(value.src)

    def raw(self) -> _Sym:
        """The raw counts; a product used more than once is named first.

        A local holds the same IEEE product as the inline expression and
        the sums still add in order, so naming it changes no bit.
        """
        uses = collections.Counter(s for sums in self.sums for s in sums)
        named = set()
        for src, operands in reversed(self._products.items()):  # outer first
            n = uses[src]
            if n > 1:
                named.add(src)
                n = 1  # the local's one definition
            for operand in operands:
                uses[operand] += n
        text: Dict[str, str] = {}
        for src, (a, b) in self._products.items():  # inner first
            expr = f"{text.get(a, a)} * {text.get(b, b)}"
            if src in named:
                text[src] = f"v{len(self.lines)}"
                self.lines.append(f"{text[src]} = {expr}")
            else:
                text[src] = f"({expr})"
        fields = [
            " + ".join([repr(prefix)] + [text.get(s, s) for s in sums])
            for prefix, sums in zip(self.prefix, self.sums)
        ]
        self.lines.append("raw = Counts(" + ", ".join(fields) + ")")
        return _Sym("raw")

    # -- derived IR quantities (what the builder and finalize derive) ----------

    def field(self, node: Node, path: tuple, value: object) -> _Sym:
        """An int IR field: the parameter it is bound to, or its value."""
        name = self.bound.get((node.nid, path))
        if name is None:
            return _const(int(value))
        sym = self.params.get(name)
        if sym is None:
            sym = self.params[name] = _Sym(f"p{len(self.params)}")
        return sym

    def par(self, ctrl: Controller) -> _Sym:
        return self.field(ctrl, ("par",), ctrl.par)

    def counts(self, chain: CounterChain) -> List[_Sym]:
        """Per-dimension iteration counts, after the chain's own checks."""
        key = ("counts", chain.nid)
        if key not in self._memo:
            counts = []
            for i, (extent, step) in enumerate(chain.dims):
                e = self.field(chain, ("dims", i, 0), extent)
                s = self.field(chain, ("dims", i, 1), step)
                self.check("{} > 0", e)
                self.check("{} > 0", s)
                counts.append(self.op(
                    "-(-{} // {})", e, s, fold=lambda e, s: -(-e // s)))
            self._memo[key] = counts
        return self._memo[key]  # type: ignore[return-value]

    def iterations(self, ctrl: Controller) -> _Sym:
        if ctrl.cchain is None:
            return _const(1)
        return self.op("{} // {}", self.mul(*self.counts(ctrl.cchain)),
                       self.par(ctrl), fold=operator.floordiv)

    def width(self, node: Node) -> _Sym:
        return self._width.get(node.nid, _ONE)

    def banks(self, mem: OnChipMemory) -> _Sym:
        key = ("banks", mem.nid)
        if key not in self._memo:
            widths: Dict[str, _Sym] = {}
            for acc in mem.readers + mem.writers:
                sym = self.width(acc)
                widths.setdefault(sym.src, sym)
            for node in self._transfers.get(mem.nid, ()):
                sym = self.par(node)
                widths.setdefault(sym.src, sym)
            syms = list(widths.values()) or [_const(1)]
            self._memo[key] = syms[0] if len(syms) == 1 else self.max(*syms)
        return self._memo[key]

    def replication(self, node: Node) -> _Sym:
        key = ("rep", node.parent)  # nodes of one scope share ancestors
        if key not in self._memo:
            self._memo[key] = self.mul(*[
                self.par(c) for c in node.ancestors()
                if not isinstance(c, Pipe)
            ])
        return self._memo[key]

    def sizes(self, node) -> List[_Sym]:
        """A transfer's tile sizes or a BRAM's dims."""
        name = "sizes" if isinstance(node, TileTransfer) else "dims"
        return [
            self.field(node, (name, i), size)
            for i, size in enumerate(getattr(node, name))
        ]

    def num_commands(self, transfer: TileTransfer) -> _Sym:
        sizes = self.sizes(transfer)
        return _const(1) if len(sizes) == 1 else self.mul(*sizes[:-1])

    def weighted(self, ctrl: Controller) -> _Sym:
        """:func:`~repro.ir.graph.weighted_transfers`."""
        if isinstance(ctrl, TileTransfer):
            return _const(1)
        key = ("weighted", ctrl.nid)
        if key not in self._memo:
            total = self.add(*[self.weighted(c) for c in ctrl.stages])
            if not isinstance(ctrl, Pipe):
                total = self.mul(total, self.par(ctrl))
            self._memo[key] = total
        return self._memo[key]

    def overlap(self, parent: Controller, child: Controller, contention):
        """:func:`~repro.ir.graph.overlap_streams`."""
        stages = self.add(*[self.weighted(c) for c in parent.stages])
        others = self.mul(self.par(parent), stages)
        mine = self.op("-{}", self.weighted(child), fold=operator.neg)
        return self.add(contention, others, mine)

    def legality(self) -> None:
        """The value-dependent IRError rules of every node, in build order,
        then the vector width of every Pipe body node."""
        for node in self.design.nodes:
            if isinstance(node, BRAM):
                for size in self.sizes(node):
                    self.check("{} > 0", size)
            elif isinstance(node, Controller):
                par = self.par(node)
                self.check("{} >= 1", par)
                if node.cchain is not None and not (par.const and par.value == 1):
                    self.check("{} % {} == 0", self.counts(node.cchain)[-1], par)
                if isinstance(node, TileTransfer):
                    self._transfers.setdefault(node.bram.nid, []).append(node)
                    sizes = self.sizes(node)
                    for size, dim in zip(sizes, node.offchip.dims):
                        self.check("0 < {} <= {}", size, _const(dim))
                    capacity = self.mul(*self.sizes(node.bram))
                    self.check("{} <= {}", self.mul(*sizes), capacity)
        for ctrl in self.design.controllers():
            if isinstance(ctrl, Pipe):
                par = self.par(ctrl)
                for node in ctrl.body_prims:
                    self._width[node.nid] = par
                if ctrl.cchain is not None:
                    for it in ctrl.cchain.iters:
                        self._width[it.nid] = par

    # -- assembly --------------------------------------------------------------

    def plan(self, filename: str, label: str) -> ClassPlan:
        design = self.design
        self.legality()
        cycles = walk.cycles(self, design)
        walk.area_terms(self, design)
        raw = self.raw()
        feats = walk.features(self, design, raw, walk.wire_bits(self, design))
        self.lines.append(f"return {cycles.src}, raw, {feats.src}")
        head = [f"{sym.src} = p[{name!r}]" for name, sym in self.params.items()]
        source = "def evaluate(p):\n" + "".join(
            f"    {line}\n" for line in head + self.lines
        )
        namespace = dict(self.env, **self.tables)
        exec(compile(source, f"<plan {filename}>", "exec"), namespace)
        return ClassPlan(
            label=label,
            design_name=design.name,
            nodes=len(design.nodes),
            terms=self.terms,
            source=source,
            tables=self.tables,
            evaluate=namespace["evaluate"],  # type: ignore[arg-type]
        )


def _is_int(sym: _Sym, value: int) -> bool:
    """Whether ``sym`` is the integer constant ``value`` (an identity)."""
    return sym.const and type(sym.value) is int and sym.value == value


class _Table(dict):
    """A pure function's values, computed on the first lookup of each key.

    Generated code subscripts the table, so a hit costs one C-level dict
    lookup and no Python frame; a miss calls ``fn(*key)`` and stores it.
    """

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key: tuple):
        value = self[key] = self.fn(*key)
        return value


def _template_values(predictor, key: str, names: Tuple[str, ...], *args):
    """``predictor.predict(key, ...)`` on positional values, as a tuple."""
    counts = predictor.predict(key, dict(zip(names, args)))
    return tuple(getattr(counts, f) for f in _FIELDS)
