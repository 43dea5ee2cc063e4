"""Class plans: compile each benchmark family once, price points flat.

A DHDL design is a parameterized template (paper Fig. 3): tile sizes and
parallelization factors bind into a controller tree, and a MetaPipe
toggle only chooses whether one loop is a MetaPipe or a Sequential. So
all points of a (benchmark, dataset) family form one structural class.

:class:`ClassPlan` exploits that. It builds the family's IR once with
:class:`~repro.ir.builder.Param` values, so the builder records which IR
fields come straight from a parameter (loop dims, ``par``, BRAM dims,
tile sizes, each ``loop(metapipe_=...)`` toggle). One more point per
other toggle combination is built, at integers that differ from the
first point's where the space allows; if a field the builder did *not*
record differs — besides a toggled loop's class and the double
buffering it implies — the structure follows a parameter in a way a
plan cannot, and the family is priced per design.

The estimator's walk (:mod:`repro.estimation.walk`) then runs once on
:class:`_Symbols`, which lowers the per-design cost model into one
Python function of the parameter values, constants folded while
compiling. The symbol backend alone derives what the builder and
``Design.finalize`` derive from parameters: the value-dependent
:class:`~repro.ir.IRError` checks, vector widths, banking, replication,
transfer streams and, from the toggles, double buffering. A toggled
loop's cycle subtree becomes an ``if``/``else`` block, so a point runs
only its own arm. The code replays the walk's float operations in its
order and takes template values from the scalar
:meth:`TemplateModels.predict`, so a plan's estimate is bit-identical to
building the design and calling :meth:`Estimator.estimate
<repro.estimation.estimator.Estimator.estimate>`.

The code is plain Python, not numpy: sweeps price blocks of at most 100
points and guided search one, so per-call array overhead would outweigh
any vector win (``docs/estimation_performance.md``). A ``lookup`` or
template of non-constant arguments subscripts a :class:`_Table` of the
family (``T0``, ``T1``, ... for templates; ``DELAY``, ``BRAM_BLOCKS``,
``STREAM``), a dict that fills a missing key once. A product the raw
counts use more than once is one local. The NN corrections run as one
:meth:`~repro.estimation.train.CorrectionModels.predict_batch` per block.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from .. import obs
from ..ir.builder import Param
from ..ir.controllers import Controller, CounterChain, MetaPipe, Pipe
from ..ir.graph import Design, bram_transfers, double_buffers, same_shape
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

#: Attempts at drawing another point that differs in every integer.
_OTHER_POINT_TRIES = 64

Row = Tuple[float, Counts, List[float]]


@dataclass(frozen=True)
class ClassPlan:
    """The compiled estimate of one (benchmark, dataset) family.

    ``evaluate(params)`` returns ``(cycles, raw counts, features)`` for a
    point of the family, or ``None`` when its IR would be illegal.
    ``source`` is the generated function, kept for inspection. ``tables``
    maps the names ``source`` subscripts to the family's tables.
    """

    design_name: str
    nodes: int
    terms: int
    source: str
    tables: Dict[str, "_Table"]
    evaluate: Callable[[Dict[str, object]], Optional[Row]]


# -- pricing ------------------------------------------------------------------


def price_points(family, params_list, indices):
    """Estimates for ``params_list`` (``None`` = IR-illegal), in order.

    ``indices`` are the points' indices in the family's space. The
    family's plan is compiled on first sight (``estimate.compile`` span)
    and evaluates the points (``estimate.plan`` span); a refused family's
    points, and dicts outside the space (index ``None``), take the
    per-design path.
    """
    from .estimator import Estimate  # local import: estimator imports us

    estimator = family.estimator
    out: List[object] = [None] * len(params_list)
    planned = [i for i, index in enumerate(indices) if index is not None]
    plan = family.compiled([params_list[i] for i in planned])
    if plan is None:
        planned = []
    if len(planned) < len(params_list):
        skip = set(planned)
        for i, params in enumerate(params_list):
            if i not in skip:
                out[i] = estimator._estimate_built(
                    family.benchmark, family.dataset, params)
    rows: List[Tuple[int, Row]] = []
    if planned:
        evaluate = plan.evaluate
        with obs.span("estimate.plan", n=len(planned)):
            for i in planned:
                row = evaluate(params_list[i])
                if row is not None:
                    rows.append((i, row))
    if not rows:
        return out
    board = estimator.board
    with obs.span("area.nn", batch=len(rows)):
        corrections = estimator.corrections.predict_batch(
            [row[2] for _, row in rows], [row[1] for _, row in rows]
        )
    for (i, (cycles, raw, _)), routing, dup_regs, unavailable, dup_brams \
            in zip(rows, *(c.tolist() for c in corrections)):
        out[i] = Estimate(
            plan.design_name, cycles, cycles / board.fabric_clock_hz,
            _finalize_area(raw, board.device, routing, dup_regs,
                           unavailable, dup_brams),
            board,
        )
    return out


class _Family:
    """The plan of one (benchmark, dataset) and the tables it reads."""

    def __init__(self, key: tuple, benchmark, dataset, estimator) -> None:
        self.key = key  # point_key's (name, dataset) prefix
        self.benchmark = benchmark
        self.dataset = dict(dataset)  # a copy: family_of compares it
        self.estimator = estimator
        self.space: ParamSpace = benchmark.param_space(dataset)
        self.toggles = [
            p for p in self.space.params if isinstance(p, BoolParam)
        ]
        self.plan: Optional[ClassPlan] = None
        self.refused = False  # the shape check failed: price per design
        # The plan subscripts these: each function is pure and bound to
        # the family's one estimator.
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

    def compiled(self, points: Sequence[Dict[str, object]]):
        """The family's plan, compiled from ``points`` on first use; None
        while no point has built or once the family is refused."""
        if self.plan is None and not self.refused and points:
            with obs.span("estimate.compile",
                          bench=self.benchmark.name) as sp:
                first = _first_design(self, points)
                if first is None:
                    sp.set(refused="no legal point")
                    return None  # every point here is illegal; retry later
                self.plan = _compile(self, *first)
                if self.plan is None:
                    self.refused = True
                    sp.set(refused="shape depends on parameters")
                else:
                    sp.set(nodes=self.plan.nodes, terms=self.plan.terms,
                           lines=self.plan.source.count("\n"))
        return self.plan


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


# -- compiling a family -------------------------------------------------------


def _build_tagged(family: _Family, params: Dict[str, object]) -> Design:
    """Build ``params`` with every parameter passed as a Param."""
    tagged = {name: Param(value, name) for name, value in params.items()}
    return family.benchmark.build(family.dataset, **tagged)


def _first_design(family: _Family, points) -> Optional[Tuple[dict, Design]]:
    for params in points:
        try:
            return params, _build_tagged(family, params)
        except IRError:
            continue
    return None


def _compile(family: _Family, params, design) -> Optional[ClassPlan]:
    """Lower ``design`` if a build at each other toggle combination (or,
    without toggles, one more build) has its shape, each at integers
    that differ from ``params``' where the space allows."""
    names = [p.name for p in family.toggles]
    mine = tuple(params[name] for name in names)
    combos = [combo for combo in itertools.product(
        *(p.candidates for p in family.toggles)) if combo != mine] or [mine]
    rng = random.Random(0)
    for combo in combos:
        base = dict(params, **dict(zip(names, combo)))
        other = _first_design(family, (
            point for point in _other_points(family.space, base, rng)
            if point != params))
        if other is None or not same_shape(design, other[1]):
            return None
    return _Symbols(design, family).plan()


def _other_points(space: ParamSpace, base: Dict[str, object],
                  rng: random.Random) -> Iterator[Dict[str, object]]:
    """Legal points with ``base``'s toggles: all-new integers where the
    space allows, then any, then ``base``'s own."""
    ints = [p for p in space.params if isinstance(p, IntParam)]
    for attempt in range(2 * _OTHER_POINT_TRIES):
        point = dict(base)
        for param in ints:
            new = [v for v in param.candidates if v != base[param.name]]
            point[param.name] = rng.choice(
                new if new and attempt < _OTHER_POINT_TRIES
                else param.candidates)
        if space.is_legal(point):
            yield point
    if space.is_legal(base):
        yield base


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
    a line (or an inline expression) of the generated function.
    """

    def __init__(self, design: Design, family: _Family) -> None:
        self.design = design
        self.family = family
        self.models = family.estimator.templates
        # Template values come from the estimator's memoized view.
        self.predictor = family.estimator.models
        self.bound = design.bindings
        self.toggle_names = {p.name for p in family.toggles}
        # What generated code names besides its tables; ``call`` adds the
        # formulas it uses.
        self.env: Dict[str, object] = {
            "Counts": Counts, "ZERO": (0.0,) * len(_FIELDS)}
        # The family's tables generated code subscripts; T0, T1, ... join
        # on first use.
        self.tables: Dict[str, _Table] = dict(family.tables)
        # The lines of the function body, or of the branch arm being
        # lowered; locals are numbered in the order they are made.
        self.lines: List[str] = []
        self.body = self.lines
        self._locals = itertools.count()
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
        self._double: Optional[Dict[int, List[_Sym]]] = None
        # The transfers into each BRAM, in build order.
        self._transfers = bram_transfers(design)

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
            sym = self._seen[source] = _Sym(self.local())
            self.lines.append(f"{sym.src} = {source}")
        return sym

    def local(self, prefix: str = "v") -> str:
        """A fresh local name of the generated function."""
        return f"{prefix}{next(self._locals)}"

    def check(self, template: str, *args: _Sym) -> None:
        """An IRError rule: the point is illegal unless it holds."""
        assert self.lines is self.body, "a guard inside a branch arm"
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
        # A repeated call (identical Pipes) reuses its row.
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
            prefix = self._seen[call] = _Sym(self.local("t") + "_")
            names = [f"{prefix.src}{i}" for i in range(len(_FIELDS))]
            self.lines.append(", ".join(names) + " = " + call)
        fitted = self.models.coefs[key]
        return [
            _Sym(f"{prefix.src}{i}") if f in fitted else _const(0.0)
            for i, f in enumerate(_FIELDS)
        ]

    def branch(self, cond: _Sym, if_true: Callable, if_false: Callable):
        """``if_true()`` where ``cond`` holds, else ``if_false()``.

        A constant condition picks its arm while compiling. Otherwise each
        arm is lowered on its own copy of the memos, so nothing one arm
        computed is reused outside it, and generated code runs only the
        taken arm: an ``if``/``else`` block that assigns each value the
        arms disagree on to one local or, when neither arm needs a line,
        one conditional expression per such value.
        """
        if cond.const:
            return if_true() if cond.value else if_false()
        (lines_t, yes), (lines_f, no) = self._arm(if_true), self._arm(if_false)
        single = isinstance(yes, _Sym)
        out = []
        for a, b in zip([yes] if single else yes, [no] if single else no):
            if a.src == b.src:  # a constant, or a value from before the branch
                out.append(a)
            elif not (lines_t or lines_f):
                out.append(_Sym(f"({a.src} if {cond.src} else {b.src})"))
            else:
                name = self.local()
                lines_t.append(f"{name} = {a.src}")
                lines_f.append(f"{name} = {b.src}")
                out.append(_Sym(name))
        if lines_t or lines_f:
            self.lines.append(f"if {cond.src}:")
            self.lines += ["    " + line for line in lines_t or ["pass"]]
            self.lines.append("else:")
            self.lines += ["    " + line for line in lines_f or ["pass"]]
        return out[0] if single else out

    def _arm(self, fn: Callable) -> Tuple[List[str], object]:
        """``fn()`` and the lines it emitted, lowered on copies of the
        memos so that the arm's values stay inside it."""
        outer = self.lines, self._seen, self._memo, self._rows
        self.lines = []
        self._seen, self._memo, self._rows = (
            dict(self._seen), dict(self._memo), dict(self._rows))
        try:
            return self.lines, fn()
        finally:
            self.lines, self._seen, self._memo, self._rows = outer

    def term(self, values: List[_Sym], *scales: _Sym) -> None:
        """Accumulate ``values`` times each scale, in order."""
        assert self.lines is self.body, "a term inside a branch arm"
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
                text[src] = self.local()
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
        return self.param(name)

    def param(self, name: str) -> _Sym:
        """The local holding parameter ``name`` (a toggle as a bool)."""
        sym = self.params.get(name)
        if sym is None:
            sym = self.params[name] = _Sym(f"p{len(self.params)}")
        return sym

    def metapipe(self, ctrl: Controller) -> _Sym:
        """A toggled loop's toggle, else whether ``ctrl`` is a MetaPipe."""
        name = self.bound.get((ctrl.nid, ("metapipe",)))
        if name is None:
            return _const(isinstance(ctrl, MetaPipe))
        return self.param(name)

    def double_buffered(self, mem: OnChipMemory) -> _Sym:
        """Whether a MetaPipe double-buffers ``mem``: the loops that would
        (:func:`~repro.ir.graph.double_buffers`), or-ed by their toggles."""
        if self._double is None:
            self._double = {}
            for ctrl in self.design.controllers():
                mp = self.metapipe(ctrl)
                if mp.const and not mp.value:
                    continue
                for buf in double_buffers(ctrl, self._transfers):
                    self._double.setdefault(buf.nid, []).append(mp)
        syms = {sym.src: sym for sym in self._double.get(mem.nid, ())}
        if not syms or any(sym.const for sym in syms.values()):
            return _const(bool(syms))
        if len(syms) == 1:
            return next(iter(syms.values()))
        return self.op("(" + " or ".join("{}" for _ in syms) + ")",
                       *syms.values())

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
                if node.cchain is not None:  # every chain checks its dims
                    counts = self.counts(node.cchain)
                    if not (par.const and par.value == 1):
                        self.check("{} % {} == 0", counts[-1], par)
                if isinstance(node, TileTransfer):
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

    def plan(self) -> ClassPlan:
        design = self.design
        self.legality()
        cycles = walk.cycles(self, design)
        walk.area_terms(self, design)
        raw = self.raw()
        feats = walk.features(self, design, raw, walk.wire_bits(self, design))
        self.lines.append(f"return {cycles.src}, raw, {feats.src}")
        head = [
            f"{sym.src} = bool(p[{name!r}])" if name in self.toggle_names
            else f"{sym.src} = p[{name!r}]"
            for name, sym in self.params.items()
        ]
        source = "def evaluate(p):\n" + "".join(
            f"    {line}\n" for line in head + self.lines
        )
        namespace = dict(self.env, **self.tables)
        exec(compile(source, f"<plan {design.name}>", "exec"), namespace)
        return ClassPlan(
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
