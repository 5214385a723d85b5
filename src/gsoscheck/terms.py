"""Expressions, instructions and program terms shared by every language.

Terms are plain immutable trees: a ``Node`` carries a constructor tag, a
tuple of child terms and a tuple of payload values (expressions, store
locations, instructions).  Nodes, expressions, instructions, ``Var``s and
every machine state are hash-consed ``Value``s: equal values are one
object for the whole process, compared and hashed by identity.  ``Var``
marks a program variable, so a closed program is a ``Node`` tree with no
``Var`` anywhere; ``subterms`` is the one walk of a term.  Which tags are
legal, and with what payload shapes, is decided by each language
definition; the tree type itself is untyped on purpose so that
syntax-preserving compilers are the identity on trees.
"""
from __future__ import annotations

from typing import Iterator, Optional, Union


class IllFormed(Exception):
    """A term, payload or machine state violates a language's rules."""


# every value but a node built so far, keyed on (class, fields)
_VALUES: dict = {}


class Value:
    """An immutable value whose fields are its ``__slots__``, hash-consed:
    ``C(*fields)`` is the one ``C`` with those fields, copies and unpickled
    values included, and its repr is the dataclass one."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, fields)
        value = _VALUES.get(key)
        if value is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes the fields {cls.__slots__}")
            value = _VALUES[key] = object.__new__(cls)
            for name, field in zip(cls.__slots__, fields):
                object.__setattr__(value, name, field)
        return value

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the table
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


# ---------------------------------------------------------------------------
# expressions

BIN_OPS = ("add", "sub", "mul", "lt", "eq", "min")
UN_OPS = ("not",)

BIN_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "lt": "<", "eq": "=", "min": "min"}


class Lit(Value):
    __slots__ = __match_args__ = ("n",)


class Loc(Value):
    """Dereference of store cell ``l`` (the ``var`` expression)."""

    __slots__ = __match_args__ = ("l",)


class Bin(Value):
    __slots__ = __match_args__ = ("op", "lhs", "rhs")


class Un(Value):
    __slots__ = __match_args__ = ("op", "e")


Expr = Union[Lit, Loc, Bin, Un]


def expr_locs(e: Expr) -> set[int]:
    match e:
        case Lit():
            return set()
        case Loc(l):
            return {l}
        case Bin(_, lhs, rhs):
            return expr_locs(lhs) | expr_locs(rhs)
        case Un(_, inner):
            return expr_locs(inner)
    raise IllFormed(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Low instructions

class Nop(Value):
    __slots__ = __match_args__ = ()


class Stop(Value):
    __slots__ = __match_args__ = ()


class IAssign(Value):
    __slots__ = __match_args__ = ("loc", "e")


class Br(Value):
    __slots__ = __match_args__ = ("e", "off")


Inst = Union[Nop, Stop, IAssign, Br]


# ---------------------------------------------------------------------------
# terms

class Var(Value):
    __slots__ = __match_args__ = ("name",)


class Node(Value):
    """One constructor layer: a tag, a tuple of child terms and a tuple of
    payload values.

    ``Node(tag, children, payload)`` is the one node with those fields, so
    equal terms are one object however they were built.  Its table is its
    own: this fixed-signature constructor, on every rule's hot path, is
    faster than ``Value``'s generic one.
    """

    __slots__ = ("tag", "children", "payload")

    def __new__(cls, tag: str, children: tuple = (), payload: tuple = ()):
        key = (tag, children, payload)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            _set_tag(node, tag)
            _set_children(node, children)
            _set_payload(node, payload)
            _NODES[key] = node
        return node

    __hash__ = object.__hash__  # its own attribute, which the benchmark's tracer swaps


# every node built so far, keyed on its fields
_NODES: dict = {}

# the slots' own setters, which bypass the refusing __setattr__
_set_tag, _set_children, _set_payload = (
    Node.__dict__[name].__set__ for name in Node.__slots__)


OpenTerm = Union[Var, Node]


def skip() -> Node:
    return Node("skip")


def assign(l: int, e: Expr) -> Node:
    return Node("assign", (), (l, e))


def seq(p: OpenTerm, q: OpenTerm) -> Node:
    return Node("seq", (p, q))


def while_(e: Expr, p: OpenTerm) -> Node:
    return Node("while", (p,), (e,))


def obs(n: int, p: OpenTerm) -> Node:
    return Node("obs", (p,), (n,))


def sandbox(p: OpenTerm) -> Node:
    return Node("sandbox", (p,))


def isandbox(p: OpenTerm) -> Node:
    return Node("isandbox", (p,))


def frame() -> Node:
    return Node("frame")


def ret() -> Node:
    return Node("return")


def instr(i: Inst, tail: Optional[OpenTerm] = None) -> Node:
    if tail is None:
        return Node("instr", (), (i,))
    return Node("instr", (tail,), (i,))


def instr_list(insts: list[Inst], tail: Optional[OpenTerm] = None) -> Node:
    """Right-nested instruction sequence ending in ``tail``; ``insts`` must be nonempty."""
    if not insts:
        raise IllFormed("Low programs are nonempty instruction sequences")
    for i in reversed(insts):
        tail = instr(i, tail)
    return tail


def instr_flatten(t: Node) -> list[Inst]:
    out = []
    while True:
        if t.tag != "instr":
            raise IllFormed(f"not an instruction sequence: {t.tag}")
        out.append(t.payload[0])
        if not t.children:
            return out
        t = t.children[0]


def sseq(p: OpenTerm, q: OpenTerm) -> Node:
    return Node("sseq", (p, q))


def loop(e: Expr, p: OpenTerm) -> Node:
    return Node("loop", (p,), (e,))


def subterms(t: OpenTerm) -> Iterator[OpenTerm]:
    """Every subterm of ``t``, ``t`` first, in preorder with children left
    to right, walked from one explicit stack so that a deep term is safe."""
    pending = [t]
    while pending:
        t = pending.pop()
        yield t
        if type(t) is Node:
            pending.extend(reversed(t.children))


def is_closed(t: OpenTerm) -> bool:
    """True when no ``Var`` lies anywhere in ``t``."""
    return all(type(s) is Node for s in subterms(t))


def term_size(t: OpenTerm) -> int:
    return sum(1 for _ in subterms(t))


def term_vars(t: OpenTerm) -> list[object]:
    """Variables in left-to-right order, duplicates kept."""
    return [s.name for s in subterms(t) if type(s) is Var]


def subst(t: OpenTerm, env: dict) -> OpenTerm:
    """Replace every ``Var x`` with ``env[x]`` (the free-monad multiplication)."""
    if isinstance(t, Var):
        return env[t.name]
    if not t.children:
        return t
    return Node(t.tag, tuple(subst(c, env) for c in t.children), t.payload)


# ---------------------------------------------------------------------------
# s-expression printing and parsing
#
# One form for every constructor of every language:
#   term := ?NAME | TAG | (TAG payload... term...) | (instr inst... [term])
#   payload := INT | expr
#   inst := (nop) | (stop) | (assign LOC expr) | (br expr INT)
#   expr := (lit INT) | (var NAT) | (not expr) | (add|sub|mul|lt|eq|min expr expr)
# A bare TAG has no payload and no children.  `instr` is flattened and
# nonempty; an optional last item that is not an instruction is its tail, as
# in (instr (nop) ?x), and an (assign ...) item in it is always an
# instruction.  Each language's constructor table, checked by
# ``LangDef.validate``, says which tags, arities and payload kinds are legal.
# Printing produces exactly this form and parsing round-trips it.

def print_expr(e: Expr) -> str:
    match e:
        case Lit(n):
            return f"(lit {n})"
        case Loc(l):
            return f"(var {l})"
        case Bin(op, lhs, rhs):
            return f"({op} {print_expr(lhs)} {print_expr(rhs)})"
        case Un(op, inner):
            return f"({op} {print_expr(inner)})"
    raise IllFormed(f"not an expression: {e!r}")


def _print_payload(v) -> str:
    match v:
        case int():
            return str(v)
        case Nop():
            return "(nop)"
        case Stop():
            return "(stop)"
        case IAssign(loc, e):
            return f"(assign {loc} {print_expr(e)})"
        case Br(e, off):
            return f"(br {print_expr(e)} {off})"
    return print_expr(v)


def print_term(t: OpenTerm) -> str:
    if isinstance(t, Var):
        return f"?{t.name}"
    items = [t.tag, *map(_print_payload, t.payload)]
    # an instruction sequence prints flat: (instr i1 i2 ... [tail])
    while t.tag == "instr" and len(t.children) == 1 \
            and getattr(t.children[0], "tag", None) == "instr":
        t = t.children[0]
        items += map(_print_payload, t.payload)
    items += map(print_term, t.children)
    return f"({' '.join(items)})" if len(items) > 1 else t.tag


# display form used by `compile` for Low targets: instructions joined by ";;"
# with infix expressions, e.g.
#   br !(var 0 < 2) 3 ;; assign 1 (var 1 + 1) ;; br (lit 1) -2

def _infix(e: Expr) -> str:
    # operands of a binary operator: bare numerals for literals
    def atom(a: Expr) -> str:
        match a:
            case Lit(n):
                return str(n)
            case Loc(l):
                return f"var {l}"
        return f"({_infix(a)})"

    match e:
        case Lit(n):
            return f"lit {n}"
        case Loc(l):
            return f"var {l}"
        case Bin("min", lhs, rhs):
            return f"min({_infix(lhs)}, {_infix(rhs)})"
        case Bin(op, lhs, rhs):
            return f"{atom(lhs)} {BIN_SYMBOL[op]} {atom(rhs)}"
        case Un("not", inner):
            return f"!({_infix(inner)})"
    raise IllFormed(f"not an expression: {e!r}")


def _guard(e: Expr) -> str:
    # branch guards keep `!` bare, everything else parenthesised
    if isinstance(e, Un) and e.op == "not":
        return f"!({_infix(e.e)})"
    return f"({_infix(e)})"


def show_inst(i: Inst) -> str:
    match i:
        case Nop():
            return "nop"
        case Stop():
            return "stop"
        case IAssign(loc, e):
            return f"assign {loc} ({_infix(e)})"
        case Br(e, off):
            return f"br {_guard(e)} {off}"
    raise IllFormed(f"not an instruction: {i!r}")


def show_low(t: Node) -> str:
    return " ;; ".join(show_inst(i) for i in instr_flatten(t))


# --- parsing ---

def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise IllFormed("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise IllFormed("missing )")
        return items, pos + 1
    if tok == ")":
        raise IllFormed("unexpected )")
    return tok, pos + 1


def parse_int(tok) -> int:
    try:
        return int(tok)
    except (TypeError, ValueError):
        raise IllFormed(f"expected an integer, got {tok!r}") from None


def parse_expr(sx) -> Expr:
    if not isinstance(sx, list) or not sx:
        raise IllFormed(f"bad expression: {sx!r}")
    head = sx[0]
    if head == "lit" and len(sx) == 2:
        return Lit(parse_int(sx[1]))
    if head == "var" and len(sx) == 2:
        return Loc(parse_int(sx[1]))
    if head in UN_OPS and len(sx) == 2:
        return Un(head, parse_expr(sx[1]))
    if head in BIN_OPS and len(sx) == 3:
        return Bin(head, parse_expr(sx[1]), parse_expr(sx[2]))
    raise IllFormed(f"bad expression: {sx!r}")


def parse_inst(sx) -> Inst:
    if not isinstance(sx, list) or not sx:
        raise IllFormed(f"bad instruction: {sx!r}")
    head = sx[0]
    if head == "nop" and len(sx) == 1:
        return Nop()
    if head == "stop" and len(sx) == 1:
        return Stop()
    if head == "assign" and len(sx) == 3:
        return IAssign(parse_int(sx[1]), parse_expr(sx[2]))
    if head == "br" and len(sx) == 3:
        return Br(parse_expr(sx[1]), parse_int(sx[2]))
    raise IllFormed(f"bad instruction: {sx!r}")


_EXPR_HEADS = ("lit", "var") + UN_OPS + BIN_OPS
_INST_HEADS = ("nop", "stop", "assign", "br")


def _head(sx):
    return sx[0] if isinstance(sx, list) and sx else None


def _payload_item(sx):
    """The integer or expression an item denotes; None for a child term."""
    if _head(sx) in _EXPR_HEADS:
        return parse_expr(sx)
    try:
        return int(sx)
    except (TypeError, ValueError):
        return None


def _build_term(sx):
    if isinstance(sx, str) and sx.startswith("?"):
        return Var(sx[1:])
    tag, *items = [sx] if isinstance(sx, str) else sx or [None]  # a bare tag is (tag)
    if not isinstance(tag, str) or not tag.isalpha():
        raise IllFormed(f"bad term: {sx!r}")
    if tag == "instr":
        tail = _build_term(items.pop()) if items and _head(items[-1]) not in _INST_HEADS else None
        return instr_list([parse_inst(i) for i in items], tail)
    values = [_payload_item(item) for item in items] + [None]
    n = values.index(None)
    if any(v is not None for v in values[n:]):
        raise IllFormed(f"payload after a child in {sx!r}")
    return Node(tag, tuple(map(_build_term, items[n:])), tuple(values[:n]))


# the deepest program parse_term reads, in open parentheses and in nodes on
# a path down its term (an `instr` list has one per instruction); about a
# third of the 329 nested `seq`s on which `run` runs out of stack
MAX_DEPTH = 100


def term_depth(t: OpenTerm) -> int:
    """The most nodes on a path down from ``t``, counted without recursion."""
    deepest, pending = 0, [(t, 1)]
    while pending:
        t, depth = pending.pop()
        deepest = max(deepest, depth)
        if type(t) is Node:
            pending.extend((c, depth + 1) for c in t.children)
    return deepest


def parse_term(text: str) -> Node:
    """The term ``text`` denotes; every program from outside is read here,
    and one nested deeper than ``MAX_DEPTH`` is ill-formed, so that the
    semantics' recursion over it stays far from the stack limit."""
    tokens = _tokenize(text)
    depth = 0
    for tok in tokens:  # before _read recurses once per parenthesis
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_DEPTH:
            raise IllFormed(f"program text nested deeper than {MAX_DEPTH} parentheses")
    sx, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise IllFormed(f"trailing input: {' '.join(tokens[pos:])}")
    term = _build_term(sx)
    if term_depth(term) > MAX_DEPTH:
        raise IllFormed(f"program nested deeper than {MAX_DEPTH} nodes")
    return term
