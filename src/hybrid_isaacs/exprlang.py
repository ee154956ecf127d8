"""Tiny arithmetic expression language for dynamics and running-cost entries.

An expression is Python arithmetic with ``^`` for ``**``, read by Python's
own parser: numbers, identifiers, ``+ - * /``, unary ``-``, ``^`` (binds
tightest, above unary minus, and associates right), parentheses, and calls
of the built-ins ``sin cos tanh exp sqrt abs min max``.  A number is digits
with an optional point and exponent (``01``, ``1.``, ``.5`` too), finite as
a float.  Refused: any other character or construct (unary ``+``, ``**``,
Python keywords, literals other than numbers, ...) and trees nested deeper
than 200 levels.  Which variables (``x0`` .. ``x{n-1}``, ``u1``, ``u2``) are
legal is the caller's choice.  Parsed trees are immutable and safe to
evaluate concurrently; ``compile_expr`` turns one into nested closures, so
repeated evaluation walks no tree.  Evaluation is strict about domains:
division by zero, square roots of negatives and fractional powers of
negatives raise instead of producing NaN.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "UnboundVariableError",
    "ExprDomainError",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "compile_expr",
    "free_vars",
    "to_str",
]

# function name -> arity
FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "tanh": 1,
    "exp": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
}


class ExprError(ValueError):
    """Base class for all expression-language errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression text.

    ``offset`` is the character offset of the offending token (the end of
    the text if input ran out) and ``expected`` a hint of what was legal
    there.  Python's parser's messages ("invalid syntax") pass through.
    """

    def __init__(self, message: str, offset: int, expected: str = ""):
        self.offset = offset
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class ExprEvalError(ExprError):
    """Base class for evaluation-time failures."""


class UnboundVariableError(ExprEvalError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable '{name}'")


class ExprDomainError(ExprEvalError):
    """Evaluation left the legal domain (sqrt of a negative, x/0, ...)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


_MAX_DEPTH = 200    # as deep as Python's parser nests parentheses
_AST_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree, or raise ExprSyntaxError.

    ``ast.parse`` reads the tokens as Python source, ``^`` written ``**`` and
    each number ``0``, whose value is ``float`` of its text; the walk keeps
    only the grammar's node types.
    """
    tokens = _tokenize(text)
    pieces, origin, numbers = [], [], {}    # origin[i]: text offset of source[i]
    for (kind, value, offset), (_, following, next_offset) in zip(tokens, tokens[1:]):
        if kind == "num":
            numbers[len(origin)] = number = float(value)
            if not math.isfinite(number):
                raise ExprSyntaxError(f"number {value!r} is too large", offset)
        elif value == "," and following == ")":    # the tree cannot show this comma
            raise ExprSyntaxError("found ')'", next_offset, expected="an operand")
        pieces.append("0" if kind == "num" else value.replace("^", "**"))
        origin += [offset] * len(pieces[-1]) + [next_offset]
    source = " ".join(pieces)
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:    # offset is 1-based, and 0 at the end of input
        at = origin[exc.offset - 1] if exc.offset else len(text)
        raise ExprSyntaxError(exc.msg, at) from None
    except (RecursionError, MemoryError):    # CPython gives up thousands of levels deep
        raise ExprSyntaxError(f"expression nested deeper than {_MAX_DEPTH} levels", 0) from None

    def build(node, depth=1) -> Expr:
        offset = origin[node.col_offset]
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {_MAX_DEPTH} levels", offset)
        if isinstance(node, ast.Constant) and node.col_offset in numbers:
            return Num(numbers[node.col_offset])
        if isinstance(node, ast.Name):
            return Var(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Neg(build(node.operand, depth + 1))
        if isinstance(node, ast.BinOp) and type(node.op) in _AST_OPS:
            return BinOp(_AST_OPS[type(node.op)], build(node.left, depth + 1),
                         build(node.right, depth + 1))
        # neither ``(sin)(x0)`` nor ``sin(^x0)``, which reads as ``sin(**x0)``
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords
                and source.startswith(" (", node.func.end_col_offset)):
            name = node.func.id
            if name not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function '{name}'", offset,
                                      expected="one of " + " ".join(sorted(FUNCTIONS)))
            if len(node.args) != FUNCTIONS[name]:
                raise ExprSyntaxError(f"function '{name}' takes {FUNCTIONS[name]} "
                                      f"argument(s), got {len(node.args)}", offset)
            return Call(name, tuple(build(arg, depth + 1) for arg in node.args))
        raise ExprSyntaxError(f"unsupported syntax ({type(getattr(node, 'op', node)).__name__})",
                              offset)

    return build(tree.body)


# ---------------------------------------------------------------------------
# evaluation

def _divide(a, b):
    if np.any(b == 0):
        raise ExprDomainError("division by zero")
    return a / b


def _power(a, b):
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any((a_arr == 0) & (b_arr < 0)):
        raise ExprDomainError("zero raised to a negative power")
    neg_base = a_arr < 0
    if np.any(neg_base & (b_arr != np.floor(b_arr))):
        raise ExprDomainError("negative base with non-integer exponent")
    return np.power(a, b)


def _sqrt(a):
    if np.any(np.asarray(a) < 0):
        raise ExprDomainError("sqrt of a negative value")
    return np.sqrt(a)


_FUNCS = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp, "sqrt": _sqrt,
          "abs": np.abs, "min": np.minimum, "max": np.maximum}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power}
_UNCHECKED = {"/": operator.truediv, "^": np.power}


def _never_trips(op: str, c: float) -> bool:
    """Whether a constant right operand ``c`` can never trip ``op``'s check."""
    return (op == "/" and c != 0) or (op == "^" and c >= 0 and float(c).is_integer())


def evaluate(expr: Expr, env: Mapping[str, object]):
    """Evaluate ``expr`` with variables bound by ``env``.

    Values in ``env`` may be scalars or numpy arrays (all of one broadcastable
    shape); the result is a float for scalar input and an ndarray otherwise.
    Raises UnboundVariableError / ExprDomainError.  Compiles ``expr`` each
    time; a caller evaluating it repeatedly keeps ``compile_expr(expr)``.
    """
    result = compile_expr(expr)(env)
    return float(result) if np.ndim(result) == 0 else result


def compile_expr(expr: Expr) -> Callable[[Mapping[str, object]], object]:
    """``expr`` as one function of ``env``, built from nested closures.

    Each closure makes the numpy calls a walk of the tree makes at its node,
    in the same order, so results are bit-identical and errors are raised
    where a walk raises them.  Only checks that can never trip are left out
    (see ``_never_trips``); every other ``/``, ``^`` and ``sqrt`` is checked.
    """
    if isinstance(expr, Num):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name

        def variable(env):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariableError(name) from None
        return variable
    if isinstance(expr, Neg):
        operand = compile_expr(expr.operand)
        return lambda env: -operand(env)
    if isinstance(expr, BinOp):
        left, right = compile_expr(expr.left), compile_expr(expr.right)
        op = _BINARY[expr.op]
        if isinstance(expr.right, Num) and _never_trips(expr.op, expr.right.value):
            op = _UNCHECKED[expr.op]
        return lambda env: op(left(env), right(env))
    if isinstance(expr, Call):
        func = _FUNCS[expr.func]
        args = [compile_expr(arg) for arg in expr.args]
        if len(args) == 2:
            first, second = args
            return lambda env: func(first(env), second(env))
        (arg,) = args
        return lambda env: func(arg(env))
    raise AssertionError(type(expr))


def free_vars(expr: Expr) -> frozenset[str]:
    """Exact set of variable names referenced by ``expr``."""
    if isinstance(expr, Num):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return free_vars(expr.operand)
    if isinstance(expr, BinOp):
        return free_vars(expr.left) | free_vars(expr.right)
    if isinstance(expr, Call):
        out: frozenset[str] = frozenset()
        for arg in expr.args:
            out |= free_vars(arg)
        return out
    raise AssertionError(type(expr))


# ---------------------------------------------------------------------------
# canonical printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        if expr.op in "+-":
            return _PREC_ADD
        if expr.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(expr, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def to_str(expr: Expr) -> str:
    """Canonical text form; ``parse(to_str(e))`` evaluates identically to ``e``."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_str(expr.operand)
        if _prec(expr.operand) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, BinOp):
        lp, rp = _prec(expr.left), _prec(expr.right)
        left = to_str(expr.left)
        right = to_str(expr.right)
        if expr.op in "+-":
            if lp < _PREC_ADD:
                left = f"({left})"
            # float + and - do not reassociate: a+(b+c) keeps its parens
            if rp <= _PREC_ADD:
                right = f"({right})"
            return f"{left} {expr.op} {right}"
        if expr.op in "*/":
            if lp < _PREC_MUL:
                left = f"({left})"
            if rp <= _PREC_MUL:
                right = f"({right})"
            return f"{left}{expr.op}{right}"
        # '^' is right associative and binds above unary minus
        if lp < _PREC_ATOM:
            left = f"({left})"
        if rp < _PREC_NEG:
            right = f"({right})"
        return f"{left}^{right}"
    if isinstance(expr, Call):
        args = ", ".join(to_str(a) for a in expr.args)
        return f"{expr.func}({args})"
    raise AssertionError(type(expr))
