"""Tiny arithmetic expression language for dynamics and running-cost entries.

Grammar (standard precedence, `^` binds tightest and associates right):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers are either variables (``x0`` .. ``x{n-1}``, ``u1``, ``u2``;
which names are legal is decided by the caller, not the grammar) or one of
the built-in functions ``sin cos tanh exp sqrt abs min max``.  Parsed trees
are immutable and safe to evaluate concurrently; ``compile_expr`` turns one
into nested closures, so repeated evaluation walks no tree.  Evaluation is
strict about domains: division by zero, square roots of negatives and
fractional powers of negatives raise instead of producing NaN.
"""

from __future__ import annotations

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

    ``offset`` is the character offset of the offending token and
    ``expected`` a short hint of what would have been legal there.
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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"found {value!r}" if value else "unexpected end of input",
                                  offset, expected=repr(op))
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {value!r}", offset, expected="end of expression")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            # right associative; exponent may carry a unary minus
            return BinOp("^", node, self.factor())
        return node

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function '{value}'", offset,
                                          expected="one of " + " ".join(sorted(FUNCTIONS)))
                self.advance()
                args = [self.expr()]
                while True:
                    k, v, _ = self.peek()
                    if k == "op" and v == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                arity = FUNCTIONS[value]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"function '{value}' takes {arity} argument(s), got {len(args)}", offset)
                return Call(value, tuple(args))
            return Var(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", offset, expected="an operand")
        raise ExprSyntaxError(f"found {value!r}", offset, expected="an operand")


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ExprSyntaxError carrying the character offset of the problem.
    """
    return _Parser(text).parse()


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
