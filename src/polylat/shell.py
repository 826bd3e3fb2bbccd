"""Interactive shell and script runner for the polytope engine.

A deliberately small statement language: assignments, ``print``,
``foreach`` over enumerations, ``if`` on scalar truth, constructor and
function calls, dotted property access (``->`` is accepted as an alias),
vector arithmetic, and a heredoc matrix literal ``<<"."`` whose rows run
until a lone ``.`` line.  Output formats mirror the engine's conventions:
booleans print as 1/0, vectors space-separated, matrices row per line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import objectfile
from .errors import PolylatError, ShellError
from .exactmath import All, Matrix, Vector, _AllType
from .exactmath import all_subsets_of_k as _subsets
from .exactmath import det as _det
from .exactmath import lin_solve as _lin_solve
from .exactmath import minor as _minor
from .exactmath import primitive_rational as _primitive_rational
from .exactmath import rank as _rank
from .geomcore import IncidenceMatrix, cross, cube, from_points
from .graphiso import Graph, isomorphic
from .ruleengine import ComputationObject, Schedule


class IncompleteInputError(ShellError):
    """Input ends inside a heredoc or an open bracket; read more lines."""


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

KEYWORDS = {"print", "foreach", "in", "if"}
SYMBOLS = ("->", "..", "<<", "=", "+", "-", ".", ",", "(", ")", "{", "}",
           "[", "]", ";")


@dataclass(frozen=True)
class Token:
    type: str  # NAME INT RAT STRING HEREDOC NEWLINE SYM EOF or keyword
    value: object
    line: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        lineno = i + 1
        pos = 0
        while pos < len(raw):
            ch = raw[pos]
            if ch in " \t":
                pos += 1
                continue
            if ch == "#":
                break
            if ch == '"':
                end = pos + 1
                out = []
                while end < len(raw) and raw[end] != '"':
                    if raw[end] == "\\" and end + 1 < len(raw):
                        esc = raw[end + 1]
                        out.append({"n": "\n", "t": "\t", '"': '"',
                                    "\\": "\\"}.get(esc, esc))
                        end += 2
                    else:
                        out.append(raw[end])
                        end += 1
                if end >= len(raw):
                    raise ShellError("unterminated string", lineno)
                tokens.append(Token("STRING", "".join(out), lineno))
                pos = end + 1
                continue
            if ch.isdigit():
                end = pos
                while end < len(raw) and raw[end].isdigit():
                    end += 1
                if (end < len(raw) and raw[end] == "/"
                        and end + 1 < len(raw) and raw[end + 1].isdigit()):
                    den_end = end + 1
                    while den_end < len(raw) and raw[den_end].isdigit():
                        den_end += 1
                    tokens.append(Token(
                        "RAT", Fraction(raw[pos:den_end]), lineno))
                    pos = den_end
                else:
                    tokens.append(Token("INT", int(raw[pos:end]), lineno))
                    pos = end
                continue
            if ch.isalpha() or ch == "_":
                end = pos
                while end < len(raw) and (raw[end].isalnum()
                                          or raw[end] == "_"):
                    end += 1
                word = raw[pos:end]
                tokens.append(Token(word if word in KEYWORDS else "NAME",
                                    word, lineno))
                pos = end
                continue
            sym = next((s for s in SYMBOLS if raw.startswith(s, pos)), None)
            if sym == "<<":
                # heredoc: <<"TERM" must end the line; rows follow
                rest = raw[pos + 2:].strip()
                if not (rest.startswith('"') and rest.endswith('"')
                        and len(rest) >= 2):
                    raise ShellError('heredoc needs a "..." terminator',
                                     lineno)
                term = rest[1:-1]
                rows = []
                j = i + 1
                while j < len(lines) and lines[j].strip() != term:
                    rows.append(lines[j].strip())
                    j += 1
                if j >= len(lines):
                    raise IncompleteInputError(
                        f"heredoc not terminated by {term!r}", lineno)
                tokens.append(Token("HEREDOC", tuple(rows), lineno))
                tokens.append(Token("NEWLINE", None, lineno))
                i = j  # the terminator line is consumed
                pos = len(raw)
                break
            if sym is not None:
                tokens.append(Token("SYM", sym, lineno))
                pos += len(sym)
                continue
            raise ShellError(f"unexpected character {ch!r} at column "
                             f"{pos + 1}", lineno)
        else:
            tokens.append(Token("NEWLINE", None, lineno))
            i += 1
            continue
        # reached via break (comment or heredoc): newline unless heredoc
        if not tokens or tokens[-1].type != "NEWLINE":
            tokens.append(Token("NEWLINE", None, lineno))
        i += 1
    tokens.append(Token("EOF", None, len(lines) + 1))
    return tokens


def input_incomplete(text: str) -> bool:
    """True when the text needs more lines (heredoc/brackets still open)."""
    try:
        tokens = tokenize(text)
    except IncompleteInputError:
        return True
    except ShellError:
        return False
    depth = 0
    for t in tokens:
        if t.type == "SYM" and t.value in "({[":
            depth += 1
        elif t.type == "SYM" and t.value in ")}]":
            depth -= 1
    return depth > 0


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction | int


@dataclass(frozen=True)
class Str:
    value: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Heredoc:
    rows: tuple[str, ...]


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    kwargs: tuple  # of (name, expr)
    line: int


@dataclass(frozen=True)
class Access:
    obj: object
    name: str
    args: tuple | None  # None: attribute, tuple: method call
    line: int


@dataclass(frozen=True)
class Index:
    obj: object
    index: object
    line: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    line: int


@dataclass(frozen=True)
class Neg:
    operand: object
    line: int


@dataclass(frozen=True)
class RangeExpr:
    low: object
    high: object
    line: int


@dataclass(frozen=True)
class Assign:
    name: str
    expr: object
    line: int


@dataclass(frozen=True)
class Print:
    exprs: tuple
    line: int


@dataclass(frozen=True)
class Foreach:
    var: str
    iterable: object
    body: tuple
    line: int


@dataclass(frozen=True)
class If:
    cond: object
    body: tuple
    line: int


@dataclass(frozen=True)
class ExprStmt:
    expr: object
    line: int


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset=0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.type != "EOF":
            self.pos += 1
        return t

    def expect_sym(self, sym: str) -> Token:
        t = self.next()
        if t.type != "SYM" or t.value != sym:
            raise ShellError(f"expected {sym!r}, found {t.value!r}", t.line)
        return t

    def at_sym(self, sym: str) -> bool:
        t = self.peek()
        return t.type == "SYM" and t.value == sym

    def skip_separators(self):
        while self.peek().type == "NEWLINE" or self.at_sym(";"):
            self.next()

    def parse_program(self) -> list:
        stmts = []
        self.skip_separators()
        while self.peek().type != "EOF":
            stmts.append(self.parse_statement())
            self.skip_separators()
        return stmts

    def parse_statement(self):
        t = self.peek()
        if t.type == "print":
            self.next()
            exprs = [self.parse_expr()]
            while self.at_sym(","):
                self.next()
                exprs.append(self.parse_expr())
            return Print(tuple(exprs), t.line)
        if t.type == "foreach":
            self.next()
            name = self.next()
            if name.type != "NAME":
                raise ShellError("foreach needs a variable name", name.line)
            kw = self.next()
            if kw.type != "in":
                raise ShellError("foreach needs 'in'", kw.line)
            iterable = self.parse_expr()
            body = self.parse_block()
            return Foreach(name.value, iterable, body, t.line)
        if t.type == "if":
            self.next()
            cond = self.parse_expr()
            body = self.parse_block()
            return If(cond, body, t.line)
        if (t.type == "NAME" and self.peek(1).type == "SYM"
                and self.peek(1).value == "="):
            self.next()
            self.next()
            return Assign(t.value, self.parse_expr(), t.line)
        return ExprStmt(self.parse_expr(), t.line)

    def parse_block(self) -> tuple:
        self.expect_sym("{")
        stmts = []
        self.skip_separators()
        while not self.at_sym("}"):
            if self.peek().type == "EOF":
                raise ShellError("unterminated block", self.peek().line)
            stmts.append(self.parse_statement())
            self.skip_separators()
        self.next()
        return tuple(stmts)

    def parse_expr(self):
        left = self.parse_additive()
        if self.at_sym(".."):
            t = self.next()
            right = self.parse_additive()
            return RangeExpr(left, right, t.line)
        return left

    def parse_additive(self):
        left = self.parse_unary()
        while self.peek().type == "SYM" and self.peek().value in ("+", "-"):
            t = self.next()
            right = self.parse_unary()
            left = BinOp(t.value, left, right, t.line)
        return left

    def parse_unary(self):
        if self.at_sym("-"):
            t = self.next()
            return Neg(self.parse_unary(), t.line)
        return self.parse_postfix()

    def parse_postfix(self):
        node = self.parse_primary()
        while True:
            t = self.peek()
            if t.type == "SYM" and t.value in (".", "->"):
                self.next()
                name = self.next()
                if name.type not in ("NAME", "print", "in", "if", "foreach"):
                    raise ShellError("expected a name after '.'", name.line)
                args = None
                if self.at_sym("("):
                    args, kwargs = self.parse_callargs()
                    if kwargs:
                        raise ShellError("methods take no keyword arguments",
                                         name.line)
                node = Access(node, str(name.value), args, name.line)
            elif t.type == "SYM" and t.value == "[":
                self.next()
                idx = self.parse_expr()
                self.expect_sym("]")
                node = Index(node, idx, t.line)
            else:
                return node

    def parse_callargs(self) -> tuple[tuple, tuple]:
        self.expect_sym("(")
        args = []
        kwargs = []
        while not self.at_sym(")"):
            if (self.peek().type == "NAME" and self.peek(1).type == "SYM"
                    and self.peek(1).value == "="):
                key = self.next().value
                self.next()
                kwargs.append((key, self.parse_expr()))
            else:
                args.append(self.parse_expr())
            if self.at_sym(","):
                self.next()
            elif not self.at_sym(")"):
                raise ShellError("expected ',' or ')' in call",
                                 self.peek().line)
        self.next()
        return tuple(args), tuple(kwargs)

    def parse_primary(self):
        t = self.next()
        if t.type == "INT" or t.type == "RAT":
            return Num(t.value)
        if t.type == "STRING":
            return Str(t.value)
        if t.type == "HEREDOC":
            return Heredoc(t.value)
        if t.type == "NAME":
            if self.at_sym("("):
                args, kwargs = self.parse_callargs()
                return Call(t.value, args, kwargs, t.line)
            return Var(t.value)
        if t.type == "SYM" and t.value == "(":
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        if t.type == "SYM" and t.value == "<<":
            raise ShellError("heredoc must close its line", t.line)
        raise ShellError(f"unexpected {t.value!r}", t.line)


def parse(text: str) -> list:
    return Parser(tokenize(text)).parse_program()


# ---------------------------------------------------------------------------
# unparser (for the grammar round-trip invariant)
# ---------------------------------------------------------------------------

def unparse_expr(node, heredocs: list) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Str):
        body = (node.value.replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n").replace("\t", "\\t"))
        return f'"{body}"'
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Heredoc):
        heredocs.append(node)
        return '<<"."'
    if isinstance(node, Call):
        parts = [unparse_expr(a, heredocs) for a in node.args]
        parts += [f"{k}={unparse_expr(v, heredocs)}" for k, v in node.kwargs]
        return f"{node.name}({', '.join(parts)})"
    if isinstance(node, Access):
        base = f"{unparse_expr(node.obj, heredocs)}.{node.name}"
        if node.args is None:
            return base
        return base + "(" + ", ".join(unparse_expr(a, heredocs)
                                      for a in node.args) + ")"
    if isinstance(node, Index):
        return (f"{unparse_expr(node.obj, heredocs)}"
                f"[{unparse_expr(node.index, heredocs)}]")
    if isinstance(node, BinOp):
        return (f"{unparse_expr(node.left, heredocs)} {node.op} "
                f"{unparse_expr(node.right, heredocs)}")
    if isinstance(node, Neg):
        return f"-{unparse_expr(node.operand, heredocs)}"
    if isinstance(node, RangeExpr):
        return (f"{unparse_expr(node.low, heredocs)}.."
                f"{unparse_expr(node.high, heredocs)}")
    raise AssertionError(node)


def unparse_stmt(stmt, indent: str = "") -> str:
    heredocs: list[Heredoc] = []

    def finish(line: str) -> str:
        chunks = [indent + line]
        for h in heredocs:
            chunks.extend(h.rows)
            chunks.append(".")
        return "\n".join(chunks)

    if isinstance(stmt, Assign):
        return finish(f"{stmt.name} = {unparse_expr(stmt.expr, heredocs)}")
    if isinstance(stmt, Print):
        return finish("print " + ", ".join(unparse_expr(e, heredocs)
                                           for e in stmt.exprs))
    if isinstance(stmt, ExprStmt):
        return finish(unparse_expr(stmt.expr, heredocs))
    if isinstance(stmt, Foreach):
        head = (f"foreach {stmt.var} in "
                f"{unparse_expr(stmt.iterable, heredocs)} {{")
        body = [unparse_stmt(s, indent + "  ") for s in stmt.body]
        return "\n".join([finish(head)] + body + [indent + "}"])
    if isinstance(stmt, If):
        head = f"if {unparse_expr(stmt.cond, heredocs)} {{"
        body = [unparse_stmt(s, indent + "  ") for s in stmt.body]
        return "\n".join([finish(head)] + body + [indent + "}"])
    raise AssertionError(stmt)


def unparse(stmts) -> str:
    return "\n".join(unparse_stmt(s) for s in stmts)


# ---------------------------------------------------------------------------
# values and formatting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeInfo:
    name: str
    full_name: str


def format_value(v) -> str:
    if v is None:
        return "undef"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, Fraction)):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, Vector):
        return str(v)
    if isinstance(v, Matrix):
        return str(v)
    if isinstance(v, (frozenset, set)):
        return "{" + " ".join(str(x) for x in sorted(v)) + "}"
    if isinstance(v, tuple):
        return "{" + " ".join(str(x) for x in v) + "}"
    if isinstance(v, IncidenceMatrix):
        return str(v)
    if isinstance(v, Graph):
        return str(v)
    if isinstance(v, Schedule):
        return str(v)
    if isinstance(v, TypeInfo):
        return v.full_name
    if isinstance(v, range):
        return f"{v.start}..{v.stop - 1}"
    if isinstance(v, ComputationObject):
        return repr(v)
    if isinstance(v, list):
        if all(isinstance(x, str) for x in v):
            return ", ".join(v)
        return "\n".join(format_value(x) for x in v)
    if isinstance(v, _AllType):
        return "All"
    return str(v)


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

class Environment:
    def __init__(self, rulebase=None, out=None):
        if rulebase is None:
            from .rules import DEFAULT_RULEBASE
            rulebase = DEFAULT_RULEBASE
        self.rulebase = rulebase
        self.out = out if out is not None else sys.stdout
        self.vars: dict[str, object] = {}

    def write(self, text: str):
        self.out.write(text)


def _want(args, n, name, line):
    if len(args) != n:
        raise ShellError(f"{name}() takes {n} argument(s), got {len(args)}",
                         line)


def _builtin(env: Environment, name: str, args, kwargs, line):
    if name == "cube":
        _want(args, 1, name, line)
        return cube(int(args[0]), rulebase=env.rulebase)
    if name == "cross":
        _want(args, 1, name, line)
        return cross(int(args[0]), rulebase=env.rulebase)
    if name == "polytope":
        kw = dict(kwargs)
        if args or set(kw) != {"points"}:
            raise ShellError("polytope(points=...) is the only form", line)
        return from_points(kw["points"], rulebase=env.rulebase)
    if name == "vector":
        return Vector(args)
    if name == "matrix":
        rows = []
        for a in args:
            if not isinstance(a, Vector):
                raise ShellError("matrix() takes vector arguments", line)
            rows.append(a.entries)
        return Matrix(rows)
    if name == "det":
        _want(args, 1, name, line)
        return _det(args[0])
    if name == "transpose":
        _want(args, 1, name, line)
        return args[0].transpose()
    if name == "lin_solve":
        _want(args, 2, name, line)
        return _lin_solve(args[0], args[1])
    if name == "minor":
        if len(args) == 2:
            return _minor(args[0], args[1], All)
        _want(args, 3, name, line)
        return _minor(args[0], args[1], args[2])
    if name == "all_subsets_of_k":
        _want(args, 2, name, line)
        return _subsets(int(args[0]), args[1])
    if name == "rank":
        _want(args, 1, name, line)
        return _rank(args[0])
    if name == "primitive":
        _want(args, 1, name, line)
        return Vector(_primitive_rational(args[0]))
    if name == "isomorphic":
        _want(args, 2, name, line)
        return isomorphic(args[0], args[1])
    if name == "graph":
        _want(args, 1, name, line)
        if not isinstance(args[0], Graph):
            raise ShellError("graph() copies a graph value", line)
        return args[0].copy()
    if name == "is_integral":
        _want(args, 1, name, line)
        return args[0].is_integral()
    if name == "has_negative":
        _want(args, 1, name, line)
        return any(x < 0 for x in args[0])
    if name == "save":
        _want(args, 2, name, line)
        objectfile.save_object(args[0], str(args[1]))
        return None
    if name == "load":
        _want(args, 1, name, line)
        return objectfile.load_object(str(args[0]), rulebase=env.rulebase)
    raise ShellError(f"unknown function {name!r}", line)


def _access(env: Environment, value, name: str, args, line):
    if isinstance(value, ComputationObject):
        if name == "type":
            spec = value.rulebase.class_spec(value.class_tag)
            return TypeInfo(spec.name, spec.full_name)
        if name == "list_properties":
            return value.list_properties()
        if name == "get_schedule":
            if args is None or not args:
                raise ShellError("get_schedule needs property names", line)
            return value.get_schedule(*[str(a) for a in args])
        if args is None:
            return value.request(name)
        raise ShellError(f"unknown method {name!r} on object", line)
    if isinstance(value, Schedule):
        if name == "apply":
            if args is None or len(args) != 1:
                raise ShellError("apply takes the object", line)
            value.apply(args[0])
            return None
        if name == "list":
            return value.list()
        raise ShellError(f"unknown member {name!r} on schedule", line)
    if isinstance(value, Graph):
        if name == "contract_edge":
            if args is None or len(args) != 2:
                raise ShellError("contract_edge takes two nodes", line)
            value.contract_edge(int(args[0]), int(args[1]))
            return None
        if name == "squeeze":
            value.squeeze()
            return None
        if name == "ADJACENCY":
            return value
        raise ShellError(f"unknown member {name!r} on graph", line)
    if isinstance(value, TypeInfo):
        if name == "full_name":
            return value.full_name
        if name == "name":
            return value.name
    raise ShellError(
        f"cannot access {name!r} on {type(value).__name__}", line)


def _evaluate(env: Environment, node):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Str):
        return node.value
    if isinstance(node, Var):
        if node.name == "All":
            return All
        if node.name not in env.vars:
            raise ShellError(f"unbound variable {node.name!r}", None)
        return env.vars[node.name]
    if isinstance(node, Heredoc):
        try:
            rows = [[Fraction(t) for t in row.split()] for row in node.rows]
            return Matrix(rows)
        except (ValueError, ZeroDivisionError) as exc:
            raise ShellError(f"bad matrix row: {exc}", None) from exc
    if isinstance(node, Call):
        args = [_evaluate(env, a) for a in node.args]
        kwargs = [(k, _evaluate(env, v)) for k, v in node.kwargs]
        try:
            return _builtin(env, node.name, args, kwargs, node.line)
        except PolylatError:
            raise
        except (ValueError, TypeError, OSError) as exc:
            raise ShellError(str(exc), node.line) from exc
    if isinstance(node, Access):
        obj = _evaluate(env, node.obj)
        args = (None if node.args is None
                else [_evaluate(env, a) for a in node.args])
        return _access(env, obj, node.name, args, node.line)
    if isinstance(node, Index):
        obj = _evaluate(env, node.obj)
        idx = int(_evaluate(env, node.index))
        try:
            item = obj[idx]
        except (IndexError, TypeError, KeyError) as exc:
            raise ShellError(f"bad index {idx}: {exc}", node.line) from exc
        return item
    if isinstance(node, BinOp):
        left = _evaluate(env, node.left)
        right = _evaluate(env, node.right)
        try:
            return left + right if node.op == "+" else left - right
        except (TypeError, PolylatError) as exc:
            raise ShellError(f"bad operands for {node.op!r}: {exc}",
                             node.line) from exc
    if isinstance(node, Neg):
        val = _evaluate(env, node.operand)
        try:
            return -val
        except TypeError as exc:
            raise ShellError(f"cannot negate {type(val).__name__}",
                             node.line) from exc
    if isinstance(node, RangeExpr):
        lo = int(_evaluate(env, node.low))
        hi = int(_evaluate(env, node.high))
        return range(lo, hi + 1)
    raise AssertionError(node)


def _truthy(value, line) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)):
        return value != 0
    raise ShellError("condition must be a scalar", line)


def _execute(env: Environment, stmt):
    try:
        if isinstance(stmt, Assign):
            env.vars[stmt.name] = _evaluate(env, stmt.expr)
        elif isinstance(stmt, Print):
            text = "".join(format_value(_evaluate(env, e))
                           for e in stmt.exprs)
            if not text.endswith("\n"):
                text += "\n"
            env.write(text)
        elif isinstance(stmt, ExprStmt):
            _evaluate(env, stmt.expr)
        elif isinstance(stmt, Foreach):
            iterable = _evaluate(env, stmt.iterable)
            if not isinstance(iterable, (list, tuple, range)):
                raise ShellError("foreach needs an enumeration", stmt.line)
            for item in iterable:
                env.vars[stmt.var] = item
                for inner in stmt.body:
                    _execute(env, inner)
        elif isinstance(stmt, If):
            if _truthy(_evaluate(env, stmt.cond), stmt.line):
                for inner in stmt.body:
                    _execute(env, inner)
        else:
            raise AssertionError(stmt)
    except ShellError as exc:
        if exc.line is None:
            raise ShellError(exc.message, stmt.line) from exc
        raise
    except PolylatError as exc:
        raise ShellError(str(exc), stmt.line) from exc


def eval_text(text: str, env: Environment | None = None) -> Environment:
    """Parse and execute statements; returns the environment used."""
    env = env or Environment()
    for stmt in parse(text):
        _execute(env, stmt)
    return env


def schedule_print(obj: ComputationObject, *keys: str) -> str:
    """One rule per line, 'TARGETS : SOURCES'; '(already computed)' when
    nothing needs to run."""
    return str(obj.get_schedule(*keys))


def run_script(path: str, out=None, rulebase=None) -> int:
    """Execute a script file; returns a process exit status."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = Environment(rulebase=rulebase, out=out)
    try:
        eval_text(text, env)
    except ShellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


BANNER = """polylat interactive shell -- exact polytopes over the rationals
statements: X = expr | print expr | foreach v in ... { } | if cond { }
matrices:   M = <<"."  then one row per line, finished by a lone "."
"""


def repl(input_fn: Callable[[str], str] = input, out=None,
         rulebase=None) -> int:
    env = Environment(rulebase=rulebase, out=out)
    env.write(BANNER)
    while True:
        try:
            buffer = input_fn("polytope > ")
        except EOFError:
            env.write("\n")
            return 0
        lineno = 1
        while input_incomplete(buffer):
            lineno += 1
            try:
                buffer += "\n" + input_fn(f"polytope ({lineno})> ")
            except EOFError:
                env.write("\n")
                return 0
        try:
            eval_text(buffer, env)
        except ShellError as exc:
            env.write(f"error: {exc}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polylat",
        description="Exact rational polytope shell: rule-driven properties, "
                    "lattice invariants, Hilbert bases.")
    parser.add_argument("--script", metavar="FILE",
                        help="run a script file and exit")
    parser.add_argument("--eval", dest="eval_text", metavar="TEXT",
                        help="evaluate statements and exit")
    parser.add_argument("--trace-rules", action="store_true",
                        help="print each rule as it fires")
    args = parser.parse_args(argv)

    from .rules import DEFAULT_RULEBASE
    hook = None
    if args.trace_rules:
        def hook(rule, obj):
            print(f"used rule {rule.label}")
        DEFAULT_RULEBASE.trace_hooks.append(hook)
    try:
        if args.script:
            return run_script(args.script)
        if args.eval_text is not None:
            try:
                eval_text(args.eval_text)
            except ShellError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            return 0
        return repl()
    finally:
        if hook is not None:
            DEFAULT_RULEBASE.trace_hooks.remove(hook)


if __name__ == "__main__":
    sys.exit(main())
