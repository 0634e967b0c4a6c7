"""The benchmark's programs: seeded inputs plus an independent reference.

A :class:`Program` is one expression written as Python source over named
operands.  The same source is evaluated two ways:

* traced by ``repro`` through the public API (``Session.compile``), where
  the names are bound to :class:`repro.tensor.Tensor` operands, and
* by NumPy in float64, where the names are bound to float64 copies of
  the same data — the reference the f32 outputs are checked against.

Keeping the expression as source text is what makes the reference
independent of the compiler under test: NumPy never sees a ``repro``
graph.
"""

from __future__ import annotations

import ast
import dataclasses

import numpy as np

from repro import tensor as T
from repro.experiments.workloads import Workloads
from repro.frameworks import tfsim

#: Error allowed between an f32 output and the float64 NumPy evaluation:
#: ``max|out - ref| <= F32_RTOL * max(magnitude)``, where the magnitude
#: is the expression over absolute values (see ``Program.reference``).
#: Measured errors stay below 1e-6 of it (f32 epsilon is 6e-8); a wrong
#: kernel or a dropped term misses by orders of magnitude more.
F32_RTOL = 1e-5

#: Size of the paper-mix operands (the paper's own sweep ends at 3000;
#: 512 keeps one pass over the mix near 100 ms on a 2-core box).
PAPER_N = 512

#: Repeats of ``(acc @ b + c - a) @ a.T`` in the dispatch-bound chain —
#: the runtime bench's ``LOOPS``, ~50 instructions on 16x16 operands.
CHAIN_LOOPS = 12
CHAIN_N = 16
#: Distinct feed sets the dispatch-bound callers cycle through.
CHAIN_FEED_SETS = 16


@dataclasses.dataclass
class Program:
    """One expression over named operands, ready to trace or to reference."""

    name: str
    src: str
    params: tuple[str, ...]
    args: list
    backend: str = "tfsim"

    def __post_init__(self) -> None:
        self._code = compile(self.src, f"<{self.name}>", "eval")
        self._magnitude_code = None

    def fn(self):
        """A fresh Python callable computing the expression.

        Fresh per call on purpose: the serving layer keys compiled
        functions by identity, and two programs must never share one.
        """
        code, params = self._code, self.params

        def program(*operands):
            return eval(code, {"eye": tfsim.eye}, dict(zip(params, operands)))

        program.__name__ = self.name
        return program

    def reference(self, args=None) -> tuple[np.ndarray, np.ndarray]:
        """The expression evaluated by NumPy in float64, and its
        magnitude: the same expression over ``|operands|`` with every
        subtraction turned into an addition — the scale rounding errors
        are proportional to, even where the result itself cancels."""
        args = self.args if args is None else args
        datas = [a.data.astype(np.float64) for a in args]
        value = eval(self._code, {"eye": np.eye}, dict(zip(self.params, datas)))
        if self._magnitude_code is None:
            self._magnitude_code = compile(
                ast.fix_missing_locations(_NoSubtraction().visit(
                    ast.parse(self.src, mode="eval"))),
                f"<{self.name}|abs>", "eval",
            )
        magnitude = eval(self._magnitude_code, {"eye": np.eye},
                         dict(zip(self.params, map(np.abs, datas))))
        return (np.asarray(value, dtype=np.float64),
                np.asarray(magnitude, dtype=np.float64))


class _NoSubtraction(ast.NodeTransformer):
    def visit_BinOp(self, node: ast.BinOp) -> ast.BinOp:
        self.generic_visit(node)
        if isinstance(node.op, ast.Sub):
            node.op = ast.Add()
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        return node.operand if isinstance(node.op, ast.USub) else node


def close_to_reference(out: np.ndarray, ref: tuple[np.ndarray, np.ndarray]) -> bool:
    """f32 output within :data:`F32_RTOL` of the float64 value, measured
    against the largest entry of the expression's magnitude."""
    value, magnitude = ref
    out = np.asarray(out)
    if out.size != value.size:
        return False
    out = out.reshape(value.shape)
    err = float(np.max(np.abs(out.astype(np.float64) - value)))
    scale = float(np.max(magnitude))
    return bool(np.isfinite(err)) and err <= F32_RTOL * max(scale, 1e-30)


# -- paper-mix -------------------------------------------------------------------

#: One test expression per row family of the paper's Tables II-VI, plus
#: Fig. 1 variant 1: (name, source, operand roles).
PAPER_EXPRESSIONS = (
    ("cse_sum", "a.T @ b + a.T @ b", ("a", "b")),
    ("cse_prod", "(a.T @ b).T @ a.T @ b", ("a", "b")),
    ("chain_rl", "h.T @ h @ x", ("h", "x")),
    ("chain_lr", "y.T @ h.T @ h", ("h", "y")),
    ("chain_mixed", "h.T @ y @ x.T @ h", ("h", "x", "y")),
    ("trmm", "l @ b", ("l", "b")),
    ("syrk", "a @ a.T", ("a",)),
    ("tridiagonal", "t @ b", ("t", "b")),
    ("diagonal", "d @ b", ("d", "b")),
    ("eq9", "a @ b + a @ c", ("a", "b", "c")),
    ("eq10", "a @ x - h.T @ (h @ x)", ("a", "h", "x")),
    ("partial", "(a @ b)[2, 2]", ("a", "b")),
    ("fig1_v1", f"h.T @ y + (eye({PAPER_N}) - h.T @ h) @ x", ("h", "x", "y")),
)


def paper_mix(seed: int, n: int = PAPER_N) -> list[Program]:
    """Every paper expression once per backend, over seeded f32 operands."""
    w = Workloads(n, seed=seed)
    operands = {
        "a": w.general(0), "b": w.general(1), "c": w.general(2),
        "h": w.general(3), "x": w.vector(0), "y": w.vector(1),
        "l": w.lower_triangular(), "t": w.tridiagonal(), "d": w.diagonal(),
    }
    programs = []
    for name, src, params in PAPER_EXPRESSIONS:
        if n != PAPER_N:
            src = src.replace(f"eye({PAPER_N})", f"eye({n})")
        for backend in ("tfsim", "pytsim"):
            programs.append(Program(
                f"{name}.{backend}", src, params,
                [operands[p] for p in params], backend,
            ))
    return programs


# -- dispatch-chain ------------------------------------------------------------------

def chain_source(loops: int = CHAIN_LOOPS) -> str:
    """``acc = a``, then ``acc = (acc @ b + c - a) @ a.T`` ``loops`` times,
    then ``acc + acc.T`` — the runtime bench's chain.  The inline lambda
    binds ``acc`` once, so the final sum does not duplicate the chain."""
    body = "a"
    for _ in range(loops):
        body = f"({body} @ b + c - a) @ a.T"
    return f"(lambda acc: acc + acc.T)({body})"


def dispatch_chain(seed: int, sets: int = CHAIN_FEED_SETS,
                   loops: int = CHAIN_LOOPS, n: int = CHAIN_N):
    """The dispatch-bound chain and a seeded pool of feed sets for it."""
    rng = np.random.default_rng(seed)
    feed_sets = [
        [T.random_general(n, seed=int(s)) for s in rng.integers(0, 2**31, 3)]
        for _ in range(sets)
    ]
    prog = Program("dispatch_chain", chain_source(loops), ("a", "b", "c"),
                   feed_sets[0])
    return prog, feed_sets


# -- compile-churn -------------------------------------------------------------------

class ChurnStream:
    """A stream of distinct generated matrix-chain programs.

    Each program is a chain of 3-6 factors over mixed dimensions up to
    96 (a dimension of 1 makes a vector), with transposed operands,
    parenthesized sums and lower-triangular or diagonal square factors,
    sometimes plus a trailing addend.  Programs never repeat within a
    stream, so every build is a cold compile.

    Program sizes drive build cost, and two random draws of shapes
    differ by more than the box's run-to-run noise.  So the shapes come
    from a fixed ``catalogue`` generator — every run compiles the same
    mix — and ``seed`` draws every operand value.
    """

    def __init__(self, seed: int, catalogue: int = 0,
                 max_dim: int = 96) -> None:
        self.max_dim = max_dim
        self._rng = np.random.default_rng(catalogue)
        self._values = np.random.default_rng(seed)
        self._seen: set = set()
        self._count = 0
        self._drawn = 0

    def _dim(self) -> int:
        rng = self._rng
        return 1 if rng.random() < 0.2 else int(rng.integers(8, self.max_dim + 1))

    def _operand(self, rows: int, cols: int, kind: str):
        seed = int(self._values.integers(0, 2**31))
        if kind == "L":
            return T.random_lower_triangular(rows, seed=seed)
        if kind == "D":
            return T.random_diagonal(rows, seed=seed)
        return T.random_general(rows, cols, seed=seed)

    def _draw(self):
        rng = self._rng
        factors = 3 + self._drawn % 4
        self._drawn += 1
        dims = [self._dim()]
        for _ in range(factors):
            dims.append(dims[-1] if rng.random() < 0.3 else self._dim())
        terms, shapes = [], []

        def operand(rows, cols, kind="G"):
            name = f"x{len(shapes)}"
            shapes.append((rows, cols, kind))
            return name

        for j in range(factors):
            r, c = dims[j], dims[j + 1]
            u = rng.random()
            if r == c and r > 1 and u < 0.4:
                terms.append(operand(r, c, "L" if u < 0.2 else "D"))
            elif u < 0.6:
                terms.append(operand(r, c))
            elif u < 0.85:
                terms.append(f"{operand(c, r)}.T")
            else:
                terms.append(f"({operand(r, c)} + {operand(r, c)})")
        src = " @ ".join(terms)
        if rng.random() < 0.3:
            src += f" + {operand(dims[0], dims[-1])}"
        return src, shapes

    def next(self) -> Program:
        while True:
            src, shapes = self._draw()
            key = (src, tuple(shapes))
            if key not in self._seen:
                self._seen.add(key)
                break
        args = [self._operand(r, c, kind) for r, c, kind in shapes]
        params = tuple(f"x{i}" for i in range(len(shapes)))
        self._count += 1
        return Program(f"churn{self._count}", src, params, args, "tfsim")
