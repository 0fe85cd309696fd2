"""Linear-program container and a self-contained bounded-variable simplex solver.

The solver is a dense revised simplex with power-of-two equilibration, so
cycle counts (~1e6) and seconds (~1e-3) coexist in one tableau; a CompiledLP
keeps its equilibration, so repeated solves of one program (branch-and-bound
nodes) scale it once. CompiledLP.copy_with_rhs makes a copy of a compiled
program with one right-hand side changed (a sweep row's energy budget); the
copy shares the original's matrices and scaling.

The basis inverse is kept in product form: a dense inverse of the basis at
the last refactorization times an eta file of rank-1 pivot updates, so a
pivot costs O(m*k) for k updates instead of rewriting an m x m matrix. Slack
columns are identity columns and are never built: pricing, column reads and
row activities take them from their row, and a refactorization inverts only
the structural kernel of the basis, the rows its slacks leave uncovered. A
solve ends on the eta file as it stands unless it fails a residual check,
and refactors only then. A CompiledLP keeps the last inverse computed for
it, with its basis, and neither bounds nor right-hand sides enter an
inverse: a warm solve that starts where an earlier solve of the same matrix
factored (a sweep row from the crash an earlier row started from, a
branch-and-bound child) adopts that inverse, so each basis is factored
once. Solutions are re-checked against the original data before being
reported; numerical trouble is surfaced as a status, never silently.

solve_lp requires every column to have a finite bound on the side its cost
prefers (the upper bound when the cost, in min sense, is negative, else the
lower); the scheduling and MILP programs are boxed that way. Such a program
is bounded, and a solve starts from the first of these that fits
(_Simplex.solve):
  warm   a basis the caller passes: an earlier solve's (LPSolution.basis)
         of the same program after a change of the right-hand side or of
         variable bounds, or a crash basis built from the program's own
         rows and columns (schedlp.asap_basis); it fits when it is
         nonsingular and dual feasible;
  slack  every slack basic and every structural column on its preferred
         bound: with y = 0 the reduced costs are the costs, so this basis
         is always dual feasible.
From either a bounded dual simplex, with reduced costs updated in place
between refactorizations, restores primal feasibility or proves that none
exists. It keeps the basis dual feasible, so it ends every solve: a primal
feasible basis is optimal. A final check re-prices the nonbasic columns
from the final basis; a reduced cost of the wrong sign refactors and
re-checks, and one that a fresh factorization confirms is the status
"numerical". LPSolution.start records which start a solve took.

Dual conventions (reduced cost rc = c - A^T y):
  min: '<=' rows carry y <= 0, '>=' rows y >= 0; x at lower bound -> rc >= 0,
       x at upper bound -> rc <= 0.
  max: signs flipped ('<=' rows y >= 0; x at lower -> rc <= 0).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType

import numpy as np

__all__ = [
    "INF",
    "LE",
    "GE",
    "EQ",
    "LinearProgram",
    "CompiledLP",
    "LPSolution",
    "solve_lp",
    "max_violation",
    "write_lp_file",
]

INF = float("inf")
LE, GE, EQ = "<=", ">=", "=="
_SENSES = (LE, GE, EQ)

FEAS_TOL = 1e-7  # absolute feasibility tolerance on scaled rows


class LinearProgram:
    """Named variables with bounds, linear rows, and one linear objective."""

    def __init__(self):
        self._var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        self._lo: list[float] = []
        self._hi: list[float] = []
        self._row_names: list[str] = []
        self._row_index: dict[str, int] = {}
        self._rows: list[tuple[dict[str, float], str, float]] = []
        self.maximize = False
        self._obj: dict[str, float] = {}
        self.objective_constant = 0.0

    @property
    def n_vars(self) -> int:
        return len(self._var_names)

    @property
    def n_rows(self) -> int:
        return len(self._row_names)

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(self._var_names)

    @property
    def row_names(self) -> tuple[str, ...]:
        return tuple(self._row_names)

    @property
    def var_index(self) -> Mapping[str, int]:
        """Each variable's column, by name (a read-only view)."""
        return MappingProxyType(self._var_index)

    @property
    def row_index(self) -> Mapping[str, int]:
        """Each row's position, by name (a read-only view)."""
        return MappingProxyType(self._row_index)

    def add_var(self, name: str, lo: float = 0.0, hi: float = INF) -> str:
        if name in self._var_index:
            raise ValueError(f"duplicate variable {name!r}")
        if not lo <= hi:
            raise ValueError(f"variable {name!r}: lower bound exceeds upper bound")
        self._var_index[name] = len(self._var_names)
        self._var_names.append(name)
        self._lo.append(float(lo))
        self._hi.append(float(hi))
        return name

    def add_row(self, name: str, coeffs: dict, sense: str, rhs: float) -> str:
        if name in self._row_index:
            raise ValueError(f"duplicate row {name!r}")
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        for v in coeffs:
            if v not in self._var_index:
                raise ValueError(f"row {name!r} references unknown variable {v!r}")
        if not math.isfinite(rhs):
            raise ValueError(f"row {name!r}: non-finite right-hand side")
        self._row_index[name] = len(self._row_names)
        self._row_names.append(name)
        self._rows.append((dict(coeffs), sense, float(rhs)))
        return name

    def set_objective(self, sense: str, coeffs: dict, constant: float = 0.0):
        if sense not in ("min", "max"):
            raise ValueError("objective sense must be 'min' or 'max'")
        for v in coeffs:
            if v not in self._var_index:
                raise ValueError(f"objective references unknown variable {v!r}")
        self.maximize = sense == "max"
        self._obj = dict(coeffs)
        self.objective_constant = float(constant)

    def rhs(self, row: str) -> float:
        """The right-hand side of a row."""
        return self._rows[self._row_index[row]][2]

    def compile(self) -> "CompiledLP":
        nv, nr = self.n_vars, self.n_rows
        index = self._var_index
        coeffs, senses, rhs = zip(*self._rows) if nr else ((), (), ())
        # every coefficient at once: its row, its column and its value
        counts = np.fromiter(map(len, coeffs), np.intp, nr)
        nnz = int(counts.sum())
        rows = np.repeat(np.arange(nr), counts)
        cols = np.fromiter(map(index.__getitem__, chain.from_iterable(coeffs)), np.intp, nnz)
        vals = np.fromiter(chain.from_iterable(map(dict.values, coeffs)), float, nnz)
        finite = np.isfinite(vals)
        if not finite.all():
            name = self._row_names[rows[np.argmin(finite)]]
            raise ValueError(f"non-finite coefficient in row {name!r}")
        A = np.zeros((nr, nv))
        A[rows, cols] = vals
        A.flags.writeable = False  # the solver caches what it derives from A
        c = np.zeros(nv)
        for v, a in self._obj.items():
            c[index[v]] = a
        return CompiledLP(
            var_names=tuple(self._var_names),
            var_index=dict(index),
            row_names=tuple(self._row_names),
            A=A,
            b=np.array(rhs, dtype=float),
            senses=senses,
            c=c,
            lo=np.fromiter(self._lo, float, nv),
            hi=np.fromiter(self._hi, float, nv),
            maximize=self.maximize,
            constant=self.objective_constant,
        )


@dataclass
class CompiledLP:
    var_names: tuple[str, ...]
    var_index: dict[str, int]
    row_names: tuple[str, ...]
    A: np.ndarray  # read-only; a program with another A needs dataclasses.replace
    b: np.ndarray
    senses: tuple[str, ...]
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    maximize: bool
    constant: float
    # what solve_lp derives from A alone, the last basis inverse included
    # (see _scaling); dataclasses.replace starts a new program with an empty
    # cache
    _scaled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def copy_with_rhs(self, row: str, rhs: float) -> "CompiledLP":
        """A copy with the right-hand side of one row replaced. It shares A
        and every other array but b, and the cache of _scaling, whose last
        basis inverse serves both: no right-hand side enters an inverse."""
        if not math.isfinite(rhs):
            raise ValueError(f"row {row!r}: non-finite right-hand side")
        b = self.b.copy()
        b[self.row_names.index(row)] = rhs
        copy = dataclasses.replace(self, b=b)
        copy._scaled = _scaling(self)
        return copy


@dataclass
class LPSolution:
    status: str  # optimal | infeasible | numerical
    objective: float | None
    values: dict[str, float]
    duals: dict[str, float]
    iterations: int
    message: str = ""
    # basis inverses computed; one adopted from the program's cache is not counted
    refactors: int = 0
    # largest violation of the original rows and bounds (max_violation);
    # None when the solution was not re-checked
    violation: float | None = None
    # final status of each structural and slack column (0 at lower bound,
    # 1 at upper, 2 basic), to warm-start a later solve of the same
    # program; set when optimal, or infeasible by the dual simplex
    basis: np.ndarray | None = None
    # how the simplex started: "warm" (the caller's basis, an earlier solve's
    # or a crash) or "slack" (the slack basis); "" when no simplex ran (an
    # empty variable box or no rows)
    start: str = ""

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def max_violation(comp: CompiledLP, x: np.ndarray, lo=None, hi=None) -> float:
    """Largest constraint/bound violation of x, normalized per row."""
    lo = comp.lo if lo is None else lo
    hi = comp.hi if hi is None else hi
    worst = 0.0
    if comp.A.shape[0]:
        act = comp.A @ x - comp.b
        row_max, _, (le, ge) = _scaling(comp)[3:]
        v = np.where(le, act, np.where(ge, -act, np.abs(act)))
        worst = float((v / np.maximum(row_max, np.abs(comp.b))).max(initial=0.0))
    bscale = np.maximum(1.0, np.maximum(np.abs(x), np.where(np.isfinite(lo), np.abs(lo), 0.0)))
    lov = np.where(np.isfinite(lo), (lo - x) / bscale, 0.0)
    hiv = np.where(np.isfinite(hi), (x - hi) / bscale, 0.0)
    if len(x):
        worst = max(worst, float(lov.max(initial=0.0)), float(hiv.max(initial=0.0)))
    return worst


def _pow2_scale(values: np.ndarray) -> np.ndarray:
    """1/values rounded to the nearest power of two (exact in float64)."""
    out = np.ones_like(values)
    mask = values > 0
    out[mask] = np.exp2(-np.round(np.log2(values[mask])))
    return out


def _equilibrate(shape, rows, cols, M) -> tuple[np.ndarray, np.ndarray]:
    """Geometric-mean row/column scaling (powers of two, hence exact).

    Balances rows and columns whose nonzeros span many orders of magnitude,
    e.g. cycle counts next to per-cycle energies; max-norm scaling alone
    cannot fix a column whose largest coefficient is already O(1). Works on
    the nonzeros only, at (rows, cols) of a matrix of this shape with
    magnitudes M: the scheduling programs are about 1% dense.
    """
    nr, nc = shape
    R = np.ones(nr)
    C = np.ones(nc)

    def extremes(index, n):
        S = M * R[rows] * C[cols]
        hi = np.zeros(n)
        np.maximum.at(hi, index, S)
        lo = np.full(n, np.inf)
        np.minimum.at(lo, index, np.where(S > 0, S, np.inf))
        return hi, lo

    def mean_scale(hi, lo):
        with np.errstate(invalid="ignore"):
            return _pow2_scale(np.where((hi > 0) & np.isfinite(lo), np.sqrt(hi * lo), 1.0))

    for _ in range(2):
        R *= mean_scale(*extremes(rows, nr))
        C *= mean_scale(*extremes(cols, nc))
    # final row pass so every row's largest entry is near 1
    R *= _pow2_scale(extremes(rows, nr)[0])
    return R, C


def _scaling(comp: CompiledLP):
    """(R, C, the scaled A, the row scales of max_violation, the last basis
    inverse, the masks of the '<=' and '>=' rows): everything the solver
    derives from A and the senses alone, computed once per CompiledLP, so
    that the nodes of a branch-and-bound share it. The first four come from
    the nonzeros; the fifth is a one-slot list that _Simplex._refactor fills
    with (basis, B0^-1)."""
    if comp._scaled is None:
        A = comp.A
        rows, cols = np.nonzero(A)
        vals = A[rows, cols]
        M = np.abs(vals)
        R, C = _equilibrate(A.shape, rows, cols, M)
        As = np.zeros(A.shape)
        As[rows, cols] = vals * R[rows] * C[cols]
        As.flags.writeable = False
        row_max = np.zeros(A.shape[0])
        np.maximum.at(row_max, rows, M)
        senses = np.array(comp.senses)
        comp._scaled = R, C, As, np.maximum(1.0, row_max), [None], (senses == LE, senses == GE)
    return comp._scaled


def _dual_tol(c: np.ndarray) -> float:
    """Reduced-cost tolerance, relative to the largest cost (1 when c = 0)."""
    return 1e-9 * (float(np.abs(c).max(initial=0.0)) or 1.0)


class _Simplex:
    """Bounded-variable simplex on pre-scaled dense data (nr >= 1).

    The columns are [A | I]: the nv structural columns of A, then one slack
    per row, the identity column of that row, which is never built.

    B^-1 = (I + P Q^T) B0^-1, where B0^-1 is the dense inverse taken at the
    last refactorization and the k columns of P and Q (stored as the first k
    rows of eta_p and eta_q) hold one rank-1 update per pivot since then.
    The file holds REFACTOR_EVERY updates; filling it forces a refactor.
    A refactorization inverts only the basis's structural kernel (_invert);
    the end of a solve refactors only when the basis fails _residuals_ok.
    factor, a one-slot list shared by the solves of one scaled A, holds the
    last inverse computed and its basis, in position order; a refactor at
    that basis adopts it (_refactor).

    solve() loads a caller's basis through _load_basis where it fits, else
    adopts the slack basis (_adopt), runs the dual simplex (_dual) from it
    and checks the signs of the final reduced costs (_dual_infeasible).
    """

    PIV_TOL = 1e-9
    PRIMAL_TOL = 1e-9  # the dual simplex takes basics this far past a bound as feasible
    REFACTOR_EVERY = 128
    # Relative to the largest |b|, |x| (primal) or |c| (dual). It bounds the
    # residuals, not the reduced-cost error: a dual residual r moves the
    # reduced cost of column j by r B^-1 a_j, more on an ill-conditioned basis.
    # Set from measurement: on the benchmark workloads primal residuals stay
    # below 2e-15, dual ones reach 6e-10 (those solves refactor), and the
    # solutions agree with HiGHS and the recorded objectives.
    RESID_TOL = 1e-10

    def __init__(self, A, b, senses, c_min, lo, hi, factor=None):
        nr, nv = A.shape
        self.nr, self.nv = nr, nv
        slack_lo = np.array([0.0 if s == LE else (-INF if s == GE else 0.0) for s in senses])
        slack_hi = np.array([INF if s == LE else (0.0 if s == GE else 0.0) for s in senses])
        self.ncols = nv + nr
        self.A = A
        self.b = b.astype(float)
        self.lo = np.concatenate([lo, slack_lo])
        self.hi = np.concatenate([hi, slack_hi])
        self.c_min = c_min
        self.iterations = 0
        self.refactors = 0
        self.factor = [None] if factor is None else factor
        self.eta_p = np.empty((self.REFACTOR_EVERY, nr))
        self.eta_q = np.empty((self.REFACTOR_EVERY, nr))

    def _prices(self, y):
        """y [A | I] for every column: y A, then y itself for the slacks."""
        return np.concatenate([y @ self.A, y])

    def _times(self, x):
        """[A | I] x."""
        return self.A @ x[: self.nv] + x[self.nv :]

    def _column(self, j):
        """Column j of [A | I], dense."""
        if j < self.nv:
            return self.A[:, j]
        a = np.zeros(self.nr)
        a[j - self.nv] = 1.0
        return a

    def _refactor(self):
        """Make B0^-1 the inverse of the basis and empty the eta file.

        The inverse of the basis in self.factor is adopted from there, the
        same array _invert would compute again; any other is computed and
        takes its place. Either way self.d goes stale.
        """
        key = self.basis.tobytes()
        if self.factor[0] is None or self.factor[0][0] != key:
            self.factor[0] = key, self._invert()
            self.refactors += 1
        inv = self.B0_inv = self.factor[0][1]
        self.n_eta = 0
        self.d = None
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = inv @ (self.b - self._times(xn))

    def _invert(self):
        """The inverse of the basis, from its structural kernel (read-only).

        Each basic slack covers its own row. With those rows and positions
        moved last, B = [[B_kk, 0], [B_sk, I]], so B^-1 = [[K, 0], [-B_sk K, I]]
        for K = B_kk^-1.
        """
        nv = self.nv
        slack = self.basis >= nv
        pos_s, pos_u = np.nonzero(~slack)[0], np.nonzero(slack)[0]
        cols = self.basis[pos_s]
        rows_u = self.basis[pos_u] - nv
        covered = np.zeros(self.nr, dtype=bool)
        covered[rows_u] = True
        rows_k = np.nonzero(~covered)[0]
        try:
            K = np.linalg.inv(self.A[np.ix_(rows_k, cols)])
        except np.linalg.LinAlgError:
            raise _NumericalTrouble("singular basis during refactorization")
        inv = np.zeros((self.nr, self.nr))
        inv[np.ix_(pos_s, rows_k)] = K
        inv[np.ix_(pos_u, rows_k)] = -(self.A[np.ix_(rows_u, cols)] @ K)
        inv[pos_u, rows_u] = 1.0
        inv.flags.writeable = False  # shared with later solves of this matrix
        return inv

    def _ftran(self, a):
        """B^-1 a."""
        v = self.B0_inv @ a
        k = self.n_eta
        if k:
            v += (self.eta_q[:k] @ v) @ self.eta_p[:k]
        return v

    def _btran(self, u):
        """u B^-1 (u indexed by basis position)."""
        k = self.n_eta
        if k:
            u = u + (self.eta_p[:k] @ u) @ self.eta_q[:k]
        return u @ self.B0_inv

    def _pivot(self, r, q, w):
        """Make column q basic in row r, given w = B^-1 A[:, q].

        The caller has already moved the leaving variable to its bound. The
        new inverse is (I + p e_r^T) B^-1, which appends p and
        q' = e_r + Q P[r, :]^T to the eta file.
        """
        k = self.n_eta
        p = self.eta_p[k]
        np.divide(w, -w[r], out=p)
        p[r] = 1.0 / w[r] - 1.0
        self.eta_q[k] = self.eta_p[:k, r] @ self.eta_q[:k]
        self.eta_q[k, r] += 1.0
        self.n_eta = k + 1
        leaving = int(self.basis[r])
        self.basis[r] = q
        self.vstat[q] = 2
        self.in_basis[leaving] = False
        self.in_basis[q] = True
        if self.n_eta == self.REFACTOR_EVERY:
            self._refactor()

    def _residuals_ok(self, c, y):
        """Whether the eta-updated basis still solves its own equations: the
        primal residual of B x_B = b - N x_N and the dual residual of
        y B = c_B, for y = c_B B^-1 from BTRAN, each small against its data."""
        x_scale = 1.0 + float(np.abs(self.b).max()) + float(np.abs(self.x).max())
        primal = np.abs(self.b - self._times(self.x)).max()
        dual = np.abs(self._prices(y)[self.basis] - c[self.basis]).max(initial=0.0)
        c_scale = float(np.abs(c).max(initial=0.0)) or 1.0
        return primal <= self.RESID_TOL * x_scale and dual <= self.RESID_TOL * c_scale

    def _dual_infeasible(self, y, c, fixed) -> bool:
        """Whether, for y = c_B B^-1, a nonbasic column that may move prices
        in: a reduced cost below -tol at its lower bound or above tol at its
        upper. The reduced costs d = c - y [A | I] become self.d, which the
        dual simplex goes on from (a later refactor drops them)."""
        d = self.d = c - self._prices(y)
        tol_d = _dual_tol(c)
        wrong = np.where(self.vstat == 0, d < -tol_d, d > tol_d)
        return bool(np.any(wrong & ~self.in_basis & ~fixed))

    def _adopt(self, vstat):
        """Make vstat (of the structural and slack columns, 2 for basic) the
        basis, every nonbasic at the bound it names, and refactor."""
        self.vstat = vstat.astype(np.int8)
        basic = vstat == 2
        self.basis = np.nonzero(basic)[0]
        self.in_basis = basic.copy()
        self.x = np.where(vstat == 1, self.hi, np.where(vstat == 0, self.lo, 0.0))
        self._refactor()

    def _load_basis(self, vstat, c, fixed) -> bool:
        """Adopt a caller's basis: the vstat of the structural and slack columns.

        It fits when it has the right length and exactly nr basics, puts every
        nonbasic on a finite bound, refactors to a nonsingular inverse, and is
        dual feasible for c. A basis that does not fit leaves nothing behind
        that the next start does not overwrite but the cached inverse of
        that basis, which stays exact.
        """
        vstat = np.asarray(vstat)
        if vstat.shape != (self.ncols,):
            return False
        basic = vstat == 2
        at_lo, at_hi = vstat == 0, vstat == 1
        if (
            int(basic.sum()) != self.nr
            or not np.all(basic | at_lo | at_hi)
            or np.any(at_lo & ~np.isfinite(self.lo))
            or np.any(at_hi & ~np.isfinite(self.hi))
        ):
            return False
        try:
            self._adopt(vstat)
        except _NumericalTrouble:
            return False
        # inv() accepts a numerically singular basis; B0^-1 (B 1) must give 1 back
        ones = self.B0_inv @ self._times(basic.astype(float))
        if not np.all(np.abs(ones - 1.0) <= 1e-6):
            return False
        return not self._dual_infeasible(self._btran(c[self.basis]), c, fixed)

    def _dual(self, c, fixed, maxiter):
        """Bounded dual simplex from a dual feasible basis.

        Each iteration takes the basic with the largest bound violation out
        to that bound; the entering column is the one with the smallest
        ratio |d_j / alpha_j| over the row alpha = e_r^T B^-1 A, ties broken
        toward the largest |alpha_j|. The reduced costs self.d are computed
        after each refactorization and otherwise updated in place from that
        row, d -= (d_q / alpha_q) alpha. Returns "optimal" once every basic
        is within its bounds, "infeasible" when no column can repair the row.
        """
        tol_d = _dual_tol(c)
        e_r = np.zeros(self.nr)
        # +1 for a column at its lower bound, -1 at its upper; 0 for basic
        # and fixed columns, which never enter
        side = np.where(self.vstat == 0, 1.0, -1.0)
        side[self.in_basis | fixed] = 0.0
        loB, hiB = self.lo[self.basis], self.hi[self.basis]
        while True:
            xB = self.x[self.basis]
            below = loB - xB
            infeas = np.maximum(below, xB - hiB)
            r = int(np.argmax(infeas))
            if infeas[r] <= self.PRIMAL_TOL:
                return "optimal"
            if self.iterations >= maxiter:
                return "iteration_limit"
            self.iterations += 1
            if self.d is None:  # refactored since it was computed
                self.d = c - self._prices(self._btran(c[self.basis]))
            d = self.d
            e_r[r] = 1.0
            alpha = self._prices(self._btran(e_r))
            e_r[r] = 0.0
            # s = +1: the leaving basic rises to its lower bound; -1: falls to
            # its upper. Column j can enter when moving it off its bound moves
            # the basic that way: s * side_j * alpha_j < 0, by more than the
            # pivot tolerance relative to the row's largest entry.
            s = 1.0 if below[r] > 0 else -1.0
            a = (s * side) * alpha
            elig = np.flatnonzero(a < -self.PIV_TOL * max(1.0, float(np.abs(alpha).max())))
            if not len(elig):
                # the cold start, too, takes up to FEAS_TOL of residual as feasible
                return "infeasible" if infeas[r] > FEAS_TOL else "optimal"
            ratio = np.maximum(side[elig] * d[elig], 0.0) / -a[elig]
            cand = elig[ratio <= ratio.min() + tol_d]
            q = int(cand[np.argmax(np.abs(alpha[cand]))])

            w = self._ftran(self._column(q))
            if abs(w[r]) < 1e-11:
                if self.n_eta == 0:
                    raise _NumericalTrouble("dual simplex pivot vanished after refactorization")
                self._refactor()
                continue
            leaving = int(self.basis[r])
            bound = loB[r] if s > 0 else hiB[r]
            theta = (xB[r] - bound) / w[r]
            self.x[self.basis] = xB - theta * w
            self.x[q] += theta
            self.x[leaving] = bound
            self.vstat[leaving] = 0 if s > 0 else 1
            side[leaving] = 0.0 if fixed[leaving] else s
            side[q] = 0.0
            loB[r], hiB[r] = self.lo[q], self.hi[q]
            # alpha is 1 at the leaving column, so it takes -d_q / alpha_q
            d -= (d[q] / alpha[q]) * alpha
            d[q] = 0.0
            self._pivot(r, q, w)

    def _slack_basis(self):
        """The vstat of the all-slack basis: every slack basic, every
        structural column on the bound its cost prefers (upper when c_j < 0,
        otherwise lower). With y = 0 the reduced costs are c, so the basis is
        dual feasible; solve_lp makes sure those bounds are finite."""
        vstat = np.full(self.ncols, 2, dtype=np.int8)
        vstat[: self.nv] = self.c_min < 0
        return vstat

    def solve(self, maxiter, basis=None):
        """Returns (status, x, y, vstat); vstat covers the structural and slack
        columns and is None unless optimal or infeasible by the dual simplex.

        The start is the caller's basis where it fits, else the slack basis;
        self.start names it ("warm" or "slack"). An optimal end refactors and
        re-enters the dual simplex while the eta file fails _residuals_ok or
        prices a nonbasic column in with the wrong sign: the duals of an
        eta-updated inverse can carry the basis's condition number times its
        residual. An inverse with no eta updates is a fresh factorization;
        its residuals need no check, and a wrong sign there raises
        _NumericalTrouble."""
        c = np.zeros(self.ncols)
        c[: self.nv] = self.c_min
        fixed = self.hi - self.lo <= 0.0
        if basis is not None and self._load_basis(basis, c, fixed):
            self.start = "warm"
        else:
            self.start = "slack"
            self._adopt(self._slack_basis())
        for _ in range(8):
            status = self._dual(c, fixed, maxiter)
            if status == "infeasible":
                return "infeasible", None, None, self.vstat.copy()
            if status == "iteration_limit":
                return "numerical", None, None, None
            y = self._btran(c[self.basis])
            wrong_sign = self._dual_infeasible(y, c, fixed)
            if self.n_eta == 0:
                if wrong_sign:
                    raise _NumericalTrouble("a reduced cost of the final basis has the wrong sign")
                break
            if not wrong_sign and self._residuals_ok(c, y):
                break
            self._refactor()
        else:
            raise _NumericalTrouble("optimality did not stabilize under refactorization")
        return "optimal", self.x[: self.nv].copy(), y, self.vstat.copy()


class _NumericalTrouble(RuntimeError):
    pass


def solve_lp(problem, lower=None, upper=None, basis=None) -> LPSolution:
    """Solve a LinearProgram or CompiledLP; bounds may be overridden per call.

    lower/upper are optional arrays indexed like CompiledLP.var_names (used by
    branch-and-bound to rebound binaries without rebuilding the program).
    basis is a status per structural and slack column of this program (an
    earlier LPSolution.basis of a program with the same rows and columns, or
    a crash basis); where it fits, the solve starts there with the dual
    simplex.
    Under the bounds of the call, every column must have a finite bound on
    the side its cost prefers (see the module docstring); a ValueError
    names the first column that has none.
    """
    comp = problem.compile() if isinstance(problem, LinearProgram) else problem
    lo = comp.lo.copy() if lower is None else np.asarray(lower, dtype=float).copy()
    hi = comp.hi.copy() if upper is None else np.asarray(upper, dtype=float).copy()
    nv = len(comp.var_names)
    nr = len(comp.row_names)

    c_user = comp.c
    c_min = -c_user if comp.maximize else c_user.copy()
    preferred = np.where(c_min < 0, hi, lo)
    unboxed = np.nonzero(~np.isfinite(preferred))[0]
    if len(unboxed):
        name = comp.var_names[unboxed[0]]
        raise ValueError(f"column {name!r} has no finite bound on the side its cost prefers")

    if np.any(lo > hi):
        return LPSolution("infeasible", None, {}, {}, 0, "empty variable box")

    if nr == 0:
        x = preferred
        obj = float(c_user @ x) + comp.constant
        values = {n: float(x[j]) for j, n in enumerate(comp.var_names)}
        return LPSolution("optimal", obj, values, {}, 0)

    # power-of-two equilibration: exact to apply and to undo
    R, C, As, _, factor, _ = _scaling(comp)
    bs = comp.b * R
    cs = c_min * C
    with np.errstate(invalid="ignore"):
        los = np.where(np.isfinite(lo), lo / C, lo)
        his = np.where(np.isfinite(hi), hi / C, hi)

    maxiter = 20000 + 50 * (nr + nv)
    try:
        core = _Simplex(As, bs, comp.senses, cs, los, his, factor)
        status, xs, ys, vstat = core.solve(maxiter, basis)
    except _NumericalTrouble as exc:
        return LPSolution(
            "numerical", None, {}, {}, core.iterations, str(exc),
            refactors=core.refactors, start=core.start,
        )

    if status != "optimal":
        return LPSolution(
            status, None, {}, {}, core.iterations,
            refactors=core.refactors, basis=vstat, start=core.start,
        )

    # the ratio test tolerates basics up to FEAS_TOL past a bound; put them
    # on it, or a column scale of 2^10 inflates that slack past the re-check
    xs = np.where((xs < los) & (xs >= los - FEAS_TOL), los, xs)
    xs = np.where((xs > his) & (xs <= his + FEAS_TOL), his, xs)
    x = xs * C
    # independent re-check against the original (unscaled) data
    viol = max_violation(comp, x, lo, hi)
    if viol > 10 * FEAS_TOL:
        return LPSolution(
            "numerical",
            None,
            {},
            {},
            core.iterations,
            f"solution violates original rows by {viol:.2e}",
            refactors=core.refactors,
            violation=viol,
            start=core.start,
        )

    y_min = ys * R
    y_user = -y_min if comp.maximize else y_min
    obj = float(c_user @ x) + comp.constant
    values = {n: float(x[j]) for j, n in enumerate(comp.var_names)}
    duals = {n: float(y_user[i]) for i, n in enumerate(comp.row_names)}
    return LPSolution(
        "optimal", obj, values, duals, core.iterations,
        refactors=core.refactors, violation=viol, basis=vstat, start=core.start,
    )


def _lp_safe(name: str) -> str:
    return name.replace("[", "(").replace("]", ")").replace(",", "_")


def _terms(coeffs: dict[str, float]) -> str:
    parts = []
    for v in coeffs:
        a = coeffs[v]
        if a == 0:
            continue
        sign = "+" if a >= 0 else "-"
        parts.append(f"{sign} {abs(a):.17g} {_lp_safe(v)}")
    return " ".join(parts) if parts else "0 " + "__zero__"


def write_lp_file(lp: LinearProgram, stream, binaries=()) -> None:
    """Emit the program in the industry LP text format for cross-checking."""
    comp = lp if isinstance(lp, LinearProgram) else None
    if comp is None:
        raise TypeError("write_lp_file expects a LinearProgram")
    stream.write("\\ generated by impsched\n")
    stream.write("Maximize\n" if lp.maximize else "Minimize\n")
    stream.write(f" obj: {_terms(lp._obj)}\n")
    stream.write("Subject To\n")
    sense_txt = {LE: "<=", GE: ">=", EQ: "="}
    for name, (coeffs, sense, rhs) in zip(lp._row_names, lp._rows):
        stream.write(
            f" {_lp_safe(name)}: {_terms(coeffs)} {sense_txt[sense]} {rhs:.17g}\n"
        )
    stream.write("Bounds\n")
    for j, name in enumerate(lp._var_names):
        lo, hi = lp._lo[j], lp._hi[j]
        safe = _lp_safe(name)
        if lo == hi:
            stream.write(f" {safe} = {lo:.17g}\n")
        elif math.isinf(hi) and lo == 0:
            continue
        elif math.isinf(hi):
            stream.write(f" {safe} >= {lo:.17g}\n")
        elif math.isinf(lo):
            stream.write(f" -inf <= {safe} <= {hi:.17g}\n")
        else:
            stream.write(f" {lo:.17g} <= {safe} <= {hi:.17g}\n")
    if binaries:
        stream.write("Binary\n")
        for name in binaries:
            stream.write(f" {_lp_safe(name)}\n")
    stream.write("End\n")
