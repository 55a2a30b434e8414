"""One-dimensional chaotic maps and dynamics diagnostics.

The primary map, AHYB, is a piecewise construction on (0, 4) with a single
control parameter A in (0, 2):

    x' = (2 + A) * x        0.0 < x < 1.5
         A + x^0.9          1.5 <= x < 3.0
         x * (A - x)        3.0 <= x < 4.0

The classic logistic map ``b*x*(1-x)`` (b in (0, 4]) and sine map
``beta*sin(pi*x)`` (beta in (0, 4]) are included as reference systems.

``map_step`` returns the raw formula value, which for the AHYB map may leave
(0, 4) entirely (branch 3 is negative for x > A).  Orbit-level routines
(``iterate``, ``lyapunov``, ``bifurcation_scan``) therefore follow every AHYB
step with the renormalization fold

    x <- 4 * frac(|round15(x)|)

which is the same fold the S-box generator applies, so emitted AHYB states
always lie in [0, 4).  Reference maps are never folded.

Branch intervals are half-open exactly as written above; the two published
variants of branch 3 (``x*(A-x)`` in the closed formula, ``A-x`` in the
generator pseudocode) are both available via ``BranchMode``.

Everything here is a pure function of its arguments: same inputs, bit-identical
outputs on one platform.

``map_step``, ``map_derivative`` and ``renormalize`` are the definitions.
Single orbits (``iterate``, ``lyapunov`` and the generator's fill) run on
one kernel, ``_kernel(params)``, which resolves the map kind, the branch
mode and the constant ``2 + A`` once per orbit and returns a stretch
closure: ``stretch(x, count, out)`` takes `count` steps in one Python loop,
with the map formula inline (then for AHYB the round15 fold and the
reseed), records in `out` the state after each step, and returns the last
of them.  It performs the same IEEE operations in the same order as the
definitions, with libm ``pow`` and ``sin``, and raises and warns as they
do.  The starting state is checked once, by the definitions that the loop
calls first; after that only a diverging logistic orbit can leave the
float range, and a non-finite logistic state stays non-finite, so the
logistic stretch tests its last state alone and raises through
``map_step`` at the state before the first non-finite one.  ``lyapunov``
steps its orbit in stretches of ``_STRETCH`` states, then takes the
derivatives at the window's states in bulk, in chunks of at most
``_CHUNK_CELLS``, with the sweeps' numpy code and adds their logs in step
order, as a loop of ``map_derivative`` calls would.  An AHYB term at a
state below 1.5 is ``log(2 + A)`` exactly, so it is taken once per
estimate, and ``math.log`` runs on the other terms alone (``_log_terms``,
shared with the Lyapunov sweep).

After each stretch ``lyapunov`` looks for the stretch's last state among
the stretch's states, comparing bits, so that 0.0 and -0.0 never match.
A step is a deterministic function of the state, so once the orbit
revisits a state bit for bit, every later state, derivative and log term
repeats with that period, and reusing them is exact: the estimate stops
stepping, takes the terms of one period (in the phase at which the window
resumes, which also covers a cycle closed in the transient), repeats them
with the partial last period out to `n`, and adds them all in step order;
the skipped terms are counted from the same tiling.  So estimates,
warnings and errors stay those of the full loop.  A cycle through
``RESEED`` is stepped out instead, since each of its steps warns; a
period longer than a stretch goes unnoticed.  Over the benchmark's 50-point
sweeps (x0 0.37, n = 10000, transient 1000), 36 of 50 logistic and 15 of
50 sine estimates close a cycle, which saves 68% and 28% of the sweep's
steps; no AHYB estimate does.  On a 2-core x86-64 machine (Python 3.11, numpy
2.4; in process, 9 runs alternating with the loop that steps every
state) such a sweep took 0.34x the time for the logistic map, 0.76x for
the sine map and 1.02x for AHYB, where the search is pure cost.

Sweeps over the control parameter (``bifurcation_scan``,
``lyapunov_sweep``) advance every parameter's orbit in lockstep as one
float64 array per time step, and give the same bits as a loop of single
orbits.  That holds because each array operation performs the same IEEE
operation on every element as the scalar code: ``*``, ``+``, ``-``, ``abs``,
``floor``, ``% 1.0``, numpy's ``sin``/``cos``, which agree with libm on
every input tried (millions, up to |x| ~ 1e300), and ``float_power``, which
calls libm ``pow`` (it matched Python's ``pow`` on a million draws each for
the exponents 0.9 and -0.1 on [1.5, 3), and for 0.9 on [0, 4)).  Two
functions do not: numpy's float64 ``power`` is vectorised and differs from
libm ``pow`` on about 5% of inputs in [1.5, 3), and ``np.log`` from libm
``log`` on about 0.1%.  A one-ulp gap is amplified by the chaotic orbit, so
the AHYB middle branch (``x**0.9`` and its derivative ``0.9 * x**-0.1``)
uses ``float_power``, and Lyapunov terms ``math.log``.  Each estimate adds
its log terms strictly in step order, as the scalar loop does.
Both sweeps run on one driver, ``_lockstep``: it steps the orbits through
the transient, hands the states that follow to the sweep in chunks of at
most ``_CHUNK_CELLS`` cells (the scan writes them into its output, the
Lyapunov sweep turns them into log terms), takes exactly the steps the
scalar loops take, and alone decides whether lockstep may stand in for
them.  Lockstep never raises or warns itself: a sweep narrower than
``_LOCKSTEP_MIN_WIDTH``, or one in which any orbit would warn or fail, is
run as one scalar call per parameter instead, which warns and raises as the
scalar code does.  Both sweep commands of the CLI build their parameter
grid with ``_param_grid``.
"""

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateOrbitWarning,
    DerivativeSkipWarning,
    DerivativeZero,
    NonFiniteState,
    ParamOutOfRange,
    check_member,
    check_number,
)

# Reseed value for a folded state that lands exactly on 0 (absorbing point of
# branch 1); see DegenerateOrbitWarning.
RESEED = 1e-12

# Samples with |f'| below this are skipped in Lyapunov sums.
DERIVATIVE_FLOOR = 1e-300


class MapKind(enum.Enum):
    AHYB = "ahyb"
    LOGISTIC = "logistic"
    SINE = "sine"


class BranchMode(enum.Enum):
    """Which variant of the third AHYB branch to use.

    EQUATION1 is the closed-form definition x*(A-x); ALGORITHM1 is the
    generator pseudocode's A-x.  Golden files record the mode that
    produced them.
    """

    EQUATION1 = "eq1"
    ALGORITHM1 = "alg1"


# (low, high, high_inclusive) for the control parameter of each map.
PARAM_RANGES = {
    MapKind.AHYB: (0.0, 2.0, False),
    MapKind.LOGISTIC: (0.0, 4.0, True),
    MapKind.SINE: (0.0, 4.0, True),
}


# Cells (time steps x parameters) of the lockstep state buffer, and states
# of a single Lyapunov orbit whose derivatives are taken at once; bounds the
# scratch memory of a sweep or an estimate whatever its length.
_CHUNK_CELLS = 1 << 16

# Steps of a single Lyapunov orbit between two searches for an exact cycle.
# A search costs a few numpy calls and finds periods of up to this many
# steps, at most about two stretches after the cycle began.  AHYB orbits
# never close one; on them the search cost about 5% at 256, 2% at 512 and
# 1% at 1024 on the machine of the module docstring.
_STRETCH = 512

# Narrowest sweep that is stepped in lockstep.  Each lockstep step costs a
# fixed ~20 numpy calls (AHYB) or a few (reference maps), so narrower sweeps
# run faster as a loop of single orbits.  On a 2-core x86-64 machine
# (Python 3.11, numpy 2.4) the two broke even at about 44 (scan) and 34
# (Lyapunov sweep) parameters for AHYB, 16 and 13 for the logistic map, and
# 14 and 12 for the sine map.
_LOCKSTEP_MIN_WIDTH = {MapKind.AHYB: 40, MapKind.LOGISTIC: 16, MapKind.SINE: 14}


def check_param(kind: MapKind, control: float) -> None:
    """Raise ParamOutOfRange unless `kind` is a MapKind and `control` a number in its range."""
    lo, hi, hi_closed = PARAM_RANGES[check_member("map kind", kind, MapKind)]
    check_number(f"{kind.value} control parameter", control, lo, hi, hi_closed=hi_closed)


@dataclass(frozen=True)
class MapParams:
    """A map kind plus its control parameter, validated on construction."""

    kind: MapKind
    control: float
    branch_mode: BranchMode = BranchMode.EQUATION1

    def __post_init__(self):
        check_param(self.kind, self.control)
        check_member("branch mode", self.branch_mode, BranchMode)


def round15(x: float) -> float:
    """Round to 15 fractional digits, halves away from zero.

    Implemented as round(x * 1e15) / 1e15 in binary floating point; the
    residual binary error is accepted (single-platform determinism).
    """
    v = x * 1e15
    if v >= 0.0:
        return math.floor(v + 0.5) / 1e15
    return math.ceil(v - 0.5) / 1e15


def renormalize(x: float) -> float:
    """Fold any finite value into [0, 4): 4 * frac(|round15(x)|)."""
    if not math.isfinite(x):
        raise NonFiniteState(f"cannot renormalize non-finite value {x!r}")
    return 4.0 * (abs(round15(x)) % 1.0)


def map_step(params: MapParams, x: float) -> float:
    """One raw iteration of the map; no folding.

    For AHYB the caller is expected to keep x in (0, 4); the returned value
    may still escape that interval (renormalize it before the next step).
    """
    if not math.isfinite(check_number("x", x)):
        raise NonFiniteState(f"map_step received non-finite state {x!r}")
    a = check_member("params", params, MapParams).control
    if params.kind is MapKind.AHYB:
        if x < 1.5:
            y = (2.0 + a) * x
        elif x < 3.0:
            y = a + x**0.9
        elif params.branch_mode is BranchMode.ALGORITHM1:
            y = a - x
        else:
            y = x * (a - x)
    elif params.kind is MapKind.LOGISTIC:
        y = a * x * (1.0 - x)
    else:
        # pi * x overflows above about 5.7e307; NaN then reaches the check
        # below, where libm sin would raise a bare ValueError
        t = math.pi * x
        y = a * math.sin(t) if math.isfinite(t) else math.nan
    if not math.isfinite(y):
        raise NonFiniteState(f"map_step produced non-finite value from x={x!r}")
    return y


def map_derivative(params: MapParams, x: float) -> float:
    """d/dx of map_step at x, branch-consistent with map_step."""
    if not math.isfinite(check_number("x", x)):
        raise NonFiniteState(f"map_derivative received non-finite state {x!r}")
    a = check_member("params", params, MapParams).control
    if params.kind is MapKind.AHYB:
        if x < 1.5:
            d = 2.0 + a
        elif x < 3.0:
            d = 0.9 * x**-0.1
        elif params.branch_mode is BranchMode.ALGORITHM1:
            d = -1.0
        else:
            d = a - 2.0 * x
    elif params.kind is MapKind.LOGISTIC:
        d = a * (1.0 - 2.0 * x)
    else:
        t = math.pi * x  # as in map_step
        d = a * math.pi * math.cos(t) if math.isfinite(t) else math.nan
    if not math.isfinite(d):
        raise NonFiniteState(f"map_derivative produced non-finite value at x={x!r}")
    return d


def _kernel(params: MapParams):
    """The orbit of `params` in stretches, as a closure: ``map_step``, then for AHYB the fold.

    The map kind, branch mode and the constant ``2 + A`` are resolved here,
    once per orbit.  ``stretch(x, count, out)`` takes `count` steps from `x`
    in one loop, appends to the list `out` the state after each step, and
    returns the last of them.  A step is ``map_step`` followed, for AHYB, by
    ``renormalize`` and the reseed of a folded 0 to ``RESEED``; it performs
    the same float operations in the same order, and raises and warns as
    those functions do.  It does not test `x`: the caller
    checks the starting state once, by calling on it the definitions that
    its loop calls first.  After that check no AHYB or sine step can be
    non-finite (an AHYB state is folded into [0, 4), and a sine state is at
    most the parameter in magnitude).  A logistic orbit diverges from a
    start outside [0, 1], and a non-finite logistic state stays non-finite,
    so the logistic stretch tests its last state alone: if that is not
    finite, it drops from `out` the states after the first non-finite one
    and calls ``map_step`` on the state before it, which recomputes the step
    and raises its own message.  The reseed warning names the caller of the
    function that calls the stretch.
    """
    a = check_member("params", params, MapParams).control

    if params.kind is MapKind.AHYB:
        two_plus_a = 2.0 + a
        alg1 = params.branch_mode is BranchMode.ALGORITHM1
        floor = math.floor

        def stretch(x, count, out):
            while count:  # cheaper than a range for the fill's short stretches
                count -= 1
                if x < 1.5:
                    y = two_plus_a * x
                elif x < 3.0:
                    y = a + x**0.9
                elif alg1:
                    y = a - x
                else:
                    y = x * (a - x)
                # renormalize(y); round15 is odd, so |round15(y)| is floor(|y| * 1e15 + 0.5) / 1e15
                x = 4.0 * (floor(abs(y) * 1e15 + 0.5) / 1e15 % 1.0)
                if x == 0.0:
                    warnings.warn(
                        "folded state hit 0 exactly; reseeding to 1e-12",
                        DegenerateOrbitWarning,
                        stacklevel=3,
                    )
                    x = RESEED
                out.append(x)
            return x

    elif params.kind is MapKind.LOGISTIC:
        isfinite = math.isfinite

        def stretch(x, count, out):
            start, x_start = len(out), x
            while count:
                count -= 1
                x = a * x * (1.0 - x)
                out.append(x)
            if not isfinite(x):
                bad = start + sum(map(isfinite, out[start:]))  # the first non-finite state
                del out[bad + 1:]
                map_step(params, out[bad - 1] if bad > start else x_start)  # recomputes it and raises
            return x

    else:
        pi, sin = math.pi, math.sin

        def stretch(x, count, out):
            while count:
                count -= 1
                x = a * sin(pi * x)
                out.append(x)
            return x

    return stretch


def iterate(params: MapParams, x0: float, transient: int = 0, n: int = 1000) -> np.ndarray:
    """Sample an orbit: discard `transient` steps, then record `n` states.

    Returns a float64 array of the n post-transient states (entry i is the
    state after transient + i + 1 steps).  AHYB states are post-fold and lie
    in [0, 4); reference-map states are raw.
    """
    check_number("x0", x0)
    if (check_number("transient", transient, integer=True) < 0
            or check_number("n", n, integer=True) < 0):
        raise ValueError("transient and n must be non-negative")
    stretch = _kernel(params)
    x = float(x0)
    if transient or n:  # an orbit of no steps never looks at x0
        map_step(params, x)  # the start check
    states = []
    for start in range(0, transient, _CHUNK_CELLS):
        states.clear()
        x = stretch(x, min(_CHUNK_CELLS, transient - start), states)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, _CHUNK_CELLS):
        states.clear()
        x = stretch(x, min(_CHUNK_CELLS, n - start), states)
        out[start:start + len(states)] = states
    return out


class _Orbits:
    """Orbits of one map at many control values, advanced in lockstep.

    Element k performs exactly the float operations of the scalar orbit step
    at control value a[k]; see the module docstring.
    Nothing is raised or warned here.  A non-finite value stays non-finite
    in every later state (NaN or inf in, NaN or inf out), so a non-finite
    final state marks an orbit that the scalar code would have stopped, and
    `reseeded` records that some orbit would have warned.  `step` also
    reports a non-finite state after the first step, where a scalar orbit
    from a bad start raises, so that a pass can be given up at once.
    """

    def __init__(self, kind: MapKind, a: np.ndarray, x0: float, branch_mode: BranchMode):
        self.kind = kind
        self.a = a
        self.alg1 = branch_mode is BranchMode.ALGORITHM1
        self.two_plus_a = 2.0 + a
        self.x = np.full(a.shape, float(x0))
        self.reseeded = False
        self.started = False

    def step(self) -> bool:
        """Advance every orbit by one step of `_kernel`.

        False if this was the first step and it left some state non-finite.
        """
        x, a = self.x, self.a
        if self.kind is MapKind.AHYB:
            low = x < 1.5
            y = np.where(low, self.two_plus_a * x, a - x if self.alg1 else x * (a - x))
            mid = (~low & (x < 3.0)).nonzero()[0]
            y[mid] = a[mid] + np.float_power(x[mid], 0.9)
            # round15 is odd, so |round15(y)| is floor(|y| * 1e15 + 0.5) / 1e15.
            x = 4.0 * (np.floor(np.abs(y) * 1e15 + 0.5) / 1e15 % 1.0)
            if np.count_nonzero(x) < x.size:
                x[x == 0.0] = RESEED
                self.reseeded = True
        elif self.kind is MapKind.LOGISTIC:
            x = a * x * (1.0 - x)
        else:
            x = a * np.sin(np.pi * x)
        self.x = x
        started, self.started = self.started, True
        return started or bool(np.isfinite(x).all())


def _abs_derivative(kind: MapKind, a, branch_mode: BranchMode, states: np.ndarray) -> np.ndarray:
    """|map_derivative| at every element of `states`, in bulk.

    `a` is the control value: a float, or an array with one value per
    column of `states`.  Each element takes the float operations of
    `map_derivative` (see the module docstring); a value that overflows is
    returned as it is, and nothing is raised or warned.
    """
    with np.errstate(all="ignore"):
        if kind is MapKind.AHYB:
            low = states < 1.5
            d = np.where(low, 2.0 + a,
                         -1.0 if branch_mode is BranchMode.ALGORITHM1 else a - 2.0 * states)
            mid = ~low & (states < 3.0)
            d[mid] = 0.9 * np.float_power(states[mid], -0.1)
        elif kind is MapKind.LOGISTIC:
            d = a * (1.0 - 2.0 * states)
        else:
            d = a * math.pi * np.cos(np.pi * states)
        return np.abs(d)


def _log_terms(kind: MapKind, a, states: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``math.log`` of every element of `d`, `_abs_derivative` at `states`, in bulk.

    `a` is the control value, a float or one value per column.  A term below
    ``DERIVATIVE_FLOOR`` is skipped, and given as log(1.0) = 0.0; no AHYB
    term is that small (|f'| >= 0.8).  An AHYB term at a state below 1.5 is
    log(2 + A), taken once per control value, so ``math.log`` runs on the
    other terms alone.
    """
    def logs_of(v):
        return np.fromiter(map(math.log, v.ravel().tolist()), np.float64, v.size).reshape(v.shape)

    if kind is not MapKind.AHYB:
        return logs_of(np.where(d < DERIVATIVE_FLOOR, 1.0, d))
    low = states < 1.5
    logs = np.where(low, logs_of(np.atleast_1d(2.0 + a)), 0.0)  # 2 + A as in the derivative
    np.place(logs, ~low, logs_of(np.extract(~low, d)))
    return logs


def _lockstep(orbits: _Orbits, transient: int, n: int, consume) -> bool:
    """Take `transient` steps of `orbits`, then `n` more in chunks; the one lockstep driver.

    Each chunk of c steps goes to ``consume(start, states)`` as its c + 1
    states: row r is the state at time ``transient + start + r``, so a chunk
    begins with the row that ended the one before.  A chunk has at most
    `_CHUNK_CELLS` cells (and two rows at least).  `consume` runs with
    numpy's float warnings off and returns whether to go on.  Exactly
    ``transient + n`` steps are taken, as in the scalar loops.

    Returns whether the lockstep results stand in for the scalar loops:
    False at once if the first step leaves a state non-finite (a scalar
    orbit raises there) or `consume` returns False, and False at the end if
    an orbit reseeded (a scalar orbit warns) or a final state is not finite.
    """
    states = np.empty((max(2, _CHUNK_CELLS // len(orbits.x)), len(orbits.x)))
    with np.errstate(all="ignore"):
        for _ in range(transient):
            if not orbits.step():
                return False
        states[0] = orbits.x
        for start in range(0, n, len(states) - 1):
            chunk = states[:n - start + 1]
            for row in chunk[1:]:
                if not orbits.step():
                    return False
                row[:] = orbits.x
            if not consume(start, chunk):
                return False
            states[0] = chunk[-1]
    return not orbits.reseeded and bool(np.isfinite(orbits.x).all())


def _param_grid(kind: MapKind, param_lo: float, param_hi: float, steps: int,
                min_steps: int) -> np.ndarray:
    """`steps` evenly spaced control values from `param_lo` to `param_hi`.

    The grid of both sweep commands.  `steps` must be an integer of at least
    `min_steps`, and the endpoints in the map's range and in order; an
    infinite endpoint is rejected as such, before linspace turns it into NaN.
    """
    if check_number("steps", steps, integer=True) < min_steps:
        raise ValueError(f"steps must be >= {min_steps}")
    check_param(kind, param_lo)
    check_param(kind, param_hi)
    if param_lo > param_hi:
        raise ParamOutOfRange(
            f"param_lo must not exceed param_hi, got {param_lo!r} > {param_hi!r}"
        )
    return np.linspace(param_lo, param_hi, steps)


def bifurcation_scan(
    kind: MapKind,
    param_lo: float,
    param_hi: float,
    steps: int = 1000,
    x0: float = 0.3,
    transient: int = 1000,
    samples: int = 200,
    branch_mode: BranchMode = BranchMode.EQUATION1,
) -> np.ndarray:
    """Asymptotic states over an evenly spaced parameter sweep.

    Returns an (steps * samples, 2) array with columns (param, state),
    ordered by (param, iteration index).  steps == 1 degenerates to a single
    iterate at param_lo.  States, warnings and errors equal those of
    `iterate` called once per parameter; wide scans step every orbit in
    lockstep.
    """
    values = _param_grid(kind, param_lo, param_hi, steps, 1)
    check_member("branch mode", branch_mode, BranchMode)
    check_number("x0", x0)
    if (check_number("transient", transient, integer=True) < 0
            or check_number("samples", samples, integer=True) < 0):
        raise ValueError("transient and samples must be non-negative")
    out = np.empty((steps * samples, 2), dtype=np.float64)
    out[:, 0] = np.repeat(values, samples)
    by_param = out[:, 1].reshape(steps, samples)  # a view: the states land in `out`

    def write(start, states):
        by_param[:, start:start + len(states) - 1] = states[1:].T
        return True

    if (steps < _LOCKSTEP_MIN_WIDTH[kind] or not _lockstep(
            _Orbits(kind, values, x0, branch_mode), transient, samples, write)):
        for k, p in enumerate(values):
            by_param[k] = iterate(MapParams(kind, float(p), branch_mode), x0, transient, samples)
    return out


def lyapunov(params: MapParams, x0: float, transient: int = 1000, n: int = 100000) -> float:
    """Lyapunov exponent estimate: (1/n) * sum of ln|f'(x_i)|.

    Uses map_derivative along the same (post-fold, for AHYB) orbit as
    iterate.  Samples with |f'| < 1e-300 are skipped and the sum is
    renormalized by the count actually used; a DerivativeSkipWarning is
    attached, and DerivativeZero is raised if more than 1% of samples were
    skipped.  Once the orbit revisits a state bit for bit, the terms of one
    period stand in for the rest of it (see the module docstring).
    """
    check_number("x0", x0)
    if check_number("n", n, integer=True) < 1:
        raise ValueError("n must be >= 1")
    if check_number("transient", transient, integer=True) < 0:
        raise ValueError("transient must be non-negative")
    stretch = _kernel(params)
    kind, a, mode = params.kind, params.control, params.branch_mode
    x = float(x0)
    if not transient:
        map_derivative(params, x)
    map_step(params, x)  # the start check: the loop's first calls
    total, skipped = 0.0, 0

    def add(states, count):
        """Add the terms at `states`, repeated cyclically out to `count` terms, in step order."""
        nonlocal total, skipped
        d = _abs_derivative(kind, a, mode, states)
        if not np.isfinite(d).all():
            map_derivative(params, float(states[np.isfinite(d).argmin()]))
        skips = d < DERIVATIVE_FLOOR
        whole, part = divmod(count, len(states))
        skipped += whole * int(np.count_nonzero(skips)) + int(np.count_nonzero(skips[:part]))
        logs = np.tile(_log_terms(kind, a, states, d),
                       max(1, min(count, _CHUNK_CELLS) // len(states)))
        for start in range(0, count, len(logs)):
            total = float(np.add.accumulate(np.concatenate(([total], logs[:count - start])))[-1])

    # Step a stretch, keep its window states (those stepped from at times
    # transient and later) until a chunk of them is summed, and look for its
    # last state among its states: a match closes a cycle.
    end, t = transient + n, 0
    window, waiting = [], 0
    while t < end:
        xs = [x]
        try:
            x = stretch(x, min(_STRETCH, end - t), xs)
        except BaseException:  # f'(x) comes before the step from x, so a non-finite one raises first
            window.append(np.array(xs[max(0, transient - t):-1]))
            waiting += len(window[-1])
            if waiting:
                add(np.concatenate(window), waiting)
            raise
        states = np.fromiter(xs, np.float64, len(xs))  # at times t, t + 1, ...
        window.append(states[max(0, transient - t):-1])
        waiting += len(window[-1])
        t += len(states) - 1
        bits = states.view(np.int64)
        repeat = np.flatnonzero(bits[:-1] == bits[-1])
        if repeat.size:
            cycle = states[repeat[-1]:-1]  # one period, ending at time t - 1
            # tiling a cycle that reseeds would drop its later warnings
            if kind is not MapKind.AHYB or not (cycle == RESEED).any():
                break
        if waiting >= _CHUNK_CELLS:
            add(np.concatenate(window), waiting)
            window, waiting = [], 0
    if waiting:
        add(np.concatenate(window), waiting)
    if t < end:  # every state from time t - len(cycle) on runs through `cycle`
        first = max(t, transient)
        phase = (first - t) % len(cycle)
        add(np.concatenate((cycle[phase:], cycle[:phase]))[:end - first], end - first)
    if skipped:
        if skipped > 0.01 * n:
            raise DerivativeZero(
                f"{skipped} of {n} samples had |f'| < {DERIVATIVE_FLOOR:g}"
            )
        warnings.warn(
            f"skipped {skipped} of {n} Lyapunov samples with |f'| < {DERIVATIVE_FLOOR:g}",
            DerivativeSkipWarning,
            stacklevel=2,
        )
    return total / (n - skipped)


def lyapunov_sweep(
    kind: MapKind,
    values,
    x0: float = 0.3,
    transient: int = 1000,
    n: int = 100000,
    branch_mode: BranchMode = BranchMode.EQUATION1,
) -> np.ndarray:
    """`lyapunov` at each control value in `values`, one estimate per value.

    `values` is a 1-D sequence of integers or floats, not bools, checked up
    front as are the other arguments and a negative `transient`.  Estimates,
    warnings and errors equal those of calling `lyapunov` once per value, in
    order (a NaN or out-of-range value raises there); wide sweeps step every
    orbit in lockstep.  An empty `values` returns an empty array.
    """
    lo, hi, hi_closed = PARAM_RANGES[check_member("map kind", kind, MapKind)]
    check_member("branch mode", branch_mode, BranchMode)
    check_number("x0", x0)
    check_number("n", n, integer=True)
    if check_number("transient", transient, integer=True) < 0:
        raise ValueError("transient must be non-negative")
    array = np.asarray(values)
    if array.ndim != 1 or array.dtype.kind not in "iuf":
        raise ParamOutOfRange(
            f"values must be a 1-D array of numbers, got {array.dtype} of shape {array.shape}")
    for value in values:  # a list mixing bools and numbers converts to float64
        check_number("sweep value", value)
    values = array.astype(np.float64)
    if (len(values) >= _LOCKSTEP_MIN_WIDTH[kind] and n >= 1
            and ((values > lo) & ((values <= hi) if hi_closed else (values < hi))).all()):
        orbits = _Orbits(kind, values, x0, branch_mode)
        total = np.zeros(len(values))

        def add_logs(start, states):
            d = _abs_derivative(kind, values, branch_mode, states[:-1])
            if (d < DERIVATIVE_FLOOR).any():  # the scalar loop warns or raises
                return False
            logs = _log_terms(kind, values, states[:-1], d)
            logs[0] += total
            total[:] = np.add.accumulate(logs, axis=0)[-1]
            return True

        # A non-finite derivative can leave the state finite but not the sum.
        if _lockstep(orbits, transient, n, add_logs) and np.isfinite(total).all():
            return total / n
    return np.array([lyapunov(MapParams(kind, float(p), branch_mode), x0, transient, n)
                     for p in values], dtype=np.float64)
