"""Initial value solvers with exact Fourier-coefficient extraction.

The solvers share the same spectral skeleton: initial data is a finite trig
polynomial (a map from integer modes to cosine/sine amplitudes on a box),
so Fourier coefficients are read off exactly instead of integrated, and
each mode evolves independently.

* ``solve_flag_ivp`` handles the constant-coefficient evolution equation
  d^m u/dx1^m = sum_p d^(m-p)/dx1^(m-p) f_p(D2..Dn) u with polynomial
  symbols f_p, via the graded exponential series (the entire functions
  generalizing exp, cos and sinc) evaluated at the mode symbol values.
  The series is summed by weight: the weight-w parts obey the linear
  recurrence S_w = sum_p a_p S_(w-p-1), which does not depend on the order
  r.  So one run per (mode, x1) carries U_w = S_w / w! in integer fixed
  point, with enough bits to cover its cancellation (cos 60 from terms up
  to 6e24), and each live order r takes r! Y_r = sum_w U_w / C(r+w, r)
  from it, one truncated quotient per weight (order 0 divides by
  C(w, 0) = 1, so it adds U_w exactly).  The division shrinks the carried
  errors and adds at most one unit per weight, so every order keeps order
  0's error bound, and its value does not depend on which other orders are
  asked; a series needing more than WEIGHT_LIMIT weights raises.  The
  evaluator returns finite values only: a NaN argument raises ValueError,
  and a value beyond the float range raises SeriesTerminationError.
  Per mode, one exact run of the recurrence gives the derivatives at zero
  of the fundamental solutions: the triangular solve against the traces
  takes the amplitudes from them, and the trace check reads them again.
* ``solve_constant_ode`` is the zero mode of the same evaluator (k = (),
  phase 1, x1 = t); its solve runs over Fraction, so the derivatives at
  zero are exact.
* ``solve_tree_wave_ivp`` solves the tree wave equation u_tt = d_T u with
  u(0) = g0 and u_t(0) = g1.  Per mode it sums the even and odd t-series
  sum t^(2i)/(2i)! d_T^i and sum t^(2i+1)/(2i+1)! d_T^i applied to the mode
  wave.  The carriers of d_T^i are built lazily, only as far as the times
  asked for need them, and a running rounding-error bound makes a sum that
  cancels too much raise instead of returning a wrong value.
  ``solve_tree_wave_series`` is a second name for the same function.
* ``solve_tree_heat_ivp`` solves the tree heat flow u_t = d_T u with
  u(0) = g0.  The nodewise splitting of exp(t d_T) gives each mode in
  closed form: the mode wave exp(i theta) evolves to exp(i theta + Xi(t)),
  with Xi the summed splitting exponents evaluated at the mode.

The flag, heat and wave solvers check the reproduced initial traces at the
evaluation points against TRACE_TOLERANCE before returning.  Every solver
raises ValueError on a time (t or x1) that is not finite and on an
evaluation point without one entry per coordinate.
``solve_constant_ode`` checks nothing; the ``ode`` command checks its exact
initial derivatives.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .operators import SeriesTerminationError, VerificationError
from .trees import Tree, TricomiSplitting, compute_splitting, evaluate_symbol, wave_numbers

__all__ = [
    "FlagIvpSolution",
    "OdeProblem",
    "TreeHeatSolution",
    "TreeWaveSeriesSolution",
    "TrigData",
    "generalized_exponential",
    "ode_derivatives_at_zero",
    "solve_constant_ode",
    "solve_flag_ivp",
    "solve_tree_heat_ivp",
    "solve_tree_wave_ivp",
    "solve_tree_wave_series",
]


# -- the graded exponential series ---------------------------------------------

# fractional bits kept beyond the magnitude bound and the requested tolerance;
# they absorb the truncation errors of up to 2^13 weights with room to spare
_GUARD_BITS = 40

# the most weights (terms, for one argument) a graded exponential may sum
WEIGHT_LIMIT = 8 * 2**10

# the most operator powers d_T^i (carriers) a tree-wave mode may build
CARRIER_LIMIT = 120

# the largest initial trace residual a solver returns; it also bounds the
# tree-wave series' rounding error relative to its values
TRACE_TOLERANCE = 1e-9

# the relative accuracy a graded exponential's fixed point is sized for
_RELATIVE_ACCURACY = 1e-12


def _weight_sums(args, count: int, one):
    """S_0 .. S_(count-1) of S_0 = one, S_w = sum_p a_p S_(w-p-1).

    S_w is the sum of multinomial(i) * prod a^i over the tuples of weight
    sum (p+1) i_p = w: multinomial(i) counts the orderings of the parts, and
    the last part of an ordering of weight w has weight p+1 for some p.
    """
    sums = [one]
    for w in range(1, count):
        sums.append(sum(a * sums[w - p - 1] for p, a in enumerate(args[:w])))
    return sums


def _one_argument_value(r: int, y: complex) -> complex:
    """sum_i y^i / (r+i)!, directly for |y| <= r + 1 and in closed form beyond.

    For |y| <= r + 1 no term exceeds the first, 1/r!, and for real y the
    sum is at least e^-1 / r!, so the alternating case cancels little; the
    sum stops at the first term below 1e-18 of the larger of 1/r! and the
    total (for r = 0, of max(1, total)) and raises SeriesTerminationError if
    WEIGHT_LIMIT terms do not reach it.  Beyond, the closed form
    (exp(y) - Taylor prefix below r) / y^r avoids the cancellation the
    alternating series suffers for large negative y, and the prefix, whose
    terms grow up to the last, does not cancel against exp(y).
    """
    if abs(y) <= r + 1:
        lead = 1 / math.factorial(r)
        total = 0j
        term = lead + 0j
        for i in range(1, WEIGHT_LIMIT + 1):
            if abs(term) <= 1e-18 * max(lead, abs(total)):
                return total
            total += term
            term = term * y / (r + i)
        raise SeriesTerminationError("Y-series not settling within the term limit")
    if y == -math.inf:  # a real -inf: the limit of the closed form is 0
        return 0j
    try:
        prefix = sum(y**j / math.factorial(j) for j in range(r))
        value = (cmath.exp(y) - prefix) / y**r
    except (OverflowError, ValueError):  # cmath.exp(x + i inf) is a domain error
        value = complex(math.nan)
    if not cmath.isfinite(value):
        raise SeriesTerminationError("Y-series value overflows the float range")
    return value


def _magnitude_exponent(moduli) -> int:
    """The binary exponent e of B, Y_0 at the argument moduli summed in floats:
    2^(e-1) <= B < 2^e.

    No term is negative, so nothing cancels.  B bounds sum_w |U_w| of the
    fixed-point run, and also how far an error made at one weight can grow
    through the recurrence (j! (w-j)! <= w!).  The float sum B stops once m
    consecutive terms are below 2^-60 of it and the ratio test holds:
    sum_p |a_p| / perm(w + 1, p + 1) <= 1/2, so each later term is at most
    half the largest, M, of the m before it.  The test then holds at every
    later weight too, and the rest of the sum is below m M, so the pass
    returns e as soon as the total's mantissa leaves room for 2 m M and the
    rounding of the additions still to come; it only does so where those
    terms are below 2^-60 of the total within the weight limit, so the
    stopped sum has the same exponent and raises where it raises.
    """
    m = len(moduli)
    terms, total = [1.0], 1.0
    for w in range(1, WEIGHT_LIMIT + 1):
        term, falling = 0.0, 1.0
        for p in range(m if m < w else w):
            falling *= w - p
            term += moduli[p] * terms[w - p - 1] / falling
        terms.append(term)
        total += term
        if not math.isfinite(total):
            raise SeriesTerminationError("Y-series magnitude overflows")
        if w < m:
            continue
        top = max(terms[-m:])
        mantissa, e = math.frexp(total)
        # at most 62 m more terms, m per halving, reach 2^-60 of the total; each
        # addition rounds by at most 2^(e-54), so 62 m of them by less than m 2^(e-48)
        room = top <= total * 2.0**-60 or (w + 62 * m <= WEIGHT_LIMIT and
                                           mantissa + math.ldexp(2 * m * top, -e) + m * 2.0**-47 < 1.0)
        if room and sum(moduli[p] / math.perm(w + 1, p + 1) for p in range(m)) <= 0.5:
            return e
    raise SeriesTerminationError("Y-series not settling within the weight limit")


def _dyadic(args):
    """Integer pairs (re, im) and a shift s with a_p = (re + i im) / 2^s exactly."""
    ratios = [x.as_integer_ratio() for a in args for x in (a.real, a.imag)]
    shift = max(d.bit_length() - 1 for _, d in ratios)
    ints = [n << (shift - d.bit_length() + 1) for n, d in ratios]
    return list(zip(ints[0::2], ints[1::2])), shift


def _graded_exponentials(orders, args) -> list:
    """Y_r(args) for each order r in `orders`, from one run of the recurrence.

    See generalized_exponential.  S_w does not depend on r, so the scaled sums
    U_w = S_w / w! are carried once, and each order sums its own
    r! Y_r = sum_w U_w / C(r+w, r) from them: Y_r does not depend on the
    other orders asked.  Two shortcuts leave every integer of the run as it
    is.  U_w is zero unless g = gcd{p + 1 : a_p != 0} divides w (by
    induction from U_0), so the other weights append a zero without any sum,
    counted by the stop rule like every zero.  Real arguments make every
    imaginary integer zero, so their run carries the real ones alone.
    """
    if any(r < 0 for r in orders):
        raise ValueError("order must be non-negative")
    args = [complex(a) for a in args]
    if any(cmath.isnan(a) for a in args):
        raise ValueError(f"graded exponential argument is NaN: {args!r}")
    if len(args) == 1:
        return [_one_argument_value(r, args[0]) for r in orders]
    m = len(args)
    bits = _magnitude_exponent([abs(a) for a in args]) - math.frexp(_RELATIVE_ACCURACY)[1] + _GUARD_BITS
    ints, shift = _dyadic(args)
    nonzero = [(p, ar, ai) for p, (ar, ai) in enumerate(ints) if ar or ai]
    step = math.gcd(*(p + 1 for p, _, _ in nonzero)) or 1  # all zero: skip nothing
    re, im = _units(nonzero, m, bits, shift, step)
    return [complex(_order_total(re, r) / (scale := math.factorial(r) << bits), _order_total(im, r) / scale)
            for r in orders]


def _units(nonzero, m, bits, shift, step) -> tuple:
    """The real and imaginary parts of U_0, U_1, .. in fixed point, a_p =
    (ar + i ai) / 2^shift for (p, ar, ai) in nonzero, up to m consecutive
    zero U_w.  Real arguments keep every imaginary part zero, so for them
    only the real parts are carried and the imaginary list is empty."""
    perm = math.perm
    re_units = [1 << bits]
    im_units = [0] if any(ai for _, _, ai in nonzero) else None
    zeros, w = 0, 0
    while zeros < m:
        w += 1
        if w > WEIGHT_LIMIT:
            raise SeriesTerminationError("Y-series not settling within the weight limit")
        if w % step:
            re_units.append(0)
            if im_units is not None:
                im_units.append(0)
            zeros += 1
            continue
        q = m if m < w else w
        re = im = 0
        for p, ar, ai in nonzero:
            if p >= q:
                break
            c = perm(w - p - 1, q - p - 1)
            tr = re_units[w - p - 1]
            if im_units is None:
                re += ar * tr * c
            else:
                ti = im_units[w - p - 1]
                re += (ar * tr - ai * ti) * c
                im += (ar * ti + ai * tr) * c
        den = perm(w, q) << shift
        re = re // den if re >= 0 else -(-re // den)
        re_units.append(re)
        if im_units is not None:
            im = im // den if im >= 0 else -(-im // den)
            im_units.append(im)
        zeros = 0 if re or im else zeros + 1
    return re_units, im_units or []


def _order_total(units, r: int) -> int:
    """r! Y_r in fixed point: sum_w U_w / C(r+w, r), one truncated quotient
    per weight (order 0 divides by C(w, 0) = 1, so it adds U_w exactly)."""
    if not r:
        return sum(units)
    total = 0
    for w, u in enumerate(units):
        if u:
            c = math.comb(r + w, r)
            total += u // c if u >= 0 else -(-u // c)
    return total


def generalized_exponential(r: int, args) -> complex:
    """sum over tuples i of multinomial(i) * prod args^i / (r + sum_s s*i_s)!.

    A single argument is summed in closed form through the exponential: the
    fixed point below resolves a decaying exponential to full relative
    precision, which for exp(-2526) (a heat mode) takes about 9100 weights of
    7400-bit integers.  Otherwise the series is regrouped by weight
    w = sum (p+1) i_p into Y_r = sum_w S_w / (r+w)!, with S_w from the
    recurrence S_w = sum_p a_p S_(w-p-1), which does not depend on r.  The
    scaled sums U_w = S_w / w!, starting from U_0 = 1, obey
    U_w = sum_p a_p U_(w-p-1) (w-p-1)!/w! and are carried in integer fixed
    point with e - f + 40 fractional bits: 2^(e-1) <= B < 2^e for B, the
    series Y_0 at the argument moduli (_magnitude_exponent), which bounds
    sum |U_w| and how far the truncation error made at one weight can grow
    through the recurrence, and 2^(f-1) <= _RELATIVE_ACCURACY < 2^f.
    Then r! Y_r = sum_w U_w / C(r+w, r) is accumulated with one truncated
    quotient per weight, divided by r! and rounded once.  Error, in units of
    the last fixed-point bit: a unit of truncation at weight j reaches U_w
    as S_(w-j) j!/w!, at most S_(w-j)/(w-j)! at the moduli, so the N
    truncations of N weights put at most N 2^e units into sum |U_w|.  Order
    r divides those errors by C(r+w, r) >= 1, so they are no larger than
    order 0's, and its own quotients add at most one unit per weight (order
    0 divides by C(w, 0) = 1, so it adds U_w exactly, with no unit): r! Y_r
    is within N (2^e + 1) units, at most N 2^-38 _RELATIVE_ACCURACY, below
    2^-25 _RELATIVE_ACCURACY for N up to WEIGHT_LIMIT, however much the
    terms cancel and however large r is.  The sum stops after m consecutive
    U_w that are exactly zero (the recurrence then stays at zero).  The
    value is always finite.  A NaN argument raises ValueError.  A lone real
    -inf gives the limit of Y_r at -inf, 0, at every order.  Arguments
    whose series overflows the float range (any other infinite argument
    among them), or that need more than WEIGHT_LIMIT weights, raise
    SeriesTerminationError.
    """
    return _graded_exponentials([r], args)[0]


def _check_finite(name: str, value: float):
    """Raise ValueError unless value, a time or an x1, is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_point(pt, size: int, need: str):
    """Raise ValueError unless the point pt has size entries, need says
    which, and each of them is finite."""
    if len(pt) != size:
        raise ValueError(f"point {pt!r} has {len(pt)} entries, {need}")
    if not all(map(math.isfinite, pt)):
        raise ValueError(f"point {pt!r} has a non-finite coordinate")


# -- constant-coefficient modes; the ODE is the zero mode ---------------------------

def _float_image(value, what: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def _amplitudes(sums, traces) -> list:
    """Amplitudes A_s of the fundamental solutions reproducing the traces y^(r)(0):
    a triangular solve, as the r-th derivative of the s-th is sums[r - s] (1 at
    r = s, 0 below), with sums = _weight_sums(values, m, one)."""
    amps = []
    for r, value in enumerate(traces):
        for s in range(r):
            value -= amps[s] * sums[r - s]
        amps.append(value)
    return amps


@dataclass
class _FlagMode:
    k: tuple
    symbol_values: list        # complex f_p(2 pi i k/a)
    b: list                    # cosine-side amplitudes, one per order
    c: list                    # sine-side amplitudes


def _mode_weights(modes, x1) -> list:
    """x1^r Y_r(x1^(p+1) f_p) per mode and order r; None where b_r = c_r = 0.

    They depend on x1 alone, so a grid evaluates them once per distinct x1.
    A power of x1 beyond the float range raises SeriesTerminationError.
    """
    out = []
    for mode in modes:
        try:
            powers = [x1**e for e in range(len(mode.b) + 1)]
        except OverflowError:
            raise SeriesTerminationError(f"a power of {x1!r} overflows the float range") from None
        args = [powers[p + 1] * f for p, f in enumerate(mode.symbol_values)]
        live = [r for r, (b, c) in enumerate(zip(mode.b, mode.c)) if not (b == 0.0 and c == 0.0)]
        weights = [None] * len(mode.b)
        for r, y in zip(live, _graded_exponentials(live, args) if live else ()):
            weights[r] = powers[r] * y
        out.append(weights)
    return out


def _flag_value(modes, weights, phases) -> float:
    """sum over modes and orders r of b_r Re(w_r e^(i theta)) + c_r Im(w_r e^(i theta)).

    weights[mode][r] is w_r (None: skipped), phases[mode] is (cos theta, sin theta).
    """
    total = 0.0
    for mode, ws, (cos, sin) in zip(modes, weights, phases):
        for r, w in enumerate(ws):
            if w is None:
                continue
            phi, psi = w.real, w.imag
            total += mode.b[r] * (phi * cos - psi * sin)
            total += mode.c[r] * (phi * sin + psi * cos)
    return total


@dataclass
class OdeProblem:
    """y^(m) = b1 y^(m-1) + ... + bm y with y^(r)(0) = c_r for r < m."""

    coefficients: tuple
    initial: tuple

    def __post_init__(self):
        self.coefficients = tuple(Fraction(b) for b in self.coefficients)
        self.initial = tuple(Fraction(c) for c in self.initial)
        if len(self.initial) != len(self.coefficients):
            raise ValueError("need as many initial values as coefficients")
        if not self.coefficients:
            raise ValueError("order must be at least one")


def solve_constant_ode(problem: OdeProblem, t: float) -> float:
    """Value y(t) assembled from the fundamental solutions t^r Y_r(b_p t^p).

    The ODE is the zero mode of the flag evaluator: k = (), phase 1, x1 = t.
    Coefficients and amplitudes beyond the float range, and a t that is not
    finite, raise ValueError.
    """
    return _solved_ode(problem, t)[0]


def ode_derivatives_at_zero(problem: OdeProblem):
    """Exact y^(r)(0) of the assembled solution, for r below the order."""
    b = problem.coefficients
    sums = _weight_sums(b, len(b), Fraction(1))
    return _derivatives_at_zero(sums, _amplitudes(sums, problem.initial))


def _solved_ode(problem: OdeProblem, t: float) -> tuple:
    """y(t) with the exact weight sums and amplitudes it was assembled from."""
    _check_finite("t", t)
    b = problem.coefficients
    values = [complex(_float_image(v, "ODE coefficient")) for v in b]
    sums = _weight_sums(b, len(b), Fraction(1))
    exact = _amplitudes(sums, problem.initial)
    amps = [_float_image(a, "ODE amplitude") for a in exact]
    mode = _FlagMode((), values, amps, [0.0] * len(b))
    return _flag_value([mode], _mode_weights([mode], t), [(1.0, 0.0)]), sums, exact


def _derivatives_at_zero(sums, amps) -> list:
    """y^(r)(0) = sum_s A_s sums[r - s] for r below the order."""
    return [sum(amps[s] * sums[r - s] for s in range(r + 1)) for r in range(len(amps))]


# -- trig-polynomial initial data ----------------------------------------------------

def _phase(k, half_widths, point) -> float:
    """theta = 2 pi sum_j k_j x_j / a_j, the phase of mode k at the point."""
    return 2 * math.pi * sum(kv / a * xv for kv, a, xv in zip(k, half_widths, point))


@dataclass
class TrigData:
    """Finite Fourier data: mode k maps to (cosine, sine) amplitudes.

    Modes are folded onto the half lattice whose representative has a
    positive first nonzero coordinate; the reflected mode contributes the
    same cosine and a negated sine.  Half widths, amplitudes and wave
    numbers beyond the float range raise ValueError.
    """

    half_widths: tuple
    modes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.half_widths = tuple(_float_image(a, "half width") for a in self.half_widths)
        if any(a <= 0 for a in self.half_widths):
            raise ValueError("half widths must be positive")
        folded = {}
        for k, (c, s) in self.modes.items():
            k = tuple(int(v) for v in k)
            if len(k) != len(self.half_widths):
                raise ValueError("mode length does not match the half widths")
            wave_numbers(k, self.half_widths)
            c, s = _float_image(c, "mode amplitude"), _float_image(s, "mode amplitude")
            first = next((v for v in k if v), 0)
            if first < 0:
                k = tuple(-v for v in k)
                s = -s
            if first == 0 and abs(s) > 0:
                raise ValueError("the zero mode has no sine component")
            oc, os = folded.get(k, (0.0, 0.0))
            folded[k] = (oc + c, os + s)
        self.modes = {k: cs for k, cs in folded.items() if cs != (0.0, 0.0)}

    def value_at(self, point) -> float:
        total = 0.0
        for k, (c, s) in self.modes.items():
            theta = _phase(k, self.half_widths, point)
            total += c * math.cos(theta) + s * math.sin(theta)
        return total

    @staticmethod
    def from_json(data, half_widths) -> "TrigData":
        modes = {
            tuple(m["k"]): (m.get("cos", 0.0), m.get("sin", 0.0)) for m in data["modes"]
        }
        return TrigData(tuple(half_widths), modes)


def _checked_residual(residuals) -> float:
    """The largest trace residual, raising unless it is at most TRACE_TOLERANCE.

    A NaN residual is kept as the result (max() would drop it) and fails
    the check, which is written so that NaN cannot pass it.
    """
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            worst = r
            break
        worst = max(worst, r)
    if not worst <= TRACE_TOLERANCE:
        raise VerificationError(f"initial trace residual {worst} exceeds {TRACE_TOLERANCE}")
    return worst


# -- the constant-coefficient flag IVP --------------------------------------------

@dataclass
class FlagIvpSolution:
    order: int
    half_widths: tuple
    modes: list
    eval_points: list
    values: list
    trace_residual: float

    def at(self, x1: float, point) -> float:
        """The value at (x1, point), checked as solve_flag_ivp checks its points."""
        n = len(self.half_widths)
        _check_finite("x1", x1)
        _check_point((x1, *point), 1 + n, f"need x1 and {n} more")
        return _flag_value(
            self.modes, _mode_weights(self.modes, x1), _mode_phases(self.modes, self.half_widths, point)
        )


def _mode_phases(modes, half_widths, point) -> list:
    """(cos theta, sin theta) per mode at a point (x2..xn) of the cross-section."""
    out = []
    for mode in modes:
        theta = _phase(mode.k, half_widths, point)
        out.append((math.cos(theta), math.sin(theta)))
    return out


def solve_flag_ivp(symbols, data, eval_points) -> FlagIvpSolution:
    """Solve d^m/dx1^m u = sum_p d^(m-p)/dx1^(m-p) f_p(D) u with given traces.

    `symbols` lists the m polynomial symbols f_p in variables D2..Dn, one
    per half width (any other variable raises ValueError);
    `data` lists the m initial traces (TrigData, shared half widths) giving
    d^s u/dx1^s at x1 = 0.  Returns the solution sampled at eval_points
    (tuples (x1, x2..xn)) after verifying the reproduced traces.  A point
    without one entry per half width after x1, or with a coordinate that
    is not finite, raises ValueError.
    """
    m = len(symbols)
    if not m:
        raise ValueError("need at least one order")
    if len(data) != m:
        raise ValueError("need one initial trace per order")
    half_widths = data[0].half_widths
    for d in data:
        if d.half_widths != half_widths:
            raise ValueError("all traces must share the same half widths")
    allowed = [f"D{j + 2}" for j in range(len(half_widths))]
    stray = sorted(set().union(*(f.support_vars() for f in symbols)) - set(allowed))
    if stray:
        raise ValueError(f"symbol variables {stray} are not among {allowed}")
    need = f"need x1 and {len(half_widths)} more"
    for pt in eval_points:
        _check_point(pt, 1 + len(half_widths), need)

    modes = []
    mode_sums = []  # _weight_sums per mode: the derivatives at 0 of its fundamental solutions
    for k in sorted({k for d in data for k in d.modes}):
        at_mode = {f"D{j + 2}": complex(0.0, w) for j, w in enumerate(wave_numbers(k, half_widths))}
        try:
            fvals = [complex(f.evaluate({v: at_mode.get(v, 0j) for v in f.vars})) for f in symbols]
        except OverflowError:
            raise SeriesTerminationError("a mode symbol value overflows the float range") from None
        # amplitudes b - i c against traces gc - i gs; 0.0 - Im keeps a zero c at +0.0
        traces = [complex(gc, -gs) for gc, gs in (d.modes.get(k, (0.0, 0.0)) for d in data)]
        mode_sums.append(_weight_sums(fvals, m, 1 + 0j))
        amps = _amplitudes(mode_sums[-1], traces)
        modes.append(_FlagMode(k, fvals, [a.real for a in amps], [0.0 - a.imag for a in amps]))

    weights = {}
    phases = {}
    values = []
    for pt in eval_points:
        x1, point = pt[0], tuple(pt[1:])
        if x1 not in weights:
            weights[x1] = _mode_weights(modes, x1)
        if point not in phases:
            phases[point] = _mode_phases(modes, half_widths, point)
        values.append(_flag_value(modes, weights[x1], phases[point]))

    residuals = []
    for s in range(m):
        # the s-th derivative of the r-th fundamental solution
        derivs = [[sums[s - r] if r <= s else 0j for r in range(m)] for sums in mode_sums]
        for pt in eval_points:
            point = tuple(pt[1:])
            trace = _flag_value(modes, derivs, phases[point])
            residuals.append(abs(trace - data[s].value_at(point)))
    worst = _checked_residual(residuals)
    return FlagIvpSolution(m, half_widths, modes, list(eval_points), values, worst)


# -- the tree heat flow ---------------------------------------------------------------

@dataclass
class TreeHeatSolution:
    splitting: TricomiSplitting
    half_widths: tuple
    g0: TrigData
    eval_points: list
    t: float
    values: list
    trace_residual: float

    def mode_wave(self, k, t: float, point) -> complex:
        """exp(i theta + Xi(t)) at the point: exp(t d_T) applied to the mode
        wave exp(i theta), with Xi the summed splitting exponents."""
        theta = _phase(k, self.half_widths, point)
        try:
            xi = evaluate_symbol(self.splitting, k, self.half_widths, t, point)
            return cmath.exp(1j * theta + xi)
        except OverflowError:
            raise SeriesTerminationError(f"mode {k} at t={t} overflows") from None

    def at(self, t: float, point) -> float:
        """The value at time t and the point, checked as the solver checks its own."""
        _check_finite("t", t)
        _check_point(point, self.splitting.tree.nodes, f"the tree has {self.splitting.tree.nodes} nodes")
        return self._value(t, point)

    def _value(self, t: float, point) -> float:
        total = 0.0
        for k, (c, s) in self.g0.modes.items():
            w = self.mode_wave(k, t, point)
            term = c * w.real + s * w.imag
            total += term
            # finite amplitudes that give a non-finite value overflowed; NaN
            # amplitudes are left to the trace check
            if math.isinf(total) or (math.isnan(term) and math.isfinite(c) and math.isfinite(s)):
                raise SeriesTerminationError(f"mode {k} at t={t!r}: the sum of the mode waves is not finite")
        return total


def solve_tree_heat_ivp(tree: Tree, g0: TrigData, t: float, eval_points) -> TreeHeatSolution:
    """Solve u_t = d_T u with u(0) = g0 by the nodewise splitting.

    exp(t d_T) factors into the product of the nodes' heat flows, so each
    mode wave exp(i theta) evolves in closed form to exp(i theta + Xi(t)),
    where Xi is the sum of the splitting exponents at D_j = 2 pi i k_j / a_j.
    A point without one entry per node, or with a non-finite coordinate,
    raises ValueError.
    """
    _check_finite("t", t)
    if len(g0.half_widths) != tree.nodes:
        raise ValueError("data dimension must match the tree")
    for pt in eval_points:
        _check_point(pt, tree.nodes, f"the tree has {tree.nodes} nodes")
    sol = TreeHeatSolution(compute_splitting(tree), g0.half_widths, g0, list(eval_points), t, [], 0.0)
    sol.values = [sol._value(t, pt) for pt in eval_points]
    sol.trace_residual = _checked_residual(
        abs(sol._value(0.0, pt) - g0.value_at(pt)) for pt in eval_points
    )
    return sol


# -- the tree wave IVP ----------------------------------------------------------------

_UNIT_ROUNDOFF = 2.0**-53

# a mode series stops after two steps below this, relative to 1 plus its values
_SETTLED_STEP = 1e-14


def _carrier_apply(tree: Tree, omegas, carrier: dict) -> dict:
    """One application of the tree operator to P(x) * exp(i omega . x),
    returned as the new polynomial carrier P'.  Carriers map exponent
    tuples over x1..xn to complex coefficients.

    d_T is d^2/dx_1^2 plus x_parent d^2/dx_child^2 per edge, and d^2/dx_a^2
    of x^e e^(i w.x) contributes (P'' + 2i w P' - w^2 P).  Each carrier
    term adds its blocks (x1, then the edges in sorted order), each block
    its terms in that order; the order fixes how each coefficient's sum
    rounds.
    """
    blocks = [(0, None)] + [(child - 1, parent - 1) for parent, child in sorted(tree.edges)]
    out: dict = {}
    for exp, coeff in carrier.items():
        for axis, parent in blocks:
            w, e = omegas[axis], exp[axis]
            nexp = list(exp)
            if parent is not None:
                nexp[parent] += 1
            if e >= 2:
                steps = ((e - 2, coeff * e * (e - 1)), (e - 1, coeff * 2j * w * e), (e, -coeff * w * w))
            elif e == 1:
                steps = ((0, coeff * 2j * w * e), (1, -coeff * w * w))
            else:
                steps = ((0, -coeff * w * w),)
            for ne, value in steps:
                if value:
                    nexp[axis] = ne
                    key = tuple(nexp)
                    out[key] = out.get(key, 0j) + value
    return {e: c for e, c in out.items() if c}


@dataclass
class TreeWaveSeriesSolution:
    tree: Tree
    half_widths: tuple
    g0: TrigData
    g1: TrigData
    carriers: dict       # mode -> carriers of d_T^0, d_T^1, ..., extended on demand
    eval_points: list
    t: float
    values: list
    trace_residual: float

    def _carrier(self, k, i: int) -> dict:
        """The carrier of d_T^i on mode k, applying the operator as needed."""
        chain = self.carriers[k]
        while len(chain) <= i:
            if len(chain) > CARRIER_LIMIT:
                raise SeriesTerminationError("mode series did not settle within the carrier cap")
            chain.append(_carrier_apply(self.tree, wave_numbers(k, self.half_widths), chain[-1]))
        return chain[i]

    def _carrier_value(self, carrier, point):
        """The carrier's value at the point and the sum of its terms' moduli."""
        total = 0j
        size = 0.0
        for exp, coeff in carrier.items():
            term = coeff
            for e, xv in zip(exp, point):
                if e:
                    term *= xv**e
            total += term
            size += abs(term)
        return total, size

    def mode_series(self, k, t: float, point):
        """(even, odd) complex mode values: sum t^(2i)/(2i)! d^i and
        sum t^(2i+1)/(2i+1)! d^i applied to the mode wave at the point.

        Carriers are built only as far as the series needs them.  The sums
        keep Higham's running bound u * sum |t-weight| * sum |c| |x|^e on
        their rounding error and raise when it exceeds TRACE_TOLERANCE
        relative to the larger of 1 and the values.
        """
        phase = cmath.exp(1j * _phase(k, self.half_widths, point))
        even = odd = 0j
        spread = 0.0
        quiet = 0
        for i in itertools.count():
            carrier = self._carrier(k, i)
            if not carrier:
                break  # the operator power vanished: exact sum
            try:
                value, size = self._carrier_value(carrier, point)
                te = t ** (2 * i) / math.factorial(2 * i)
                to = t ** (2 * i + 1) / math.factorial(2 * i + 1)
            except OverflowError:
                raise SeriesTerminationError(f"mode {k} term {i} at t={t} overflows") from None
            value *= phase
            even += te * value
            odd += to * value
            # judge the term by its moduli, not by its value here: low operator
            # powers can vanish at a point while higher ones do not
            step = (abs(te) + abs(to)) * size
            spread += step
            quiet = quiet + 1 if step < _SETTLED_STEP * (1.0 + abs(even) + abs(odd)) else 0
            if quiet >= 2:
                break
        bound = _UNIT_ROUNDOFF * spread
        if bound > TRACE_TOLERANCE * max(1.0, abs(even), abs(odd)):
            raise VerificationError(
                f"mode {k} series at t={t} may have lost {bound:.3g} to cancellation"
            )
        return even, odd

    def at(self, t: float, point) -> float:
        """The value at time t and the point, checked as the solver checks its own."""
        _check_finite("t", t)
        _check_point(point, self.tree.nodes, f"the tree has {self.tree.nodes} nodes")
        return self._value({k: self.mode_series(k, t, point) for k in self.carriers})

    def _value(self, series) -> float:
        """The solution's value from the (even, odd) series of every mode."""
        total = 0.0
        for k, (even, odd) in series.items():
            b0, c0 = self.g0.modes.get(k, (0.0, 0.0))
            b1, c1 = self.g1.modes.get(k, (0.0, 0.0))
            total += b0 * even.real + c0 * even.imag
            total += b1 * odd.real + c1 * odd.imag
        return total


def solve_tree_wave_ivp(tree: Tree, g0: TrigData, g1: TrigData, t: float,
                        eval_points) -> TreeWaveSeriesSolution:
    """Solve u_tt = d_T u with u(0) = g0, u_t(0) = g1 by direct series.

    Per mode the operator powers d_T^i are applied symbolically to the mode
    wave (a polynomial carrier times the phase), and the even/odd factorial
    series in t are summed adaptively at each evaluation point.  A mode
    builds at most CARRIER_LIMIT operator powers, and only as many as the
    series at the requested times need.  A point without one entry per node,
    or with a non-finite coordinate, raises ValueError.
    """
    _check_finite("t", t)
    if g0.half_widths != g1.half_widths:
        raise ValueError("position and velocity data must share half widths")
    if len(g0.half_widths) != tree.nodes:
        raise ValueError("data dimension must match the tree")
    for pt in eval_points:
        _check_point(pt, tree.nodes, f"the tree has {tree.nodes} nodes")
    carriers = {
        k: [{(0,) * tree.nodes: 1 + 0j}] for k in sorted(set(g0.modes) | set(g1.modes))
    }
    sol = TreeWaveSeriesSolution(tree, g0.half_widths, g0, g1, carriers, list(eval_points), t, [], 0.0)
    sol.values = [sol._value({k: sol.mode_series(k, t, pt) for k in carriers}) for pt in eval_points]
    residuals = []
    for pt in eval_points:
        # one t = 0 pass per point serves both traces
        series = {k: sol.mode_series(k, 0.0, pt) for k in carriers}
        residuals.append(abs(sol._value(series) - g0.value_at(pt)))
        # velocity trace at t = 0: only the odd series contributes, through
        # its leading carrier, i.e. the plain mode waves weighted by g1
        vel = 0.0
        for k in sorted(set(g1.modes)):
            b1, c1 = g1.modes[k]
            even, _ = series[k]
            vel += b1 * even.real + c1 * even.imag
        residuals.append(abs(vel - g1.value_at(pt)))
    sol.trace_residual = _checked_residual(residuals)
    return sol


# the name the series solver was introduced under
solve_tree_wave_series = solve_tree_wave_ivp
