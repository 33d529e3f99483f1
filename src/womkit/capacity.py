"""Binary entropy, the t-round achievable-rate region, and code parameters.

The region for t rounds is parameterized by write densities p_1..p_{t-1}
in [0, 1/2]: round j may carry up to prod_{i<j}(1-p_i) * H(p_j) bits per
cell, and p_t = 1/2 with H(1/2) = 1 makes the final round's bound the cells
left. The best achievable total over all densities is log2(t+1). This
module also derives concrete code parameters (n, l, m, k_j, weight budgets)
from a target rate point and slack epsilon.

Densities are kept as exact rationals: weight budgets round through exact
floors and the image file format stores densities as num/den pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, floor, lgamma, log, log2
from typing import Sequence

from .bitwords import _Frozen
from .gf2n import MAX_WIDTH, MIN_WIDTH

REGION_TOL = 1e-9


def entropy(p: float) -> float:
    """Binary entropy -p*log2(p) - (1-p)*log2(1-p), with 0*log(0) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def inverse_entropy(h: float) -> float:
    """The unique p in [0, 1/2] with entropy(p) = h, by bisection.

    Endpoints are returned exactly; the entropy curve is flat near 1/2, so
    only there does float precision limit how sharply p is determined.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"entropy value {h} outside [0, 1]")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-15:
        mid = (lo + hi) / 2.0
        if entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class WeightVector(_Frozen):
    """Write densities (p_1..p_t), each in [0, 1/2]; the last is pinned to 1/2.

    The region itself only constrains p_1..p_{t-1}; fixing p_t = 1/2 makes
    the per-round weight budget rule uniform (a final round at density 1/2
    is precisely entropy-1 writing on the remaining cells).
    """

    __slots__ = _fields = ("p",)

    def __init__(self, p: tuple[Fraction, ...]):
        p = tuple(map(Fraction, p))
        if len(p) < 1:
            raise ValueError("need at least one round")
        if any(not 0 <= x <= Fraction(1, 2) for x in p):
            raise ValueError("densities must lie in [0, 1/2]")
        if p[-1] != Fraction(1, 2):
            raise ValueError("last density must be exactly 1/2")
        object.__setattr__(self, "p", p)

    @property
    def t(self) -> int:
        return len(self.p)


def parse_densities(text: str) -> list[Fraction]:
    """Comma-separated num/den rationals such as "1/3,1/2"; WeightVector checks the values."""
    entries = []
    for part in text.split(","):
        num, sep, den = part.partition("/")
        if not sep:
            raise ValueError(f"density {part!r} is not a num/den rational")
        terms = []
        for digits in (num, den):
            try:
                terms.append(int(digits))
            except ValueError:
                raise ValueError(f"bad density: {digits!r}") from None
        if terms[1] == 0:
            raise ValueError(f"density {part!r} has a zero denominator")
        entries.append(Fraction(*terms))
    return entries


def optimal_point(t: int) -> tuple[tuple[float, ...], WeightVector]:
    """The per-round rates (R_1..R_t, bits per cell) of maximal total log2(t+1), and their densities."""
    if t < 1:
        raise ValueError("need at least one round")
    rates = tuple((t + 2 - j) / (t + 1) * entropy(1.0 / (t + 2 - j)) for j in range(1, t + 1))
    densities = WeightVector([Fraction(1, t + 2 - j) for j in range(1, t + 1)])
    return rates, densities


def in_capacity_region(rates: Sequence[float], p: WeightVector) -> bool:
    """Whether the per-round rates are achievable under densities p.

    Checks R_j <= prod_{i<j}(1-p_i)*H(p_j) for every round, with REGION_TOL
    slack for float round-off; for the last round H(p_t) = H(1/2) = 1.
    """
    if len(rates) != p.t:
        raise ValueError(f"length mismatch: {len(rates)} rates vs {p.t} densities")
    remaining = Fraction(1)
    for rate, pj in zip(rates, p.p):
        if rate > float(remaining) * entropy(float(pj)) + REGION_TOL:
            return False
        remaining *= 1 - pj
    return True


class WomParams(_Frozen):
    """Parameters of one coded block.

    t rounds over m data words of n bits each, with t-1 side words of 2n
    bits holding per-round hash coefficients and t header bits counting
    rounds in unary. k lists k_2..k_t (hash input sizes, l <= k_j <= n);
    l is the output slack. The weight budgets are computed once, when the
    parameters are built.
    """

    _fields = ("t", "n", "m", "l", "k", "p")
    __slots__ = _fields + ("_budgets",)

    def __init__(self, t: int, n: int, m: int, l: int, k: tuple[int, ...], p: WeightVector):
        named = [("t", t), ("n", n), ("m", m), ("l", l)]
        for name, value in named + [(f"k_{j}", kj) for j, kj in enumerate(k, 2)]:
            if type(value) is not int:
                raise ValueError(f"{name} {value!r} is not an int")
        if t < 1:
            raise ValueError("need at least one round")
        if n < 1:
            raise ValueError("data words need at least one bit")
        if m < 1:
            raise ValueError("need at least one data word")
        if l < 0:
            raise ValueError("slack must be nonnegative")
        if len(k) != t - 1:
            raise ValueError(f"expected {t - 1} hash sizes k_2..k_t, got {len(k)}")
        if any(not l <= kj <= n for kj in k):
            raise ValueError(f"hash sizes must satisfy l <= k_j <= n (l={l}, n={n})")
        if p.t != t:
            raise ValueError(f"density vector has {p.t} entries, expected {t}")
        out = []
        remaining = Fraction(1)
        for pj in p.p:
            remaining *= 1 - pj
            out.append(floor((1 - remaining) * n))
        for name, value in zip(self.__slots__, (t, n, m, l, k, p, tuple(out))):
            object.__setattr__(self, name, value)

    @property
    def budgets(self) -> tuple[int, ...]:
        """Cumulative weight budgets B_1..B_t: floor((1 - prod(1-p_i)) * n)."""
        return self._budgets

    @property
    def n0(self) -> int:
        """Total block length: t header bits + m data words + t-1 side words."""
        return self.t + 2 * self.n * (self.t - 1) + self.m * self.n

    @property
    def desk_executable(self) -> bool:
        """Whether encoding can actually run (field width within search range)."""
        return MIN_WIDTH <= self.n <= MAX_WIDTH

    def k_for_round(self, j: int) -> int:
        if not 2 <= j <= self.t:
            raise ValueError(f"round {j} has no hash size")
        return self.k[j - 2]

    @property
    def round1_space(self) -> int:
        """Number of distinct round-1 messages per data word."""
        return comb(self.n, self.budgets[0])

    @property
    def round1_rank_bits(self) -> int:
        """Whole bits a packed round-1 rank consumes per data word."""
        return self.round1_space.bit_length() - 1

    def payload_bits(self, j: int) -> int:
        """Packed message bits per data word in round j."""
        if j == 1:
            return self.round1_rank_bits
        return self.k_for_round(j) - self.l

    # Bit layout of one block: header, then data words, then side words.
    def data_offset(self, i: int) -> int:
        if not 0 <= i < self.m:
            raise ValueError(f"data index {i} out of range")
        return self.t + i * self.n

    def side_offset(self, j: int) -> int:
        if not 0 <= j < self.t - 1:
            raise ValueError(f"side index {j} out of range")
        return self.t + self.m * self.n + j * 2 * self.n


def derivation_constant(epsilon: float, t: int) -> int:
    """The smallest integer c above 20 with 6t^2 < (t/eps)^(c/12-1), for eps in (0, t)."""
    if not 0 < epsilon < t:
        raise ValueError(f"epsilon must lie in (0, {t}), got {epsilon}")
    # the smallest c is this floor + 1; starting two below it, float round-off never overshoots
    c = max(21, floor(12 * (1 + log(6 * t * t) / log(t / epsilon))) - 1)
    while not 6 * t * t < (t / epsilon) ** (c / 12 - 1):
        c += 1
    return c


def derive_parameters(epsilon: float, rates: Sequence[float], p: WeightVector) -> WomParams:
    """Block parameters for t = len(rates) rounds guaranteeing total rate >= sum(rates) - epsilon.

    With c = derivation_constant(epsilon, t): n = ceil(c*t*log2(t/eps)/eps),
    l = ceil(eps*n/(3t)), m = 2^floor(l/4)-1 and k_j = floor((R_j - eps/(3t))*n),
    clamped up to l for rounds whose rate is too small to carry data. n and
    l round up, k_j and the weight budgets round down: every rounding errs
    toward keeping the existence guarantee valid. The result may be far
    beyond searchable width; it is then still usable for rate arithmetic
    (desk_executable is False).
    """
    t = len(rates)
    if t < 1:
        raise ValueError("need at least one round")
    if any(r < 0 for r in rates):
        raise ValueError("rates must be nonnegative")
    if not 0 < epsilon < sum(rates):
        raise ValueError(f"epsilon must lie in (0, {sum(rates)}), got {epsilon}")
    if not in_capacity_region(rates, p):
        raise ValueError("rate point is not achievable under the given densities")

    n = ceil(derivation_constant(epsilon, t) * t * log2(t / epsilon) / epsilon)
    l = ceil(epsilon * n / (3 * t))
    m = 2 ** (l // 4) - 1
    k = tuple(max(l, floor((rates[j - 1] - epsilon / (3 * t)) * n)) for j in range(2, t + 1))
    return WomParams(t=t, n=n, m=m, l=l, k=k, p=p)


def achieved_rate(params: WomParams) -> float:
    """Total message bits per memory cell across all rounds.

    Round 1 carries log2(C(n, B_1)) bits per data word, taken from lgamma as
    the exact C(n, B_1) of a derived n can take minutes; round j >= 2 carries k_j - l.
    """
    n, b = params.n, params.budgets[0]
    per_word = (lgamma(n + 1) - lgamma(b + 1) - lgamma(n - b + 1)) / log(2)
    per_word += sum(kj - params.l for kj in params.k)
    return params.m * per_word / params.n0
