"""Binary entropy, the t-round achievable-rate region, and code parameters.

The region for t rounds is parameterized by write densities p_1..p_{t-1}
in [0, 1/2]: round 1 may carry up to H(p_1) bits per cell, round j up to
prod_{i<j}(1-p_i) * H(p_j), and the final round up to prod_{i<t}(1-p_i).
The best achievable total over all densities is log2(t+1). This module
also derives concrete code parameters (n, l, m, k_j, weight budgets) from
a target rate point and slack epsilon.

Densities are kept as exact rationals: weight budgets round through exact
floors and the image file format stores densities as num/den pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb, floor, log2

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


@dataclass(frozen=True, slots=True)
class RatePoint:
    """Per-round rates (R_1..R_t) in bits per cell."""

    rates: tuple[float, ...]

    def __post_init__(self):
        if len(self.rates) < 1:
            raise ValueError("need at least one round")
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be nonnegative")

    @property
    def t(self) -> int:
        return len(self.rates)

    @property
    def total(self) -> float:
        return sum(self.rates)


@dataclass(frozen=True, slots=True)
class WeightVector:
    """Write densities (p_1..p_t), each in [0, 1/2]; the last is pinned to 1/2.

    The region itself only constrains p_1..p_{t-1}; fixing p_t = 1/2 makes
    the per-round weight budget rule uniform (a final round at density 1/2
    is precisely entropy-1 writing on the remaining cells).
    """

    p: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(map(Fraction, self.p)))
        if len(self.p) < 1:
            raise ValueError("need at least one round")
        if any(not 0 <= x <= Fraction(1, 2) for x in self.p):
            raise ValueError("densities must lie in [0, 1/2]")
        if self.p[-1] != Fraction(1, 2):
            raise ValueError("last density must be exactly 1/2")

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


def optimal_point(t: int) -> tuple[RatePoint, WeightVector]:
    """The rate point of maximal total log2(t+1) and its density vector."""
    if t < 1:
        raise ValueError("need at least one round")
    rates = tuple((t + 2 - j) / (t + 1) * entropy(1.0 / (t + 2 - j)) for j in range(1, t)) + (
        2.0 / (t + 1),
    )
    densities = WeightVector([Fraction(1, t + 2 - j) for j in range(1, t)] + [Fraction(1, 2)])
    return RatePoint(rates), densities


def in_capacity_region(rates: RatePoint, p: WeightVector) -> bool:
    """Whether the rate point is achievable under densities p.

    Checks R_1 <= H(p_1), R_j <= prod_{i<j}(1-p_i)*H(p_j) for middle rounds,
    and R_t <= prod_{i<t}(1-p_i), with REGION_TOL slack for float round-off.
    """
    if rates.t != p.t:
        raise ValueError(f"length mismatch: {rates.t} rates vs {p.t} densities")
    t = rates.t
    remaining = Fraction(1)
    for j in range(1, t + 1):
        if j < t:
            bound = float(remaining) * entropy(float(p.p[j - 1]))
        else:
            bound = float(remaining)
        if rates.rates[j - 1] > bound + REGION_TOL:
            return False
        remaining *= 1 - p.p[j - 1]
    return True


@dataclass(frozen=True, slots=True)
class WomParams:
    """Parameters of one coded block.

    t rounds over m data words of n bits each, with t-1 side words of 2n
    bits holding per-round hash coefficients and t header bits counting
    rounds in unary. k lists k_2..k_t (hash input sizes, l <= k_j <= n);
    l is the output slack. c records the derivation constant when the
    parameters came from derive_parameters. The weight budgets are
    computed once, when the parameters are built.
    """

    t: int
    n: int
    m: int
    l: int
    k: tuple[int, ...]
    p: WeightVector
    c: int | None = None
    _budgets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        named = [("t", self.t), ("n", self.n), ("m", self.m), ("l", self.l)]
        for name, value in named + [(f"k_{j}", kj) for j, kj in enumerate(self.k, 2)]:
            if type(value) is not int:
                raise ValueError(f"{name} {value!r} is not an int")
        if self.t < 1:
            raise ValueError("need at least one round")
        if self.n < 1:
            raise ValueError("data words need at least one bit")
        if self.m < 1:
            raise ValueError("need at least one data word")
        if self.l < 0:
            raise ValueError("slack must be nonnegative")
        if len(self.k) != self.t - 1:
            raise ValueError(f"expected {self.t - 1} hash sizes k_2..k_t, got {len(self.k)}")
        if any(not self.l <= kj <= self.n for kj in self.k):
            raise ValueError(f"hash sizes must satisfy l <= k_j <= n (l={self.l}, n={self.n})")
        if self.p.t != self.t:
            raise ValueError(f"density vector has {self.p.t} entries, expected {self.t}")
        out = []
        remaining = Fraction(1)
        for pj in self.p.p:
            remaining *= 1 - pj
            out.append(floor((1 - remaining) * self.n))
        object.__setattr__(self, "_budgets", tuple(out))

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


def derive_parameters(epsilon: float, t: int, rates: RatePoint, p: WeightVector) -> WomParams:
    """Block parameters guaranteeing total rate >= sum(rates) - epsilon.

    c is the smallest integer above 20 with 6t^2 < (t/eps)^(c/12-1); then
    n = ceil(c*t*log2(t/eps)/eps), l = ceil(eps*n/(3t)), m = 2^floor(l/4)-1
    and k_j = floor((R_j - eps/(3t))*n), clamped up to l for rounds whose
    rate is too small to carry data. n and l round up, k_j and the weight
    budgets round down: every rounding errs toward keeping the existence
    guarantee valid. The result may be far beyond searchable width; it is
    then still usable for rate arithmetic (desk_executable is False).
    """
    if t < 1:
        raise ValueError("need at least one round")
    if rates.t != t or p.t != t:
        raise ValueError("rates and densities must have t entries")
    if not 0 < epsilon < rates.total:
        raise ValueError(f"epsilon must lie in (0, {rates.total}), got {epsilon}")
    if not in_capacity_region(rates, p):
        raise ValueError("rate point is not achievable under the given densities")

    ratio = t / epsilon
    c = 21
    while not 6 * t * t < ratio ** (c / 12 - 1):
        c += 1
    n = ceil(c * t * log2(ratio) / epsilon)
    l = ceil(epsilon * n / (3 * t))
    m = 2 ** (l // 4) - 1
    k = tuple(max(l, floor((rates.rates[j - 1] - epsilon / (3 * t)) * n)) for j in range(2, t + 1))
    return WomParams(t=t, n=n, m=m, l=l, k=k, p=p, c=c)


def achieved_rate(params: WomParams) -> float:
    """Total message bits per memory cell across all rounds.

    Round 1 carries log2(C(n, B_1)) bits per data word; round j >= 2
    carries k_j - l bits per data word.
    """
    per_word = log2(params.round1_space)
    per_word += sum(kj - params.l for kj in params.k)
    return params.m * per_word / params.n0
