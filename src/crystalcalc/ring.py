"""The coefficient ring Z/p^N with p-adic valuations.

Elements are plain Python ints in ``[0, p**N)``; this class is the context
that interprets them.  The convention ``val(0) = N`` keeps valuations bounded
at fixed precision.
"""

import math


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class ZpN:
    """Arithmetic context for residues modulo p^N (p prime, N >= 1)."""

    __slots__ = ("p", "N", "modulus")

    def __init__(self, p: int, N: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if N < 1:
            raise ValueError(f"N = {N} must be >= 1")
        self.p = p
        self.N = N
        self.modulus = p ** N

    def __repr__(self):
        return f"ZpN({self.p}, {self.N})"

    def __eq__(self, other):
        return isinstance(other, ZpN) and (self.p, self.N) == (other.p, other.N)

    def __hash__(self):
        return hash((self.p, self.N))

    def val(self, a: int) -> int:
        """p-adic valuation of a residue, capped at N; val(0) = N."""
        a %= self.modulus
        if a == 0:
            return self.N
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def unit_inverse(self, a: int) -> int:
        a %= self.modulus
        if a % self.p == 0:
            raise ZeroDivisionError(f"{a} is not a unit mod {self.p}^{self.N}")
        return pow(a, -1, self.modulus)

    def val_factorial(self, k: int) -> int:
        """Valuation of k! (Legendre)."""
        v = 0
        q = self.p
        while q <= k:
            v += k // q
            q *= self.p
        return v

    def gamma_p(self, k: int) -> int:
        """The k-th divided power of p itself: p^k / k!  (mod p^N).

        Always defined since val(k!) < k; vanishes once k - val(k!) >= N.
        """
        if k < 0:
            raise ValueError("divided power index must be >= 0")
        if k == 0:
            return 1
        vf = self.val_factorial(k)
        e = k - vf
        if e >= self.N:
            return 0
        unit = math.factorial(k) // (self.p ** vf)
        return (self.p ** e) * self.unit_inverse(unit) % self.modulus

    def with_precision(self, N: int) -> "ZpN":
        return ZpN(self.p, N)
