"""Weierstrass curves over Q and a_p computation at good primes.

Three point-counting routes, by prime size:

- full enumeration on the long model (any p, O(p^2)); production path for
  p in {2, 3} where no short model exists, and the test oracle elsewhere;
- Legendre-symbol summation on the reduced short model (p > 3, O(p),
  vectorised with a quadratic-residue table);
- Shanks/Mestre baby-step giant-step order search (p > 229, O(p^(1/4))
  group operations), with quadratic-twist fallback on ambiguous orders.

a_p = p + 1 - #E(F_p), and |a_p| <= 2 sqrt(p) by Hasse.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from satotate.errors import AmbiguousOrder, BadReduction, SmallCharacteristic

NAIVE_BSGS_CROSSOVER = 229
NAIVE_COST_GUARD = 10**5


@dataclass(frozen=True)
class CurveSpec:
    """Integral long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.conductor <= 0:
            raise ValueError("conductor must be positive")
        disc = self.discriminant()
        if disc == 0:
            raise ValueError("singular model: discriminant is zero")
        # every bad prime divides the discriminant of any integral model; gcds strip them unfactored
        rest = self.conductor
        while (g := math.gcd(rest, disc)) > 1:
            rest //= g
        if rest > 1:
            raise ValueError(f"conductor {self.conductor} does not fit the model: {rest} is prime to disc {disc}")

    def b_invariants(self) -> tuple[int, int, int, int]:
        b2 = self.a1**2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3**2 + 4 * self.a6
        b8 = (
            self.a1**2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3**2
            - self.a4**2
        )
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6

    def c_invariants(self) -> tuple[int, int]:
        b2, b4, b6, _ = self.b_invariants()
        return b2**2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6

    def check_good(self, p: int) -> None:
        """Raise BadReduction when p divides the discriminant (after __post_init__, every p | N does)."""
        if self.discriminant() % p == 0:
            if self.conductor % p == 0:
                raise BadReduction(f"{self.label or 'curve'} has bad reduction at {p}")
            raise BadReduction(
                f"{self.label or 'curve'}: the model is singular at {p} although {p} does not divide "
                f"the conductor {self.conductor} (not minimal at {p}, or a wrong conductor)"
            )

    def short_model(self, p: int) -> tuple[int, int]:
        """(A, B) = (-27 c4, -54 c6) mod p of y^2 = x^3 + Ax + B; requires p > 3 and good reduction.

        This is the long model scaled by u = 6: isomorphic over F_p for p > 3, with no inverse.
        """
        if p <= 3:
            raise SmallCharacteristic(f"no short model at p = {p}")
        self.check_good(p)
        c4, c6 = self.c_invariants()
        return (-27 * c4) % p, (-54 * c6) % p

    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)


# Standard curves used throughout the test battery.
CURVE_11A1 = CurveSpec(0, -1, 1, -10, -20, 11, "11a1")
CURVE_37A1 = CurveSpec(0, 0, 1, -1, 0, 37, "37a1")
CURVE_389A1 = CurveSpec(0, 1, 1, -2, 0, 389, "389a1")
CURVE_5077A1 = CurveSpec(0, 0, 1, -7, 6, 5077, "5077a1")
CURVE_32A = CurveSpec(0, 0, 0, -1, 0, 32, "32a")  # CM control, j = 1728

NAMED_CURVES = {
    c.label: c for c in (CURVE_11A1, CURVE_37A1, CURVE_389A1, CURVE_5077A1, CURVE_32A)
}


def ec_count_points_enum(curve: CurveSpec, p: int) -> int:
    """#E(F_p) by enumerating all (x, y) on the long model, plus infinity.

    O(p^2); the only route available at p in {2, 3}.
    """
    curve.check_good(p)
    a1, a2, a3, a4, a6 = (a % p for a in curve.ainvs())
    count = 1
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        lin = (a1 * x + a3) % p
        for y in range(p):
            if (y * y + lin * y - rhs) % p == 0:
                count += 1
    return count


@lru_cache(maxsize=64)
def _qr_table(p: int) -> np.ndarray:
    """Boolean table of nonzero quadratic residues mod p."""
    x = np.arange(1, p, dtype=np.int64)
    table = np.zeros(p, dtype=bool)
    table[(x * x) % p] = True
    return table


def ec_count_points_naive(curve: CurveSpec, p: int) -> int:
    """#E(F_p) = p + 1 + sum_x chi(x^3 + Ax + B) via Legendre-symbol summation.

    chi is computed by residue-table lookup, which is the same character sum
    evaluated without per-element modular exponentiation.  Requires p > 3 so
    the short model exists; NAIVE_COST_GUARD keeps the O(p) scan at desk scale.
    """
    if p >= NAIVE_COST_GUARD:
        raise ValueError(f"p = {p} exceeds the naive cost guard {NAIVE_COST_GUARD}")
    a, b = curve.short_model(p)  # raises SmallCharacteristic for p <= 3, BadReduction at a bad p
    x = np.arange(p, dtype=np.int64)
    vals = (x * x % p * x + a * x + b) % p
    chi = np.where(_qr_table(p)[vals], 1, -1)
    chi[vals == 0] = 0
    return p + 1 + int(chi.sum())


def ec_ap_naive(curve: CurveSpec, p: int) -> int:
    """a_p from the counting route appropriate below the BSGS crossover."""
    if p <= 3:
        return p + 1 - ec_count_points_enum(curve, p)
    return p + 1 - ec_count_points_naive(curve, p)


# -- modular square roots ----------------------------------------------------


def sqrt_mod(a: int, p: int, rng: random.Random) -> int | None:
    """A square root of a mod p (odd prime), or None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z = rng.randrange(2, p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# -- affine group law on y^2 = x^3 + Ax + B ----------------------------------
# Points are (x, y) tuples; None is the point at infinity.


def _ec_add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_neg(P, p: int):
    if P is None:
        return None
    return P[0], (-P[1]) % p


def _ec_mul(k: int, P, a: int, p: int):
    R = None
    while k:
        if k & 1:
            R = _ec_add(R, P, a, p)
        P = _ec_add(P, P, a, p)
        k >>= 1
    return R


def _random_point(a: int, b: int, p: int, rng: random.Random):
    while True:
        x = rng.randrange(p)
        rhs = (x * x % p * x + a * x + b) % p
        y = sqrt_mod(rhs, p, rng)
        if y is not None:
            return x, y


def _annihilators_in_window(P, a: int, p: int, lo: int, hi: int) -> set[int]:
    """All n in [lo, hi] with nP = O, by baby-step giant-step.

    Solves uP = -Q for Q = lo*P and u in [0, hi-lo]; returns lo + u for every
    match found, so callers see the full candidate set, not just one witness.
    """
    width = hi - lo
    m = math.isqrt(width) + 1
    # baby steps: x-coordinate -> list of i with iP = (x, y_i)
    baby: dict[int, list[tuple[int, int]]] = {}
    R = None
    for i in range(m):
        if R is None:
            baby.setdefault(-1, []).append((i, 0))
        else:
            baby.setdefault(R[0], []).append((i, R[1]))
        R = _ec_add(R, P, a, p)
    mP = R  # R = mP after the loop
    target = _ec_neg(_ec_mul(lo, P, a, p), p)  # uP = target
    hits: set[int] = set()
    G = target
    for k in range(width // m + 2):
        u_base = k * m
        if G is None:
            for i, _ in baby.get(-1, []):
                u = u_base + i
                if 0 <= u <= width:
                    hits.add(lo + u)
        else:
            for i, yi in baby.get(G[0], []):
                # G = (u - km)P with u = km + i (same y) or u = km - i (negated)
                if yi == G[1]:
                    u = u_base + i
                    if 0 <= u <= width:
                        hits.add(lo + u)
                if (-yi) % p == G[1]:
                    u = u_base - i
                    if 0 <= u <= width:
                        hits.add(lo + u)
        G = _ec_add(G, _ec_neg(mP, p), a, p)
    return hits


def _order_via_bsgs(a: int, b: int, p: int, rng: random.Random) -> int | None:
    """Unique group order of y^2 = x^3 + ax + b over F_p, or None if ambiguous."""
    root = math.isqrt(4 * p)
    lo, hi = p + 1 - root - 1, p + 1 + root + 1
    candidates: set[int] | None = None
    for _ in range(24):  # random points before the caller falls back to the twist
        P = _random_point(a, b, p, rng)
        hits = _annihilators_in_window(P, a, p, lo, hi)
        candidates = hits if candidates is None else candidates & hits
        if candidates is not None and len(candidates) == 1:
            return candidates.pop()
        if not candidates:
            raise AmbiguousOrder(f"no consistent order at p = {p}: implementation bug")
    return None


def ec_ap_bsgs(curve: CurveSpec, p: int) -> int:
    """a_p by baby-step giant-step group-order search; requires p > 229.

    Randomness is seeded from (curve, p), so results and retry behaviour are
    reproducible regardless of thread scheduling.
    """
    if p <= NAIVE_BSGS_CROSSOVER:
        raise ValueError(f"BSGS needs p > {NAIVE_BSGS_CROSSOVER}; use the naive count")
    a, b = curve.short_model(p)  # raises BadReduction
    rng = random.Random(hash((curve.ainvs(), p)) & 0xFFFFFFFF)
    order = _order_via_bsgs(a, b, p, rng)
    if order is None:
        # Quadratic twist fallback: #E + #E^d = 2p + 2 for chi(d) = -1.
        d = 2
        while pow(d, (p - 1) // 2, p) != p - 1:
            d += 1
        a_tw = a * d * d % p
        b_tw = b * d * d % p * d % p
        tw_order = _order_via_bsgs(a_tw, b_tw, p, rng)
        if tw_order is None:
            raise AmbiguousOrder(f"order search failed on curve and twist at p = {p}")
        order = 2 * p + 2 - tw_order
    return p + 1 - order


def ec_ap(curve: CurveSpec, p: int) -> int:
    """a_p at a good prime by the cheapest reliable route for the size of p (every route checks p)."""
    if p <= NAIVE_BSGS_CROSSOVER:
        return ec_ap_naive(curve, p)
    return ec_ap_bsgs(curve, p)


# -- lockstep BSGS over a block of primes --------------------------------------
# One numpy row per prime; every group operation is applied to all rows at
# once.  Points are Jacobian (X : Y : Z) with x = X/Z^2, y = Y/Z^3 on a short
# model y^2 = x^3 + ax + b; all values are int64 residues in [0, p), so every
# product of two residues stays below p^2 < 2^63.  An addition or doubling
# whose result has Z = 0 (the point at infinity, or an exceptional case of the
# formulas) marks its row as failed, except for a giant step that provably
# lands on the point at infinity; failed rows go to the next pass.

LOCKSTEP_BLOCK = 1024  # rows per lockstep pass: a working set of 2-3 MB for p up to 1e6
LOCKSTEP_P_MAX = 3 * 10**9  # p^2 < 2^63 below this; larger primes use the scalar route
_ROW_SHIFT = 34  # candidate key = row << 34 | order; orders are below 2p + 2 < 2^34
_ORDER_MASK = (1 << _ROW_SHIFT) - 1


def _powmod(base: np.ndarray, exp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^exp mod p elementwise, with a separate exponent for every entry."""
    result = np.ones_like(base)
    for bit in range(int(exp.max()).bit_length()):
        result = np.where((exp >> bit) & 1 == 1, result * base % p, result)
        base = base * base % p
    return result


def _batch_inverse(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Inverses of z[j] mod p for every step j, with one exponentiation per row.

    Montgomery's simultaneous inversion along the step axis: invert the
    running product of z[0..L-1], then peel the factors off backwards.  The
    running products and the inverses share one buffer.
    """
    out = np.empty_like(z)
    acc = out[0] = z[0]
    for j in range(1, len(z)):
        acc = out[j] = acc * z[j] % p
    inv = _powmod(acc, p - 2, p)
    for j in range(len(z) - 1, 0, -1):
        out[j] = inv * out[j - 1] % p
        inv = inv * z[j] % p
    out[0] = inv
    return out


def _to_affine(X: np.ndarray, Y: np.ndarray, Z: np.ndarray, p: np.ndarray) -> None:
    """Turn the Jacobian points (X[j] : Y[j] : Z[j]) into affine (x, y), in place in X and Y."""
    zinv = _batch_inverse(Z, p)
    t = zinv * zinv
    t %= p
    X *= t
    X %= p
    t *= zinv
    t %= p
    Y *= t
    Y %= p


def _jacobian_double(X, Y, Z, a, p):
    XX, YY, ZZ = X * X % p, Y * Y % p, Z * Z % p
    S = 4 * (X * YY % p) % p
    M = (3 * XX + a * (ZZ * ZZ % p)) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * ((S - X3) % p) - 8 * (YY * YY % p)) % p
    return X3, Y3, 2 * (Y * Z % p) % p


def _jacobian_add_affine(X, Y, Z, x2, y2, p):
    """(X : Y : Z) + (x2, y2); Z3 = 0 when the x-coordinates agree."""
    ZZ = Z * Z % p
    H = (x2 * ZZ - X) % p
    r = (y2 * (Z * ZZ % p) - Y) % p
    HH = H * H % p
    HHH = H * HH % p
    V = X * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    return X3, (r * ((V - X3) % p) - Y * HHH) % p, Z * H % p


def _jacobian_multiply(k, x, y, a, p):
    """k * (x, y) for k >= 1 per row, by left-to-right double-and-add."""
    X, Y, Z = x, y, np.ones_like(x)
    nbits = np.frexp(k.astype(np.float64))[1]  # bit length of each k (exact below 2^53)
    for bit in range(int(nbits.max()) - 2, -1, -1):
        DX, DY, DZ = _jacobian_double(X, Y, Z, a, p)
        AX, AY, AZ = _jacobian_add_affine(DX, DY, DZ, x, y, p)
        use_add = (k >> bit) & 1 == 1
        started = nbits > bit + 1
        X = np.where(started, np.where(use_add, AX, DX), X)
        Y = np.where(started, np.where(use_add, AY, DY), Y)
        Z = np.where(started, np.where(use_add, AZ, DZ), Z)
    return X, Y, Z


def _residues(v: int, p: np.ndarray) -> np.ndarray:
    """v mod p for every entry of p, for an integer v of any size."""
    if -(2**62) < v < 2**62:
        return np.int64(v) % p
    return np.array([v % q for q in p.tolist()], dtype=np.int64)


def _legendre(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Legendre symbol (v/p) in {-1, 0, 1} by Euler's criterion."""
    e = _powmod(v % p, (p - 1) // 2, p)
    return np.where(e == p - 1, -1, e)


def _candidate_x(p: np.ndarray, salt: int, tries: range) -> np.ndarray:
    """Pseudo-random x in [0, p), one row per try, a pure function of (salt, p, try)."""
    z = (p.astype(np.uint64) << np.uint64(16)) ^ np.uint64(salt << 24)
    z = z + np.arange(tries.start, tries.stop, dtype=np.uint64)[:, None]
    z = z * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(31)
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(29)
    return (z % p.astype(np.uint64)).astype(np.int64)


def _lockstep_pass(p, A, B, salt, chi_wanted=None):
    """One lockstep BSGS order search for every row.

    A row picks x with f = x^3 + Ax + B != 0; P = (xf, f^2) then lies on
    E_f: y^2 = x^3 + Af^2 x + Bf^3, the twist of E by f, so no square root
    is needed.  ``chi_wanted`` (per row, +1 or -1) asks for a point on E
    itself or on its quadratic twist.  Every n in the Hasse window with
    nP = O is found: baby steps iP (i = 1..m) are matched by x-coordinate
    against giant steps s_k P, s_k = (q0 + k)(2m + 1), so n = s_k -+ i;
    an exact hit s_k P = O (k >= 1) gives n = s_k and restarts the chain.
    Returns (keys, failed, chi): the sorted distinct ``row << 34 | #E(F_p)``
    candidates of the rows that did not fail, mapped back from E_f to E; the
    rows that failed (an exceptional addition, or no usable x); and the
    Legendre symbol of each row's f.
    """
    n = p.size
    xs = _candidate_x(p, salt, range(0, 4) if chi_wanted is None else range(4, 16))
    fs = (xs * xs % p * xs % p + A * xs % p + B) % p
    usable = fs != 0
    if chi_wanted is not None:
        usable &= _legendre(fs, p) == chi_wanted
    pick = np.argmax(usable, axis=0)
    cols = np.arange(n)
    failed = ~usable[pick, cols]
    x, f = xs[pick, cols], fs[pick, cols]
    chi = _legendre(f, p) if chi_wanted is None else chi_wanted
    ff = f * f % p
    a, px, py = A * ff % p, x * f % p, ff

    root = np.sqrt(4.0 * p).astype(np.int64)  # isqrt(4p): float sqrt is off by at most 1 here
    root -= root * root > 4 * p
    root += (root + 1) * (root + 1) <= 4 * p
    lo, hi = p + 1 - root, p + 1 + root
    m = math.isqrt(int(root.max())) + 1  # window width 2*root; m ~ sqrt(width / 2)
    step = 2 * m + 1

    # baby steps: row j holds (j + 1)P for j < m; row m holds J = (2m + 1)P
    BX, BY, BZ = (np.empty((m + 1, n), dtype=np.int64) for _ in range(3))
    X, Y, Z = px, py, np.ones(n, dtype=np.int64)
    for j in range(m):
        BX[j], BY[j], BZ[j] = X, Y, Z
        if j == 0:
            X, Y, Z = _jacobian_double(X, Y, Z, a, p)
        elif j < m - 1:
            X, Y, Z = _jacobian_add_affine(X, Y, Z, px, py, p)
    X, Y, Z = _jacobian_double(BX[m - 1], BY[m - 1], BZ[m - 1], a, p)
    BX[m], BY[m], BZ[m] = _jacobian_add_affine(X, Y, Z, px, py, p)
    failed |= (BZ == 0).any(axis=0)
    _to_affine(BX, BY, BZ, p)
    del BZ
    jx, jy = BX[m].copy(), BY[m].copy()

    # giant steps: G_k = s_k P = (q0 + k) J, centres spaced 2m + 1 apart over [lo, hi];
    # after G_k = O (k >= 1) the chain restarts at G_{k+1} = J and G_{k+2} = 2J,
    # the latter from a doubling, as J + J is exceptional for the mixed addition
    q0 = (lo + m) // step
    failed |= q0 < 1  # a block mixing primes of very different sizes: no room below lo
    q0 = np.maximum(q0, 1)
    K = int(((hi - m + step - 1) // step - q0).max()) + 1
    GX, GY, GZ = (np.empty((K, n), dtype=np.int64) for _ in range(3))
    one = np.ones(n, dtype=np.int64)
    restarts = ((jx, jy, one), _jacobian_double(jx, jy, one, a, p))
    X, Y, Z = _jacobian_multiply(q0, jx, jy, a, p)
    for k in range(K):
        GX[k], GY[k], GZ[k] = X, Y, Z
        if k < K - 1:
            X, Y, Z = _jacobian_add_affine(X, Y, Z, jx, jy, p)
            for back, point in enumerate(restarts):  # G_{k-back} = O: G_{k+1} = (back + 1) J
                if k - back >= 1 and (hit := GZ[k - back] == 0).any():
                    X, Y, Z = [np.where(hit, new, old) for new, old in zip(point, (X, Y, Z))]
    zero = GZ == 0
    failed |= zero[0]
    hit_k, hit_row = np.nonzero(zero[1:])
    hit_k += 1
    GZ[zero] = 1  # keeps the row's simultaneous inversion defined
    _to_affine(GX, GY, GZ, p)
    del GZ
    # Z = 0 is an exact hit s_k P = O only after G_{k-1} = -J; else a formula broke down
    exact = (GX[hit_k - 1, hit_row] == jx[hit_row]) & (GY[hit_k - 1, hit_row] == -jy[hit_row] % p[hit_row])
    failed[hit_row[~exact]] = True
    hit_row, hit_s = hit_row[exact], (q0[hit_row[exact]] + hit_k[exact]) * step
    np.copyto(GX, p, where=zero)  # x = p matches no baby step

    # match x(G_k) with x(iP) in the same row on sort keys (row * stride + x) << shift,
    # which carry the baby index i - 1 in their low bits
    shift = m.bit_length()
    low = (1 << shift) - 1
    stride = int(p.max()) + 1
    offsets = np.arange(n, dtype=np.int64) * stride
    bkeys = BX[:m].reshape(-1)  # a view: the keys replace the x-coordinates
    BX[:m] += offsets
    BX[:m] <<= shift
    BX[:m] |= np.arange(m)[:, None]
    bkeys.sort()
    # two baby points with one x mean ord(P) <= 2m; such a row could hide an order
    twins = np.flatnonzero((bkeys[1:] ^ bkeys[:-1]) <= low)
    failed[(bkeys[twins] >> shift) // stride] = True
    gkeys = GX.reshape(-1)
    GX += offsets
    GX <<= shift
    first = np.searchsorted(bkeys, gkeys)
    np.minimum(first, bkeys.size - 1, out=first)
    found = bkeys[first]
    found ^= gkeys
    g = np.flatnonzero(found <= low)  # giant points whose (row, x) is a baby key
    row, k, i = g % n, g // n, (bkeys[first[g]] & low) + 1
    b = (i - 1) * n + row  # flat index of iP in the baby arrays
    yb, yg = BY.reshape(-1)[b], GY.reshape(-1)[g]
    s = (q0[row] + k) * step
    same, opposite = yb == yg, (yb + yg) % p[row] == 0  # G_k = iP or G_k = -iP
    row = np.concatenate((row[same], row[opposite], hit_row))
    order_f = np.concatenate((s[same] - i[same], s[opposite] + i[opposite], hit_s))
    keep = (order_f >= lo[row]) & (order_f <= hi[row]) & ~failed[row]
    row, order_f = row[keep], order_f[keep]
    order_e = np.where(chi[row] == 1, order_f, 2 * p[row] + 2 - order_f)
    return np.unique(row << _ROW_SHIFT | order_e), failed, chi


def _short_models(curve: CurveSpec, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The array form of CurveSpec.short_model: (A, B) = (-27 c4, -54 c6) mod each prime."""
    c4, c6 = curve.c_invariants()
    return _residues(-27 * c4, p), _residues(-54 * c6, p)


def _settle(out: np.ndarray, ps: np.ndarray, idx: np.ndarray, keys: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """Write a_p for the rows of idx with exactly one candidate order; return the other rows."""
    owner = keys >> _ROW_SHIFT
    done = (np.bincount(owner, minlength=idx.size) == 1) & ~failed
    rows = np.flatnonzero(done)
    orders = keys[np.searchsorted(owner, rows)] & _ORDER_MASK
    out[idx[rows]] = ps[idx[rows]] + 1 - orders
    return np.flatnonzero(~done)


def _cpu_count() -> int:
    """CPUs in the process's affinity set; 1 where the platform cannot tell (off Linux)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# set on the main thread while it computes its share of a split_map with workers
_in_share = threading.local()


def split_map(fn, items, cap: int | None = None) -> list:
    """[fn(item) for item in items], with the items shared among threads.

    W = min(CPUs in the affinity set, len(items), cap) when called from the
    main thread outside its share of another split, and W = 1 otherwise, so
    a split never nests.  With W >= 2 the items are dealt round-robin to W
    shares: the calling thread computes share 0 and W - 1 threads compute
    the others.  fn must be a pure function of its item, and gains only
    where it spends its time in code that releases the GIL (numpy loops).
    The results come back in item order.  Every worker is joined before the
    call returns, and then the exception of the first item that raised, in
    item order, is raised, as a serial loop would raise it.
    """
    items = list(items)
    workers = min(_cpu_count(), len(items), len(items) if cap is None else cap)
    nested = threading.current_thread() is not threading.main_thread() or getattr(_in_share, "on", False)
    if workers < 2 or nested:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    failures: list = [None] * workers  # per share: (item index, exception) of its first failure

    def run_share(share: int) -> None:
        for i in range(share, len(items), workers):
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised in the calling thread
                failures[share] = (i, exc)
                return

    threads = [threading.Thread(target=run_share, args=(w,)) for w in range(1, workers)]
    _in_share.on = True
    try:
        for thread in threads:
            thread.start()
        run_share(0)
    finally:
        _in_share.on = False
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    raised = [f for f in failures if f is not None]
    if raised:
        # an interrupt or exit outranks the errors of fn; among those, item order decides
        raise min(raised, key=lambda f: (isinstance(f[1], Exception), f[0]))[1]
    return results


def _map_blocks(fn, n: int) -> list:
    """[fn(start, stop) for each block of LOCKSTEP_BLOCK rows of range(n)], on every CPU the process may use.

    With W = min(CPUs in the affinity set, full blocks) >= 2, the blocks are
    dealt round-robin to W shares.  W - 1 forked children compute theirs and
    send them back through a pipe while this process computes the first.
    fn must be a pure function of its block, so the results do not depend on
    W.  A fork passes fn and its data without pickling them; the children run
    numpy's element-wise, sorting and searching code only, never BLAS, whose
    threads a fork does not copy.  A child's exception is raised here, and no
    child outlives the call.
    """
    blocks = [(start, min(start + LOCKSTEP_BLOCK, n)) for start in range(0, n, LOCKSTEP_BLOCK)]
    workers = min(_cpu_count(), n // LOCKSTEP_BLOCK)
    if workers < 2:
        return [fn(*block) for block in blocks]
    ctx = multiprocessing.get_context("fork")
    results: list = [None] * len(blocks)
    children = []
    try:
        for w in range(1, workers):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_share, args=(fn, blocks[w::workers], writer), daemon=True)
            child.start()
            writer.close()
            children.append((child, reader))
        results[::workers] = [fn(*block) for block in blocks[::workers]]
        for w, (child, reader) in enumerate(children, 1):
            try:
                ok, payload = reader.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(f"a lockstep worker exited with code {child.exitcode}") from None
            if not ok:
                raise payload
            results[w::workers] = payload
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, reader in children:
            child.join()
            reader.close()
    return results


def _run_share(fn, blocks, writer) -> None:
    """Body of a _map_blocks child: send (True, results) or (False, the exception)."""
    try:
        payload = (True, [fn(*block) for block in blocks])
    except Exception as exc:
        payload = (False, exc)
    writer.send(payload)
    writer.close()


def ec_ap_array(curve: CurveSpec, primes) -> np.ndarray:
    """a_p for an array of good primes, as exact int64, in the order given.

    The primes 229 < p < LOCKSTEP_P_MAX run, in increasing order, through
    lockstep blocks of LOCKSTEP_BLOCK rows: a first pass with a point on E
    or on its twist, then a second pass with a point on the other twist for
    the rows the first left without exactly one candidate order (together,
    across blocks).  Each pass settles a row on its own candidates.  Every
    other prime, and every row still open, goes to the scalar ec_ap in this
    process.  Each pass maps its blocks with _map_blocks, a block's outcome
    depends on its rows alone, and a_p is exact whatever the path, so the
    result depends neither on how the primes are split into calls nor on
    the number of CPUs.
    """
    ps = np.asarray(primes, dtype=np.int64).reshape(-1)
    out = np.empty(ps.size, dtype=np.int64)
    bad = np.flatnonzero(_residues(curve.discriminant(), ps) == 0)
    if bad.size:
        curve.check_good(int(ps[bad[0]]))  # raises, with the scalar message
    lockstep = (ps > NAIVE_BSGS_CROSSOVER) & (ps < LOCKSTEP_P_MAX)
    rows = np.flatnonzero(lockstep)
    rows = rows[np.argsort(ps[rows], kind="stable")]
    salt = hash(curve.ainvs()) & 0xFFFFFFFF
    chi_wanted = None

    def block(start, stop):  # rows[start:stop] of the current pass
        p = ps[rows[start:stop]]
        wanted = None if chi_wanted is None else chi_wanted[start:stop]
        return _lockstep_pass(p, *_short_models(curve, p), salt, wanted)

    for _ in range(2):  # the rows pass 1 leaves open go to pass 2 with a point on the other twist
        is_open, chi = np.zeros(rows.size, dtype=bool), np.zeros(rows.size, dtype=np.int64)
        blocks = _map_blocks(block, rows.size)
        for start, (keys, failed, block_chi) in zip(range(0, rows.size, LOCKSTEP_BLOCK), blocks):
            stop = start + failed.size
            is_open[start + _settle(out, ps, rows[start:stop], keys, failed)] = True
            chi[start:stop] = block_chi
        rows, chi_wanted = rows[is_open], -chi[is_open]
    for j in np.concatenate((np.flatnonzero(~lockstep), rows)).tolist():
        out[j] = ec_ap(curve, int(ps[j]))
    return out
