"""Weierstrass curves over Q and a_p computation at good primes.

Three point-counting routes, by prime size:

- full enumeration on the long model (any p, O(p^2)); production path for
  p in {2, 3} where no short model exists, and the test oracle elsewhere;
- Legendre-symbol summation on the reduced short model (p > 3, O(p),
  vectorised with a quadratic-residue table);
- Shanks/Mestre baby-step giant-step order search (p > 229, O(p^(1/4))
  group operations), on points of E and of its quadratic twist alike, each
  taken by the twist map x -> (xf, f^2), f = x^3 + Ax + B, with no square
  root; the lockstep engine runs this search over blocks of primes.

a_p = p + 1 - #E(F_p), and |a_p| <= 2 sqrt(p) by Hasse.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
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


def ec_ap_bsgs(curve: CurveSpec, p: int) -> int:
    """a_p by baby-step giant-step group-order search; requires p > 229.

    A try draws x with f = x^3 + Ax + B != 0 and takes P = (xf, f^2) on
    y^2 = x^3 + Af^2 x + Bf^3, the twist of E by f, as the lockstep engine
    does: no square root is needed.  That twist is E when chi(f) = 1 and
    its quadratic twist E' when chi(f) = -1.  Every n in the Hasse window
    with nP = O is a candidate for #E, mapped through #E = 2p + 2 - #E'
    for a point on E' (the window is symmetric about p + 1, so it maps onto
    itself).  The tries are intersected until one candidate is left: for
    p > 229, E or E' has a point whose order has a single multiple in the
    window (Mestre), so points drawn from both settle every prime.
    Randomness is seeded from (curve, p), so results and retry behaviour are
    reproducible in whichever process runs it.
    """
    if p <= NAIVE_BSGS_CROSSOVER:
        raise ValueError(f"BSGS needs p > {NAIVE_BSGS_CROSSOVER}; use the naive count")
    a, b = curve.short_model(p)  # raises BadReduction
    rng = random.Random(hash((curve.ainvs(), p)) & 0xFFFFFFFF)
    root = math.isqrt(4 * p)
    lo, hi = p - root, p + 2 + root  # the Hasse window widened by one on each side
    candidates: set[int] | None = None
    for _ in range(48):  # points on E or E' before the search gives up
        f = 0
        while f == 0:
            x = rng.randrange(p)
            f = (x * x % p * x + a * x + b) % p
        ff = f * f % p
        hits = _annihilators_in_window((x * f % p, ff), a * ff % p, p, lo, hi)
        if pow(f, (p - 1) // 2, p) != 1:
            hits = {2 * p + 2 - n for n in hits}
        candidates = hits if candidates is None else candidates & hits
        if len(candidates) == 1:
            return p + 1 - candidates.pop()
        if not candidates:
            raise AmbiguousOrder(f"no consistent order at p = {p}: implementation bug")
    raise AmbiguousOrder(f"order search failed on curve and twist at p = {p}")


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
# lands on the point at infinity; failed rows go to the next pass.  Tables of
# residues that are never negative are uint32, as LOCKSTEP_P_MAX < 2^32.

LOCKSTEP_BYTES = 2 * 10**6  # peak working set of one lockstep pass; sizes the blocks (lockstep_rows)
LOCKSTEP_P_MAX = 3 * 10**9  # p^2 < 2^63 below this; larger primes use the scalar route
_ROW_SHIFT = 34  # candidate key = row << 34 | order; orders are below 2p + 2 < 2^34
_ORDER_MASK = (1 << _ROW_SHIFT) - 1


def lockstep_rows(p_max: int) -> int:
    """Rows of one lockstep block whose largest prime is p_max: LOCKSTEP_BYTES // bytes per row.

    At its peak a pass holds, per row, the int64 keys of m baby and K giant
    steps, the giant chain's uint32 Y and int64 Z-factor tables, and about
    29 int64 vectors: 8 (m + K) + 12 K + 232 bytes, with K <= m + 2 and
    m = isqrt(isqrt(4 p_max)) + 1: at most 28 m + 272 bytes.  Traced peaks of
    passes from p = 2e4 to 3e9 come to 28 m + 228 to 28 m + 260 bytes a row.
    """
    m = math.isqrt(math.isqrt(4 * p_max)) + 1
    return max(1, LOCKSTEP_BYTES // (28 * m + 272))


def _powmod(base: np.ndarray, exp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^exp mod p elementwise, with a separate exponent for every entry."""
    result = np.ones_like(base)
    for bit in range(int(exp.max()).bit_length()):
        result = np.where((exp >> bit) & 1 == 1, result * base % p, result)
        base = base * base % p
    return result


def _jacobian_double(X, Y, Z, a, p):
    """2R, and R rescaled to the Z of 2R (a co-Z pair), for R = (X : Y : Z); returns (2R, R', F), Z(2R) = Z F."""
    XX, YY, ZZ = X * X % p, Y * Y % p, Z * Z % p
    S = 4 * (X * YY % p) % p  # X (2Y)^2
    L = 8 * (YY * YY % p) % p  # Y (2Y)^3
    M = (3 * XX + a * (ZZ * ZZ % p)) % p
    X3 = (M * M - 2 * S) % p
    F = 2 * Y % p
    return X3, (M * ((S - X3) % p) - L) % p, Z * F % p, S, L, F


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


def _co_z_add(X, Y, Z, QX, QY, p):
    """R + Q, and Q rescaled to the Z of R + Q, for R = (X : Y : Z) and Q = (QX : QY : Z) with one Z.

    Meloni's co-Z addition (ZADDU of Goundar, Rivain and Sakellar): 7
    reductions against 11 for a mixed addition.  Returns (R + Q, Q', d) with
    Z(R + Q) = Z d; d = 0 when the x-coordinates agree.  The differences d, e,
    W1 - W2 and W1 - X3 stay unreduced in (-p, p), so with residues in [0, p)
    every product below has absolute value at most (p - 1)^2, e e - W1 - W2
    lies in (-2p, p^2) and e (W1 - X3) - A1 in (-p^2, p^2): all below
    2^63 for p < LOCKSTEP_P_MAX.
    """
    d, e = QX - X, QY - Y
    C = d * d % p
    W1, W2 = QX * C % p, X * C % p
    A1 = QY * (W1 - W2) % p
    X3 = (e * e - W1 - W2) % p
    return X3, (e * (W1 - X3) - A1) % p, Z * d % p, W1, A1, d


def _jacobian_multiply(k, x, y, a, p):
    """k * (x, y) for k >= 1 per row, by left-to-right double-and-add."""
    X, Y, Z = x, y, np.ones_like(x)
    nbits = np.frexp(k.astype(np.float64))[1]  # bit length of each k (exact below 2^53)
    for bit in range(int(nbits.max()) - 2, -1, -1):
        DX, DY, DZ = _jacobian_double(X, Y, Z, a, p)[:3]
        AX, AY, AZ = _jacobian_add_affine(DX, DY, DZ, x, y, p)
        use_add = (k >> bit) & 1 == 1
        started = nbits > bit + 1
        X = np.where(started, np.where(use_add, AX, DX), X)
        Y = np.where(started, np.where(use_add, AY, DY), Y)
        Z = np.where(started, np.where(use_add, AZ, DZ), Z)
    return X, Y, Z


def _chain_keys(X, Y, F, zinv, p, base, shift):
    """Turn a chain of points into match keys in place in X, and its Z factors into 1/Z in place in F.

    Entry j is (X[j] : Y[j] : Z[j]) with Z[j] = Z[j-1] F[j], and zinv = 1/Z[-1]
    per row, so peeling the factors off backwards inverts every Z with one
    product.  The key of entry j is ((base + x) << 2 | y mod 2) << shift | j,
    with y mod 2 taken as 0 when Y is None; as p is odd, the parity tells y
    from -y unless y = 0.
    """
    for j in range(len(X) - 1, -1, -1):
        t = zinv * zinv % p
        x = X[j] * t % p
        x <<= 2
        x += base
        if Y is not None:
            x |= Y[j] * (t * zinv % p) % p & 1
        x <<= shift
        X[j] = x | j
        F[j], zinv = zinv, zinv * F[j] % p


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


def _start_points(p, A, B, salt, chi_wanted):
    """(failed, chi, a, px, py): a point P = (px, py) on y^2 = x^3 + ax + b, the twist of E by chi, per row."""
    xs = _candidate_x(p, salt, range(0, 4) if chi_wanted is None else range(4, 16))
    fs = (xs * xs % p * xs % p + A * xs % p + B) % p
    usable = fs != 0
    if chi_wanted is not None:
        usable &= _legendre(fs, p) == chi_wanted
    pick, cols = np.argmax(usable, axis=0), np.arange(p.size)
    x, f = xs[pick, cols], fs[pick, cols]
    ff = f * f % p
    chi = _legendre(f, p) if chi_wanted is None else chi_wanted
    return ~usable[pick, cols], chi, A * ff % p, x * f % p, ff


def _lockstep_pass(p, A, B, salt, chi_wanted=None):
    """One lockstep BSGS order search for every row.

    A row picks x with f = x^3 + Ax + B != 0; P = (xf, f^2) then lies on
    E_f: y^2 = x^3 + Af^2 x + Bf^3, the twist of E by f, so no square root
    is needed.  ``chi_wanted`` (per row, +1 or -1) asks for a point on E
    itself or on its quadratic twist.  Every n in the Hasse window with
    nP = O is found: baby steps iP (i = 1..m) are matched by x-coordinate
    against giant steps s_k P, s_k = (q0 + k)(2m + 1), so n = s_k -+ i;
    an exact hit s_k P = O (k >= 1) gives n = s_k and restarts the chain.
    Both chains step by co-Z additions.  The baby chain becomes match keys
    (x and the parity of y) before the giant chain starts, and the giant
    chain keys on x alone and keeps Y and 1/Z for the steps that match, so
    one chain's Y and Z tables are held at a time.  Babies and giants are
    matched by one in-place sort of their keys.  Returns (keys, failed, chi): the sorted distinct
    ``row << 34 | #E(F_p)`` candidates of the rows that did not fail, mapped
    back from E_f to E; the rows that failed (an exceptional addition, or no
    usable x); and the Legendre symbol of each row's f.
    """
    n = p.size
    failed, chi, a, px, py = _start_points(p, A, B, salt, chi_wanted)
    root = np.sqrt(4.0 * p).astype(np.int64)  # isqrt(4p): float sqrt is off by at most 1 here
    root -= root * root > 4 * p
    root += (root + 1) * (root + 1) <= 4 * p
    lo, hi = p + 1 - root, p + 1 + root
    m = math.isqrt(int(root.max())) + 1  # window width 2*root; m ~ sqrt(width / 2)
    step = 2 * m + 1
    q0 = (lo + m) // step  # giant step k is centred at s_k = (q0 + k) step
    failed |= q0 < 1  # a block mixing primes of very different sizes: no room below lo
    q0 = np.maximum(q0, 1)
    K = int(((hi - m + step - 1) // step - q0).max()) + 1
    # match keys ((row * stride + x) << 2 | baby 0 or giant 2 | baby's y mod 2) << shift | step index
    stride, shift = int(p.max()) + 1, max(m, K).bit_length()
    base = np.arange(n, dtype=np.int64) * stride << 2
    keys = np.empty((m + K, n), dtype=np.int64)  # rows 0..m-1: babies (i - 1); rows m..: giants (k)

    # baby steps: entry j holds (j + 1)P, stepped by co-Z additions from 2P; J = (2m + 1)P aside
    BY, BF = np.empty((m, n), dtype=np.uint32), np.empty((m, n), dtype=np.int64)
    keys[0], BY[0], BF[0] = px, py, 1
    X, Y, Z, QX, QY, F = _jacobian_double(px, py, np.ones(n, dtype=np.int64), a, p)
    for j in range(1, m):
        keys[j], BY[j], BF[j] = X, Y, F
        if j < m - 1:
            X, Y, Z, QX, QY, F = _co_z_add(X, Y, Z, QX, QY, p)
    JX, JY, JZ = _jacobian_add_affine(*_jacobian_double(X, Y, Z, a, p)[:3], px, py, p)
    failed |= JZ == 0  # a chain with a Z = 0 keeps it
    t = _powmod(Z * JZ % p, p - 2, p)  # one inverse for both mP and J
    _chain_keys(keys[:m], BY, BF, t * JZ % p, p, base, shift)
    t = t * Z % p
    jx, jy = JX * (t * t % p) % p, JY * (t * t % p * t % p) % p
    del BY, BF, JX, JY, JZ, px, py, t

    # giant steps: G_k = s_k P = (q0 + k) J, stepped by co-Z additions with J; after an
    # exact hit G_k = O (k >= 1) the chain holds J at the old Z for G_{k+1}, then doubles
    # it for G_{k+2}, as J + J is exceptional for the addition
    X, Y, Z = _jacobian_multiply(q0, jx, jy, a, p)
    GY, GF = np.empty((K, n), dtype=np.uint32), np.empty((K, n), dtype=np.int64)
    failed |= Z == 0
    QX, QY, F = jx * (Z * Z % p) % p, jy * (Z * Z % p * Z % p) % p, Z
    one = np.broadcast_to(np.int64(1), n)
    held = doubled = np.empty(0, dtype=np.intp)  # rows with G_k = O; rows with G_{k-1} = O
    hits = []  # (k, rows) of G_k = O, k >= 1
    for k in range(K):
        keys[m + k], GY[k], GF[k] = X, Y, F
        if k == K - 1:
            break
        new = _co_z_add(X, Y, Z, QX, QY, p)
        if held.size:
            for v, old in zip(new, (X, Y, Z, QX, QY, one)):
                v[held] = old[held]
        if doubled.size:
            for v, old in zip(new, _jacobian_double(X[doubled], Y[doubled], Z[doubled], a[doubled], p[doubled])):
                v[doubled] = old
        held, doubled = np.flatnonzero(new[2] == 0), held
        if held.size:  # G_{k+1} = O is an exact hit only after G_k = -J; else a formula broke down
            failed[held[(X[held] != QX[held]) | ((Y[held] + QY[held]) % p[held] != 0)]] = True
            hits.append((k + 1, held))
            for v, old in zip(new, (QX, QY, Z, QX, QY, one)):
                v[held] = old[held]
        X, Y, Z, QX, QY, F = new
    _chain_keys(keys[m:], None, GF, _powmod(Z, p - 2, p), p, base | 2, shift)  # y only where matched
    del X, Y, Z, QX, QY, F, new
    for k, rows in hits:  # x = p matches no baby step
        keys[m + k, rows] = ((base[rows] | 2) + (p[rows] << 2)) << shift | k

    # one sort brings each giant key right after the baby key of the same (row, x), if any
    flat = keys.reshape(-1)
    flat.sort()
    link = []  # t where flat[t] and flat[t + 1] share (row, x), in chunks of 4n so no second buffer is held
    for t in range(0, flat.size - 1, 4 * n):
        chunk = flat[t:t + 4 * n + 1]
        link.append(t + np.flatnonzero(chunk[1:] ^ chunk[:-1] < 1 << (shift + 2)))
    link = np.concatenate(link)
    first = link[np.diff(link, prepend=-2) != 1]  # link may be empty: a one-row block with only a hit
    head = flat[first[np.searchsorted(first, link, side="right") - 1]]  # the first key of each run
    tail = flat[link + 1]
    giant, row = tail >> (shift + 1) & 1 == 1, (tail >> (shift + 2)) // stride
    failed[row[~giant]] = True  # two baby points with one x mean ord(P) <= 2m; such a row could hide an order
    g = giant & (head >> (shift + 1) & 1 == 0)  # giant keys in a run that starts with a baby
    head, tail, row = head[g], tail[g], row[g]
    k, i = tail & (1 << shift) - 1, (head & (1 << shift) - 1) + 1
    s, z = (q0[row] + k) * step, GF[k, row]
    # G_k = iP, or -iP where y has the other parity: a baby step with y = 0 has ord(P) = 2i,
    # so for i < m (i - 1)P and (i + 1)P are twins, and for i = m, J = 2mP + P has Z = 0
    flip = (head >> shift & 1) != (GY[k, row] * (z * z % p[row] * z % p[row]) % p[row] & 1)
    del GY, GF
    row = np.concatenate([row] + [rows for _, rows in hits])
    order_f = np.concatenate([s + np.where(flip, i, -i)] + [(q0[rows] + k) * step for k, rows in hits])
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


# True while this process computes a share of a split: a split inside it runs serially
_in_share = False


def split_map(fn, items) -> list:
    """[fn(item) for item in items], with the items shared among forked processes.

    W = min(CPUs in the affinity set, len(items) // 2) outside a share of
    another split, and W = 1 inside one: every share holds two items at the
    least, and a split never nests.  With W >= 2 the items are dealt
    round-robin to W shares: this process computes share 0 while W - 1
    forked children compute the others and send them back through a pipe.
    A fork passes fn and its data without pickling them, so fn may be a
    closure; the child rule is that fn is a pure function of its item,
    returns picklable values and never calls BLAS (whose threads a fork
    does not copy).  The results come back in item order.  Each share stops
    at its first Exception, and the failure of the lowest item index is
    raised, as a serial loop would raise it.  A child that dies raises
    ChildProcessError, and no child outlives the call.
    """
    global _in_share
    items = list(items)
    workers = min(_cpu_count(), len(items) // 2)
    if workers < 2 or _in_share:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    children = []
    _in_share = True  # set before the forks, so the children hold it too
    try:
        for w in range(1, workers):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_share, args=(fn, items[w::workers], writer), daemon=True)
            child.start()
            writer.close()
            children.append((child, reader))
        shares = [_share(fn, items[::workers])]
        for child, reader in children:
            try:
                shares.append(reader.recv())
            except EOFError:
                child.join()
                raise ChildProcessError(f"a split_map worker exited with code {child.exitcode}") from None
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        _in_share = False
        for child, reader in children:
            child.join()
            reader.close()
    # a share that failed holds the results before its failure, so the failed item is w + W * len(done)
    failures = [(w + workers * len(done), exc) for w, (done, exc) in enumerate(shares) if exc is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    results: list = [None] * len(items)
    for w, (done, _) in enumerate(shares):
        results[w::workers] = done
    return results


def _share(fn, items) -> tuple[list, Exception | None]:
    """(results, None) of one share of a split, or (the results before its first failure, the exception)."""
    done: list = []
    try:
        for item in items:
            done.append(fn(item))
    except Exception as exc:
        return done, exc
    return done, None


def _send_share(fn, items, writer) -> None:
    """Body of a split_map child: compute its share and send it to the parent."""
    writer.send(_share(fn, items))


def ec_ap_array(curve: CurveSpec, primes) -> np.ndarray:
    """a_p for an array of good primes, as exact int64, in the order given.

    The primes 229 < p < LOCKSTEP_P_MAX run, in increasing order, through
    lockstep blocks of lockstep_rows(the pass's largest prime) rows: a first
    pass with a point on E or on its twist, then a second pass with a point
    on the other twist for the rows the first left without exactly one
    candidate order (together, across blocks).  Each pass settles a row on
    its own candidates.  Every other prime, and every row still open, goes
    to the scalar ec_ap in this process.  Each pass maps its blocks with
    split_map, two blocks a share, so a pass forks from four blocks on.  A
    block's outcome depends on its rows alone, and a_p is exact whatever
    the path, so the result depends neither on how the primes are split
    into calls nor on the number of CPUs.
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

    def block(start):  # rows[start:start + size] of the current pass
        stop = start + size
        p = ps[rows[start:stop]]
        wanted = None if chi_wanted is None else chi_wanted[start:stop]
        return _lockstep_pass(p, *_short_models(curve, p), salt, wanted)

    for _ in range(2):  # the rows pass 1 leaves open go to pass 2 with a point on the other twist
        is_open, chi = np.zeros(rows.size, dtype=bool), np.zeros(rows.size, dtype=np.int64)
        size = lockstep_rows(int(ps[rows[-1]])) if rows.size else 1
        starts = range(0, rows.size, size)
        blocks = split_map(block, starts)
        for start, (keys, failed, block_chi) in zip(starts, blocks):
            stop = start + failed.size
            is_open[start + _settle(out, ps, rows[start:stop], keys, failed)] = True
            chi[start:stop] = block_chi
        rows, chi_wanted = rows[is_open], -chi[is_open]
    for j in np.concatenate((np.flatnonzero(~lockstep), rows)).tolist():
        out[j] = ec_ap(curve, int(ps[j]))
    return out
