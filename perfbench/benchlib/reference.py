"""A fixed reference computation, timed in a fresh interpreter next to each
repetition to measure how fast the machine runs at that moment.

    python3 perfbench/benchlib/reference.py

prints the seconds the computation took.  It imports nothing from invineq,
so no change to the program moves it, and it exercises what the program
spends its time on: Fraction products and sums with gcd normalisation,
integer Horner evaluation of a polynomial with wide coefficients at
rational points, and fraction-free elimination of an integer matrix.
"""

import time
from fractions import Fraction


def compute() -> int:
    check = 0
    for n in range(40, 52):
        # A rising factorial over Fraction, as a closed-form coefficient.
        value = Fraction(1)
        for k in range(4 * n):
            value *= Fraction(2 * n + k + 1, 2 * k + 3)
        check ^= value.numerator % 1000003

    coeffs = [(-1) ** k * (3 ** (2 * k) + 7 * k + 1) for k in range(48)]
    for x in (Fraction(p, 2 ** 40 + 3 * p) for p in range(1, 300)):
        p, q = x.numerator, x.denominator
        acc, qpow = coeffs[-1], 1
        for c in reversed(coeffs[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        check ^= acc % 1000003

    size = 22
    for shift in range(3):
        a = [[(i * 37 + j * 101 + shift) % 53 + 11 * (i == j) for j in range(size)]
             for i in range(size)]
        prev = 1
        for k in range(size - 1):
            pivot = a[k][k] or 1
            for i in range(k + 1, size):
                aik = a[i][k]
                row_i, row_k = a[i], a[k]
                for j in range(k + 1, size):
                    row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            prev = pivot
        check ^= a[-1][-1] % 1000003
    return check


ROUNDS = 6

if __name__ == "__main__":
    start = time.perf_counter()
    for _ in range(ROUNDS):
        compute()
    print(time.perf_counter() - start)
