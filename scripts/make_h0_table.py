"""Regenerate the Chebyshev table of H0 in src/cpwall/vacuum.py from
50-digit mpmath.

Run from the repository root:

    python scripts/make_h0_table.py

vacuum.h0 takes 2 <= x0 <= 100 from piecewise Chebyshev series of
x H0(x) on [2, 4], [4, 8], [8, 16], [16, 32], [32, 64] and [64, 100],
summed by Clenshaw's recurrence.  On each piece [a, b] this samples
x H0(x) at the NODES Chebyshev points of the first kind, takes the
coefficients by the discrete cosine sums (L. N. Trefethen, Approximation
Theory and Approximation Practice, SIAM 2013, ch. 3), and keeps the
shortest head whose omitted coefficients sum to less than TAIL_RTOL of
|c_0|.  The nearest singularity of x H0, the logarithm of Ci at x = 0,
lies at t = -3 of each doubling piece, so the coefficients fall by
3 + sqrt(8) ~ 5.8 a step and 18-22 of them suffice.  The block between
the BEGIN and END markers in vacuum.py is rewritten; running it twice
leaves the file unchanged.
"""

from __future__ import annotations

import pathlib

import mpmath as mp

from make_reference_values import h0

mp.mp.dps = 50

PIECES = ((2, 4), (4, 8), (8, 16), (16, 32), (32, 64), (64, 100))
NODES = 40
TAIL_RTOL = 1e-18
PER_LINE = 3

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "cpwall" / "vacuum.py"
BEGIN = "# BEGIN generated by scripts/make_h0_table.py -- do not edit by hand\n"
END = "# END generated by scripts/make_h0_table.py\n"


def chebyshev_coefficients(a: int, b: int) -> list:
    """Coefficients c_k of x H0(x) = sum_k c_k T_k(t) on [a, b],
    x = ((b - a) t + a + b) / 2, from NODES points of the first kind."""
    theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    f = []
    for th in theta:
        x = ((b - a) * mp.cos(th) + a + b) / 2
        f.append(x * h0(x))
    c = [2 * mp.fsum(fj * mp.cos(k * th) for fj, th in zip(f, theta)) / NODES
         for k in range(NODES)]
    c[0] /= 2
    return c


def head(c: list) -> list:
    """The shortest head of c whose tail sums below TAIL_RTOL |c_0|."""
    n, tail = len(c), mp.mpf(0)
    while tail + abs(c[n - 1]) < TAIL_RTOL * abs(c[0]):
        n -= 1
        tail += abs(c[n])
    return c[:n]


def table_block() -> str:
    lines = [
        BEGIN,
        "_H0_TABLE = (\n",
    ]
    for a, b in PIECES:
        c = [float(ck) for ck in head(chebyshev_coefficients(a, b))]
        coefs = c[:0:-1]
        lines.append(f"    ({float(a + b)!r}, {float(b - a)!r}, {c[0]!r}, (  "
                     f"# [{a}, {b}], {len(c)} terms\n")
        for i in range(0, len(coefs), PER_LINE):
            row = " ".join(f"{ck!r}," for ck in coefs[i:i + PER_LINE])
            lines.append(f"        {row}\n")
        lines.append("    )),\n")
    lines += [")\n", END]
    return "".join(lines)


def main() -> None:
    text = OUT.read_text(encoding="utf-8")
    start, stop = text.index(BEGIN), text.index(END) + len(END)
    OUT.write_text(text[:start] + table_block() + text[stop:], encoding="utf-8")
    print(f"wrote the H0 table into {OUT}")


if __name__ == "__main__":
    main()
