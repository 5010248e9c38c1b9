"""The Mahler cluster corpus: polynomials with clustered roots, built from
their coefficients only, and their exact Mahler measures (ROADMAP items 3
and 10).

The four inputs are (z - 1)^20, (z + 1)^12 and (z - 2)^20 from exact
binomial coefficients, and (z - 1)^6 (z - 1.5i)(z + 0.3), the product of
the float factors computed exactly in rationals and rounded once per real
and imaginary part (_product): no BLAS call, so the inputs have the same
bits under every OpenBLAS kernel. Each is taken at the rotations z -> e^{ia} z of ROTATIONS
(coefficient k times e^{ika}), which leave the Mahler measure unchanged, so
``inputs()`` gives 12 polynomials. The references, written to
``mahler_clusters.json`` beside this file as ``float.hex``, are exact:
M((z - r)^m) = max(1, |r|)^m gives 1, 1 and 2^20, and the mixed input has
the one root 1.5i outside the circle, so M = 1.5. No mpmath is needed, so
the tests rebuild the JSON and compare it byte for byte:

    PYTHONPATH=src python tests/reference/mahler_clusters.py > tests/reference/mahler_clusters.json
"""
import hashlib
import json
import math
from fractions import Fraction

import numpy as np

from polynorm.poly import AlgebraicPoly

ROTATIONS = (0.0, 0.3, 1.1)


def _binomial(m: int, r: float) -> np.ndarray:
    """Coefficients a_0..a_m of (z - r)^m, each an exact float for these inputs."""
    return np.array([math.comb(m, k) * (-r) ** (m - k) for k in range(m + 1)], dtype=np.float64)


def _product(*factors) -> np.ndarray:
    """Coefficients of the product of the polynomials ``factors`` (each
    a_0..a_m), exact in rationals from the float values, each real and
    imaginary part rounded once."""
    out = [(Fraction(1), Fraction(0))]
    for factor in factors:
        terms = [(Fraction(c.real), Fraction(c.imag)) for c in map(complex, factor)]
        prod = [(Fraction(0), Fraction(0))] * (len(out) + len(terms) - 1)
        for i, (ar, ai) in enumerate(out):
            for j, (br, bi) in enumerate(terms):
                re, im = prod[i + j]
                prod[i + j] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
        out = prod
    return np.array([complex(float(re), float(im)) for re, im in out])


# name -> (coefficients a_0..a_d, exact Mahler measure)
CLUSTERS = {
    "(z-1)^20": (_binomial(20, 1), 1.0),
    "(z+1)^12": (_binomial(12, -1), 1.0),
    "(z-2)^20": (_binomial(20, 2), 2.0**20),
    "(z-1)^6 (z-1.5i)(z+0.3)": (_product(_binomial(6, 1), [-1.5j, 1.0], [0.3, 1.0]), 1.5),
}


def inputs() -> list:
    """(name, rotation, polynomial) for each cluster at each of ROTATIONS."""
    return [(name, a, AlgebraicPoly(c * np.exp(1j * a * np.arange(len(c)))))
            for name, (c, _) in CLUSTERS.items() for a in ROTATIONS]


def input_digest(polys) -> str:
    """sha256 of the inputs' coefficient bytes, so a changed construction shows."""
    digest = hashlib.sha256()
    for p in polys:
        digest.update(p.coeffs.tobytes())
    return digest.hexdigest()


def corpus_json() -> str:
    """The text of mahler_clusters.json."""
    corpus = {
        "inputs": "each cluster built from its coefficients, at each rotation "
                  "(coefficient k times e^{ika})",
        "input_sha256": input_digest([p for *_, p in inputs()]),
        "rotations": list(ROTATIONS),
        "references": {name: ref.hex() for name, (_, ref) in CLUSTERS.items()},
    }
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    print(corpus_json(), end="")
