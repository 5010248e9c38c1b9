"""The L^p accuracy corpus: 200 Gaussian trigonometric polynomials of degree
16 and their L^p norms at p = 0.25, 0.5 and 1 (ROADMAP item 10).

The inputs are rebuilt from their seed by ``inputs()``; the references sit in
``lp_n16.json`` beside this file, each as ``float.hex``. A reference is
(mean of |T|^p over the 2^20-point uniform grid)^(1/p), from one zero-padded
inverse FFT per input. Against a 30-digit mpmath quadrature split at the
lift-root angles, the grid was 3.2e-16 off at input 74, p = 0.25 (where
lp_norm is furthest off, 3.5e-6), 4.1e-17 there at p = 1 and 1.5e-16 at
input 0, p = 0.25. Rebuilding the references takes about 8 s on a 2-core
Xeon:

    PYTHONPATH=src python tests/reference/lp_corpus.py > tests/reference/lp_n16.json

and must reproduce the file byte for byte. The tests read only the JSON.
"""
import hashlib
import json

import numpy as np

from polynorm.poly import _grid_values, generate

SEED = 5
COUNT = 200
DEGREE = 16
POWERS = (0.25, 0.5, 1.0)
GRID = 2**20


def inputs() -> list:
    """The COUNT inputs, drawn in turn from one default_rng(SEED) stream."""
    rng = np.random.default_rng(SEED)
    return [generate("gaussian-random", DEGREE, seed=rng) for _ in range(COUNT)]


def input_digest(polys) -> str:
    """sha256 of the inputs' coefficient bytes, so a changed draw shows."""
    digest = hashlib.sha256()
    for t in polys:
        digest.update(t.coeffs.tobytes())
    return digest.hexdigest()


def references(t) -> list:
    """The GRID-point L^p norm of t at each of POWERS."""
    mod = np.abs(_grid_values(t.coeffs, -t.degree, GRID))
    return [float(np.mean(mod**p) ** (1.0 / p)) for p in POWERS]


def main() -> None:
    polys = inputs()
    corpus = {
        "inputs": f"{COUNT} draws of generate('gaussian-random', {DEGREE}, seed=rng) "
                  f"from one np.random.default_rng({SEED})",
        "input_sha256": input_digest(polys),
        "grid": GRID,
        "powers": list(POWERS),
        "references": [[v.hex() for v in references(t)] for t in polys],
    }
    print(json.dumps(corpus, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
