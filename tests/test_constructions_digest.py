"""What the closure constructions build, pinned byte for byte.

The closure tests check values only.  Here each construction runs on seeded
random machines, rational and float copies of each, and the sha256 of all the
output documents (``cli.serialize_machine``) must equal a recorded digest, so
a change to any entry, its position or its scalar kind shows, even one that
leaves every value the same.
"""

import hashlib
from fractions import Fraction
from random import Random

from helpers import random_gpfa, random_pfa
from qfalab.automata import Gpfa
from qfalab.cli import serialize_machine
from qfalab.constructions import (
    Homomorphism,
    add_epsilon,
    gpfa_concat,
    gpfa_erasing_hom,
    gpfa_hom,
    gpfa_intersection,
    gpfa_inverse_hom,
    gpfa_nonerasing_hom,
    gpfa_quotient,
    gpfa_reverse,
    gpfa_star,
    gpfa_union,
    shift_cutpoint,
)

SIGMA = ("a", "b")
SEEDS = range(24)
DOCUMENTS = 596
DIGEST = "00d63ca0645c2d2545431d4dd9cd6cb72ef5e69fd7f01ef37530ab9d2202e92c"


def to_float(g: Gpfa) -> Gpfa:
    trans = {sym: m.to_float() for sym, m in g.trans.items()}
    return Gpfa(g.n, g.sigma, trans, g.v0.to_float(), g.f.to_float())


def random_word(rng: Random, alphabet, lo: int, hi: int) -> tuple:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def outputs(seed: int):
    """Every construction's outputs on the inputs drawn from ``Random(seed)``."""
    rng = Random(seed)
    g1 = random_gpfa(rng, rng.randint(1, 3), SIGMA)
    g2 = random_gpfa(rng, rng.randint(1, 3), SIGMA)
    g3 = random_gpfa(rng, rng.randint(1, 2), SIGMA + ("c",))
    onto = Homomorphism(SIGMA, ("x", "y"), {s: random_word(rng, "xy", 1, 3) for s in SIGMA})
    into = Homomorphism(("x", "y"), SIGMA, {s: random_word(rng, SIGMA, 0, 3) for s in "xy"})
    erasing = Homomorphism(
        SIGMA + ("c",), SIGMA, {"a": ("a",), "b": random_word(rng, SIGMA, 1, 2), "c": ()}
    )
    bound = rng.randint(1, 3)
    words = [random_word(rng, SIGMA, 0, 3) for _ in range(2)]
    delta = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    yield shift_cutpoint(random_pfa(rng, rng.randint(1, 3)), Fraction(rng.randint(1, 4), 5))
    for cast, x in ((lambda g: g, delta), (to_float, float(delta))):
        a, b, c = cast(g1), cast(g2), cast(g3)
        yield gpfa_concat(a, b)
        if a.v0 @ a.f != -1:
            yield gpfa_star(a)
        yield gpfa_union(a, b)
        yield gpfa_intersection(a, b)
        yield gpfa_reverse(a)
        yield gpfa_quotient(a, words[0], "left")
        yield gpfa_quotient(b, words[1], "right")
        yield gpfa_inverse_hom(a, into)
        yield gpfa_erasing_hom(c, "c", bound)
        yield gpfa_nonerasing_hom(a, onto)
        yield gpfa_hom(c, erasing, (bound,))
        yield add_epsilon(b, x)


def test_constructions_build_the_recorded_machines():
    digest = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        for machine in outputs(seed):
            digest.update(serialize_machine(machine).encode())
            count += 1
    assert (count, digest.hexdigest()) == (DOCUMENTS, DIGEST)

