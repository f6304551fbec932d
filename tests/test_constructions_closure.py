"""Exact value identities of the closure constructions.

Every identity is checked as exact rational equality against an oracle that
enumerates over the input machines directly.
"""

from fractions import Fraction
from random import Random

import pytest

from helpers import (
    convolution_value,
    cyclic_witness,
    factorization_value,
    padded_value,
    preimage_value,
    random_gpfa,
    random_nonneg_gpfa,
    words_up_to,
)
from qfalab import constructions
from qfalab.automata import Gpfa, acceptance_value, enumerate_values
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
    hom,
)
from qfalab.cutpoint import one_sided_zero_check
from qfalab.numeric import ColVec, Matrix, RowVec
from qfalab.verify import check_value_identity

SIGMA = ("a", "b")


def unit_machine(word, sigma=SIGMA):
    """Machine valuing 1 on exactly one word and 0 elsewhere."""
    word = tuple(word)
    n = len(word) + 1
    zero_row = [Fraction(0)] * n
    trans = {}
    for sym in sigma:
        rows = [list(zero_row) for _ in range(n)]
        for i, w_sym in enumerate(word):
            if w_sym == sym:
                rows[i][i + 1] = Fraction(1)
        trans[sym] = Matrix.rational(rows)
    v0 = RowVec([Fraction(1)] + [Fraction(0)] * (n - 1))
    f = ColVec([Fraction(0)] * (n - 1) + [Fraction(1)])
    return Gpfa(n, tuple(sigma), trans, v0, f)


def zero_machine(sigma=SIGMA):
    return Gpfa(
        1,
        tuple(sigma),
        {s: Matrix.rational([[0]]) for s in sigma},
        RowVec([Fraction(1)]),
        ColVec([Fraction(0)]),
    )


def const_one_machine(sigma=SIGMA):
    return Gpfa(
        1,
        tuple(sigma),
        {s: Matrix.identity(1) for s in sigma},
        RowVec([Fraction(1)]),
        ColVec([Fraction(1)]),
    )


def random_pairs(count, seed, n_range=(1, 3)):
    rng = Random(seed)
    for _ in range(count):
        n1 = rng.randint(*n_range)
        n2 = rng.randint(*n_range)
        yield random_gpfa(rng, n1, SIGMA), random_gpfa(rng, n2, SIGMA)


# -- concatenation -----------------------------------------------------------


def test_concat_annihilated_by_zero_machine():
    rng = Random(1)
    g = random_gpfa(rng, 2, SIGMA)
    joined = gpfa_concat(zero_machine(), g)
    assert check_value_identity(joined, lambda w: Fraction(0), 6) is None


def test_concat_of_unit_machines():
    joined = gpfa_concat(unit_machine("a"), unit_machine("b"))
    assert acceptance_value(joined, "ab") == 1
    assert acceptance_value(joined, "ba") == 0
    assert acceptance_value(joined, "ab" * 2) == 0


def test_concat_is_convolution_for_arbitrary_machines():
    for g1, g2 in random_pairs(6, seed=42):
        joined = gpfa_concat(g1, g2)
        assert joined.n == g1.n + g2.n
        cex = check_value_identity(
            joined, lambda w: convolution_value(g1, g2, w), 5
        )
        assert cex is None


def test_concat_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        gpfa_concat(unit_machine("a"), unit_machine("a", sigma=("a", "c")))


# -- epsilon adjustment ------------------------------------------------------


def test_add_epsilon_zero_delta_changes_nothing():
    rng = Random(2)
    g = random_gpfa(rng, 2, SIGMA)
    padded = add_epsilon(g, Fraction(0))
    assert check_value_identity(padded, lambda w: acceptance_value(g, w), 6) is None


def test_add_epsilon_only_moves_the_empty_value():
    rng = Random(3)
    g = random_gpfa(rng, 2, SIGMA)
    delta = Fraction(7)
    padded = add_epsilon(g, delta)
    assert acceptance_value(padded, ()) == acceptance_value(g, ()) + delta
    for w in words_up_to(SIGMA, 4):
        if w:
            assert acceptance_value(padded, w) == acceptance_value(g, w)


# -- iteration ---------------------------------------------------------------


def test_star_example_machine():
    # machine valuing 1 on the empty word and on "a", 0 elsewhere
    g = add_epsilon(unit_machine("a", sigma=("a",)), Fraction(1))
    starred = gpfa_star(g)
    assert acceptance_value(starred, "aa") == 1
    assert acceptance_value(starred, "aaa") == 1
    assert acceptance_value(starred, ()) == acceptance_value(g, ())


def test_star_is_factorization_sum_for_arbitrary_machines():
    rng = Random(77)
    for _ in range(6):
        g = random_gpfa(rng, rng.randint(1, 3), SIGMA)
        if acceptance_value(g, ()) == -1:
            continue
        starred = gpfa_star(g)
        cache = {}
        cex = check_value_identity(
            starred, lambda w: factorization_value(g, w, cache), 5
        )
        assert cex is None


def test_star_keeps_empty_value():
    rng = Random(78)
    g = random_nonneg_gpfa(rng, 2, SIGMA)
    assert acceptance_value(gpfa_star(g), ()) == acceptance_value(g, ())


def test_star_rejects_minus_one_empty_value():
    g = add_epsilon(zero_machine(), Fraction(-1))
    with pytest.raises(ValueError, match="empty word"):
        gpfa_star(g)


# -- erasing homomorphism ----------------------------------------------------


def test_erasing_hom_with_unit_bound_is_restriction():
    rng = Random(5)
    g = random_gpfa(rng, 2, ("a", "b", "c"))
    erased = gpfa_erasing_hom(g, "c", 1)
    assert erased.sigma == ("a", "b")
    assert check_value_identity(erased, lambda w: acceptance_value(g, w), 5) is None


def test_erasing_hom_exposes_padded_word():
    g = unit_machine(("c", "a", "c"), sigma=("a", "c"))
    erased = gpfa_erasing_hom(g, "c", 2)
    assert acceptance_value(erased, "a") == 1


def test_erasing_hom_is_padded_sum():
    rng = Random(6)
    for _ in range(4):
        g = random_gpfa(rng, rng.randint(1, 2), ("a", "b", "c"))
        erased = gpfa_erasing_hom(g, "c", 3)
        cex = check_value_identity(
            erased, lambda w: padded_value(g, "c", 3, w), 4
        )
        assert cex is None


def test_erasing_hom_unknown_symbol():
    with pytest.raises(ValueError):
        gpfa_erasing_hom(unit_machine("a"), "z", 2)


def _sparse_nonneg_gpfa(rng: Random, n: int, sigma) -> Gpfa:
    """Rational machine with about a third of its entries positive and the
    rest 0, so that whether a word is padded decides many values."""
    def entry():
        return Fraction(rng.randint(1, 2), rng.randint(1, 2)) if rng.random() < 0.35 else Fraction(0)

    trans = {s: Matrix.rational([[entry() for _ in range(n)] for _ in range(n)]) for s in sigma}
    return Gpfa(n, tuple(sigma), trans, RowVec([entry() for _ in range(n)]),
                ColVec([entry() for _ in range(n)]))


def _positives(g: Gpfa, maxlen: int) -> set:
    return {w for w, value in enumerate_values(g, maxlen) if value > 0}


@pytest.mark.parametrize("erased", [("c",), ("c", "d")])
def test_state_count_is_a_padding_bound_for_nonnegative_machines(erased):
    """For a machine nonnegative on every word, bound ``g.n`` per erased
    symbol keeps the image's positive set, as any larger bound does."""
    rng = Random(len(erased))
    h = hom({"a": "a", "b": "b", **{s: () for s in erased}})
    padded = 0
    for _ in range(25):
        g = _sparse_nonneg_gpfa(rng, rng.randint(2, 5), ("a", "b") + erased)
        image = _positives(gpfa_hom(g, h, [g.n] * len(erased)), 4)
        assert image == _positives(gpfa_hom(g, h, [g.n + 4] * len(erased)), 4)
        padded += image != _positives(gpfa_hom(g, h, [1] * len(erased)), 4)
    assert padded > 0  # the draws exercise padding, not only restriction


@pytest.mark.parametrize("bound, value", [(2, 0), (3, 1), (7, 6)])
def test_a_bound_below_the_state_count_can_lose_a_word(bound, value):
    """``g(c^k a) = 1`` iff k = 2 (mod 3): bound 2 = n - 1 loses ``a``."""
    g = cyclic_witness()
    assert acceptance_value(gpfa_hom(g, hom({"a": "a", "c": ()}), [bound]), "a") == value


# -- non-erasing homomorphism ------------------------------------------------


def test_nonerasing_hom_identity_map():
    rng = Random(7)
    g = random_gpfa(rng, 2, SIGMA)
    identity = Homomorphism(SIGMA, SIGMA, {"a": ("a",), "b": ("b",)})
    mapped = gpfa_nonerasing_hom(g, identity)
    assert check_value_identity(mapped, lambda w: acceptance_value(g, w), 6) is None


def test_nonerasing_hom_doubling_map():
    g = unit_machine("a", sigma=("a",))
    doubling = Homomorphism(("a",), ("a",), {"a": ("a", "a")})
    mapped = gpfa_nonerasing_hom(g, doubling)
    assert acceptance_value(mapped, "aa") == 1
    assert acceptance_value(mapped, "a") == 0
    assert acceptance_value(mapped, "aaa") == 0


def test_nonerasing_hom_is_preimage_sum():
    rng = Random(8)
    maps = [
        Homomorphism(SIGMA, SIGMA, {"a": ("a", "a"), "b": ("a", "b")}),
        Homomorphism(SIGMA, SIGMA, {"a": ("b",), "b": ("a", "b", "b")}),
        Homomorphism(SIGMA, ("a",), {"a": ("a",), "b": ("a", "a")}),
    ]
    for h in maps:
        g = random_gpfa(rng, 2, SIGMA)
        mapped = gpfa_nonerasing_hom(g, h)
        assert mapped.n == g.n * sum(len(h.images[s]) for s in SIGMA)
        cex = check_value_identity(mapped, lambda w: preimage_value(g, h, w), 5)
        assert cex is None


def test_nonerasing_hom_rejects_erasing_map():
    bad = Homomorphism(SIGMA, SIGMA, {"a": (), "b": ("b",)})
    with pytest.raises(ValueError, match="erased"):
        gpfa_nonerasing_hom(unit_machine("a"), bad)


def test_a_homomorphisms_images_are_read_only_and_it_hashes():
    """``images`` was a plain dict: assignable after the checks, and the
    reason ``hash`` raised ``TypeError`` for every homomorphism."""
    h = hom({"a": "ab", "b": ""})
    with pytest.raises(TypeError):
        h.images["a"] = ("z",)
    with pytest.raises(TypeError):
        del h.images["b"]
    assert h("ab") == ("a", "b") and h.images == {"a": ("a", "b"), "b": ()}
    same, other = hom({"a": "ab", "b": ""}), hom({"a": "ba", "b": ""}, ("a", "b"))
    assert hash(h) == hash(same) and h == same and {h: 1}[same] == 1
    assert hash(other) == hash(h) and other != h  # ``images`` is left out of the hash


def test_homomorphism_validation():
    with pytest.raises(ValueError, match="no image"):
        Homomorphism(SIGMA, SIGMA, {"a": ("a",)})
    with pytest.raises(ValueError, match=r"^symbol 'z' not in alphabet \('a', 'b'\)$"):
        Homomorphism(SIGMA, SIGMA, {"a": ("z",), "b": ("b",)})
    with pytest.raises(ValueError, match=r"^symbol 'b' not in alphabet \('a',\)$"):
        Homomorphism(("a",), ("a",), {"a": ("a",), "b": ("a",)})


def test_hom_builder_infers_alphabets():
    from qfalab.constructions import hom

    h = hom({"a": "ab", "b": "", "c": "b"})
    assert h.source == ("a", "b", "c")
    assert h.target == ("a", "b")
    assert h.erased_symbols() == ("b",)
    assert h("ac") == ("a", "b", "b")


# -- general homomorphism ----------------------------------------------------


def test_hom_nonerasing_delegates():
    rng = Random(9)
    g = random_gpfa(rng, 2, SIGMA)
    h = Homomorphism(SIGMA, SIGMA, {"a": ("a", "b"), "b": ("b",)})
    assert gpfa_hom(g, h, []).trans.keys() == gpfa_nonerasing_hom(g, h).trans.keys()
    cex = check_value_identity(
        gpfa_hom(g, h, []), lambda w: preimage_value(g, h, w), 5
    )
    assert cex is None


def test_hom_single_erasure_matches_erasing_construction():
    rng = Random(10)
    g = random_gpfa(rng, 2, ("a", "b", "c"))
    h = Homomorphism(
        ("a", "b", "c"), SIGMA, {"a": ("a",), "b": ("b",), "c": ()}
    )
    composed = gpfa_hom(g, h, [2])
    direct = gpfa_erasing_hom(g, "c", 2)
    assert composed == direct  # identity residual map short-circuits


def test_hom_erasure_then_mapping():
    g = unit_machine(("a", "c", "b"), sigma=("a", "b", "c"))
    h = Homomorphism(("a", "b", "c"), SIGMA, {"a": ("a",), "b": ("b",), "c": ()})
    mapped = gpfa_hom(g, h, [2])
    assert acceptance_value(mapped, "ab") > 0


def test_erasing_every_symbol_is_refused_before_any_padding(monkeypatch):
    """``gpfa_hom`` refuses a map that erases every symbol before its first
    erasure, and ``gpfa_erasing_hom`` refuses to erase the only symbol
    before it builds a padding matrix."""
    calls = []
    monkeypatch.setattr(constructions, "gpfa_erasing_hom", lambda *args: calls.append(args))
    monkeypatch.setattr(constructions, "mat_mul", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^the homomorphism erases every symbol"):
        gpfa_hom(unit_machine("ab"), hom({"a": (), "b": ()}), [3, 3])
    with pytest.raises(ValueError, match="^erasing the only symbol"):
        gpfa_erasing_hom(unit_machine("aa", sigma=("a",)), "a", 3)
    assert calls == []


def test_hom_bound_count_mismatch():
    g = unit_machine(("a",), sigma=("a", "b", "c"))
    h = Homomorphism(("a", "b", "c"), ("a",), {"a": ("a",), "b": (), "c": ()})
    with pytest.raises(ValueError, match="bounds"):
        gpfa_hom(g, h, [2])


# -- inverse homomorphism ----------------------------------------------------


def test_inverse_hom_constant_when_everything_erased():
    rng = Random(12)
    g = random_gpfa(rng, 2, SIGMA)
    h = Homomorphism(("x", "y"), SIGMA, {"x": (), "y": ()})
    pulled = gpfa_inverse_hom(g, h)
    empty_value = acceptance_value(g, ())
    assert check_value_identity(pulled, lambda w: empty_value, 5) is None


def test_inverse_hom_collapses_cancelling_pair():
    from qfalab.constructions import word_problem_gpfa

    wp = word_problem_gpfa(2)
    h = Homomorphism(("x",), wp.sigma, {"x": ("g1", "G1")})
    pulled = gpfa_inverse_hom(wp, h)
    assert acceptance_value(pulled, ["x"]) == 1
    assert acceptance_value(pulled, ["x", "x"]) == 1


def test_inverse_hom_is_composition_with_h():
    rng = Random(13)
    g = random_gpfa(rng, 2, SIGMA)
    h = Homomorphism(("x", "y"), SIGMA, {"x": ("a", "b"), "y": ("b",)})
    pulled = gpfa_inverse_hom(g, h)
    assert check_value_identity(pulled, lambda w: acceptance_value(g, h(w)), 6) is None


def test_inverse_hom_checks_image_alphabet():
    g = unit_machine("a")
    h = Homomorphism(("x",), ("a", "z"), {"x": ("z",)})
    with pytest.raises(ValueError, match=r"^symbol 'z' not in alphabet \('a', 'b'\)$"):
        gpfa_inverse_hom(g, h)


# -- reversal ----------------------------------------------------------------


def test_reverse_on_palindromes():
    rng = Random(14)
    g = random_gpfa(rng, 3, SIGMA)
    rev = gpfa_reverse(g)
    for w in words_up_to(SIGMA, 5):
        if w == w[::-1]:
            assert acceptance_value(rev, w) == acceptance_value(g, w)


def test_reverse_swaps_word_order():
    rng = Random(15)
    g = random_gpfa(rng, 3, SIGMA)
    rev = gpfa_reverse(g)
    assert check_value_identity(rev, lambda w: acceptance_value(g, w[::-1]), 6) is None


def test_reverse_is_an_involution():
    rng = Random(16)
    g = random_gpfa(rng, 2, SIGMA)
    twice = gpfa_reverse(gpfa_reverse(g))
    assert check_value_identity(twice, lambda w: acceptance_value(g, w), 6) is None


# -- quotients ---------------------------------------------------------------


def test_quotient_by_empty_word_is_identity():
    rng = Random(17)
    g = random_gpfa(rng, 2, SIGMA)
    for side in ("left", "right"):
        q = gpfa_quotient(g, (), side)
        assert q.v0 == g.v0 and q.f == g.f and q.trans == dict(g.trans)


def test_left_quotient_values():
    rng = Random(18)
    g = random_gpfa(rng, 2, SIGMA)
    w = ("a", "b", "a")
    q = gpfa_quotient(g, w, "left")
    assert acceptance_value(q, ()) == acceptance_value(g, w)
    assert check_value_identity(q, lambda y: acceptance_value(g, w + y), 5) is None


def test_right_quotient_values():
    rng = Random(19)
    g = random_gpfa(rng, 2, SIGMA)
    w = ("b", "a")
    q = gpfa_quotient(g, w, "right")
    assert check_value_identity(q, lambda z: acceptance_value(g, z + w), 5) is None


def test_quotient_validates_side_and_word():
    g = unit_machine("a")
    with pytest.raises(ValueError):
        gpfa_quotient(g, "a", "middle")
    with pytest.raises(ValueError):
        gpfa_quotient(g, "z", "left")


# -- union and intersection --------------------------------------------------


def test_intersection_with_constant_one_is_identity():
    rng = Random(20)
    g = random_gpfa(rng, 3, SIGMA)
    squared = gpfa_intersection(g, const_one_machine())
    assert check_value_identity(squared, lambda w: acceptance_value(g, w), 6) is None


def test_union_with_zero_machine_is_identity():
    rng = Random(21)
    g = random_gpfa(rng, 3, SIGMA)
    merged = gpfa_union(g, zero_machine())
    assert check_value_identity(merged, lambda w: acceptance_value(g, w), 6) is None


def test_intersection_is_pointwise_product():
    for g1, g2 in random_pairs(5, seed=22):
        both = gpfa_intersection(g1, g2)
        assert both.n == g1.n * g2.n
        cex = check_value_identity(
            both, lambda w: acceptance_value(g1, w) * acceptance_value(g2, w), 6
        )
        assert cex is None


def test_union_is_pointwise_sum():
    for g1, g2 in random_pairs(5, seed=23):
        either = gpfa_union(g1, g2)
        assert either.n == g1.n + g2.n
        cex = check_value_identity(
            either, lambda w: acceptance_value(g1, w) + acceptance_value(g2, w), 6
        )
        assert cex is None


def test_scalar_product_and_sum_example():
    two = Gpfa(
        1,
        SIGMA,
        {s: Matrix.identity(1) for s in SIGMA},
        RowVec([Fraction(2)]),
        ColVec([Fraction(1)]),
    )
    three = Gpfa(
        1,
        SIGMA,
        {s: Matrix.identity(1) for s in SIGMA},
        RowVec([Fraction(3)]),
        ColVec([Fraction(1)]),
    )
    assert acceptance_value(gpfa_intersection(two, three), "ab") == 6
    assert acceptance_value(gpfa_union(two, three), "ab") == 5


# -- one-sidedness preservation ----------------------------------------------


def _one_sided_inputs(seed):
    rng = Random(seed)
    g1 = random_nonneg_gpfa(rng, 2, SIGMA)
    g2 = random_nonneg_gpfa(rng, 2, SIGMA)
    assert one_sided_zero_check(g1, 6) is None
    assert one_sided_zero_check(g2, 6) is None
    return g1, g2


def test_every_construction_preserves_one_sidedness():
    g1, g2 = _one_sided_inputs(31)
    h_map = Homomorphism(SIGMA, SIGMA, {"a": ("a", "b"), "b": ("b",)})
    h_erasing = Homomorphism(SIGMA + ("c",), SIGMA, {"a": ("a",), "b": ("b",), "c": ()})
    rng = Random(32)
    g3 = random_nonneg_gpfa(rng, 2, SIGMA + ("c",))
    outputs = {
        "concat": gpfa_concat(g1, g2),
        "star": gpfa_star(g1),
        "hom": gpfa_hom(g3, h_erasing, [2]),
        "nonerasing-hom": gpfa_nonerasing_hom(g1, h_map),
        "inverse-hom": gpfa_inverse_hom(g1, h_map),
        "reverse": gpfa_reverse(g1),
        "quotient": gpfa_quotient(g1, ("a",), "left"),
        "union": gpfa_union(g1, g2),
        "intersection": gpfa_intersection(g1, g2),
    }
    for name, machine in outputs.items():
        assert one_sided_zero_check(machine, 6) is None, name


def test_homomorphisms_refuse_symbols_outside_their_source():
    h = hom({"a": "bb"})
    with pytest.raises(ValueError, match=r"^symbol 'c' not in alphabet \('a',\)$"):
        h("ac")
    g = unit_machine("a", ("a",))
    other = hom({"b": "a"})
    message = "^homomorphism source must match the machine's alphabet$"
    with pytest.raises(ValueError, match=message):
        gpfa_nonerasing_hom(g, other)
    with pytest.raises(ValueError, match=message):
        gpfa_hom(g, other, [])
