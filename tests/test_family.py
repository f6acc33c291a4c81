import random
from itertools import product

import pytest

import numpy as np
from hypothesis import given, settings, strategies as st

from splitstat import batch, fppoly
from splitstat.errors import RegimeError, ResourceLimitError
from splitstat.family import (
    AN_CANDIDATE,
    EXHAUSTIVE_BUDGET,
    REDUCIBLE,
    SN_CERTIFIED,
    UNDETERMINED,
    FamilySpec,
    certified_rows,
    certify_stream,
    fiber_probability,
    generate,
)
from splitstat.fppoly import FieldPolynomial
from splitstat.primes import sieve_primes
from splitstat.splittypes import class_count, enumerate_types
from splitstat.zpoly import discriminant, is_perfect_square

# The kernels' declared domain: |coefficient| <= 2^62 - 1 and p < 2^20.
TOP = 2**62 - 1
DOMAIN_PRIMES = sieve_primes(2**20).primes
KERNEL_PRIMES = [2, 3, 5, 7, *DOMAIN_PRIMES[-5:]]


def _certify(row, budget=25):
    return certify_stream(batch.pack([row]), budget)[0]


def _oracle_codes(rows, p):
    """Codes from fppoly.splitting_type_mod_p, row by row."""
    types = enumerate_types(len(rows[0]))
    out = []
    for row in rows:
        r = fppoly.splitting_type_mod_p(row, p)
        out.append(len(types) if r is None else types.index(r))
    return out


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(n=0, height_bound=1)
    with pytest.raises(ValueError):
        FamilySpec(n=2, height_bound=5, mode="sampled")
    with pytest.raises(ResourceLimitError):
        FamilySpec(n=5, height_bound=10**4)
    # At the exhaustive budget (3 * 10^6 polynomials): the largest box of
    # each degree is admitted and the next one refused.
    for n, height in [(2, 865), (3, 71), (4, 20), (13, 1)]:
        assert FamilySpec(n=n, height_bound=height).size <= EXHAUSTIVE_BUDGET
        with pytest.raises(ResourceLimitError):
            FamilySpec(n=n, height_bound=height + 1)
    with pytest.raises(ResourceLimitError):
        FamilySpec(n=14, height_bound=1)
    assert FamilySpec(n=3, height_bound=50).size == 101**3  # criterion 09's box


def test_generate_exhaustive():
    for n, height in [(1, 3), (2, 1), (2, 2), (3, 0), (3, 2), (4, 2)]:
        coeffs = generate(FamilySpec(n=n, height_bound=height))
        box = np.array(list(product(range(-height, height + 1), repeat=n)))
        assert coeffs.dtype == np.int64 and coeffs.flags.c_contiguous
        assert coeffs.shape == box.shape and (coeffs == box).all(), (n, height)


def test_generate_sampled_deterministic():
    spec = FamilySpec(n=2, height_bound=10**6, mode="sampled", sample_size=50, seed=7)
    a = generate(spec)
    assert a.dtype == np.int64 and a.shape == (50, 2)
    assert (a == generate(spec)).all()
    assert (np.abs(a) <= 10**6).all()
    other = FamilySpec(n=2, height_bound=10**6, mode="sampled", sample_size=50, seed=8)
    assert (a != generate(other)).any()
    # Draw i is random.Random(_subseed(seed, i)), pinned.
    small = FamilySpec(n=2, height_bound=10, mode="sampled", sample_size=6, seed=7)
    assert [tuple(row) for row in generate(small).tolist()] == [
        (-7, 2), (2, 9), (8, -4), (-6, -2), (-1, 2), (1, 7)]
    huge = FamilySpec(n=3, height_bound=2**64, mode="sampled", sample_size=2, seed=7)
    coeffs = generate(huge)
    assert coeffs.dtype == object
    assert [tuple(row) for row in coeffs.tolist()] == [
        (6949142590151003363, 10931521264089054602, -248668961329141903),
        (-9533134185274568833, -12483256141774059573, 6183784080481168661)]


def test_certify_empty_family():
    empty = np.zeros((0, 3), dtype=np.int64)
    assert certify_stream(empty, 25) == []
    rows, disc, excluded = certified_rows(empty, 25)
    assert rows.shape == (0, 3) and disc == () and excluded == 0


def test_certify_examples():
    assert _certify((-1, -1, 0)).status == SN_CERTIFIED
    assert _certify((-1, -3, 0)).status == AN_CANDIDATE
    # Reducible by an integer root: X^2 - 1, and (X + 3)(X^2 + 1)
    assert _certify((-1, 0)).status == REDUCIBLE
    assert _certify((3, 1, 3)).status == REDUCIBLE
    # X^3 (disc 0) is reducible via the gcd argument
    assert _certify((0, 0, 0)).status == REDUCIBLE


def test_certificate_witnesses_are_sound():
    cert = _certify((-1, -1, 0))
    for p, r in cert.witnesses:
        assert fppoly.splitting_type_mod_p((-1, -1, 0), p) == r


def test_no_false_certificates_small_cubics():
    coeffs = generate(FamilySpec(n=3, height_bound=6))
    for row, cert in zip(coeffs.tolist(), certify_stream(coeffs, 25)):
        d = discriminant(row)
        if cert.status == SN_CERTIFIED:
            assert not is_perfect_square(d)
        elif cert.status == AN_CANDIDATE:
            assert is_perfect_square(d)


def test_certified_fraction_floor():
    spec = FamilySpec(n=3, height_bound=50)
    coeffs = generate(spec)
    certs = certify_stream(coeffs, 25)
    frac = sum(1 for c in certs if c.status == SN_CERTIFIED) / len(coeffs)
    assert frac >= 0.95


def _lift(c, p, sign):
    """The integer congruent to c mod p nearest to sign * TOP, within the bound."""
    if sign > 0:
        return c + p * ((TOP - c) // p)
    return c - p * ((TOP + c) // p)


def _kernel_rows(n, p, rng):
    """Rows at the height bound, random rows, and non-squarefree rows mod p."""
    rows = [(TOP,) * n, (-TOP,) * n, (0,) * n]
    rows += [tuple(rng.choice([TOP, -TOP, rng.randrange(-TOP, TOP + 1)])
                   for _ in range(n)) for _ in range(25)]
    for _ in range(6):
        a, b = rng.randrange(p), rng.randrange(p)
        # (X - a)^2, and (X - a)^2 (X - b), as (a_0, ..., a_{n-1})
        square = (a * a, -2 * a) if n == 2 else (-a * a * b, a * a + 2 * a * b, -2 * a - b)
        rows.append(tuple(_lift(c, p, rng.choice([1, -1])) for c in square))
    return rows


@pytest.mark.parametrize("n", [2, 3])
def test_types_mod_p_matches_oracle(n):
    rng = random.Random(100 + n)
    big = (2**62,) + (1,) * (n - 1)  # one row outside the kernel bounds
    for p in KERNEL_PRIMES:
        rows = _kernel_rows(n, p, rng)
        expected = _oracle_codes(rows, p)
        kernel = batch.pack(rows)
        assert kernel.dtype == np.int64
        assert batch.types_mod_p(kernel, p).tolist() == expected, p
        scalar = batch.pack(rows + [big])
        assert scalar.dtype == object
        assert batch.types_mod_p(scalar, p).tolist() == expected + _oracle_codes([big], p), p
    for ragged in ([(1,) * n, (1,) * (n + 1)], [big, (1,) * (n + 1)]):
        with pytest.raises(ValueError):
            batch.pack(ragged)


@st.composite
def _kernel_family(draw, n):
    """A prime of the kernel domain and rows within it, some not squarefree mod p."""
    p = draw(st.one_of(st.sampled_from([2, 3]), st.sampled_from(DOMAIN_PRIMES)))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-TOP, TOP))
    rows = draw(st.lists(st.tuples(*[coeff] * n), min_size=1, max_size=20))
    lift = st.integers(-(TOP // p), (TOP - p + 1) // p)
    for _ in range(draw(st.integers(0, 3))):
        # (X - a)^2, and (X - a)^2 (X - b), lifted within the bound
        a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        square = (a * a, -2 * a) if n == 2 else (-a * a * b, a * a + 2 * a * b, -2 * a - b)
        rows.append(tuple(c % p + p * draw(lift) for c in square))
    return p, rows


@pytest.mark.parametrize("n", [2, 3])
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_types_mod_p_kernel_property(n, data):
    p, rows = data.draw(_kernel_family(n))
    coeffs = batch.pack(rows)
    assert coeffs.dtype == np.int64
    assert batch.types_mod_p(coeffs, p).tolist() == _oracle_codes(rows, p)


@pytest.mark.parametrize("p", sieve_primes(53).primes)
def test_cubic_kernel_census(p):
    # Every residue triple once, as the representatives nearest 0.
    grid = np.indices((p, p, p), dtype=np.int64).reshape(3, -1).T - p // 2
    codes = batch.types_mod_p(grid, p)
    counts = np.bincount(codes, minlength=4).tolist()
    expected = [class_count(3, r, p) for r in enumerate_types(3)]
    assert counts == expected + [p**3 - sum(expected)]
    if p <= 13:
        assert codes.tolist() == _oracle_codes(grid.tolist(), p)


@pytest.mark.parametrize("p", DOMAIN_PRIMES[-4:])
def test_cubic_kernel_half_modulus_residues(p):
    # Residues near +-p/2 give the kernel's largest float64 products.
    half = (p - 1) // 2
    near = [half, -half, half - 1, 1 - half, 0, 1]  # six distinct residues
    rows = [tuple(_lift(c, p, sign) for c, sign in zip(row, (1, -1, 1)))
            for row in product(near, repeat=3)]
    for r1, r2, r3 in product(near[:4], repeat=3):
        # (X - r1)(X - r2)(X - r3): split, or with a repeated root
        rows.append((-r1 * r2 * r3, r1 * r2 + r1 * r3 + r2 * r3, -r1 - r2 - r3))
    coeffs = batch.pack(rows)
    assert coeffs.dtype == np.int64
    codes = batch.types_mod_p(coeffs, p).tolist()
    assert codes == _oracle_codes(rows, p)
    assert set(codes) == {batch.INERT, batch.TRANSPOSITION, batch.SPLIT, batch.ABSENT}


def _scalar_certify(row, budget):
    """Certify one row alone, through the object-dtype (scalar) path."""
    big = (2**62,) + (1,) * (len(row) - 1)
    return certify_stream(batch.pack([tuple(row), big]), budget)[0]


def test_bulk_certification_matches_scalar():
    spec = FamilySpec(n=3, height_bound=4)
    coeffs = generate(spec)
    bulk = certify_stream(coeffs, 25)
    scalar = [_scalar_certify(row, 25) for row in coeffs.tolist()]
    assert bulk == scalar


def test_bulk_certification_matches_scalar_tight_budget():
    spec = FamilySpec(n=3, height_bound=3)
    coeffs = generate(spec)
    for budget in (1, 2, 5):
        assert certify_stream(coeffs, budget) == [
            _scalar_certify(row, budget) for row in coeffs.tolist()
        ]


@pytest.mark.parametrize("n, height", [(2, 10), (3, 3)])
def test_kernel_and_scalar_certification_agree(n, height):
    rows = [tuple(row) for row in generate(FamilySpec(n=n, height_bound=height)).tolist()]
    # Rows at the kernels' height bound, whose discriminants and integer-root
    # searches overflow int64; for n = 3 also (X - 2)(X^2 + 2^59).
    rows += [tuple(s * TOP for s in signs) for signs in product((1, -1), repeat=n)]
    if n == 3:
        rows.append((-2**60, 2**59, -2))
    big = (2**62,) + (1,) * (n - 1)
    assert batch.pack(rows).dtype == np.int64
    for budget in (1, 2, 5, 25):
        kernel = certify_stream(batch.pack(rows), budget)
        scalar = certify_stream(batch.pack(rows + [big]), budget)
        assert kernel == scalar[:-1], budget
    if n == 3:
        assert kernel[-1].status == REDUCIBLE


def test_cubic_certificates_pinned():
    coeffs = generate(FamilySpec(n=3, height_bound=3))
    expected = {
        1: (0, 10, 117, 216),
        2: (120, 10, 117, 96),
        5: (214, 10, 117, 2),
        25: (216, 10, 117, 0),
    }
    for budget, counts in expected.items():
        statuses = [c.status for c in certify_stream(coeffs, budget)]
        assert tuple(statuses.count(s) for s in (
            SN_CERTIFIED, AN_CANDIDATE, REDUCIBLE, UNDETERMINED)) == counts, budget


def test_composite_degree_needs_long_cycle():
    # Galois group D4: transitive, with a 4-cycle and a transposition.
    for a0 in (-2, 2, -3, 3):
        assert _certify((a0, 0, 0, 0)).status != SN_CERTIFIED
    cert = _certify((-1, -1, 0, 0))  # X^4 - X - 1, S_4
    assert cert.status == SN_CERTIFIED
    kinds = {r for _p, r in cert.witnesses}
    assert (0, 0, 0, 1) in kinds and (1, 0, 1, 0) in kinds
    coeffs = generate(FamilySpec(n=4, height_bound=3))
    statuses = [c.status for c in certify_stream(coeffs, 25)]
    assert (statuses.count(SN_CERTIFIED), statuses.count(REDUCIBLE),
            statuses.count(UNDETERMINED)) == (1382, 731, 288)


def test_batch_kernel_matches_scalar():
    rng = random.Random(23)
    rows = [tuple(rng.randrange(-10**12, 10**12) for _ in range(3)) for _ in range(60)]
    primes = [2, 3, 5, 7, 97, 1009, 65537, 999983]
    matrix = batch.cubic_count_matrix(batch.pack(rows), primes)
    expected = np.zeros((len(rows), 4), dtype=np.int64)
    for p in primes:
        expected[np.arange(len(rows)), _oracle_codes(rows, p)] += 1
    assert (matrix == expected).all()


def test_fiber_probability_single_target():
    spec = FamilySpec(n=2, height_bound=200)
    g = FieldPolynomial.from_list([1, 0, 1], 3)  # X^2 + 1 mod 3
    empirical, reference = fiber_probability(spec, [(3, g)])
    assert reference == pytest.approx(1 / 9)
    assert abs(empirical - 1 / 9) <= 3 / 200


def test_fiber_probability_two_targets():
    spec = FamilySpec(n=2, height_bound=200)
    g3 = FieldPolynomial.from_list([1, 0, 1], 3)
    g5 = FieldPolynomial.from_list([2, 0, 1], 5)
    empirical, reference = fiber_probability(spec, [(3, g3), (5, g5)])
    assert reference == pytest.approx(1 / 225)
    assert abs(empirical - 1 / 225) <= 10 / 200


def test_fiber_probability_regime_error():
    spec = FamilySpec(n=2, height_bound=4)
    g = FieldPolynomial.from_list([1, 0, 1], 3)
    with pytest.raises(RegimeError):
        fiber_probability(spec, [(3, g)])


def test_fiber_probability_rejects_bad_targets():
    spec = FamilySpec(n=2, height_bound=200)
    g = FieldPolynomial.from_list([1, 0, 1], 3)
    with pytest.raises(ValueError):
        fiber_probability(spec, [(3, g), (3, g)])
    wrong_degree = FieldPolynomial.from_list([1, 1], 3)
    with pytest.raises(ValueError):
        fiber_probability(spec, [(3, wrong_degree)])


def test_undetermined_is_possible():
    # X^4 + 1 is irreducible over Q but reducible mod every prime:
    # no irreducible witness exists, and no integer root either.
    cert = _certify((1, 0, 0, 0))
    assert cert.status == UNDETERMINED
