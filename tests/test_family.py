import random
from itertools import product

import pytest

import numpy as np
from hypothesis import given, settings, strategies as st

from splitstat import batch, fppoly, stats
from splitstat.errors import EmptyFamilyError, ResourceLimitError
from splitstat.family import (
    AN_CANDIDATE,
    CERTIFIER_PRIMES,
    FAMILY_BUDGET,
    REDUCIBLE,
    SN_CERTIFIED,
    STATUSES,
    UNDETERMINED,
    FamilySpec,
    _discriminants,
    certify,
    generate,
)
from splitstat.primes import sieve_primes
from splitstat.splittypes import class_count, enumerate_types
from splitstat.zpoly import discriminant, is_perfect_square

# The kernels' declared domain: |coefficient| <= 2^62 - 1 and p < 2^20.
TOP = 2**62 - 1
DOMAIN_PRIMES = sieve_primes(2**20)
KERNEL_PRIMES = [2, 3, 5, 7, *DOMAIN_PRIMES[-5:]]


def _certify(row, budget=25):
    """The status of one row, certified alone."""
    status, _disc = certify(batch.pack([row]), budget)
    return STATUSES[status[0]]


def _status_counts(status):
    """Rows per status, in STATUSES order."""
    return tuple(np.bincount(status, minlength=len(STATUSES)).tolist())


def _oracle_cycle_kinds(row, budget):
    """The cycle kinds the oracle's reductions show within the budget.

    Scans CERTIFIER_PRIMES, spending `budget` primes at which the row is
    squarefree, as the certifier does: "n" for an n-cycle, "2" for a type
    with one 2-cycle and every other cycle odd (a transposition-generating
    type), "n-1" for a fixed point and an (n-1)-cycle.
    """
    n = len(row)
    kinds = set()
    spent = 0
    for p in CERTIFIER_PRIMES:
        if spent == budget:
            break
        r = fppoly.splitting_type_mod_p(row, p)
        if r is None:
            continue
        spent += 1
        if r[n - 1] == 1:
            kinds.add("n")
        if n >= 2 and r[1] == 1 and all(r[i - 1] == 0 for i in range(4, n + 1, 2)):
            kinds.add("2")
        if n >= 3 and r[0] == 1 and r[n - 2] == 1:
            kinds.add("n-1")
    return kinds


def _required_kinds(n):
    """The kinds that prove S_n: an (n-1)-cycle as well when n is composite."""
    composite = any(n % q == 0 for q in range(2, n))
    return {"n", "2", "n-1"} if composite else {"n", "2"}


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
    for extra in ({"sample_size": 50}, {"seed": 9}):
        with pytest.raises(ValueError, match="exhaustive"):
            FamilySpec(n=2, height_bound=3, **extra)
    with pytest.raises(ResourceLimitError):
        FamilySpec(n=5, height_bound=10**4)
    # At the exhaustive budget (3 * 10^6 polynomials): the largest box of
    # each degree is admitted and the next one refused.
    for n, height in [(2, 865), (3, 71), (4, 20), (13, 1)]:
        assert FamilySpec(n=n, height_bound=height).size <= FAMILY_BUDGET
        with pytest.raises(ResourceLimitError):
            FamilySpec(n=n, height_bound=height + 1)
    with pytest.raises(ResourceLimitError):
        FamilySpec(n=14, height_bound=1)
    assert FamilySpec(n=3, height_bound=50).size == 101**3  # criterion 09's box


def test_sampled_family_budget():
    # A sampled family is held whole too: the budget bounds it as it does a box.
    # Above degree 3 a draw costs more, and the budget shrinks as 3/n.
    def sampled(n, size):
        return FamilySpec(n=n, height_bound=2**64, mode="sampled", sample_size=size)

    for n, most in [(1, FAMILY_BUDGET), (3, FAMILY_BUDGET), (4, 2_250_000), (13, 692_307)]:
        assert sampled(n, most).size == most
        with pytest.raises(ResourceLimitError):
            sampled(n, most + 1)


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
    status, disc = certify(empty, 25)
    assert status.shape == (0,) and disc.shape == (0,)
    cf = stats.certify_family(empty, 25)
    assert cf.coeffs.shape == (0, 3) and cf.disc.size == 0
    assert cf.statuses == dict.fromkeys(STATUSES, 0)


def test_certify_linear_family():
    # X + a: disc 1 (a square) and an n-cycle at every prime, but never a
    # transposition, so every row is AnCandidate.
    coeffs = generate(FamilySpec(n=1, height_bound=3))
    status, disc = certify(coeffs, 25)
    assert [STATUSES[s] for s in status.tolist()] == [AN_CANDIDATE] * 7
    assert disc.tolist() == [1] * 7


def test_certify_examples():
    assert _certify((-1, -1, 0)) == SN_CERTIFIED
    assert _certify((-1, -3, 0)) == AN_CANDIDATE
    # Reducible by an integer root: X^2 - 1, and (X + 3)(X^2 + 1)
    assert _certify((-1, 0)) == REDUCIBLE
    assert _certify((3, 1, 3)) == REDUCIBLE
    # X^3 (disc 0) is reducible via the gcd argument
    assert _certify((0, 0, 0)) == REDUCIBLE


def test_certificate_witnesses_are_sound():
    # Every S_n-certified row shows every required cycle kind at the
    # oracle's reductions within the budget.
    assert _oracle_cycle_kinds((-1, -1, 0), 25) >= {"n", "2"}
    for n, height in [(2, 4), (3, 3)]:
        coeffs = generate(FamilySpec(n=n, height_bound=height))
        for budget in (1, 2, 5, 25):
            status, _disc = certify(coeffs, budget)
            for row, code in zip(coeffs.tolist(), status.tolist()):
                if STATUSES[code] == SN_CERTIFIED:
                    assert _oracle_cycle_kinds(row, budget) >= _required_kinds(n), (row, budget)


def test_no_false_certificates_small_cubics():
    coeffs = generate(FamilySpec(n=3, height_bound=6))
    status, disc = certify(coeffs, 25)
    for row, code, d in zip(coeffs.tolist(), status.tolist(), disc.tolist()):
        assert d == discriminant(row)
        if STATUSES[code] == SN_CERTIFIED:
            assert not is_perfect_square(d)
        elif STATUSES[code] == AN_CANDIDATE:
            assert is_perfect_square(d)


def test_certified_fraction_floor(cubic_box):
    frac = len(cubic_box) / (len(cubic_box) + cubic_box.excluded)
    assert len(cubic_box) + cubic_box.excluded == 101**3
    assert frac >= 0.95


@pytest.mark.parametrize("n", [1, 2, 3])
def test_column_discriminants_match_rows(n):
    # int64 closed forms up to |c| = 2^15; one coefficient beyond, or rows
    # at the kernels' height bound, switch the family to Python ints.
    edge = 2**15
    for top, dtype in [(edge, np.int64), (edge + 1, object), (TOP, object)]:
        values = (top, -top, top - 1, 1 - top, 0, 1, -1)
        rows = list(product(values, repeat=n))
        coeffs = batch.pack(rows)
        disc = _discriminants(coeffs)
        if n > 1:
            assert disc.dtype == dtype, top
        assert disc.tolist() == [discriminant(list(row)) for row in rows], top


def _lift(c, p, sign):
    """The integer congruent to c mod p nearest to sign * TOP, within the bound."""
    if sign > 0:
        return c + p * ((TOP - c) // p)
    return c - p * ((TOP + c) // p)


def _monic_product(*factors):
    """The row (a_0, ..., a_{n-1}) of a product of monic factors, each one
    given as its own row."""
    f = [1]
    for g in factors:
        g = list(g) + [1]
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        f = out
    return tuple(f[:-1])


def _square_row(n, a, b, e, residue):
    """g^2 h, not squarefree mod p, as a row: g = X - a when e = 1 and
    X^2 - b X - a when e = 2, and h monic of degree n - 2e, with h = X - b
    at n = 3 and further coefficients from residue()."""
    low = [-a, -b] + [residue() for _ in range(n - 2 - e)]
    return _monic_product(low[:e], low[:e], low[e:n - e])


def _kernel_rows(n, p, rng):
    """Rows at the height bound, random rows, and non-squarefree rows mod p."""
    rows = [(TOP,) * n, (-TOP,) * n, (0,) * n]
    rows += [tuple(rng.choice([TOP, -TOP, rng.randrange(-TOP, TOP + 1)])
                   for _ in range(n)) for _ in range(25)]
    for _ in range(6):
        a, b = rng.randrange(p), rng.randrange(p)
        e = 1 if n < 4 else rng.choice([1, 2])
        square = _square_row(n, a, b, e, lambda: rng.randrange(p))
        rows.append(tuple(_lift(c, p, rng.choice([1, -1])) for c in square))
    return rows


@pytest.mark.parametrize("n", range(2, batch.MAX_TRACE_DEGREE + 1))
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
    """A prime of the kernel domain and rows within it, some not squarefree mod p.

    The primes up to max(n, 3) are drawn as often as the domain's: from
    n = 4 on, the primes p <= n take the oracle.
    """
    p = draw(st.one_of(st.sampled_from(sieve_primes(max(n, 3))), st.sampled_from(DOMAIN_PRIMES)))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-TOP, TOP))
    rows = draw(st.lists(st.tuples(*[coeff] * n), min_size=1, max_size=20))
    lift = st.integers(-(TOP // p), (TOP - p + 1) // p)
    residue = st.integers(0, p - 1)
    for _ in range(draw(st.integers(0, 3))):
        # g^2 h with g of degree 1 or (from n = 4 on) 2, lifted within the bound
        a, b = draw(residue), draw(residue)
        e = 1 if n < 4 else draw(st.integers(1, 2))
        square = _square_row(n, a, b, e, lambda: draw(residue))
        rows.append(tuple(c % p + p * draw(lift) for c in square))
    return p, rows


@pytest.mark.parametrize("n", range(2, batch.MAX_TRACE_DEGREE + 1))
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_types_mod_p_kernel_property(n, data):
    p, rows = data.draw(_kernel_family(n))
    coeffs = batch.pack(rows)
    assert coeffs.dtype == np.int64
    assert batch.types_mod_p(coeffs, p).tolist() == _oracle_codes(rows, p)


@pytest.mark.parametrize("p", sieve_primes(53))
def test_cubic_kernel_census(p):
    # Every residue triple once, as the representatives nearest 0.
    grid = np.indices((p, p, p), dtype=np.int64).reshape(3, -1).T - p // 2
    codes = batch.types_mod_p(grid, p)
    counts = np.bincount(codes, minlength=4).tolist()
    expected = [class_count(3, r, p) for r in enumerate_types(3)]
    assert counts == expected + [p**3 - sum(expected)]
    if p <= 13:
        assert codes.tolist() == _oracle_codes(grid.tolist(), p)


@pytest.mark.parametrize("n, p", [(4, 5), (4, 7), (4, 11), (5, 7)])
def test_trace_kernel_census(n, p):
    # Every residue row once, as the representatives nearest 0; the 7^5
    # rows at n = 5 span two of the kernel's blocks.
    grid = np.indices((p,) * n, dtype=np.int64).reshape(n, -1).T - p // 2
    codes = batch.types_mod_p(grid, p)
    types = enumerate_types(n)
    counts = np.bincount(codes, minlength=len(types) + 1).tolist()
    expected = [class_count(n, r, p) for r in types]
    assert counts == expected + [p**n - sum(expected)]
    if p**n <= 7**4:
        assert codes.tolist() == _oracle_codes(grid.tolist(), p)


@pytest.mark.parametrize("n", range(4, batch.MAX_TRACE_DEGREE + 1))
def test_trace_kernel_half_modulus_residues(n):
    # Residues near +-p/2 give the kernel's largest float64 products.
    p = DOMAIN_PRIMES[-1]
    rng = random.Random(n)
    half = (p - 1) // 2
    near = [half, -half, half - 1, 1 - half, 0, 1]
    rows = [tuple(_lift(c, p, rng.choice([1, -1])) for c in row)
            for row in product(near[:2], repeat=n)]
    rows += [tuple(rng.choice(near) for _ in range(n)) for _ in range(100)]
    pool = [s * (half - k) for k in range(5) for s in (1, -1)]  # ten distinct residues
    for i in range(100):
        # a product of linear factors: split, or with a repeated root
        roots = rng.sample(pool, n) if i % 2 else rng.choices(pool[:4], k=n)
        split = _monic_product(*[(-r,) for r in roots])
        rows.append(tuple(_lift(c, p, rng.choice([1, -1])) for c in split))
    coeffs = batch.pack(rows)
    assert coeffs.dtype == np.int64
    codes = batch.types_mod_p(coeffs, p).tolist()
    assert codes == _oracle_codes(rows, p)
    types = enumerate_types(n)
    assert {types.index((n,) + (0,) * (n - 1)), len(types)} <= set(codes)


@pytest.mark.parametrize("n", [4, 5])
def test_oracle_called_once_per_residue_row(n, monkeypatch):
    # At p <= n the rows go to the oracle, once per distinct row mod p.
    coeffs = generate(FamilySpec(n=n, height_bound=2))
    rows = coeffs.tolist()
    oracle = fppoly.splitting_type_mod_p
    for p in sieve_primes(n):
        expected = _oracle_codes(rows, p)
        calls = []

        def counted(f, q):
            calls.append(tuple(f))
            return oracle(f, q)

        monkeypatch.setattr(fppoly, "splitting_type_mod_p", counted)
        assert batch.types_mod_p(coeffs, p).tolist() == expected, p
        monkeypatch.undo()
        assert len(calls) == len(set(calls)) == len({tuple(c % p for c in row) for row in rows})
        assert len(calls) <= p**n


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
    """Certify one row alone, through the object-dtype (scalar) path.

    Returns its (status code, discriminant).
    """
    big = (2**62,) + (1,) * (len(row) - 1)
    status, disc = certify(batch.pack([tuple(row), big]), budget)
    return status[0], disc[0]


def _certify_pairs(coeffs, budget):
    """(status code, discriminant) of every row, certified together."""
    status, disc = certify(coeffs, budget)
    return list(zip(status.tolist(), disc.tolist()))


def test_bulk_certification_matches_scalar():
    spec = FamilySpec(n=3, height_bound=4)
    coeffs = generate(spec)
    bulk = _certify_pairs(coeffs, 25)
    scalar = [_scalar_certify(row, 25) for row in coeffs.tolist()]
    assert bulk == scalar


def test_bulk_certification_matches_scalar_tight_budget():
    spec = FamilySpec(n=3, height_bound=3)
    coeffs = generate(spec)
    for budget in (1, 2, 5):
        assert _certify_pairs(coeffs, budget) == [
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
        kernel = _certify_pairs(batch.pack(rows), budget)
        scalar = _certify_pairs(batch.pack(rows + [big]), budget)
        assert kernel == scalar[:-1], budget
    if n == 3:
        assert STATUSES[kernel[-1][0]] == REDUCIBLE


def test_cubic_certificates_pinned():
    coeffs = generate(FamilySpec(n=3, height_bound=3))
    expected = {
        1: (0, 10, 117, 216),
        2: (120, 10, 117, 96),
        5: (214, 10, 117, 2),
        25: (216, 10, 117, 0),
    }
    assert STATUSES == (SN_CERTIFIED, AN_CANDIDATE, REDUCIBLE, UNDETERMINED)
    for budget, counts in expected.items():
        status, _disc = certify(coeffs, budget)
        assert _status_counts(status) == counts, budget


def test_composite_degree_needs_long_cycle():
    # Galois group D4: transitive, with a 4-cycle and a transposition.
    for a0 in (-2, 2, -3, 3):
        assert _certify((a0, 0, 0, 0)) != SN_CERTIFIED
    assert _certify((-1, -1, 0, 0)) == SN_CERTIFIED  # X^4 - X - 1, S_4
    assert _oracle_cycle_kinds((-1, -1, 0, 0), 25) == {"n", "2", "n-1"}
    coeffs = generate(FamilySpec(n=4, height_bound=3))
    status, _disc = certify(coeffs, 25)
    sn, _an, reducible, undetermined = _status_counts(status)
    assert (sn, reducible, undetermined) == (1382, 731, 288)
    for row, code in zip(coeffs.tolist(), status.tolist()):
        if STATUSES[code] == SN_CERTIFIED:
            assert _oracle_cycle_kinds(row, 25) >= _required_kinds(4), row


def test_batch_kernel_matches_scalar():
    rng = random.Random(23)
    rows = [tuple(rng.randrange(-10**12, 10**12) for _ in range(3)) for _ in range(60)]
    primes = [2, 3, 5, 7, 97, 1009, 65537, 999983]
    matrix = batch.cubic_count_matrix(batch.pack(rows), primes)
    expected = np.zeros((len(rows), 4), dtype=np.int64)
    for p in primes:
        expected[np.arange(len(rows)), _oracle_codes(rows, p)] += 1
    assert (matrix == expected).all()


def _fibers(spec, targets):
    """(empirical, reference, statuses) of the fibers of targets over spec's family."""
    reference = stats.fiber_reference(spec, targets)
    cf = stats.certify_family(generate(spec))
    return stats.fiber_probability(cf, targets), reference, cf.statuses


def test_fiber_probability_single_target():
    spec = FamilySpec(n=2, height_bound=200)
    empirical, reference, statuses = _fibers(spec, [(3, (1, 0))])  # X^2 + 1 mod 3
    assert sum(statuses.values()) == spec.size
    assert reference == pytest.approx(1 / 9)
    assert abs(empirical - 1 / 9) <= 3 / 200


def test_fiber_probability_two_targets():
    spec = FamilySpec(n=2, height_bound=200)
    empirical, reference, _statuses = _fibers(spec, [(3, (1, 0)), (5, (2, 0))])
    assert reference == pytest.approx(1 / 225)
    assert abs(empirical - 1 / 225) <= 10 / 200


def test_fiber_probability_regime_error():
    # 3^2 = 9 >= 2N = 8: outside the regime of near-uniform fibers.
    with pytest.raises(ValueError):
        stats.fiber_reference(FamilySpec(n=2, height_bound=4), [(3, (1, 0))])
    assert stats.fiber_reference(FamilySpec(n=2, height_bound=5), [(3, (1, 0))]) == 1 / 9


def test_fiber_probability_rejects_bad_targets():
    spec = FamilySpec(n=2, height_bound=200)
    for targets in [
        [(3, (1, 0)), (3, (1, 0))],  # the same prime twice
        [(4, (1, 1)), (2, (1, 1))],  # gcd 2: the fibers are not independent
        [(0, (1, 1))],
        [(1, (0, 0))],
        [(3, (1, 1, 0))],  # wrong length
        [(3, (1, 3))],  # residue not reduced
    ]:
        with pytest.raises(ValueError):
            stats.fiber_reference(spec, targets)


def test_fiber_probability_empty_family():
    cf = stats.certify_family(batch.pack([(-1, 0)]))  # X^2 - 1 is reducible
    with pytest.raises(EmptyFamilyError, match="no certified polynomials in family"):
        stats.fiber_probability(cf, [(3, (1, 0))])


def test_fiber_probability_coprime_composite_moduli():
    # 4 and 9 are coprime, so the reference 1/(4*9)^2 still holds.
    spec = FamilySpec(n=2, height_bound=800)
    empirical, reference, _statuses = _fibers(spec, [(4, (1, 1)), (9, (2, 0))])
    assert reference == 1 / 36**2
    assert abs(empirical - reference) <= 10 / 800


def test_undetermined_is_possible():
    # X^4 + 1 is irreducible over Q but reducible mod every prime:
    # no irreducible witness exists, and no integer root either.
    assert _certify((1, 0, 0, 0)) == UNDETERMINED
