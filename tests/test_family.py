import random
from itertools import islice, product

import pytest

import numpy as np
from hypothesis import given, settings, strategies as st

from splitstat import batch, family, fppoly, stats, zpoly
from splitstat.errors import EmptyFamilyError, ResourceLimitError
from splitstat.family import (
    AN_CANDIDATE,
    CERTIFIER_PRIMES,
    FAMILY_BUDGET,
    REDUCIBLE,
    SN_CERTIFIED,
    STATUSES,
    UNDETERMINED,
    _DISC_BLOCK_ENTRIES,
    FamilySpec,
    _discriminants,
    _has_integer_root,
    _has_integer_roots,
    _subseed,
    certify,
    generate,
)
from splitstat.primes import sieve_primes
from splitstat.splittypes import class_count, enumerate_types
from splitstat.zpoly import discriminant, is_perfect_square

# The kernels take every prime p < 2^20, at any height.  TOP is the largest
# |coefficient| that batch.pack keeps in int64; beyond it a family is packed
# as object dtype, and the kernels read its residues mod p.
TOP = 2**62 - 1
DOMAIN_PRIMES = sieve_primes(2**20)
KERNEL_PRIMES = [2, 3, 5, 7, *DOMAIN_PRIMES[-5:]]
# Degrees the kernels are checked at against the oracle: every degree up to
# 8, then 9, 13, 15 (whose 176 types, like 14's 135, overflow int8 codes)
# and 20, the largest.
KERNEL_DEGREES = [*range(2, 9), 9, 13, 15, 20]


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
    # The budget bounds a sampled family as it does a box.
    # Above degree 3 a draw costs more, and the budget shrinks as 3/n.
    def sampled(n, size):
        return FamilySpec(n=n, height_bound=2**64, mode="sampled", sample_size=size)

    for n, most in [(1, FAMILY_BUDGET), (3, FAMILY_BUDGET), (4, 2_250_000), (13, 692_307)]:
        assert sampled(n, most).size == most
        with pytest.raises(ResourceLimitError):
            sampled(n, most + 1)


def _assert_slices_tile(spec, whole):
    """generate(spec, i, j) over cuts 7 rows apart, and spec's own slices,
    put back together give the whole family, dtype and order included."""
    cuts = list(range(0, spec.size, 7)) + [spec.size]
    for part in (generate, lambda spec, i, j: spec[i:j]):
        slices = [part(spec, i, j) for i, j in zip(cuts, cuts[1:])]
        assert all(piece.shape == (j - i, spec.n) for piece, i, j in zip(slices, cuts, cuts[1:]))
        joined = np.concatenate(slices)
        assert joined.tolist() == whole.tolist()
    assert generate(spec, 3, 3).shape == (0, spec.n)
    assert len(spec) == spec.size


def test_generate_exhaustive():
    for n, height in [(1, 3), (2, 1), (2, 2), (3, 0), (3, 2), (4, 2)]:
        spec = FamilySpec(n=n, height_bound=height)
        coeffs = generate(spec)
        box = np.array(list(product(range(-height, height + 1), repeat=n)))
        assert coeffs.dtype == np.int64 and coeffs.flags.c_contiguous
        assert coeffs.shape == box.shape and (coeffs == box).all(), (n, height)
        _assert_slices_tile(spec, box)


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
    for sampled in (spec, small, FamilySpec(n=3, height_bound=2**64, mode="sampled",
                                            sample_size=30, seed=7)):
        _assert_slices_tile(sampled, generate(sampled))


def _randrange_draws(spec, start, stop):
    """Draws start to stop - 1 as n randrange(-N, N + 1) calls each, in
    order, on random.Random(_subseed(seed, i)): the definition of a draw."""
    rows = []
    for index in range(start, stop):
        rng = random.Random(_subseed(spec.seed, index))
        rows.append([rng.randrange(-spec.height_bound, spec.height_bound + 1)
                     for _ in range(spec.n)])
    return rows


@pytest.mark.parametrize("height", [0, 1, 2**31 - 1, 2**31, 2**62 - 1, 2**62, 10**30, 10**400])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_generate_sampled_matches_randrange(n, height):
    # 2N + 1 just below, at and just above 32-bit words and powers of two
    # (rejections from 1 in 2^32 to nearly 1 in 2), on both sides of pack's
    # int64 bound, and far beyond it.
    spec = FamilySpec(n=n, height_bound=height, mode="sampled", sample_size=60, seed=11)
    for start, stop in [(0, 60), (13, 41), (59, 60), (5, 5)]:
        coeffs = generate(spec, start, stop)
        rows = _randrange_draws(spec, start, stop)
        wide = any(abs(c) >= batch.MAX_INT64_HEIGHT for row in rows for c in row)
        assert coeffs.dtype == (object if wide else np.int64)
        assert coeffs.shape == (stop - start, n)
        assert coeffs.tolist() == rows


def test_certify_empty_family():
    empty = np.zeros((0, 3), dtype=np.int64)
    status, disc = certify(empty, 25)
    assert status.shape == (0,) and disc.shape == (0,)
    cf = stats.certify_family(empty, 25)
    assert cf.coeffs.shape == (0, 3)
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_column_discriminants_match_rows(n):
    # int64 closed forms for n <= 3 up to |c| = 2^15; one coefficient
    # beyond, rows at pack's int64 bound or n >= 4 switch the discriminants
    # to Python ints.  An empty family keeps its coefficients' rule.
    edge = 2**15
    rng = random.Random(n)
    for top, dtype in [(edge, np.int64), (edge + 1, object), (TOP, object)]:
        values = (top, -top, top - 1, 1 - top, 0, 1, -1)
        if n <= 4:
            rows = list(product(values, repeat=n))
        else:
            rows = [tuple(rng.choice(values) for _ in range(n)) for _ in range(1000)]
        coeffs = batch.pack(rows)
        disc = _discriminants(coeffs)
        assert disc.dtype == (dtype if n <= 3 else object), top
        assert disc.tolist() == [discriminant(list(row)) for row in rows], top
        assert _discriminants(coeffs[:0]).dtype == (np.int64 if n <= 3 else object)


def test_discriminant_blocks(monkeypatch):
    # Several blocks of a quintic box: no stack holds more than a block's
    # entries, and the discriminants match one call per row.
    sizes = []
    bareiss = zpoly._bareiss_det

    def spy(m):
        sizes.append(m.size)
        return bareiss(m)

    monkeypatch.setattr(zpoly, "_bareiss_det", spy)
    coeffs = generate(FamilySpec(n=5, height_bound=2))
    disc = _discriminants(coeffs)
    assert len(sizes) > 1 and max(sizes) <= _DISC_BLOCK_ENTRIES
    assert disc.tolist() == [discriminant(row) for row in coeffs.tolist()]


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
    """Rows at pack's int64 bound, random rows, and non-squarefree rows mod p."""
    rows = [(TOP,) * n, (-TOP,) * n, (0,) * n]
    rows += [tuple(rng.choice([TOP, -TOP, rng.randrange(-TOP, TOP + 1)])
                   for _ in range(n)) for _ in range(25)]
    for _ in range(6):
        a, b = rng.randrange(p), rng.randrange(p)
        e = 1 if n < 4 else rng.choice([1, 2])
        square = _square_row(n, a, b, e, lambda: rng.randrange(p))
        rows.append(tuple(_lift(c, p, rng.choice([1, -1])) for c in square))
    return rows


@pytest.mark.parametrize("n", KERNEL_DEGREES)
def test_types_mod_p_matches_oracle(n, monkeypatch):
    # Rows beyond pack's int64 bound are packed as object dtype.  A type
    # mod p reads only the residues, so they take the kernels wherever int64
    # rows do: the oracle is left only the primes p <= n from degree 4 on.
    rng = random.Random(100 + n)
    oracle = fppoly.splitting_type_mod_p
    calls = []

    def counted(f, q):
        calls.append(q)
        return oracle(f, q)

    # Above degree 8, where an oracle call takes ~1-3 ms, one prime p <= n,
    # the least prime above n and the largest kernel prime.
    above = next(q for q in DOMAIN_PRIMES if q > n)
    for p in KERNEL_PRIMES if n <= 8 else [2, above, DOMAIN_PRIMES[-1]]:
        rows = _kernel_rows(n, p, rng)
        expected = _oracle_codes(rows, p)
        kernel = batch.pack(rows)
        assert kernel.dtype == np.int64
        assert batch.types_mod_p(kernel, p).tolist() == expected, p
        # Every row lifted to a height about 2^64 or 10^400, the g^2 h rows
        # among them, and rows just beyond the bound.
        big = [(2**62,) + (1,) * (n - 1), (10**400,) * n, (-2**64,) * n]
        heights = [2**64 + rng.randrange(p * p), -2**64 - rng.randrange(p * p), 10**400, -10**400]
        big += [tuple(c + p * rng.choice(heights) for c in row) for row in rows]
        scalar = batch.pack(rows + big)
        assert scalar.dtype == object
        calls.clear()
        monkeypatch.setattr(fppoly, "splitting_type_mod_p", counted)
        codes = batch.types_mod_p(scalar, p).tolist()
        monkeypatch.undo()
        assert codes == expected + _oracle_codes(big, p), p
        assert bool(calls) == (n >= 4 and p <= n), p
    for ragged in ([(1,) * n, (1,) * (n + 1)], [big[0], (1,) * (n + 1)]):
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


@pytest.mark.parametrize("n", KERNEL_DEGREES)
def test_types_mod_p_kernel_property(n):
    # A few examples above degree 8, where an oracle call takes ~1-3 ms.
    @settings(derandomize=True, max_examples=150 if n <= 8 else 5, deadline=None,
              database=None)
    @given(data=st.data())
    def check(data):
        p, rows = data.draw(_kernel_family(n))
        coeffs = batch.pack(rows)
        assert coeffs.dtype == np.int64
        assert batch.types_mod_p(coeffs, p).tolist() == _oracle_codes(rows, p)

    check()


@pytest.mark.parametrize("p", [2, 101, 1_048_583])
def test_degree_one_takes_no_oracle_call(p, monkeypatch):
    # X + a_0 is of type (1,) at every p, also beyond the kernels' 2^20 and
    # in a census of more than p rows.
    rows = [(0,), (1,), (-1,), (p,), (TOP,), (-TOP,), (10**400,), (-2**64,)]
    calls = []
    monkeypatch.setattr(fppoly, "splitting_type_mod_p", lambda f, q: calls.append(q))
    for coeffs in (batch.pack(rows[:6]), batch.pack(rows)):
        assert batch.types_mod_p(coeffs, p).tolist() == [0] * len(coeffs)
    assert calls == []


def _spy_cubic_paths(monkeypatch):
    """The primes at which each cubic path is called, by path name."""
    calls = {"table": [], "frobenius": []}
    for name, attr in (("table", "_cubic_table_codes"), ("frobenius", "_cubic_frobenius_codes")):
        def spy(a0, a1, a2, p, name=name, path=getattr(batch, attr)):
            calls[name].append(p)
            return path(a0, a1, a2, p)
        monkeypatch.setattr(batch, attr, spy)
    return calls


@pytest.mark.parametrize("p", sieve_primes(53))
def test_cubic_kernel_census(p, monkeypatch):
    # Every residue triple once, as the representatives nearest 0; from
    # p = 5 on the p^3 rows take the table path.
    grid = np.indices((p, p, p), dtype=np.int64).reshape(3, -1).T - p // 2
    calls = _spy_cubic_paths(monkeypatch)
    codes = batch.types_mod_p(grid, p)
    assert calls == ({"table": [p], "frobenius": []} if p > 3 else
                     {"table": [], "frobenius": [p] if p == 3 else []})
    counts = np.bincount(codes, minlength=4).tolist()
    expected = [class_count(3, r, p) for r in enumerate_types(3)]
    assert counts == expected + [p**3 - sum(expected)]
    if p <= 13:
        assert codes.tolist() == _oracle_codes(grid.tolist(), p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_cubic_table_every_residue_triple(p):
    # The table path called directly, at primes 1 and 2 mod 3, on every
    # residue triple as representatives in [0, p) and nearest 0.
    for shift in (0, p // 2):
        grid = np.indices((p, p, p), dtype=np.int64).reshape(3, -1).T - shift
        codes = batch._cubic_table_codes(grid[:, 0], grid[:, 1], grid[:, 2], p)
        assert codes.dtype == np.int8
        assert codes.tolist() == _oracle_codes(grid.tolist(), p)


def _shifted(row, k):
    """(a_0, a_1, a_2) of f(X + k) for f = X^3 + a_2 X^2 + a_1 X + a_0."""
    a0, a1, a2 = row
    return (k**3 + a2 * k * k + a1 * k + a0, 3 * k * k + 2 * a2 * k + a1, 3 * k + a2)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 1009, 1013, DOMAIN_PRIMES[-1]])
def test_cubic_table_degenerate_classes(p):
    # X^3 + a X^2 + b X + c is Z^3 + P Z + Q after Z = 3X + a; the rows with
    # P = 0, Q = 0, both, or t = Q^2 / P^3 = -4/27 (a double root) have
    # their own table entries.  Each class is checked on shifts f(X + k),
    # which keep P and Q, lifted near pack's int64 bound.
    rng = random.Random(p)
    nonzero = [1, 2, 3, p - 1, p - 2] + [rng.randrange(1, p) for _ in range(20)]
    classes = {
        "P = Q = 0": ([(0, 0, 0)], {batch.ABSENT}),
        "Q = 0": ([(0, v, 0) for v in nonzero],
                  {batch.SPLIT, batch.TRANSPOSITION}),
        "P = 0": ([(v, 0, 0) for v in nonzero],
                  {batch.TRANSPOSITION} if p % 3 == 2 else {batch.SPLIT, batch.INERT}),
        # (X - r)^2 (X + 2r): P = -3r^2, Q = 2r^3, so t = -4/27
        "t = -4/27": ([(2 * r**3, -3 * r * r, 0) for r in nonzero], {batch.ABSENT}),
    }
    for name, (rows, expected) in classes.items():
        rows = [_shifted(row, k) for row in rows for k in (0, 1, -5, rng.randrange(p))]
        rows = [tuple(_lift(c, p, rng.choice([1, -1])) for c in row) for row in rows]
        coeffs = batch.pack(rows)
        codes = batch._cubic_table_codes(coeffs[:, 0], coeffs[:, 1], coeffs[:, 2], p)
        assert codes.tolist() == _oracle_codes(rows, p), name
        assert set(codes.tolist()) == expected, name


@pytest.mark.parametrize("p", [5, 7, 101, 997, 9973])
def test_cubic_table_row_blocks(p):
    # Rows spanning two whole blocks of the table path and a partial third,
    # with P = 0, Q = 0 and p | disc rows spread through them: one table
    # serves every block, and the codes are those of the Frobenius path.
    rng = random.Random(p)
    special = [
        (0, 0, 0),  # P = Q = 0
        (rng.randrange(1, p), 0, 0),  # P = 0
        (0, rng.randrange(1, p), 0),  # Q = 0
        (2 * 3**3, -3 * 3 * 3, 0),  # (X - 3)^2 (X + 6): p | disc
        (0, 0, rng.randrange(1, p)),  # X^2 (X + a): p | disc
    ]
    m = 2 * batch._CUBIC_BLOCK_ROWS + 123
    rows = [tuple(rng.randrange(-TOP, TOP) for _ in range(3)) for _ in range(m)]
    for i in range(0, m, 97):
        row = _shifted(special[i % len(special)], rng.randrange(p))
        rows[i] = tuple(_lift(c % p, p, rng.choice([1, -1])) for c in row)
    coeffs = batch.pack(rows)
    assert coeffs.dtype == np.int64
    columns = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    codes = batch._cubic_table_codes(*columns, p)
    assert codes.dtype == np.int8 and len(codes) == m
    assert codes.tolist() == batch._cubic_frobenius_codes(*columns, p).tolist()
    assert batch.ABSENT in codes[::97]


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


@pytest.mark.parametrize("n", KERNEL_DEGREES[2:])
def test_trace_kernel_half_modulus_residues(n):
    # Residues near +-p/2 give the kernel's largest float64 products.  Above
    # degree 8, where an oracle call takes ~1-3 ms, fewer rows of each kind.
    p = DOMAIN_PRIMES[-1]
    rng = random.Random(n)
    size = 100 if n <= 8 else 20
    half = (p - 1) // 2
    near = [half, -half, half - 1, 1 - half, 0, 1]
    rows = [tuple(_lift(c, p, rng.choice([1, -1])) for c in row)
            for row in islice(product(near[:2], repeat=n), 4 * size)]
    rows += [tuple(rng.choice(near) for _ in range(n)) for _ in range(size)]
    pool = [s * (half - k) for k in range(10) for s in (1, -1)]  # 20 distinct residues
    for i in range(size):
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


@pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5), (3, 7),
                                  (4, 5), (4, 7), (5, 7), (6, 7)])
def test_residue_census_matches_direct_path(n, p, monkeypatch):
    # A family of more than p^n rows is typed by a census: the kernel types
    # each residue row that occurs once and each row reads its code from
    # there.  At p^n rows the kernel types the rows themselves.  From n = 7
    # on, the smallest kernel prime 11 puts p^n above FAMILY_BUDGET, so no
    # admitted family reaches the census there.  At n = 6 every call types
    # up to 7^6 = 117,649 residue rows, so only the census of p^n + 1 rows
    # runs.
    rng = np.random.default_rng(10 * n + p)
    grid = np.indices((p,) * n, dtype=np.int64).reshape(n, -1).T
    expected = batch.types_mod_p(grid, p)  # the direct path, in grid order
    checked = rng.permutation(p**n)[:400]
    assert expected[checked].tolist() == _oracle_codes(grid[checked].tolist(), p)
    calls = []
    monkeypatch.setattr(fppoly, "splitting_type_mod_p", lambda f, q: calls.append(q))
    sizes = (p**n, p**n + 1, max(3 * p**n, 2000)) if n < 6 else (p**n + 1,)
    for size in sizes:
        position = rng.integers(p**n, size=size)
        residues = grid[position]
        # Representatives of every size up to pack's int64 bound, and beyond it.
        lift = rng.integers(-(TOP // p), TOP // p, size=residues.shape)
        lift[::7] %= 5
        for coeffs in (residues + p * lift, residues + p * (lift.astype(object) << 40)):
            assert batch.types_mod_p(coeffs, p).tolist() == expected[position].tolist(), size
    assert calls == []


@pytest.mark.parametrize("n, p", [(4, 2), (4, 3), (5, 5), (9, 2)])
def test_oracle_census_types_only_family_residues(n, p, monkeypatch):
    # On the oracle path a census types only the residue rows that occur,
    # each once: here drawn from half of the p^n, in families of 2 p^n + 1
    # rows, int64 and beyond 2^62.
    rng = np.random.default_rng(10 * n + p)
    grid = np.indices((p,) * n, dtype=np.int64).reshape(n, -1).T
    occurring = grid[rng.permutation(p**n)[: (p**n + 1) // 2]]
    residues = occurring[rng.integers(len(occurring), size=2 * p**n + 1)]
    lift = rng.integers(-(TOP // p), TOP // p, size=residues.shape)
    expected = _oracle_codes(residues.tolist(), p)
    oracle = fppoly.splitting_type_mod_p
    for coeffs in (residues + p * lift, residues + p * (lift.astype(object) << 40)):
        calls = []

        def counted(f, q):
            calls.append(tuple(f))
            return oracle(f, q)

        monkeypatch.setattr(fppoly, "splitting_type_mod_p", counted)
        assert batch.types_mod_p(coeffs, p).tolist() == expected
        monkeypatch.undo()
        assert sorted(calls) == sorted(set(map(tuple, residues.tolist())))


@pytest.mark.parametrize("p", DOMAIN_PRIMES[-4:])
def test_cubic_kernel_half_modulus_residues(p, monkeypatch):
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
    calls = _spy_cubic_paths(monkeypatch)
    codes = batch.types_mod_p(coeffs, p).tolist()
    assert calls == {"table": [], "frobenius": [p]}
    monkeypatch.undo()
    assert codes == _oracle_codes(rows, p)
    assert set(codes) == {batch.INERT, batch.TRANSPOSITION, batch.SPLIT, batch.ABSENT}
    # The table path, which types these rows only in larger families, agrees.
    columns = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    assert batch._cubic_table_codes(*columns, p).tolist() == codes


def _scalar_certify(row, budget):
    """Certify one row alone, as Python ints (object dtype).

    Returns its (status code, discriminant).  Under a batch.MAX_KERNEL_PRIME
    patched to 0, every type comes from the oracle.
    """
    status, disc = certify(np.array([row], dtype=object), budget)
    return status[0], disc[0]


def _certify_pairs(coeffs, budget):
    """(status code, discriminant) of every row, certified together."""
    status, disc = certify(coeffs, budget)
    return list(zip(status.tolist(), disc.tolist()))


def test_bulk_certification_matches_scalar(monkeypatch):
    spec = FamilySpec(n=3, height_bound=4)
    coeffs = generate(spec)
    bulk = _certify_pairs(coeffs, 25)
    monkeypatch.setattr(batch, "MAX_KERNEL_PRIME", 0)
    scalar = [_scalar_certify(row, 25) for row in coeffs.tolist()]
    assert bulk == scalar


def test_bulk_certification_matches_scalar_tight_budget(monkeypatch):
    spec = FamilySpec(n=3, height_bound=3)
    coeffs = generate(spec)
    bulk = {budget: _certify_pairs(coeffs, budget) for budget in (1, 2, 5)}
    monkeypatch.setattr(batch, "MAX_KERNEL_PRIME", 0)
    for budget, pairs in bulk.items():
        assert pairs == [_scalar_certify(row, budget) for row in coeffs.tolist()], budget


@pytest.mark.parametrize("n, height", [(2, 10), (3, 3), (9, 10**6), (13, 10**6)])
def test_kernel_and_scalar_certification_agree(n, height, monkeypatch):
    # A box at n = 2 and 3; from n = 9 on, a few draws (each oracle call
    # takes ~1 ms there).
    draws = {} if n <= 3 else {"mode": "sampled", "sample_size": 12, "seed": n}
    rows = [tuple(row) for row in generate(FamilySpec(n, height, **draws)).tolist()]
    # Rows at pack's int64 bound, whose discriminants and integer-root
    # searches overflow int64; for n = 3 also (X - 2)(X^2 + 2^59).
    rows += [tuple(s * TOP for s in signs) for signs in islice(product((1, -1), repeat=n), 8)]
    if n == 3:
        rows.append((-2**60, 2**59, -2))
    # The same rows packed as int64, as object dtype (one row beyond pack's
    # int64 bound), and as int64 with every type from the oracle.
    big = (2**62,) + (1,) * (n - 1)
    assert batch.pack(rows).dtype == np.int64
    for budget in (1, 2, 5, 25):
        kernel = _certify_pairs(batch.pack(rows), budget)
        scalar = _certify_pairs(batch.pack(rows + [big]), budget)
        with monkeypatch.context() as patch:
            patch.setattr(batch, "MAX_KERNEL_PRIME", 0)
            oracle = _certify_pairs(batch.pack(rows), budget)
        assert kernel == scalar[:-1] == oracle, budget
    if n == 3:
        assert STATUSES[kernel[-1][0]] == REDUCIBLE


@pytest.mark.parametrize("n, height", [(2, 30), (3, 10), (4, 3), (6, 2)])
def test_int64_roots_match_trial_division(n, height):
    box = generate(FamilySpec(n=n, height_bound=height))
    expected = [_has_integer_root(f) for f in box.tolist()]
    assert _has_integer_roots(box).tolist() == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_int64_roots_match_trial_division_at_every_height(n):
    # Rows of heights 10^3 to 10^9 in one family, half of them with a
    # planted root, so blocks of every divisor range meet; constant terms
    # beyond ROOT_DIVISOR_BOUND^2 leave the trial division incomplete.
    rng = random.Random(n)
    rows = []
    for height in (1000, 2500, 4900, 10**6, 10**9):
        for i in range(40):
            root = rng.randint(-height, height)
            cofactor = [rng.randint(-height, height) for _ in range(n - 1)]
            rows.append(_monic_product((-root,), cofactor) if i % 2 else
                        tuple(rng.randint(-height, height) for _ in range(n)))
    coeffs = batch.pack(rows)
    assert coeffs.dtype == np.int64
    expected = [_has_integer_root(f) for f in rows]
    assert 0 < sum(expected) < len(rows)
    assert _has_integer_roots(coeffs).tolist() == expected


def test_int64_roots_stay_exact(monkeypatch):
    # X^6 + 512 X^5 + X - 2048 is 5 * 2^64 at X = 2048, which int64 Horner
    # would wrap to 0; the root test divides down instead.  Near pack's 2^62
    # bound, rows with n max|a_i| < 2^63 are tested in int64: (X - 1)(X^2 +
    # c), (X + 1)(X - c), and X^3 - X^2 - cX + c - 2, whose divisors are
    # +-1 and the prime +-(2^61 - 1).  (X - 1)(X^2 + 2^62 - 1) is beyond
    # that and keeps the row loop.
    c, d = 2**61 + 1, 2**62 - 1
    rows = [(-2048, 1, 0, 0, 0, 512), (-c, c, -1), (-c, 1 - c), (c - 2, -c, -1), (-d, d, -1)]
    expected = [False, True, True, False, True]
    assert [_has_integer_root(f) for f in rows] == expected
    looped = []

    def counted(f):
        looped.append(tuple(f))
        return _has_integer_root(f)

    monkeypatch.setattr(family, "_has_integer_root", counted)
    for row, root in zip(rows, expected):
        assert _has_integer_roots(batch.pack([row])).tolist() == [root], row
    assert looped == [rows[-1]]


def test_integer_root_beyond_trial_division():
    # (X - 10007)(X^2 + 10009): both factors of a_0 pass the trial-division
    # bound, so the root is missed.  (X - 10007)(X^2 + 9973): 9973 is a
    # divisor within it, and 10007 its cofactor.  The int64 search finds
    # the same, alone and in a box.
    missed, found = (-100160063, 10009, -10007), (-99799811, 9973, -10007)
    assert _monic_product((-10007,), (10009, 0)) == missed
    assert _monic_product((-10007,), (9973, 0)) == found
    assert _certify(missed) == UNDETERMINED
    assert _certify(found) == REDUCIBLE
    box = generate(FamilySpec(n=3, height_bound=3))
    status, _disc = certify(np.vstack([box, [missed, found]]), 25)
    assert [STATUSES[s] for s in status[-2:]] == [UNDETERMINED, REDUCIBLE]
    assert (status[:-2] == certify(box, 25)[0]).all()


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


def test_fiber_probability_single_target():
    spec = FamilySpec(n=2, height_bound=200)
    empirical, reference, statuses = stats.fiber_probability(spec, [(3, (1, 0))])  # X^2 + 1 mod 3
    assert sum(statuses.values()) == spec.size
    assert reference == pytest.approx(1 / 9)
    assert abs(empirical - 1 / 9) <= 3 / 200


def test_fiber_probability_two_targets():
    spec = FamilySpec(n=2, height_bound=200)
    empirical, reference, _statuses = stats.fiber_probability(spec, [(3, (1, 0)), (5, (2, 0))])
    assert reference == pytest.approx(1 / 225)
    assert abs(empirical - 1 / 225) <= 10 / 200


def _refuse_certifying(monkeypatch):
    monkeypatch.setattr(family, "certify", lambda coeffs, budget: pytest.fail("certified"))


def test_fiber_probability_regime_error(monkeypatch):
    # 3^2 = 9 >= 2N = 8: outside the regime of near-uniform fibers, refused
    # by fiber_probability too before anything is certified.
    _refuse_certifying(monkeypatch)
    for check in (stats.fiber_reference, stats.fiber_probability):
        with pytest.raises(ValueError):
            check(FamilySpec(n=2, height_bound=4), [(3, (1, 0))])
    assert stats.fiber_reference(FamilySpec(n=2, height_bound=5), [(3, (1, 0))]) == 1 / 9


def test_fiber_probability_rejects_bad_targets(monkeypatch):
    spec = FamilySpec(n=2, height_bound=200)
    _refuse_certifying(monkeypatch)
    for targets in [
        [(3, (1, 0)), (3, (1, 0))],  # the same prime twice
        [(4, (1, 1)), (2, (1, 1))],  # gcd 2: the fibers are not independent
        [(0, (1, 1))],
        [(1, (0, 0))],
        [(3, (1, 1, 0))],  # wrong length
        [(3, (1, 3))],  # residue not reduced
    ]:
        for check in (stats.fiber_reference, stats.fiber_probability):
            with pytest.raises(ValueError):
                check(spec, targets)


def test_fiber_probability_empty_family():
    spec = FamilySpec(n=1, height_bound=5)  # X + a: no transposition, never S_n
    with pytest.raises(EmptyFamilyError, match="no certified polynomials in family"):
        stats.fiber_probability(spec, [(3, (1,))])


def test_fiber_probability_coprime_composite_moduli():
    # 4 and 9 are coprime, so the reference 1/(4*9)^2 still holds.
    spec = FamilySpec(n=2, height_bound=800)
    empirical, reference, _statuses = stats.fiber_probability(spec, [(4, (1, 1)), (9, (2, 0))])
    assert reference == 1 / 36**2
    assert abs(empirical - reference) <= 10 / 800


def test_fiber_probability_slabs(monkeypatch):
    # Read in slabs of 7 rows, int64 and object rows give the share of
    # the hits counted row by row; the targets are the fibers of one row.
    monkeypatch.setattr(stats, "SLAB_ROWS", 7)
    for spec in (FamilySpec(n=2, height_bound=20),
                 FamilySpec(n=3, height_bound=2**70, mode="sampled", sample_size=60, seed=4)):
        cf = stats.certify_family(generate(spec))
        assert len(cf) % 7
        targets = [(p, tuple(c % p for c in cf.coeffs[-1].tolist())) for p in (2, 3)]
        hits = sum(all(c % p == t for p, target in targets for c, t in zip(row, target))
                   for row in cf.coeffs.tolist())
        assert stats.fiber_probability(spec, targets)[0] == hits / len(cf)


def test_undetermined_is_possible():
    # X^4 + 1 is irreducible over Q but reducible mod every prime:
    # no irreducible witness exists, and no integer root either.
    assert _certify((1, 0, 0, 0)) == UNDETERMINED
