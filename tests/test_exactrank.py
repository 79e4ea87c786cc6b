import random
from fractions import Fraction

from shellball.exactrank import rank_gf2_columns, rank_int_columns


def dense_rank_oracle(rows, char=0):
    """Plain Gaussian elimination over Fraction or GF(p); the reference."""
    if not rows or not rows[0]:
        return 0
    if char == 0:
        mat = [[Fraction(x) for x in row] for row in rows]
    else:
        mat = [[x % char for x in row] for row in rows]
    nr, nc = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(nc):
        piv = next((r for r in range(row, nr) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = (
            Fraction(1, 1) / mat[row][col]
            if char == 0
            else pow(mat[row][col], char - 2, char)
        )
        for r in range(nr):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col] * inv
                for c in range(col, nc):
                    if char == 0:
                        mat[r][c] -= factor * mat[row][c]
                    else:
                        mat[r][c] = (mat[r][c] - factor * mat[row][c]) % char
        row += 1
        rank += 1
        if row == nr:
            break
    return rank


def int_columns(rows):
    """The columns of a dense matrix as sparse {row: entry} dicts."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]


def gf2_columns(rows):
    """The columns of a dense matrix reduced mod 2, as bit masks over the rows."""
    return [sum(1 << i for i, row in enumerate(rows) if row[j] % 2) for j in range(len(rows[0]))]


def test_known_small_matrices():
    assert rank_int_columns(int_columns([[1, 0], [0, 1]])) == 2
    assert rank_int_columns(int_columns([[1, 2], [2, 4]])) == 1
    # rank differs between Q and GF(2)
    twos = [[2]]
    assert rank_int_columns(int_columns(twos)) == 1
    assert rank_gf2_columns(gf2_columns(twos)) == 0
    assert rank_int_columns(int_columns(twos), 3) == 1
    assert rank_int_columns(int_columns(twos), 2) == 0


def test_needs_nonunit_pivots():
    m = [[2, 3], [4, 9]]
    assert rank_int_columns(int_columns(m)) == dense_rank_oracle(m) == 2
    m = [[6, 10], [15, 25]]
    assert rank_int_columns(int_columns(m)) == dense_rank_oracle(m) == 1


def test_random_matrices_against_dense_oracle():
    # entries up to +-50, with columns that vanish mod p and repeated columns,
    # so the GF(p) normal form meets entries it must reduce and drop
    rng = random.Random(42)
    primes = (2, 3, 5, 7, 13)
    for _ in range(120):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-50, 50) for _ in range(nc)] for _ in range(nr)]
        q = rng.choice(primes)
        for j in range(nc):
            kind = rng.random()
            if kind < 0.2:
                for row in rows:
                    row[j] = q * rng.randint(-(50 // q), 50 // q)
            elif kind < 0.4 and j:
                src = rng.randrange(j)
                for row in rows:
                    row[j] = row[src]
        cols = int_columns(rows)
        assert rank_int_columns(cols) == rank_int_columns(cols, 0) == dense_rank_oracle(rows), rows
        assert rank_gf2_columns(gf2_columns(rows)) == dense_rank_oracle(rows, 2), rows
        for p in primes:
            assert rank_int_columns(cols, p) == dense_rank_oracle(rows, p), (rows, p)


def test_column_interfaces():
    assert rank_gf2_columns([0b011, 0b110, 0b101]) == 2
    assert rank_int_columns([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]) == 2
    assert rank_int_columns([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 2) == 2
    assert rank_int_columns([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 3) == 3
