import random

from hallkit import embeddings as emb
from hallkit.partitions import partitions_of
from hallkit.zpn import span_exponent


def test_span_exponent_examples():
    assert span_exponent([], (), 2) == 0
    assert span_exponent([(), ()], (), 3) == 0
    assert span_exponent([(0, 0)], (2, 1), 2) == 0
    # (1, 1) spans a cyclic group of order 4 in Z/4 + Z/2; adding (0, 1) fills it
    assert span_exponent([(1, 1)], (2, 1), 2) == 2
    assert span_exponent([(1, 1), (0, 1)], (2, 1), 2) == 3
    # 3 in Z/9 has order 3; -1 and 10 are units
    assert span_exponent([(3,)], (2,), 3) == 1
    assert span_exponent([(-1,)], (2,), 3) == span_exponent([(10,)], (2,), 3) == 2


def test_span_exponent_matches_element_sets():
    # random integer rows in every ambient of order at most 2^8 or 3^5:
    # reduced or not, zero rows, and multiples of an earlier row
    rng = random.Random(5)
    checked = 0
    for p, max_size in ((2, 8), (3, 5)):
        for n in range(max_size + 1):
            for beta in partitions_of(n):
                amb = emb.AmbientModule.get(p, beta)
                for _ in range(6):
                    rows = []
                    for _ in range(rng.randrange(4)):
                        kind = rng.randrange(4)
                        if kind == 0:
                            rows.append([0] * len(beta))
                        elif kind == 1 and rows:
                            k = rng.choice((-1, p, 2 * p + 1, p**2))
                            rows.append([k * x for x in rng.choice(rows)])
                        else:
                            rows.append([rng.randrange(-p**b, 2 * p**b) for b in beta])
                    want = len(emb.span(amb, [amb.pack(row) for row in rows]))
                    assert p ** span_exponent(rows, beta, p) == want, (p, beta, rows)
                    checked += 1
    assert checked == 6 * (67 + 19)
