"""Philox4x64-10 in plain Python: the oracle for numpy's ``Philox`` stream.

Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1,
2, 3" (SC'11).  numpy keys the generator with the two words of
``SeedSequence(seed).generate_state(2, np.uint64)`` and steps its
256-bit counter before each block of four 64-bit words, from 0, so word
i of the stream is word i % 4 of the block at counter 1 + i // 4.
"""
MASK = (1 << 64) - 1
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
ROUNDS = 10


def philox_block(counter: int, key: tuple[int, int]) -> list[int]:
    """The four words Philox4x64-10 gives for ``counter`` under ``key``."""
    c = [(counter >> (64 * i)) & MASK for i in range(4)]
    k0, k1 = key
    for _ in range(ROUNDS):
        p0, p1 = MULTIPLIERS[0] * c[0], MULTIPLIERS[1] * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & MASK, (p0 >> 64) ^ c[3] ^ k1, p0 & MASK]
        k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
    return c


def philox_words(key: tuple[int, int], start: int, count: int) -> list[int]:
    """Words ``start`` .. ``start + count - 1`` of the stream under ``key``."""
    first, last = start // 4, (start + count - 1) // 4
    words = [w for step in range(first, last + 1) for w in philox_block(1 + step, key)]
    return words[start % 4:start % 4 + count]


def to_double(word: int) -> float:
    """The double in [0, 1) that numpy's ``Generator.random`` makes of one word."""
    return (word >> 11) * 2.0 ** -53
