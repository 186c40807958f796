"""Tests for the tournament model, generators, and .trn serialization."""

import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import qrtour.core as core
from qrtour import (
    CoinStream,
    ParseError,
    Tournament,
    cycle_parity,
    d_minus,
    d_plus,
    decode,
    disc_given,
    disc_localsearch,
    edge_sign,
    encode,
    generate,
    paley_tournament,
    random_tournament,
    relabel,
    reverse,
    rotational_tournament,
    transitive_tournament,
    witness_vectors,
)
from qrtour.core import sign_array
from tournament_builders import doubly_regular, flip, random_circulant, random_skew_circulant

SEEDS = [0, 1, 7, 42, 1234567, 2**63 + 11]

# one size argument each; 7 is valid for every family, and the constructor's
# 21 bits are those of n = 7
BUILDERS = {
    "random": lambda n: random_tournament(n, 3),
    "transitive": transitive_tournament,
    "rotational": rotational_tournament,
    "paley": paley_tournament,
    "constructor": lambda n: Tournament(n, b"\x01" * 21),
}


# every vertex argument, called as (t, v) on a tournament of 6 vertices
VERTEX_TAKERS = [
    lambda t, v: edge_sign(t, v, 0),
    lambda t, v: edge_sign(t, 0, v),
    lambda t, v: d_plus(t, v, [1]),
    lambda t, v: d_plus(t, 0, [1, v]),
    lambda t, v: d_minus(t, v, [1]),
    lambda t, v: d_minus(t, 0, [1, v]),
    lambda t, v: disc_given(t, [0, v], [1]),
    lambda t, v: disc_given(t, [0], [1, v]),
    lambda t, v: witness_vectors(t, [2, v]),
    lambda t, v: relabel(t, [v, 1, 2, 3, 4, 5]),
    lambda t, v: cycle_parity(t, [0, 1, v]),
]


def c3():
    # 0 -> 1 -> 2 -> 0
    return rotational_tournament(3)


class TestTournamentModel:
    def test_edge_sign_by_construction(self):
        t = c3()
        assert edge_sign(t, 0, 1) == 1
        assert edge_sign(t, 1, 0) == -1
        assert edge_sign(t, 2, 2) == 0

    def test_edge_sign_antisymmetry(self):
        for seed in SEEDS:
            t = random_tournament(9, seed)
            for u in range(t.n):
                for v in range(t.n):
                    assert edge_sign(t, u, v) == -edge_sign(t, v, u)

    def test_edge_sign_small_dtype_vertices(self):
        # pair_index in uint8 / int16 arithmetic would wrap at these sizes
        t = random_tournament(300, 4)
        for u, v in ((50, 60), (140, 130), (210, 290), (299, 0)):
            expected = edge_sign(t, u, v)
            assert edge_sign(t, np.int16(u), np.int16(v)) == expected
            if v < 256 and u < 256:
                assert edge_sign(t, np.uint8(u), np.uint8(v)) == expected

    def test_edge_sign_out_of_range(self):
        t = c3()
        with pytest.raises(ValueError):
            edge_sign(t, 0, 3)
        with pytest.raises(ValueError):
            edge_sign(t, -1, 0)

    @pytest.mark.parametrize(
        "v",
        [True, np.False_, 1.0, "a", None, -1, 6, 2**70, np.uint64(2**64 - 1)],
        ids=["bool", "numpy_bool", "float", "str", "None", "negative", "n", "past_int64",
             "uint64_max"],
    )
    def test_one_vertex_rule(self, v):
        t = random_tournament(6, 2)
        message = f"^vertex {re.escape(repr(v))} out of range for n=6$"
        for take in VERTEX_TAKERS:
            with pytest.raises(ValueError, match=message):
                take(t, v)

    def test_degrees_use_no_subset_validator(self, monkeypatch):
        # the d_plus / d_minus oracle checks each arc through edge_sign alone
        t = random_tournament(9, 4)
        ys = [3, 8, 0, 3, 5, 8]
        expected = d_plus(t, 2, ys), d_minus(t, 2, ys)

        def refuse(*args):
            raise AssertionError("_members called")

        monkeypatch.setattr(core, "_members", refuse)
        assert (d_plus(t, 2, ys), d_minus(t, 2, ys)) == expected

    def test_bad_bit_count(self):
        with pytest.raises(ValueError):
            Tournament(3, b"\x01\x00")

    def test_bad_bit_values(self):
        with pytest.raises(ValueError):
            Tournament(2, b"\x02")

    @pytest.mark.parametrize(
        "bits",
        [
            bytearray(b"\x01\x00\x01"),
            memoryview(b"\x01\x00\x01"),
            np.array([1, 0, 1], dtype=np.uint8),
        ],
        ids=["bytearray", "memoryview", "uint8-array"],
    )
    def test_bytes_like_bits_stored_as_bytes(self, bits):
        t = Tournament(3, bits)
        assert type(t.bits) is bytes
        assert t == c3() and hash(t) == hash(c3())
        assert sign_array(t).tolist() == sign_array(c3()).tolist()

    def test_stored_bits_do_not_alias_the_input(self):
        buf = bytearray(b"\x01\x00\x01")
        t = Tournament(3, buf)
        buf[0] = 0
        assert t == c3()

    def test_non_buffer_bits_rejected(self):
        with pytest.raises(TypeError):
            Tournament(3, [1, 0, 1])

    @pytest.mark.parametrize("n, bits", [(True, b""), (False, b""), (2.0, b"\x01")])
    def test_vertex_count_must_be_int(self, n, bits):
        with pytest.raises(ValueError):
            Tournament(n, bits)

    def test_degrees_on_c3(self):
        t = c3()
        assert d_plus(t, 0, {1, 2}) == 1
        assert d_minus(t, 0, {1, 2}) == 1

    def test_degrees_source_vertex(self):
        t = transitive_tournament(4)
        assert d_plus(t, 0, {1, 2, 3}) == 3
        assert d_minus(t, 0, {1, 2, 3}) == 0

    def test_degrees_self_only(self):
        for seed in SEEDS[:3]:
            t = random_tournament(6, seed)
            for v in range(6):
                assert d_plus(t, v, {v}) == 0
                assert d_minus(t, v, {v}) == 0

    def test_degree_sum_identity(self):
        for seed in SEEDS:
            t = random_tournament(8, seed)
            everyone = set(range(8))
            total_out = sum(d_plus(t, v, everyone) for v in range(8))
            total_in = sum(d_minus(t, v, everyone) for v in range(8))
            assert total_out == total_in == 8 * 7 // 2

    def test_degree_split(self):
        t = random_tournament(10, 3)
        ys = {1, 4, 5, 9}
        for v in range(10):
            expected = len(ys - {v})
            assert d_plus(t, v, ys) + d_minus(t, v, ys) == expected

    def test_degree_rejects_bad_subset(self):
        with pytest.raises(ValueError):
            d_plus(c3(), 0, {0, 5})


class TestGenerators:
    def test_transitive_definition(self):
        t = transitive_tournament(3)
        assert edge_sign(t, 0, 1) == 1
        assert edge_sign(t, 0, 2) == 1
        assert edge_sign(t, 1, 2) == 1

    def test_paley_7_residues(self):
        # nonzero squares mod 7 are {1, 2, 4}
        t = paley_tournament(7)
        assert edge_sign(t, 0, 1) == 1
        assert edge_sign(t, 0, 2) == 1
        assert edge_sign(t, 0, 4) == 1
        assert edge_sign(t, 0, 3) == -1
        assert edge_sign(t, 3, 0) == 1  # (0 - 3) % 7 == 4 is a residue

    @pytest.mark.parametrize("p", [2, 4, 5, 6, 9, 13, 15, 21])
    def test_paley_rejects_bad_modulus(self, p):
        with pytest.raises(ValueError):
            paley_tournament(p)

    def test_paley_rejects_one(self):
        # 1 is no prime: _is_prime's p < 2 branch, with the family message
        with pytest.raises(ValueError, match="paley family needs a prime p with p % 4 == 3, got 1"):
            paley_tournament(1)

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23, 31])
    def test_paley_accepts_valid_primes(self, p):
        assert paley_tournament(p).n == p

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_rotational_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            rotational_tournament(n)

    def test_rotational_is_regular(self):
        t = rotational_tournament(7)
        everyone = set(range(7))
        for v in range(7):
            assert d_plus(t, v, everyone) == 3

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_is_pure_function_of_seed(self, seed):
        assert random_tournament(5, seed) == random_tournament(5, seed)

    def test_random_seeds_differ(self):
        assert random_tournament(12, 1) != random_tournament(12, 2)

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            generate("random", 5)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            random_tournament(5, -1)
        with pytest.raises(ValueError):
            random_tournament(5, 2**64)

    @pytest.mark.parametrize("seed", [True, False, 1.0, np.float64(2), "3", None])
    def test_seed_must_be_an_integer(self, seed):
        # a bool seed would run seed 1 or 0
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            random_tournament(5, seed)

    @pytest.mark.parametrize("seed", [np.int64(0), np.uint64(2**63 + 11), np.int8(7)])
    def test_numpy_integer_seeds(self, seed):
        assert random_tournament(6, seed) == random_tournament(6, int(seed))
        assert CoinStream(seed).take(8).tolist() == CoinStream(int(seed)).take(8).tolist()

    @pytest.mark.parametrize("family", BUILDERS)
    def test_numpy_integer_sizes(self, family):
        build = BUILDERS[family]
        for n in (np.int64(7), np.uint16(7), np.int8(7)):
            t = build(n)
            assert t == build(7) and type(t.n) is int

    @pytest.mark.parametrize("family", BUILDERS)
    @pytest.mark.parametrize(
        "n", [7.0, np.float64(7), True, 0, -3],
        ids=["float", "numpy_float", "bool", "zero", "negative"],
    )
    def test_sizes_must_be_positive_integers(self, family, n):
        with pytest.raises(ValueError, match="vertex count must be a positive integer"):
            BUILDERS[family](n)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_coin_stream_draws_share_one_raw_stream(self, seed):
        raw = [int(x) for x in np.random.PCG64(seed).random_raw(6)]
        seeds = CoinStream(seed)
        assert [seeds.seed64() for _ in range(6)] == raw
        bounded = CoinStream(seed)
        assert [bounded.below(1000) for _ in range(6)] == [x % 1000 for x in raw]
        assert CoinStream(seed).take(6).tolist() == [x >> 63 for x in raw]
        empty = CoinStream(seed).take(0)
        assert empty.dtype == np.uint8 and empty.shape == (0,)
        # coins are drawn in blocks: a count over several blocks, and two
        # takes that split one block, read the same stream as one take
        count = 3 * core._BLOCK_ENTRIES + 5
        coins = CoinStream(seed).take(count)
        assert coins.dtype == np.uint8
        assert np.array_equal(coins, np.random.PCG64(seed).random_raw(count) >> 63)
        split = CoinStream(seed)
        first = split.take(core._BLOCK_ENTRIES + 7)
        second = split.take(count - len(first))
        assert np.array_equal(np.concatenate([first, second]), coins)

    @pytest.mark.parametrize(
        "draw, value",
        [
            ("below", 0), ("below", -3), ("below", 1.5), ("below", True),
            ("take", -1), ("take", 2.0), ("take", True),
        ],
    )
    def test_coin_stream_counts_follow_the_count_rule(self, draw, value):
        # [0, bound) is empty for a bound below 1, and a float or bool is no count
        with pytest.raises(ValueError, match="bound must be|count must be"):
            getattr(CoinStream(1), draw)(value)

    def test_generate_dispatch(self):
        assert generate("transitive", 4) == transitive_tournament(4)
        assert generate("paley", 7) == paley_tournament(7)
        assert generate("rotational", 5) == rotational_tournament(5)
        assert generate("random", 5, seed=9) == random_tournament(5, 9)

    def test_generate_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("bipartite", 4)

    def test_single_vertex(self):
        t = transitive_tournament(1)
        assert t.bits == b""
        assert edge_sign(t, 0, 0) == 0


class TestPackedStorage:
    """A tournament keeps one bit per pair.  n(n-1)/2 mod 8, which sets the
    padding of the last packed byte, takes every residue for n = 1..10."""

    @staticmethod
    def random_bits(n):
        return np.random.default_rng(n).integers(0, 2, n * (n - 1) // 2, dtype=np.uint8)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_buffer_builds_one_value(self, n):
        bits = self.random_bits(n)
        ts = [
            Tournament(n, bits.tobytes()),
            Tournament(n, bytearray(bits.tobytes())),
            Tournament(n, bits),
            Tournament(n, bits.astype(bool)),
        ]
        assert all(t == ts[0] and hash(t) == hash(ts[0]) for t in ts)
        assert all(type(t.bits) is bytes and t.bits == bits.tobytes() for t in ts)

    def test_non_contiguous_buffer_builds_its_copy(self):
        # a strided view is copied to contiguous bytes before it is read
        bits = (np.arange(12, dtype=np.uint8) // 2 % 2)[::2]
        assert not bits.flags.c_contiguous
        t, copy = Tournament(4, bits), Tournament(4, bits.copy())
        assert t == copy and hash(t) == hash(copy)
        assert t.bits == bytes([0, 1, 0, 1, 0, 1])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_reverse_clears_the_padding(self, n):
        bits = self.random_bits(n)
        t = Tournament(n, bits)
        # equality runs on the packed bytes: a padding bit left set fails it
        assert reverse(t) == Tournament(n, 1 - bits)
        assert reverse(reverse(t)) == t

    @pytest.mark.parametrize("n", range(1, 11))
    def test_edge_sign_reads_the_stored_bit(self, n):
        t = Tournament(n, self.random_bits(n))
        for u in range(n):
            for v in range(u + 1, n):
                sign = 2 * t.bits[core.pair_index(n, u, v)] - 1
                assert (edge_sign(t, u, v), edge_sign(t, v, u)) == (sign, -sign)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_constructor_messages(self, n):
        bits = bytearray(self.random_bits(n).tobytes())
        wrong = f"need {len(bits)} orientation bits for n={n}, got {len(bits) + 1}"
        with pytest.raises(ValueError, match=re.escape(wrong)):
            Tournament(n, bits + b"\x00")
        if bits:
            bits[-1] = 2
            with pytest.raises(ValueError, match="orientation bits must be 0 or 1"):
                Tournament(n, bits)

    def test_values_hold_one_bit_per_pair(self):
        n = 1500
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            kept = [random_tournament(n, s) for s in range(4)]
            grown = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert len(kept) == 4
        # one byte per pair would hold 4 x 1,124,250 bytes
        assert grown <= 4 * (-(-n * (n - 1) // 16) + 1024)


class TestSymmetries:
    def test_reverse_of_transitive(self):
        t = reverse(transitive_tournament(5))
        for i in range(5):
            for j in range(i + 1, 5):
                assert edge_sign(t, j, i) == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reverse_involution(self, seed):
        t = random_tournament(7, seed)
        assert reverse(reverse(t)) == t

    def test_relabel_identity(self):
        t = random_tournament(6, 5)
        assert relabel(t, range(6)) == t

    def test_relabel_roundtrip(self):
        t = random_tournament(7, 11)
        perm = [3, 6, 0, 2, 5, 1, 4]
        inv = [perm.index(i) for i in range(7)]
        assert relabel(relabel(t, perm), inv) == t

    def test_relabel_moves_edges(self):
        t = transitive_tournament(3)
        swapped = relabel(t, [1, 0, 2])
        assert edge_sign(swapped, 1, 0) == 1  # old 0 -> 1 edge

    def test_relabel_rejects_non_permutation(self):
        t = random_tournament(4, 0)
        for perm in ([0, 1, 2, 2], [0, 1], [0, 1, 2, 3, 3]):
            with pytest.raises(ValueError, match=r"^perm must be a permutation of 0\.\.3$"):
                relabel(t, perm)

    @pytest.mark.parametrize(
        ("perm", "shown"),
        [
            ([0.0, 1.9, 2.2], "0.0"),
            ([2.0, 0.0, 1.0], "2.0"),
            (["0", "1", "2"], "'0'"),
            # True == 1 as a number: these read as permutations if taken as ints
            ([True, 0, 2], "True"),
            ([2, 1, False], "False"),
            (np.array([True, False, True]), "np.True_"),
        ],
        ids=[f"perm{i}" for i in range(6)],
    )
    def test_relabel_rejects_non_integer_entries(self, perm, shown):
        message = f"^vertex {re.escape(shown)} out of range for n=3$"
        with pytest.raises(ValueError, match=message):
            relabel(transitive_tournament(3), perm)

    def test_relabel_accepts_numpy_integers(self):
        t = random_tournament(5, 3)
        perm = [2, 4, 0, 1, 3]
        expected = relabel(t, perm)
        assert relabel(t, np.array(perm, dtype=np.int32)) == expected
        assert relabel(t, np.array(perm, dtype=np.uint64)) == expected
        assert relabel(t, [np.int64(x) for x in perm]) == expected


class TestTrnFormat:
    def test_encode_c3(self):
        # pairs (0,1), (0,2), (1,2): 0->1 yes, 0->2 no, 1->2 yes
        assert encode(c3()) == b"TRN1 3\n101\n"

    def test_encode_single_vertex(self):
        assert encode(transitive_tournament(1)) == b"TRN1 1\n\n"

    def test_decode_single_vertex(self):
        assert decode(b"TRN1 1\n\n") == transitive_tournament(1)

    def test_decode_rejects_short_bitstring(self):
        with pytest.raises(ParseError):
            decode(b"TRN1 3\n10\n")

    def test_decode_rejects_bad_magic(self):
        with pytest.raises(ParseError) as exc:
            decode(b"TRN2 3\n101\n")
        assert exc.value.position == 0

    def test_decode_rejects_bad_count(self):
        with pytest.raises(ParseError):
            decode(b"TRN1 x\n\n")
        with pytest.raises(ParseError):
            decode(b"TRN1 0\n\n")

    def test_decode_rejects_illegal_character(self):
        with pytest.raises(ParseError) as exc:
            decode(b"TRN1 3\n1a1\n")
        assert exc.value.position == 8

    def test_decode_names_illegal_byte_before_trailing_data(self):
        with pytest.raises(ParseError) as exc:
            decode(b"TRN1 3\n1a1\nx")
        assert str(exc.value) == "illegal character 'a' in bit string (at byte 8)"

    def test_decode_rejects_missing_trailing_newline(self):
        with pytest.raises(ParseError):
            decode(b"TRN1 3\n101")

    def test_decode_rejects_trailing_data(self):
        with pytest.raises(ParseError):
            decode(b"TRN1 3\n101\nx")

    def test_decode_rejects_missing_header_newline(self):
        with pytest.raises(ParseError):
            decode(b"TRN1 3")

    def test_decode_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            decode("TRN1 1\n\n")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_roundtrip_random(self, seed):
        t = random_tournament(11, seed)
        assert decode(encode(t)) == t

    @pytest.mark.parametrize(
        "t",
        [
            transitive_tournament(1),
            transitive_tournament(2),
            transitive_tournament(9),
            rotational_tournament(9),
            paley_tournament(11),
        ],
    )
    def test_roundtrip_families(self, t):
        assert decode(encode(t)) == t


# --- the vectorized core against per-pair definitions ------------------
#
# The references below walk every pair in Python, the way the definitions
# read; they share no code with the array operations in qrtour.core.


def _relabel_reference(t, perm):
    inv = [0] * t.n
    for i, p in enumerate(perm):
        inv[p] = i
    return bytes(
        1 if edge_sign(t, inv[a], inv[b]) > 0 else 0
        for a in range(t.n)
        for b in range(a + 1, t.n)
    )


def _circulant_reference(n, arcs):
    return bytes(1 if (v - u) % n in arcs else 0 for u in range(n) for v in range(u + 1, n))


# sizes around the row blocks of the core loops (``core._BLOCK_ENTRIES // n``
# rows each): one block up to n = 256, several at n = 700; and around the
# 256-side tiles of sign_array's lower triangle: one tile up to n = 256, a
# second at 257 and a third at 513
BLOCK_SIZES = [1, 2, 63, 64, 65, 129, 200, 255, 256, 257, 513, 700]


def _check_blocked_core(t):
    # sign_array and out_words against edge_sign pair by pair (out_words:
    # column v, word w, bit j set when v -> 64 w + j); relabel against the loop
    n = t.n
    signs = [[edge_sign(t, u, v) for v in range(n)] for u in range(n)]
    assert sign_array(t).tolist() == signs
    outs = [sum(1 << y for y, sign in enumerate(row) if sign > 0) for row in signs]
    words = core.out_words(t)
    assert words.dtype == np.dtype("<u8") and not words.flags.writeable
    assert words.tolist() == [
        [out >> 64 * w & (2**64 - 1) for out in outs] for w in range(-(-n // 64))
    ]
    perm = np.random.default_rng(n).permutation(n).tolist()
    assert relabel(t, perm).bits == _relabel_reference(t, perm)


class TestVectorizedCore:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_relabel_matches_pair_loop(self, n):
        t = random_tournament(n, n)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(n).tolist()
            assert relabel(t, perm).bits == _relabel_reference(t, perm)

    @pytest.mark.parametrize("n", [3, 7, 11, 43, 103])
    def test_rotational_matches_pair_loop(self, n):
        arcs = set(range(1, (n - 1) // 2 + 1))
        assert rotational_tournament(n).bits == _circulant_reference(n, arcs)

    @pytest.mark.parametrize("p", [3, 7, 11, 43, 103])
    def test_paley_matches_pair_loop(self, p):
        residues = {x * x % p for x in range(1, p)}
        assert paley_tournament(p).bits == _circulant_reference(p, residues)

    @pytest.mark.parametrize(
        "t",
        [random_tournament(300, 5), paley_tournament(307), rotational_tournament(301)],
        ids=["random", "paley", "rotational"],
    )
    def test_reverse_twice_is_identity(self, t):
        once = reverse(t)
        assert once.bits == bytes(1 - b for b in t.bits)
        assert reverse(once) == t

    def test_codec_roundtrip_n300(self):
        t = random_tournament(300, 17)
        data = encode(t)
        assert data == b"TRN1 300\n" + bytes(48 + b for b in t.bits) + b"\n"
        assert decode(data) == t

    def test_decode_reports_first_of_several_illegal_bytes(self):
        body = bytearray(b"01" * 14)  # n = 8: 28 bits
        body[5] = ord("x")
        body[9] = ord("/")  # just below '0'
        body[20] = ord("2")  # just above '1'
        with pytest.raises(ParseError) as exc:
            decode(b"TRN1 8\n" + bytes(body) + b"\n")
        assert exc.value.position == len(b"TRN1 8\n") + 5
        assert "'x'" in str(exc.value)
        body[5] = ord("1")
        with pytest.raises(ParseError) as exc:
            decode(b"TRN1 8\n" + bytes(body) + b"\n")
        assert exc.value.position == len(b"TRN1 8\n") + 9

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_sign_array_int8_readonly_skew(self, n):
        t = random_tournament(n, n)
        a = sign_array(t)
        assert a.dtype == np.int8 and a.shape == (n, n)
        assert not a.flags.writeable
        assert (a == -a.T).all()
        for u in range(n):
            for v in range(n):
                assert a[u, v] == edge_sign(t, u, v)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_blocked_core_matches_pair_loops(self, n):
        assert core._BLOCK_ENTRIES // 700 < 700  # n = 700 spans several blocks
        assert math.isqrt(core._BLOCK_ENTRIES) == 256  # the tile side
        _check_blocked_core(random_tournament(n, n))

    @pytest.mark.parametrize(
        "t",
        [transitive_tournament(700), rotational_tournament(701), paley_tournament(719)],
        ids=["transitive", "rotational", "paley"],
    )
    def test_blocked_core_on_structured_families(self, t):
        _check_blocked_core(t)


class TestCoreMemory:
    """Traced peaks at n = 1000, in bytes per n^2 (the sign matrix is 1):
    the core layer holds at most one n x n array at a time."""

    N = 1000

    def peak(self, call):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - held) / self.N**2
        finally:
            tracemalloc.stop()

    def test_random_tournament(self):
        assert self.peak(lambda: random_tournament(self.N, 5)) <= 1.5

    def test_sign_array(self):
        t = random_tournament(self.N, 5)
        sign_array.cache_clear()
        assert self.peak(lambda: sign_array(t)) <= 2.1

    def test_relabel_with_sign_array_cached(self):
        t = random_tournament(self.N, 5)
        sign_array(t)
        perm = np.random.default_rng(0).permutation(self.N).tolist()
        assert self.peak(lambda: relabel(t, perm)) <= 1.3

    def test_out_words_with_sign_array_cached(self):
        t = random_tournament(self.N, 5)
        sign_array(t)
        core.out_words.cache_clear()
        assert self.peak(lambda: core.out_words(t)) <= 0.4

    def test_encode_holds_one_text_buffer(self):
        # the digit array and the joined output, each n(n-1)/2 bytes
        t = random_tournament(self.N, 5)
        assert self.peak(lambda: encode(t)) <= 1.05


class TestCoreCaches:
    """``sign_array`` and ``out_words`` each keep the tournament in use, and
    a caller working on one tournament builds each array once."""

    @staticmethod
    def traffic(cached):
        info = cached.cache_info()
        return info.hits, info.misses

    def test_the_previous_tournament_is_freed(self):
        t1, t2 = random_tournament(60, 1), random_tournament(60, 2)
        disc_localsearch(t1, 2, 0)
        ref = weakref.ref(t1)
        witness_vectors(t2, [0])
        del t1
        assert ref() is None

    def test_one_build_per_report(self):
        t = random_tournament(60, 3)
        sign_array.cache_clear()
        core.out_words.cache_clear()
        disc_localsearch(t, 2, 0)
        assert self.traffic(sign_array) == (2, 1)
        assert self.traffic(core.out_words) == (0, 1)

    def test_one_build_for_repeated_queries(self):
        t = random_tournament(60, 4)
        core.out_words.cache_clear()
        disc_given(t, [0, 1], [2, 3])
        witness_vectors(t, [5, 7])
        disc_given(t, range(30), range(30, 60))
        assert self.traffic(core.out_words) == (2, 1)


class TestCirculantArc:
    """``core._toeplitz_row``: the circulant and the skew-circulant rule."""

    @pytest.mark.parametrize("n", [3, 5, 9, 45, 301])
    def test_rotational(self, n):
        t = rotational_tournament(n)
        a, skew = core._toeplitz_row(t)
        assert a.dtype == np.int8 and not skew
        assert a.tolist() == [0] + [1] * ((n - 1) // 2) + [-1] * ((n - 1) // 2)
        assert np.array_equal(a, sign_array(t)[0])

    @pytest.mark.parametrize("p", [3, 7, 43, 307])
    def test_paley(self, p):
        t = paley_tournament(p)
        residues = {x * x % p for x in range(1, p)}
        a, skew = core._toeplitz_row(t)
        assert not skew
        assert a.tolist() == [0] + [1 if d in residues else -1 for d in range(1, p)]
        assert np.array_equal(a, sign_array(t)[0])

    @pytest.mark.parametrize("n, seed", [(3, 0), (7, 1), (9, 2), (61, 3), (201, 4)])
    def test_random_circulant_round_trips(self, n, seed):
        t, arc = random_circulant(n, seed)
        a, skew = core._toeplitz_row(t)
        assert not skew
        assert a.tolist() == [0, *(2 * arc[1:] - 1)]
        assert np.array_equal(a, sign_array(t)[0])
        assert core._circulant(n, a > 0) == t

    def test_rotation_reversal_and_scaling_stay_circulant(self):
        t = paley_tournament(43)
        a, _ = core._toeplitz_row(t)
        shifted = relabel(t, [(v + 5) % 43 for v in range(43)])
        # 3 is no square mod 43: v -> 3v maps Paley onto its reversal
        scaled = relabel(t, [(v * 3) % 43 for v in range(43)])
        for u, row in ((shifted, a), (reverse(t), -a), (scaled, -a)):
            got, skew = core._toeplitz_row(u)
            assert got.tolist() == row.tolist() and not skew

    @pytest.mark.parametrize(
        "t, arc",
        [
            (transitive_tournament(2), [0, 1]),
            (random_tournament(2, 0), None),  # either orientation qualifies
            (transitive_tournament(3), [0, 1, 1]),  # every row is a prefix of row 0
            (transitive_tournament(41), [0] + [1] * 40),
            (reverse(transitive_tournament(40)), [0] * 40),
            *(random_skew_circulant(n, n) for n in (9, 40, 41, 200)),
        ],
        ids=[
            "n2", "random-2", "transitive-3", "transitive-41", "reversed-40",
            "skew-9", "skew-40", "skew-41", "skew-200",
        ],
    )
    def test_skew_circulant(self, t, arc):
        a, skew = core._toeplitz_row(t)
        n = t.n
        assert a.dtype == np.int8 and a[0] == 0 and skew
        assert a[1:].tolist() == a[1:][::-1].tolist()  # a[n - d] = a[d]
        if arc is not None:
            assert a[1:].tolist() == [2 * x - 1 for x in arc[1:]]
        assert np.array_equal(a, sign_array(t)[0])
        assert core._circulant(n, a > 0) == t

    @pytest.mark.parametrize(
        "t",
        [
            transitive_tournament(1),
            random_tournament(41, 1),
            random_tournament(40, 1),
            core._circulant(10, np.arange(10) <= 5),  # rows are prefixes; even n
            core._circulant(11, np.arange(11) <= 3),  # rows are prefixes; neither rule
            flip(transitive_tournament(41), 0, 1),  # breaks row 0's skew-circulant rule
            flip(transitive_tournament(41), 3, 30),  # breaks row 3 only
            flip(rotational_tournament(45), 0, 1),  # breaks row 0's circulant rule
            flip(rotational_tournament(45), 1, 10),  # breaks row 1 only
            flip(rotational_tournament(45), 20, 44),  # breaks a late row only
            flip(paley_tournament(43), 30, 31),
            relabel(paley_tournament(43), [1, 0, *range(2, 43)]),
        ],
        ids=[
            "n1", "random-41", "random-40",
            "even-prefix-rows", "odd-prefix-rows", "transitive-41-row0",
            "transitive-41-row3", "rotational-45-row0", "rotational-45-row1",
            "rotational-45-late-row",
            "paley-43-late-row", "paley-43-swap-0-1",
        ],
    )
    def test_rejects(self, t):
        assert core._toeplitz_row(t) is None

    @pytest.mark.parametrize(
        "t", [rotational_tournament(45), transitive_tournament(44)], ids=["rotational", "transitive"]
    )
    def test_rejects_every_single_flip(self, t):
        # the bit string spans at least three packed blocks of 8n bits or
        # more, so flips land in the first block, in a later one and in the
        # zero-padded rest
        for u in range(t.n):
            for v in range(u + 1, t.n):
                assert core._toeplitz_row(flip(t, u, v)) is None, (u, v)

    def test_random_input_is_rejected_from_row_0(self, monkeypatch):
        t = random_tournament(2001, 1)
        counts = []
        unpackbits = np.unpackbits

        def counted(a, *args, **kwargs):
            counts.append(a.size)
            return unpackbits(a, *args, **kwargs)

        monkeypatch.setattr(np, "unpackbits", counted)
        assert core._toeplitz_row(t) is None
        assert counts == [250]  # the bytes of row 0's 2000 bits

    def test_compares_rows_without_copying_the_bits(self):
        t = rotational_tournament(2001)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            core._toeplitz_row(t)
            assert tracemalloc.get_traced_memory()[1] - held < 16 * t.n
        finally:
            tracemalloc.stop()


class TestDoublyRegular:
    """The quadratic-residue tournaments over GF(p^r), built in the tests."""

    @pytest.mark.parametrize(
        "p, r", [(3, 3), (3, 5), (7, 3), (11, 3)], ids=["27", "243", "343", "1331"]
    )
    def test_one_arc_per_pair_and_regular(self, p, r):
        t, square = doubly_regular(p, r)
        q = p**r
        assert t.n == q and not square[0] and square.sum() == (q - 1) // 2
        # -1 is no square (q = 3 mod 4): exactly one of x and -x is a square
        weights = p ** np.arange(r)
        minus = -(np.arange(q)[:, None] // weights % p) % p @ weights
        assert np.all(square[1:] != square[minus[1:]])
        assert not np.any(sign_array(t).sum(axis=1))

    def test_gram_from_edge_signs(self):
        # G = qI - J (doubly regular), with no code shared with spectral.gram
        t, _ = doubly_regular(3, 3)
        a = np.array([[edge_sign(t, u, v) for v in range(27)] for u in range(27)])
        assert np.array_equal(a.T @ a, 27 * np.eye(27, dtype=int) - 1)
