"""Tests for the tournament model, generators, and .trn serialization."""

import numpy as np
import pytest

from qrtour import (
    CoinStream,
    GeneratorSpec,
    ParseError,
    Tournament,
    d_minus,
    d_plus,
    decode,
    edge_sign,
    encode,
    generate,
    paley_tournament,
    random_tournament,
    relabel,
    reverse,
    rotational_tournament,
    transitive_tournament,
)
from qrtour.core import sign_array

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
            generate(GeneratorSpec("random", 5))

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

    def test_generate_dispatch(self):
        assert generate(GeneratorSpec("transitive", 4)) == transitive_tournament(4)
        assert generate(GeneratorSpec("paley", 7)) == paley_tournament(7)
        assert generate(GeneratorSpec("rotational", 5)) == rotational_tournament(5)
        assert generate(GeneratorSpec("random", 5, seed=9)) == random_tournament(5, 9)

    def test_generate_unknown_kind(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("bipartite", 4))

    def test_single_vertex(self):
        t = transitive_tournament(1)
        assert t.bits == b""
        assert edge_sign(t, 0, 0) == 0


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
        with pytest.raises(ValueError):
            relabel(t, [0, 1, 2, 2])
        with pytest.raises(ValueError):
            relabel(t, [0, 1])

    @pytest.mark.parametrize(
        "perm", [[0.0, 1.9, 2.2], [2.0, 0.0, 1.0], ["0", "1", "2"]]
    )
    def test_relabel_rejects_non_integer_entries(self, perm):
        with pytest.raises(ValueError):
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
