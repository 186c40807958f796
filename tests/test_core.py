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

SEEDS = [0, 1, 7, 42, 1234567, 2**63 + 11]


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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_coin_stream_draws_share_one_raw_stream(self, seed):
        raw = [int(x) for x in np.random.PCG64(seed).random_raw(6)]
        seeds = CoinStream(seed)
        assert [seeds.seed64() for _ in range(6)] == raw
        bounded = CoinStream(seed)
        assert [bounded.below(1000) for _ in range(6)] == [x % 1000 for x in raw]
        assert CoinStream(seed).take(6).tolist() == [x >> 63 for x in raw]

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
