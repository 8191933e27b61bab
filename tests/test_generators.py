from __future__ import annotations

import json
import math

import numpy as np
import pytest

from jointsparse.errors import DomainError, DuplicateNodes
from jointsparse.generators import (
    GenSpec,
    PortableRng,
    default_nodes,
    gen_problem,
    gen_vandermonde,
    genspec_from_json,
)
from jointsparse.solvers import problem_to_json


class TestPortableRng:
    # Philox 4x64-10 raw words for key (seed, stream), frozen as the
    # portability pin: any conforming implementation must reproduce these.
    FROZEN = {
        (0, 0): [0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79, 0x907D7A052FD5B4DC],
        (1, 0): [0x4DB6A27B756282DF, 0xD944FA03BABE0E2F, 0x27F872E577060D32, 0x07F697696A0482A2],
        (0, 1): [0xD037F8C3F9A1D176, 0xC057419B4C210765, 0xABF13115117B0065, 0x7BAE035DEA6EA5C0],
    }

    def test_raw_words_frozen(self):
        for (seed, stream), words in self.FROZEN.items():
            got = PortableRng(seed, stream).raw(4)
            assert [int(w) for w in got] == words

    def test_uniform_is_shifted_top_53_bits(self):
        raw = PortableRng(0).raw(8)
        uni = PortableRng(0).uniform(8)
        expect = (raw >> np.uint64(11)) * 2.0 ** -53
        assert np.array_equal(uni, expect)

    def test_uniform_open_never_zero(self):
        u = PortableRng(3).uniform_open(10000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_normal_is_box_muller_of_uniform_pairs(self):
        u = PortableRng(7).uniform_open(8)
        z = PortableRng(7).normal(8)
        for i in range(4):
            u1, u2 = u[2 * i], u[2 * i + 1]
            r = math.sqrt(-2.0 * math.log(u1))
            assert z[2 * i] == pytest.approx(r * math.cos(2 * math.pi * u2), rel=1e-15)
            assert z[2 * i + 1] == pytest.approx(r * math.sin(2 * math.pi * u2), rel=1e-15)

    def test_normal_shape_and_order(self):
        flat = PortableRng(5).normal(6)
        shaped = PortableRng(5).normal((2, 3))
        assert shaped.shape == (2, 3)
        assert np.array_equal(shaped.ravel(), flat)

    def test_streams_differ(self):
        a = PortableRng(9, stream=0).uniform(16)
        b = PortableRng(9, stream=1).uniform(16)
        assert not np.array_equal(a, b)

    def test_subset_is_sorted_and_in_range(self):
        rng = PortableRng(11)
        for _ in range(50):
            s = rng.subset(8, 3)
            assert s == tuple(sorted(s))
            assert len(set(s)) == 3
            assert all(0 <= i < 8 for i in s)

    def test_invalid_seed(self):
        with pytest.raises(DomainError):
            PortableRng(-1)
        with pytest.raises(DomainError):
            PortableRng(1.5)


class TestVandermonde:
    def test_powers_structure(self):
        nodes = [0.5, -1.0, 2.0]
        v = gen_vandermonde(nodes, 4)
        assert v.shape == (4, 3)
        for i in range(4):
            assert np.allclose(v[i], np.array(nodes) ** i)

    def test_first_row_is_ones(self):
        assert np.array_equal(gen_vandermonde([1.0, 2.0, 3.0], 2)[0], np.ones(3))

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DuplicateNodes):
            gen_vandermonde([0.5, 0.5, 1.0], 3)

    def test_default_nodes_equispaced(self):
        nodes = default_nodes(5)
        assert nodes == (-1.0, -0.5, 0.0, 0.5, 1.0)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            gen_vandermonde([], 2)
        with pytest.raises(DomainError):
            gen_vandermonde([0.1, float("nan")], 2)
        with pytest.raises(DomainError):
            gen_vandermonde([0.1, 0.2], 0)


class TestGenSpec:
    def test_round_trip(self):
        spec = GenSpec(kind="gaussian", m=6, n=10, r=2, k=3, seed=42)
        again = genspec_from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec

    def test_round_trip_with_nodes(self):
        spec = GenSpec(kind="vandermonde", m=4, n=3, r=1, k=1, seed=0,
                       nodes=(0.1, 0.2, 0.3))
        assert genspec_from_json(json.loads(json.dumps(spec.to_json()))) == spec

    def test_numpy_integer_fields_round_trip_as_int(self):
        # counts and the seed used to be kept as given, so a numpy integer
        # made json.dumps raise TypeError
        spec = GenSpec("gaussian", np.int64(4), np.int32(6), np.int64(1), np.int64(2),
                       np.uint64(1))
        assert [type(getattr(spec, f)) for f in ("m", "n", "r", "k", "seed")] == [int] * 5
        again = genspec_from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec == GenSpec("gaussian", 4, 6, 1, 2, 1)
        assert np.array_equal(gen_problem(again).b, gen_problem(spec).b)

    def test_k_zero_allowed(self):
        spec = GenSpec(kind="gaussian", m=4, n=5, r=2, k=0, seed=1)
        prob = gen_problem(spec)
        assert not np.any(prob.planted)
        assert prob.k is None
        assert not np.any(prob.b)

    def test_k_cap(self):
        with pytest.raises(DomainError):
            GenSpec(kind="gaussian", m=4, n=5, r=1, k=3, seed=0)   # k > m//2

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            GenSpec(kind="fourier", m=4, n=5, r=1, k=1, seed=0)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DuplicateNodes):
            GenSpec(kind="vandermonde", m=4, n=3, r=1, k=1, seed=0,
                    nodes=(0.5, 0.5, 1.0))

    def test_nodes_length_must_match_n(self):
        with pytest.raises(DomainError):
            GenSpec(kind="vandermonde", m=4, n=3, r=1, k=1, seed=0, nodes=(0.1, 0.2))

    def test_unknown_json_field_rejected(self):
        with pytest.raises(DomainError):
            genspec_from_json({"kind": "gaussian", "m": 4, "n": 5, "r": 1, "k": 1,
                               "seed": 0, "extra": True})


class TestGenProblem:
    def test_planted_is_k_sparse_and_feasible(self):
        spec = GenSpec(kind="gaussian", m=8, n=12, r=3, k=4, seed=7)
        prob = gen_problem(spec)
        rownorms = np.linalg.norm(prob.planted, axis=1)
        assert int(np.sum(rownorms > 0)) == 4
        assert np.allclose(prob.a @ prob.planted, prob.b, atol=1e-12)
        assert prob.k == 4

    def test_planted_rows_not_degenerate(self):
        for seed in range(20):
            spec = GenSpec(kind="gaussian", m=6, n=9, r=2, k=3, seed=seed,
                           amplitude=2.5)
            prob = gen_problem(spec)
            rownorms = np.linalg.norm(prob.planted, axis=1)
            assert np.all(rownorms[rownorms > 0] >= 0.25)   # 0.1 * amplitude

    def test_vandermonde_kind(self):
        spec = GenSpec(kind="vandermonde", m=6, n=5, r=1, k=2, seed=3)
        prob = gen_problem(spec)
        assert np.allclose(prob.a, gen_vandermonde(default_nodes(5), 6))

    def test_identical_spec_identical_bytes(self):
        spec = GenSpec(kind="gaussian", m=5, n=8, r=2, k=2, seed=123)
        one = json.dumps(problem_to_json(gen_problem(spec)), sort_keys=True)
        two = json.dumps(problem_to_json(gen_problem(spec)), sort_keys=True)
        assert one == two

    def test_different_seeds_differ(self):
        base = dict(kind="gaussian", m=5, n=8, r=2, k=2)
        a = gen_problem(GenSpec(seed=1, **base))
        b = gen_problem(GenSpec(seed=2, **base))
        assert not np.array_equal(a.a, b.a)
