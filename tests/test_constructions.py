import hashlib
from fractions import Fraction

import pytest

from planegraphs import (
    PointSet,
    convex_hull,
    count_plane_graphs,
    expected_degree_vector,
    flajolet_noy_approx,
    gen_cap_with_apex,
    gen_convex_chain,
    gen_triangular_hull_random,
    is_triangular_hull,
    verify_product_law,
)
from planegraphs import SelfCheckError, constructions, geometry
from planegraphs.constructions import ConstructionSpec, fn_ratio_table, v0_trend_table

from conftest import gp_violations, segments_cross_oracle


class TestConvexChain:
    def test_small_hulls(self):
        assert is_triangular_hull(gen_convex_chain(3))
        assert len(convex_hull(gen_convex_chain(5))) == 5

    def test_general_position_by_construction(self):
        # distinct parabola abscissas have pairwise distinct slopes
        assert gp_violations(gen_convex_chain(9).coords()) == []

    def test_coordinate_cap(self):
        with pytest.raises(ValueError):
            gen_convex_chain(1100)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_convex_chain(2)


class TestCapWithApex:
    def test_hull_is_expected_triangle(self):
        for n in (4, 5, 8):
            ps = gen_cap_with_apex(n)
            assert set(convex_hull(ps)) == {0, 1, n - 1}

    def test_certificate_no_apex_chord_crossing(self):
        ps = gen_cap_with_apex(6)
        pts = ps.points
        for i in range(1, 6):
            for j in range(1, 6):
                for k in range(j + 1, 6):
                    if i in (j, k):
                        continue
                    assert not segments_cross_oracle(pts[0], pts[i], pts[j], pts[k])

    def test_apex_zero_ving_fraction(self):
        # the apex is isolated in exactly the graphs with no apex edge
        for n in (4, 5, 6):
            ps = gen_cap_with_apex(n)
            dv = expected_degree_vector(ps)
            assert Fraction(dv.per_point[0][0], dv.pg) == Fraction(1, 1 << (n - 1))

    def test_cap_point_zero_ving_fractions(self):
        # dropping any cap point leaves a cap-with-apex on n-1 points, so all
        # cap points have the same isolated-vertex fraction
        n = 6
        ps = gen_cap_with_apex(n)
        dv = expected_degree_vector(ps)
        chain_count = count_plane_graphs(gen_convex_chain(n - 2))
        expected = Fraction((1 << (n - 2)) * chain_count, dv.pg)
        for p in range(1, n):
            assert Fraction(dv.per_point[p][0], dv.pg) == expected
        assert dv.vhat[0] == (n - 1) * expected + Fraction(1, 1 << (n - 1))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_cap_with_apex(3)

    def test_coordinate_cap(self):
        with pytest.raises(ValueError, match="coordinate cap"):
            gen_cap_with_apex(514)  # apex height 4 * 513^2 > 2^20

    def test_failed_certificate_is_a_self_check_error(self, monkeypatch):
        monkeypatch.setattr(constructions, "_apex_certified", lambda ps: False)
        with pytest.raises(SelfCheckError, match=r"cap_with_apex\(5\)"):
            gen_cap_with_apex(5)

    def test_certificate_refuses_a_low_apex(self):
        # at height 7 the chord (2, 5), which meets x = 0 at 2 * 5 = 10,
        # passes above the apex and crosses the apex segment (0, 4)
        ps = PointSet([(0, 7)] + [(k, -k * k) for k in range(1, 6)])
        pts = ps.points
        assert segments_cross_oracle(pts[0], pts[4], pts[2], pts[5])
        assert not constructions._apex_certified(ps)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_certificate_matches_the_oracle_at_every_height(self, n):
        # the apex (0, h) is collinear with cap points a < b iff h = a * b
        products = {a * b for a in range(1, n) for b in range(a + 1, n)}
        verdicts = set()
        for h in range(1, 4 * (n - 1) ** 2 + 1):
            if h in products:
                continue
            ps = PointSet([(0, h)] + [(k, -k * k) for k in range(1, n)])
            pts = ps.points
            clear = not any(
                segments_cross_oracle(pts[0], pts[i], pts[a], pts[b])
                for i in range(1, n)
                for a in range(1, n)
                for b in range(a + 1, n)
                if i not in (a, b)
            )
            assert constructions._apex_certified(ps) == clear
            verdicts.add(clear)
        assert verdicts == {True, False}


class TestTriangularHullRandom:
    def test_deterministic_in_seed(self):
        a = gen_triangular_hull_random(7, seed=11)
        b = gen_triangular_hull_random(7, seed=11)
        assert a == b
        assert a != gen_triangular_hull_random(7, seed=12)

    def test_hull_size_three(self):
        for seed in (1, 2, 3):
            assert is_triangular_hull(gen_triangular_hull_random(6, seed=seed))

    def test_validates(self):
        assert gp_violations(gen_triangular_hull_random(8, seed=5).coords()) == []

    def test_one_full_scan_for_the_final_set(self, monkeypatch):
        # Each candidate is tested against its own triples only; the full
        # general-position scan runs once, when the finished set is built.
        scanned = []
        real = geometry._orientations

        def counting(points):
            scanned.append(len(points))
            return real(points)

        monkeypatch.setattr(geometry, "_orientations", counting)
        gen_triangular_hull_random(20, seed=1)
        assert scanned == [20]


class TestGeneratorPins:
    # sha256 of `to_pts()` for the benchmark's generated inputs and for a
    # sweep of sizes and seeds: every generated set must stay byte-identical,
    # because benchmark references and report digests are computed on them.
    @pytest.mark.parametrize(
        "spec, sha256",
        [
            (("triangular_hull_random", 7, 1), "c1d3bbc31bc458a7d6d165f9504e7e14150ae1e78e6d0f21381a7eea2fdc34b0"),
            (("triangular_hull_random", 7, 2), "a3c994cced211cc41077394add0ad60030475440e292e482fa0c7b75bb8b4878"),
            (("triangular_hull_random", 7, 3), "eedf6a64842fda691b37b0c6cb387fbdd61edc759e0b00136ce6fe05146fcc2f"),
            (("triangular_hull_random", 12, 1), "e9bea9f5fdad7fb00f99571da88b513e6098d13ef1c4f118c6f5466b043ed0d1"),
            (("triangular_hull_random", 12, 2), "1a2deb8e7f3a0fe84a77575c2a79a21f18708649b01f2904b9d982a93c33b54e"),
            (("triangular_hull_random", 12, 3), "620a52f55300403a4d64d7614667f890a9a372980f3ae0bf5a42789a0eca0f16"),
            (("triangular_hull_random", 13, 1), "e30b489a08d1303c5282d32dbd3e77e927918b1a6d7a671b3b376a82531cbf32"),
            (("triangular_hull_random", 13, 2), "3f635e9bc3df869b6867b1f7ac61182950ba688ce589a70b0c4c563ef7a1dc00"),
            (("triangular_hull_random", 13, 3), "522ab3785adc1b25526d00e3e7030038fc9418bc7337c4ba04ab4791cd8765d9"),
            (("triangular_hull_random", 14, 1), "9aae99ecbb33bc8b0898058ce5d3810d1abc078e4ee748e7380e76786c6f5443"),
            (("triangular_hull_random", 14, 2), "157edf4b74c9fa98b0d0c70ecc552e9330007d51492ac736a4e46532f544e2bc"),
            (("triangular_hull_random", 14, 3), "ebf111980779325405997bca3cb061ada0dff4b373b18a00ad89cbaabd1bab57"),
            (("triangular_hull_random", 16, 1), "1624c8e361e46a007a4b5d67a599218034091f4c8c2a1870ba92370d726f7935"),
            (("triangular_hull_random", 16, 2), "0498533d4d9952ad9fd325c87b3a1c3444e40e3887321be92a8e467fba8c6f53"),
            (("triangular_hull_random", 16, 3), "a3355d361f1c6260ce9287193175b4dcf3ee74255ef390322e6533d0270fbce4"),
            (("cap_with_apex", 7, None), "5d5352f5f80b11025d9480231b26d6629870cfb25a0a6ee5c4e0e1366bc428a2"),
            (("convex_chain", 20, None), "f07b73fb72915d1bc3cc69b4d17bd9865eb3aaba902b6cfb3d15e6dedcb23b4c"),
            (("convex_chain", 21, None), "2080c191b494fada2ad37b78ea9f4abebfb0a3a5becd54c76b0bd141919d8037"),
        ],
    )
    def test_benchmark_inputs(self, spec, sha256):
        assert ConstructionSpec(*spec).build().sha256() == sha256

    def test_random_sweep(self):
        digest = hashlib.sha256()
        for n in range(4, 25):
            for seed in range(6):
                digest.update(gen_triangular_hull_random(n, seed).to_pts().encode())
        assert digest.hexdigest() == (
            "28163385aa47159ae14707a75de9591f098ec5fa9f27639f5c50ab3bab1012f0"
        )

    def test_cap_with_apex_sweep(self):
        digest = hashlib.sha256()
        for n in range(4, 25):
            digest.update(gen_cap_with_apex(n).to_pts().encode())
        assert digest.hexdigest() == (
            "35ea5e55b3fd3a5583d06cc7da36b1348e682a2d21b8b7b4a5f46e3c569610e6"
        )


class TestConstructionSpec:
    def test_dispatch(self):
        assert ConstructionSpec("convex_chain", 4).build() == gen_convex_chain(4)
        assert ConstructionSpec("triangular_hull_random", 5, seed=9).build() == (
            gen_triangular_hull_random(5, seed=9)
        )
        with pytest.raises(ValueError):
            ConstructionSpec("pentagon", 5).build()


class TestProductLaw:
    @pytest.mark.parametrize("n,factor", [(4, 8), (5, 16), (6, 32)])
    def test_exact(self, n, factor):
        report = verify_product_law(n)
        assert report.status == "holds"
        assert report.details["pg"] == factor * count_plane_graphs(gen_convex_chain(n - 1))

    def test_n5_values(self):
        assert count_plane_graphs(gen_cap_with_apex(5)) == 768 == 16 * 48


class TestAsymptotics:
    def test_leading_term_positive_and_growing(self):
        values = [flajolet_noy_approx(m) for m in range(3, 9)]
        assert all(v > 0 for v in values)
        assert values == sorted(values)

    def test_ratio_table_trend(self):
        rows = fn_ratio_table(8)
        ratios = {row["m"]: row["ratio"] for row in rows}
        distances = [abs(ratios[m] - 1) for m in range(4, 9)]
        assert distances == sorted(distances, reverse=True)

    def test_growth_factor_approaches_constant(self):
        rows = fn_ratio_table(9)
        growth = [row["growth_factor"] for row in rows if row["growth_factor"]]
        assert growth == sorted(growth)
        assert 9.0 < growth[-1] < 6 + 4 * 2**0.5

    def test_convex_position_invariance(self):
        # pg depends only on the crossing structure, so any convex-position
        # realization matches the parabola chain
        upward = PointSet.from_coords([(k, k * k) for k in range(5)])
        assert len(convex_hull(upward)) == 5
        assert count_plane_graphs(upward) == count_plane_graphs(gen_convex_chain(5))

    def test_v0_trend_table(self):
        rows = v0_trend_table(6)
        assert [row["n"] for row in rows] == [4, 5, 6]
        for row in rows:
            assert isinstance(row["vhat0"], Fraction)
            for c in (23.31, 23.314, 23.32):
                assert 0 < row[f"scaled_{c}"] < 5
