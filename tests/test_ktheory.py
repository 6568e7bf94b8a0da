import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from corrdyn.errors import InvalidInputError, ResourceLimitError, UndecidedError
from corrdyn.ktheory import (
    AbelianGroupPresentation,
    IntegerMatrix,
    PimsnerInput,
    cokernel_and_kernel,
    kgroup_table,
    monomial_family_input,
    pimsner_solve,
    product_family_input,
    smith_normal_form,
)

matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


class TestSNF:
    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([[2]], [2]),
            ([[1, 0], [0, 0]], [1, 0]),
            ([[2, 4], [6, 8]], [2, 4]),
            ([[1, 1]], [1]),
            ([[2, 0], [0, 3]], [1, 6]),  # 2 does not divide 3: row 1 is added into row 0
        ],
    )
    def test_examples(self, rows, expected):
        assert smith_normal_form(IntegerMatrix.of(rows)) == expected

    @given(matrices)
    @settings(max_examples=200, deadline=None)
    def test_factorization_properties(self, rows):
        diag = smith_normal_form(IntegerMatrix.of(rows))
        # sympy's invariant factors are an independent reference
        assert diag == [int(d) for d in invariant_factors(Matrix(rows), domain=ZZ)]
        nonzero = [d for d in diag if d]
        assert all(d >= 0 for d in diag)
        assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

    @given(matrices)
    @settings(max_examples=50, deadline=None)
    def test_cokernel_invariant_under_row_shuffle(self, rows):
        M = IntegerMatrix.of(rows)
        shuffled = IntegerMatrix.of(list(reversed(rows)))
        assert cokernel_and_kernel(M)[0] == cokernel_and_kernel(shuffled)[0]


class TestGroups:
    def test_render(self):
        assert AbelianGroupPresentation(0).render() == "0"
        assert AbelianGroupPresentation(1).render() == "Z"
        assert AbelianGroupPresentation(2, (3,)).render() == "Z^2 (+) Z/3"

    def test_rejects_bad_chain(self):
        with pytest.raises(InvalidInputError):
            AbelianGroupPresentation(0, (4, 6))


class TestCokernelKernel:
    def test_multiplication_map(self):
        assert cokernel_and_kernel(IntegerMatrix.of([[4]]))[0] == AbelianGroupPresentation(0, (4,))
        assert cokernel_and_kernel(IntegerMatrix.of([[0]]))[0] == AbelianGroupPresentation(1)
        assert cokernel_and_kernel(IntegerMatrix.of([[0]]))[1] == AbelianGroupPresentation(1)
        assert cokernel_and_kernel(IntegerMatrix.of([[1, 1]]))[0] == AbelianGroupPresentation(0)
        assert cokernel_and_kernel(IntegerMatrix.of([[1, 1]]))[1] == AbelianGroupPresentation(1)

    def test_one_smith_normal_form_per_map(self, monkeypatch):
        from corrdyn import ktheory

        seen = []

        def counting(M):
            seen.append(M)
            return smith_normal_form(M)

        monkeypatch.setattr(ktheory, "smith_normal_form", counting)
        inp = monomial_family_input(4, 3)
        assert pimsner_solve(inp) == (AbelianGroupPresentation(0, (3,)),
                                      AbelianGroupPresentation(0, (2,)))
        assert seen == [inp.map0, inp.map1]


def closed_form_monomial(m, n):
    Z = AbelianGroupPresentation
    if m == 1 and n == 1:
        return Z(2), Z(2)
    if n == 1:
        k0 = Z(1, (m - 1,)) if m > 2 else Z(1)
        return k0, Z(1)
    if m == 1:
        k1 = Z(1, (n - 1,)) if n > 2 else Z(1)
        return Z(1), k1
    k0 = Z(0, (m - 1,)) if m > 2 else Z(0)
    k1 = Z(0, (n - 1,)) if n > 2 else Z(0)
    return k0, k1


class TestMonomialFamily:
    def test_all_cases_to_six(self):
        for m in range(1, 7):
            for n in range(1, 7):
                k0, k1 = pimsner_solve(monomial_family_input(m, n))
                e0, e1 = closed_form_monomial(m, n)
                assert (k0, k1) == (e0, e1), (m, n)

    def test_duality_swap(self):
        for m in range(2, 6):
            for n in range(2, 6):
                k0a, k1a = pimsner_solve(monomial_family_input(m, n))
                k0b, k1b = pimsner_solve(monomial_family_input(n, m))
                assert k0a.torsion == k1b.torsion
                assert k1a.torsion == k0b.torsion

    def test_table(self):
        rows = kgroup_table(3, 3)
        assert len(rows) == 9
        lookup = {(m, n): (k0.render(), k1.render()) for m, n, k0, k1 in rows}
        assert lookup[(1, 1)] == ("Z^2", "Z^2")
        assert lookup[(2, 2)] == ("0", "0")
        assert lookup[(3, 3)] == ("Z/2", "Z/2")

    def test_table_cap(self):
        # an enumeration cap, refused as a resource limit (exit 3)
        with pytest.raises(ResourceLimitError):
            kgroup_table(21, 1)

    def test_table_equals_per_entry_solves(self):
        # every table to the cap against one six-term solve per entry
        solved = {(m, n): pimsner_solve(monomial_family_input(m, n))
                  for m in range(1, 21) for n in range(1, 21)}
        for max_m in range(1, 21):
            for max_n in range(1, 21):
                want = [(m, n, *solved[m, n])
                        for m in range(1, max_m + 1) for n in range(1, max_n + 1)]
                rows = kgroup_table(max_m, max_n)
                assert rows == want, (max_m, max_n)
                assert [(k0.render(), k1.render()) for _, _, k0, k1 in rows] == [
                    (k0.render(), k1.render()) for _, _, k0, k1 in want], (max_m, max_n)

    def test_table_reduces_each_degree_once(self, monkeypatch):
        # one Smith normal form per m (its map0) and per n (its map1)
        from corrdyn import ktheory

        seen = []

        def counting(M):
            seen.append(M.entries)
            return smith_normal_form(M)

        monkeypatch.setattr(ktheory, "smith_normal_form", counting)
        for max_m in range(1, 21):
            for max_n in range(1, 21):
                seen.clear()
                kgroup_table(max_m, max_n)
                assert len(seen) == max_m + max_n
                assert sorted(seen) == sorted(
                    [((1 - m,),) for m in range(1, max_m + 1)]
                    + [((1 - n,),) for n in range(1, max_n + 1)])

    def test_table_groups_keyed_by_degree_not_by_hash(self, monkeypatch, capsys):
        # the table and its rendering share groups without hashing or
        # comparing them: one group per degree index and kernel rank
        from corrdyn import cli, ktheory

        assert cli.main(["kgroups", "--table", "20", "20"]) == 0
        want = capsys.readouterr().out

        def refused(*args):
            raise AssertionError("a group was hashed or compared")

        monkeypatch.setattr(AbelianGroupPresentation, "__hash__", refused)
        monkeypatch.setattr(AbelianGroupPresentation, "__eq__", refused)
        solved = []
        monkeypatch.setattr(ktheory, "_solve_extension", lambda sub, quot: solved.append(
            quot.rank) or AbelianGroupPresentation(sub.rank + quot.rank, sub.torsion))
        assert cli.main(["kgroups", "--table", "20", "20"]) == 0
        assert capsys.readouterr().out == want
        # kernels of [1 - k] have rank 1 at k = 1 and 0 after: two per m and n
        assert sorted(solved) == [0] * 40 + [1] * 40
        K0 = {(m, n): k0 for m, n, k0, _ in kgroup_table(4, 3)}
        assert all(K0[m, 2] is K0[m, 3] is not K0[m, 1] for m in range(1, 5))

    def test_cli_poly_matches_table_row(self, capsys):
        from corrdyn import cli

        assert cli.main(["kgroups", "--table", "6", "6"]) == 0
        table = json.loads(capsys.readouterr().out)["table"]
        for row in table:
            spec = json.dumps({"family": "monomial", "m": row["m"], "n": row["n"]})
            assert cli.main(["kgroups", "--poly", spec]) == 0
            report = json.loads(capsys.readouterr().out)
            assert (report["K0"], report["K1"]) == (row["K0"], row["K1"]), spec
        assert len(table) == 36


class TestProductFamily:
    def test_two_factor_ranks(self):
        for m in range(2, 7):
            for n in range(m + 1, 7):
                inp = product_family_input([m, n])
                assert inp.K1_IX.rank == n - m  # b branched circle points
                k0, k1 = pimsner_solve(inp)
                assert k0 == AbelianGroupPresentation(n - m)
                assert k1 == AbelianGroupPresentation(0)

    def test_three_factors(self):
        inp = product_family_input([2, 3, 5])
        k0, k1 = pimsner_solve(inp)
        assert k0.rank == inp.K1_IX.rank and not k0.torsion
        assert k1 == AbelianGroupPresentation(0, (2,))

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidInputError):
            product_family_input([2, 2, 3])

    @pytest.mark.parametrize("exps", [[2, 5], [3, 4], [2, 3, 4], [2, 4, 5], [2, 3, 4, 5],
                                      [1, 3, 4, 6]])
    def test_branch_half_alone(self, monkeypatch, exps):
        # the input built from the branch points on the circle of
        # branched_sets, with branched_sets refused while
        # product_family_input runs: it solves the branch half of p only
        from corrdyn import correspondence
        from corrdyn.correspondence import Correspondence
        from corrdyn.polyalg import BivariatePolynomial as BP

        corr = Correspondence(BP.product([BP.graph_of_power(e) for e in exps]))
        b = len(corr.branched_sets(restrict_to="circle").branch_points)
        want = PimsnerInput(
            K0_IX=AbelianGroupPresentation(0), K1_IX=AbelianGroupPresentation(b),
            K0_A=AbelianGroupPresentation(1), K1_A=AbelianGroupPresentation(1),
            map0=IntegerMatrix.zero(1, 0), map1=IntegerMatrix.of([[1 - len(exps)] * b]),
            label=f"product({','.join(map(str, exps))})")

        def refuse(*args, **kwargs):
            raise AssertionError("product_family_input solved the cobranch half")

        grids, branching = [], correspondence._branching
        monkeypatch.setattr(Correspondence, "branched_sets", refuse)
        monkeypatch.setattr(correspondence, "_branching",
                            lambda F: grids.append(F) or branching(F))
        assert product_family_input(exps) == want
        assert len(grids) == 1


class TestSolverGuards:
    def test_torsion_input_refused(self):
        Z = AbelianGroupPresentation
        with pytest.raises(InvalidInputError):
            PimsnerInput(
                K0_IX=Z(0, (2,)),
                K1_IX=Z(1),
                K0_A=Z(1),
                K1_A=Z(1),
                map0=IntegerMatrix.of([[0]]),
                map1=IntegerMatrix.of([[0]]),
            )

    def test_shape_mismatch(self):
        Z = AbelianGroupPresentation
        with pytest.raises(InvalidInputError):
            PimsnerInput(
                K0_IX=Z(2),
                K1_IX=Z(1),
                K0_A=Z(1),
                K1_A=Z(1),
                map0=IntegerMatrix.of([[1]]),
                map1=IntegerMatrix.of([[1]]),
            )
