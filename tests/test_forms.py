"""Assembled systems: expansion oracles, symmetry, support, determinism."""

import tracemalloc

import numpy as np
import pytest

from nullctrl import forms
from nullctrl.fem import (QuadratureRule, build_space, interval_quadrature,
                          triangle_quadrature)
from nullctrl.forms import assemble_heat, assemble_oseen, assemble_stokes
from nullctrl.forward import Trajectory
from nullctrl.mesh import build_mesh
from nullctrl.pipeline import WeightedField
from nullctrl.weights import WeightSet

from oracles import (ConcatenatingBuilder, Poly2T,
                     hatted_flow_constraint_oracle, heat_constraint_oracle,
                     p2_flow_spaces, peak_over_csr_bytes, reduced_vector,
                     taylor_green_flow, taylor_green_oseen, wfun)


@pytest.fixture(scope="module")
def ws():
    return WeightSet(1.0, 1.0, 1.0, (0.5, 0.5))


@pytest.fixture(scope="module")
def small_mesh():
    return build_mesh(2, 2, 2, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))


@pytest.fixture(scope="module")
def heat_spaces(small_mesh):
    return (build_space(small_mesh, 4, 2, 1, "none"),
            build_space(small_mesh, 4, 2, 1, "zero_lateral"),
            build_space(small_mesh, 4, 2, 1, "zero_lateral_final"))


@pytest.fixture(scope="module")
def flow_spaces(small_mesh):
    return (build_space(small_mesh, 4, 2, 2, "none"),
            build_space(small_mesh, 4, 2, 2, "zero_lateral"),
            build_space(small_mesh, 4, 2, 1, "none"),
            build_space(small_mesh, 4, 2, 2, "zero_lateral"),
            build_space(small_mesh, 4, 2, 1, "none"))


def test_heat_constraint_matches_expansion_oracle(ws, small_mesh, heat_spaces):
    zsp, psp, lsp = heat_spaces
    rule = QuadratureRule.default(4, 2)
    G = 1.0
    system = assemble_heat(small_mesh, heat_spaces, ws, G, 1000.0, rule)
    rng = np.random.default_rng(42)
    bub = Poly2T.bubble(1.0, 1.0)
    for _ in range(4):
        z = Poly2T.random(rng, 4, 2)
        p = bub * Poly2T.tfactor(rng.standard_normal(3))
        lam = bub * Poly2T.tfactor([1.0, -1.0]) * Poly2T.tfactor(
            rng.standard_normal(2))
        x = reduced_vector(system, "primal",
                           z=zsp.interpolate(z.as_spacetime()),
                           p=psp.interpolate(p.as_spacetime()))
        lr = reduced_vector(system, "dual",
                            lam=lsp.interpolate(lam.as_spacetime()))
        asm = lr @ (system.B @ x)
        orc = heat_constraint_oracle(small_mesh, ws, G, z, p, lam, rule)
        assert asm == pytest.approx(orc, rel=1e-10)


def _poly_flow_inputs(rng, spaces):
    zsp, psp, ssp, lsp, msp = spaces
    bub = Poly2T.bubble(1.0, 1.0)
    zv = [Poly2T.random(rng, 4, 2, 0.5) for _ in range(2)]
    pv = [bub * Poly2T.tfactor(rng.standard_normal(3)) for _ in range(2)]
    sg = Poly2T.random(rng, 4, 2, 0.5)
    lamv = [bub * Poly2T.tfactor(rng.standard_normal(3)) for _ in range(2)]
    muv = Poly2T.random(rng, 4, 2, 0.5)
    fields = dict(
        z=zsp.interpolate(lambda X, t: np.stack([zv[0](X, t), zv[1](X, t)], -1)),
        p=psp.interpolate(lambda X, t: np.stack([pv[0](X, t), pv[1](X, t)], -1)),
        sigma=ssp.interpolate(sg.as_spacetime()),
        lam=lsp.interpolate(lambda X, t: np.stack([lamv[0](X, t), lamv[1](X, t)], -1)),
        mu=msp.interpolate(muv.as_spacetime()))
    return zv, pv, sg, lamv, muv, fields


def _ybar(X, t):
    return np.stack(
        [0.3 + 0.1 * X[..., 0] + 0.05 * np.broadcast_to(t, X[..., 0].shape),
         -0.2 + 0.07 * X[..., 1]], axis=-1)


def test_hatted_flow_constraint_matches_expansion_oracle(ws, small_mesh,
                                                         flow_spaces):
    """Normalized-variable assembly against the product-rule expansion.

    The comparison rule is raised well above the defaults because the
    integration-by-parts residual between the two routes involves the
    non-polynomial weight gradients.
    """
    tp, tw = triangle_quadrature(18)
    sp_, sw_ = interval_quadrature(14)
    fp_, fw_ = interval_quadrature(16)
    rule = QuadratureRule(tp, tw, sp_, sw_, fp_, fw_)
    nu = 0.7
    ybar = _ybar
    system = assemble_oseen(small_mesh, flow_spaces, ws, nu, ybar, wfun,
                            (0.1, 0.0), rule)
    rng = np.random.default_rng(15)
    vals, errs = [], []
    for _ in range(3):
        zv, pv, sg, lamv, muv, fields = _poly_flow_inputs(rng, flow_spaces)
        x = reduced_vector(system, "primal", z=fields["z"], p=fields["p"],
                           sigma=fields["sigma"])
        lr = reduced_vector(system, "dual", lam=fields["lam"],
                            mu=fields["mu"])
        asm = lr @ (system.B @ x)
        orc = hatted_flow_constraint_oracle(small_mesh, ws, nu, ybar, wfun,
                                            zv, pv, sg, lamv, muv, rule)
        vals.append(abs(orc))
        errs.append(abs(asm - orc))
    assert max(errs) <= 1e-8 * max(vals)


def test_oseen_with_zero_background_reduces_to_stokes(ws, small_mesh,
                                                      flow_spaces):
    rule = QuadratureRule.default(4, 2)
    s1 = assemble_stokes(small_mesh, flow_spaces, ws, 0.7, (0.1, 0.0), rule)
    s2 = assemble_oseen(small_mesh, flow_spaces, ws, 0.7, None, None,
                        (0.1, 0.0), rule)
    assert abs(s1.A - s2.A).max() == 0.0
    assert abs(s1.B - s2.B).max() == 0.0
    assert np.array_equal(s1.L, s2.L)

    # a background flow and a transported field add only transport terms,
    # in the lam rows times the p columns of B.  The extra entries change
    # the order in which the other entries of a lam row sum their
    # duplicates, so those agree to rounding; the mu rows stay bitwise.
    s3 = assemble_oseen(small_mesh, flow_spaces, ws, 0.7,
                        Trajectory("taylor_green", nu=0.7), wfun,
                        (0.1, 0.0), rule)
    for name in ("A", "M_primal", "M_dual"):
        assert abs(getattr(s1, name) - getattr(s3, name)).max() == 0.0, name
    assert np.array_equal(s1.L, s3.L)
    lam, p = s1.block("lam"), s1.block("p")
    D = (s3.B - s1.B).tocoo()
    in_lam = (D.row >= lam.offset) & (D.row < lam.offset + lam.size)
    in_p = (D.col >= p.offset) & (D.col < p.offset + p.size)
    assert np.all(D.data[~in_lam] == 0.0)
    rounding = 1e-15 * abs(s1.B).max()
    assert np.abs(D.data[in_lam & ~in_p]).max() <= rounding
    assert np.abs(D.data[in_lam & in_p]).max() > 1e-3 * abs(s1.B).max()


def _heat_system(ws, nx=4, nt=4, G=1.0, y0=1000.0):
    mesh = build_mesh(nx, nx, nt, 1.0, 1.0, 1.0, (0.25, 0.5, 0.25, 0.5))
    spaces = (build_space(mesh, 2, 2, 1, "none"),
              build_space(mesh, 2, 2, 1, "zero_lateral"),
              build_space(mesh, 2, 2, 1, "zero_lateral_final"))
    return mesh, spaces, assemble_heat(mesh, spaces, ws, G, y0)


def test_heat_system_symmetry_and_psd(ws):
    mesh, spaces, system = _heat_system(ws)
    A = system.A
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()
    rng = np.random.default_rng(0)
    for _ in range(8):
        v = rng.standard_normal(system.n_primal)
        assert v @ (A @ v) >= -1e-10 * (v @ v)


def test_heat_semidefiniteness_witness(ws):
    # a primal vector supported on control-like DOFs away from the control
    # region is an exact null vector of A
    mesh, spaces, system = _heat_system(ws)
    psp = spaces[1]
    touched = np.unique(psp.space_conn[mesh.omega_flag])
    outside = np.setdiff1d(np.arange(psp.ns_space), touched)
    x = np.zeros(system.n_primal)
    blk = system.block("p")
    rng = np.random.default_rng(1)
    full = np.zeros(psp.ndof)
    lvl = rng.integers(0, psp.ns_time, size=len(outside))
    full[lvl * psp.ns_space + outside] = rng.standard_normal(len(outside))
    x[blk.offset:blk.offset + blk.size] = full[psp.free_idx]
    assert x @ (system.A @ x) == 0.0


def test_constraint_matrix_has_no_zero_rows(ws):
    _, _, system = _heat_system(ws)
    row_sums = np.asarray(abs(system.B).sum(axis=1)).ravel()
    assert row_sums.min() > 0.0


def test_load_supported_on_initial_control_dofs(ws):
    mesh, spaces, system = _heat_system(ws)
    zsp, psp, _ = spaces
    zblk, pblk = system.block("z"), system.block("p")
    L = system.L
    assert np.abs(L[zblk.offset:zblk.offset + zblk.size]).max() == 0.0
    pfull = pblk.expand(L)
    # only time level 0 carries load
    assert np.abs(pfull[psp.ns_space:]).max() == 0.0
    assert np.abs(pfull[:psp.ns_space]).max() > 0.0


def test_zero_initial_datum_gives_zero_solution(ws):
    from nullctrl.saddle import direct_solve
    _, _, system = _heat_system(ws, y0=0.0)
    assert np.abs(system.L).max() == 0.0
    x, lam, flagged = direct_solve(system)
    assert np.abs(x).max() == 0.0


def test_assembly_deterministic(ws):
    _, _, s1 = _heat_system(ws)
    _, _, s2 = _heat_system(ws)
    assert np.array_equal(s1.A.data, s2.A.data)
    assert np.array_equal(s1.B.data, s2.B.data)
    assert np.array_equal(s1.L, s2.L)


def test_stokes_weighted_blocks_all_finite(ws):
    mesh = build_mesh(3, 3, 4, 1.0, 1.0, 1.0, (1 / 3, 2 / 3, 1 / 3, 2 / 3))
    spaces = (build_space(mesh, 2, 2, 2, "none"),
              build_space(mesh, 2, 2, 2, "zero_lateral"),
              build_space(mesh, 2, 2, 1, "none"),
              build_space(mesh, 2, 2, 2, "zero_lateral"),
              build_space(mesh, 2, 2, 1, "none"))
    system = assemble_stokes(mesh, spaces, ws, 1.0, (1000.0, 0.0))
    assert np.all(np.isfinite(system.A.data))
    assert np.all(np.isfinite(system.B.data))
    assert np.all(np.isfinite(system.L))
    assert abs(system.A - system.A.T).max() <= 1e-12 * abs(system.A).max()


@pytest.mark.parametrize("case", ["constraint", "components", "mesh",
                                  "count", "stokes-nu", "oseen-nu"])
def test_assembly_rejects_mismatched_input(ws, small_mesh, heat_spaces,
                                           flow_spaces, case):
    z, p, lam = heat_spaces
    other = build_mesh(2, 2, 2, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    calls = {
        # p without its lateral constraint; sigma with two components
        "constraint": lambda: assemble_heat(small_mesh, (z, z, lam), ws,
                                            1.0, 1.0),
        "components": lambda: assemble_stokes(
            small_mesh, flow_spaces[:2] + flow_spaces[:1] + flow_spaces[3:],
            ws, 1.0, (1.0, 0.0)),
        "mesh": lambda: assemble_heat(
            small_mesh, (z, p, build_space(other, 4, 2, 1,
                                           "zero_lateral_final")),
            ws, 1.0, 1.0),
        # one space short of the table's rows
        "count": lambda: assemble_heat(small_mesh, (z, p), ws, 1.0, 1.0),
        "stokes-nu": lambda: assemble_stokes(small_mesh, flow_spaces, ws,
                                             0.0, (1.0, 0.0)),
        "oseen-nu": lambda: assemble_oseen(small_mesh, flow_spaces, ws, -1.0,
                                           None, None, (1.0, 0.0)),
    }
    match = {"mesh": "assembly mesh", "count": "shorter",
             "stokes-nu": "viscosity",
             "oseen-nu": "viscosity"}.get(case, "space must have")
    with pytest.raises(ValueError, match=match):
        calls[case]()


def _heat_assembly(ws, nx, nt):
    mesh = build_mesh(nx, nx, nt, 1.0, 1.0, 1.0, (0.2, 0.6, 0.2, 0.6))
    spaces = (build_space(mesh, 2, 2, 1, "none"),
              build_space(mesh, 2, 2, 1, "zero_lateral"),
              build_space(mesh, 2, 2, 1, "zero_lateral_final"))
    return lambda: assemble_heat(mesh, spaces, ws, 1.0, 1000.0)


def _stokes_assembly(ws):
    mesh = build_mesh(3, 3, 3, 1.0, 1.0, 1.0, (1 / 3, 2 / 3, 1 / 3, 2 / 3))
    spaces = p2_flow_spaces(mesh)
    return lambda: assemble_stokes(mesh, spaces, ws, 1.0, (1000.0, 0.0))


_MATRICES = ("A", "B", "M_primal", "M_dual")


def _assert_same_matrices(system, reference):
    for name in _MATRICES:
        got, want = getattr(system, name), getattr(reference, name)
        assert got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
    assert np.array_equal(system.L, reference.L)


@pytest.mark.parametrize("case", ["heat", "stokes-hatted", "oseen"])
def test_assembly_bit_identical_to_concatenating_reference(ws, monkeypatch,
                                                           case):
    assemble = {"heat": lambda: _heat_assembly(ws, 5, 3),
                "stokes-hatted": lambda: _stokes_assembly(ws),
                "oseen": taylor_green_oseen}[case]()
    system = assemble()
    monkeypatch.setattr(forms, "_Builder", ConcatenatingBuilder)
    _assert_same_matrices(system, assemble())


# row-block bounds of a target with n free rows: every 7th row, so that the
# cuts fall inside fields and inside time levels (121 P2 nodes per level on
# 5x5, 49 on 3x3), with empty blocks at both ends; one block per row; one
# block for the whole target
_CUTS = {
    "every-7th-row": lambda n: np.concatenate([[0, 0], np.arange(1, n, 7),
                                               [n, n]]),
    "every-row": lambda n: np.arange(n + 1),
    "whole": lambda n: np.array([0, n]),
}


@pytest.mark.parametrize("case,cuts", [("heat", "every-7th-row"),
                                       ("heat", "every-row"),
                                       ("heat", "whole"),
                                       ("oseen", "every-7th-row")])
def test_assembly_bits_independent_of_row_blocks(ws, monkeypatch, case,
                                                 cuts):
    assemble = {"heat": lambda: _heat_assembly(ws, 5, 3),
                "oseen": taylor_green_oseen}[case]()
    monkeypatch.setattr(forms, "_Builder", ConcatenatingBuilder)
    reference = assemble()
    monkeypatch.undo()
    monkeypatch.setattr(forms, "row_cuts",
                        lambda counts, _: _CUTS[cuts](len(counts)))
    _assert_same_matrices(assemble(), reference)


def test_assembly_of_a_target_without_terms(ws, small_mesh, heat_spaces,
                                            monkeypatch):
    """A system whose builder received no A terms: A is the empty matrix
    over the free DOFs, and the other targets keep their bits."""
    def assemble():
        bld = forms._Builder(small_mesh, heat_spaces, forms.HEAT_FIELDS)
        for batch in bld.asm.batches():
            bld.add("B", batch, ("lam", 0, "v"), ("p", 0, "t"), 1.0)
        return bld.finish()

    system = assemble()
    assert system.A.nnz == 0 and system.B.nnz > 0
    assert system.A.shape == (system.n_primal, system.n_primal)
    monkeypatch.setattr(forms, "_Builder", ConcatenatingBuilder)
    _assert_same_matrices(system, assemble())


def _assembled_matrices(assemble):
    """The assembly as a build of its CSR matrices."""
    def build():
        system = assemble()
        return [getattr(system, name) for name in _MATRICES]
    return build


def test_assembly_memory_peak_bounded_by_assembled_matrices(ws):
    # measured 3.1 (heat) and 5.6 (Oseen) with row-block conversion; the
    # whole-target conversion of preallocated COO arrays took 7.7 and 14.2
    assert peak_over_csr_bytes(
        _assembled_matrices(_heat_assembly(ws, 5, 4))) <= 5.0
    assert peak_over_csr_bytes(
        _assembled_matrices(taylor_green_oseen())) <= 10.0


def _random_w(spaces, ws, rng):
    """A transported field as the fixed point builds one: a velocity FEM
    field, here with random coefficients, times the inverse weight."""
    return WeightedField(spaces[0], 0.1 * rng.standard_normal(spaces[0].ndof),
                         ws, weight="-")


def test_fixed_part_systems_bit_identical_to_fresh_assemblies(monkeypatch):
    """Passes through one OseenFixedPart (w = 0, then two random w) return
    the matrices and load of a fresh assembly of the same w, bit for bit,
    and count the element kernels they compute."""
    spaces, ws, assemble = taylor_green_flow()
    rng = np.random.default_rng(22)
    einsum, kernels = np.einsum, []

    def counted(spec, *operands, **kwargs):
        kernels.append(spec == forms._ELEMENT)
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    fixed = forms.OseenFixedPart()
    first = assemble(None, fixed)
    # 54 terms in each of 8 batches, less the control-region mass of p on
    # the 4 batches without a control-region triangle (2 terms each)
    assert fixed.kernels == sum(kernels) == 424
    _assert_same_matrices(first, assemble(None))
    for _ in range(2):
        w = _random_w(spaces, ws, rng)
        kernels.clear()
        system = assemble(w, fixed)
        # the 6 transport terms per batch
        assert fixed.kernels == sum(kernels) == 48
        _assert_same_matrices(system, assemble(w))
        for name in ("A", "M_primal", "M_dual", "L"):
            assert getattr(system, name) is getattr(first, name)
        assert system.B is not first.B


def test_fixed_part_rejects_another_problem(ws, small_mesh, flow_spaces):
    """A fixed part serves only the problem it was filled for: another nu,
    background flow or initial datum raises, and the held problem goes on."""
    ybar, u0 = Trajectory("taylor_green"), (0.1, 0.0)
    fixed = forms.OseenFixedPart()

    def assemble(nu, background, datum):
        return assemble_oseen(small_mesh, flow_spaces, ws, nu, background,
                              wfun, datum, fixed=fixed)

    first = assemble(1.0, ybar, u0)
    for other in ((0.5, ybar, u0), (1.0, Trajectory("taylor_green"), u0),
                  (1.0, ybar, (0.2, 0.0))):
        with pytest.raises(ValueError, match="another problem"):
            assemble(*other)
    assert assemble(1.0, ybar, u0).A is first.A


def _csr_bytes(system):
    return system.L.nbytes + sum(
        M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
        for M in (getattr(system, name) for name in _MATRICES))


def test_fixed_part_holds_only_the_w_free_element_values(monkeypatch):
    """The held element values are B's terms that do not read w: with the
    terms a later pass computes they make up one assembly's B exactly, so
    neither A nor the mass values are held.  What the first pass leaves
    allocated besides its system stays below one assembly's B element
    values, and a later pass leaves nothing."""
    spaces, ws, assemble = taylor_green_flow()
    rng = np.random.default_rng(5)
    converted, added = [], []
    matrix, add = forms._Builder._matrix, forms._Builder.add

    def recorded_matrix(self, target, *args):
        converted.append((target, sum(E.nbytes
                                      for E, _, _ in self._terms[target])))
        return matrix(self, target, *args)

    def recorded_add(self, target, *args, **kwargs):
        before = len(self._terms[target])
        add(self, target, *args, **kwargs)
        added.extend(E.nbytes for E, _, _ in self._terms[target][before:])

    monkeypatch.setattr(forms._Builder, "_matrix", recorded_matrix)
    monkeypatch.setattr(forms._Builder, "add", recorded_add)
    assemble(_random_w(spaces, ws, rng))
    b_bytes = dict(converted)["B"]
    fields = [_random_w(spaces, ws, rng) for _ in range(2)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fixed = forms.OseenFixedPart()
        first = assemble(None, fixed)
        kept = tracemalloc.get_traced_memory()[0] - start - _csr_bytes(first)
        held, growth = [fixed.nbytes], []
        for w in fields:
            converted.clear()
            added.clear()
            start = tracemalloc.get_traced_memory()[0]
            system = assemble(w, fixed)
            assert converted == [("B", b_bytes)]
            del system
            growth.append(tracemalloc.get_traced_memory()[0] - start)
            held.append(fixed.nbytes)
            assert fixed.nbytes + sum(added) == b_bytes
    finally:
        tracemalloc.stop()
    assert held[0] == held[1] == held[2] < kept < b_bytes
    # 36 of the 42 terms per batch; the 4 divergence-row terms are smaller
    assert 36 / 42 - 0.05 < held[0] / b_bytes < 36 / 42 + 0.05
    assert max(growth) < 0.01 * b_bytes


@pytest.mark.parametrize("case", ["heat", "oseen"])
def test_element_kernel_path_bitwise_equal_to_optimize_true(ws, monkeypatch,
                                                            case):
    """`_Builder.add` reuses one einsum contraction path per operand shapes;
    every element block must keep the bits of a fresh optimize=True call."""
    assemble = {"heat": lambda: _heat_assembly(ws, 5, 3),
                "oseen": taylor_green_oseen}[case]()
    einsum = np.einsum
    checked = []

    def checking_einsum(spec, *operands, optimize=False):
        got = einsum(spec, *operands, optimize=optimize)
        if spec == forms._ELEMENT:
            want = einsum(spec, *operands, optimize=True)
            assert isinstance(optimize, list)   # a precomputed path
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            checked.append(tuple(op.shape for op in operands))
        return got

    monkeypatch.setattr(np, "einsum", checking_einsum)
    assemble()
    assert len(set(checked)) > 1 and len(checked) > len(set(checked))
