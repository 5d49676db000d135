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

from oracles import (ConcatenatingBuilder, EveryKernelBuilder, Poly2T,
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


def _assert_same_bits(system, reference):
    for name in _MATRICES:
        got, want = getattr(system, name), getattr(reference, name)
        assert got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert system.L.tobytes() == reference.L.tobytes()


def _computed_kernels(monkeypatch):
    """The (target, test, trial) of every add that computes its element
    kernel, from now on."""
    computed = []
    add = forms._Builder.add

    def recorded(self, target, batch, test, trial, *args, **kwargs):
        kernels = self.kernels
        add(self, target, batch, test, trial, *args, **kwargs)
        if self.kernels > kernels:
            computed.append((target, test, trial))

    monkeypatch.setattr(forms._Builder, "add", recorded)
    return computed


def test_kernel_reuse_bitwise_equal_to_every_kernel_assembly(ws,
                                                             monkeypatch):
    """Heat, Stokes, a single-shot Oseen system and three fixed-point passes
    with random w, each computing every distinct element kernel once (the
    passes reuse the kernels of the one before), have the bytes of an
    assembly that computes every term's kernel."""
    spaces, tg_ws, assemble = taylor_green_flow()
    rng = np.random.default_rng(23)
    fields = [_random_w(spaces, tg_ws, rng) for _ in range(3)]
    builds = [_heat_assembly(ws, 5, 3), _stokes_assembly(ws),
              taylor_green_oseen()]
    builds += [lambda w=w: assemble(w) for w in fields]
    fixed = forms.OseenFixedPart()
    systems = [build() for build in builds[:3]]
    systems += [assemble(w, fixed) for w in fields]
    monkeypatch.setattr(forms, "_Builder", EveryKernelBuilder)
    for system, build in zip(systems, builds, strict=True):
        _assert_same_bits(system, build())


def test_fixed_part_systems_bit_identical_to_fresh_assemblies(monkeypatch):
    """Passes through one OseenFixedPart (w = 0, then two random w) return
    the matrices and load of a fresh assembly of the same w, bit for bit;
    a later pass computes only the kernels of the transport terms in w."""
    spaces, ws, assemble = taylor_green_flow()
    rng = np.random.default_rng(22)
    computed = _computed_kernels(monkeypatch)
    fixed = forms.OseenFixedPart()
    first = assemble(None, fixed)
    # 54 terms in each of 8 batches, less the control-region mass of p on
    # the 4 batches without a control-region triangle (2 terms each), less
    # the terms whose kernel equals an earlier one of the same target
    assert fixed.kernels == len(computed) == 252
    _assert_same_bits(first, assemble(None))
    transport = {("B", ("lam", 0, "v"), ("p", 0, op))
                 for op in ("gx", "gy", "v")}
    for _ in range(2):
        w = _random_w(spaces, ws, rng)
        computed.clear()
        system = assemble(w, fixed)
        # the 6 transport terms per batch, 3 of them distinct: the second
        # velocity component's equal the first's
        assert fixed.kernels == len(computed) == 24
        assert set(computed) == transport
        _assert_same_bits(system, assemble(w))


def test_fixed_part_rejects_another_problem(ws, small_mesh, flow_spaces):
    """A fixed part serves only the problem it was filled for: another nu,
    background flow or initial datum raises, and the held problem goes on,
    here with the same w and so with every kernel reused."""
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
    _assert_same_bits(assemble(1.0, ybar, u0), first)
    assert fixed.kernels == 0


def _held_bytes(fixed):
    return sum(E.nbytes for kept in fixed._builder._kept.values()
               for E in kept.values())


def test_fixed_part_element_values_do_not_grow(monkeypatch):
    """A held builder keeps the distinct element values of its last
    assembly, those of a fresh assembly of the same w, and no more: from the
    second pass on (the first, with w = 0, has fewer distinct transport
    kernels) its bytes stay the same, and a pass leaves nothing else
    allocated."""
    spaces, ws, assemble = taylor_green_flow()
    rng = np.random.default_rng(5)
    computed = []
    kernel = forms._Builder._kernel

    def recorded(self, *args):
        E = kernel(self, *args)
        computed.append(E.nbytes)
        return E

    monkeypatch.setattr(forms._Builder, "_kernel", recorded)
    fields = [None] + [_random_w(spaces, ws, rng) for _ in range(3)]
    distinct = []
    for w in fields:
        computed.clear()
        assemble(w)
        distinct.append(sum(computed))
    held, growth = [], []
    tracemalloc.start()
    try:
        fixed = forms.OseenFixedPart()
        for w in fields:
            start = tracemalloc.get_traced_memory()[0]
            system = assemble(w, fixed)
            del system
            growth.append(tracemalloc.get_traced_memory()[0] - start)
            held.append(_held_bytes(fixed))
    finally:
        tracemalloc.stop()
    assert held == distinct
    assert held[0] < held[1] == held[2] == held[3]
    # the first pass keeps its element values and their keys
    assert growth[0] > held[0]
    assert max(growth[2:]) < 0.01 * held[1]


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
