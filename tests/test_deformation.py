import json
import weakref

import numpy as np
import pytest

from matword import deformation
from matword.deformation import (
    DeformationError,
    InstanceError,
    InstanceSpec,
    connect_algebraic,
    connect_commuting,
    connect_soft_algebraic,
    generate_instance,
    min_root_gap,
    verify_aulpac,
    verify_ulpac,
)
from matword.approximants import ApproximantError
from matword.linalg import (
    ClusteringError,
    JointDiagonalizationError,
    LinalgError,
    NormalTuple,
    operator_norm,
)
from matword.minpoly import PolyC, poly_eval_matrix, poly_residual
from matword.paths import NormalityConstraint, PathError
from matword.sampling import unitary_near_identity
from path_oracles import spectrum_drift

Z2M1 = PolyC((-1.0, 0.0, 1.0))  # z^2 - 1


class TestGenerateInstance:
    def test_delta_zero_gives_equal_pair(self):
        spec = InstanceSpec("cube", 2, 6, 0.0, seed=5)
        x, y = generate_instance(spec)
        assert all(np.array_equal(a, b) for a, b in zip(x, y))

    def test_cube_is_commuting_hermitian_contractions(self):
        spec = InstanceSpec("cube", 3, 8, 0.05, seed=9)
        x, y = generate_instance(spec)
        for t in (x, y):
            assert t.commutator_bound <= 1e-12
            assert max(operator_norm(m) for m in t) - 1.0 <= 1e-12
            for m in t:
                assert operator_norm(m - np.conj(m.T)) <= 1e-12

    def test_pair_distance_within_delta(self):
        spec = InstanceSpec("cube", 2, 10, 0.07, seed=13)
        x, y = generate_instance(spec)
        assert max(operator_norm(a - b) for a, b in zip(x, y)) <= 0.07 * (1 + 1e-9)

    def test_sphere_relation_exact_before_perturbation(self):
        spec = InstanceSpec("sphere", 3, 10, 0.0, seed=2, eps_alg=0.0)
        x, _ = generate_instance(spec)
        total = sum(m @ m for m in x.matrices)
        assert operator_norm(total - np.eye(10)) <= 1e-12

    def test_sphere_perturbation_within_slack(self):
        spec = InstanceSpec("sphere", 2, 8, 0.0, seed=4, eps_alg=1e-3)
        x, _ = generate_instance(spec)
        total = sum(m @ m for m in x.matrices)
        assert operator_norm(total - np.eye(8)) <= 1e-3 + 1e-12

    def test_polynomial_seeding_first_order_residual(self):
        spec = InstanceSpec("cube", 2, 12, 0.0, seed=6, polys=(Z2M1,), eps_alg=1e-3)
        x, _ = generate_instance(spec)
        for m in x:
            # spectra at +/-1 +/- 1e-3, so |z^2 - 1| <= 2e-3 + O(1e-6)
            assert poly_residual(Z2M1, m) <= 2e-3 + 1e-5

    def test_exact_roots_preserved_with_rotation_only(self):
        spec = InstanceSpec("cube", 2, 8, 0.05, seed=8, polys=(Z2M1,), eps_alg=0.0)
        x, y = generate_instance(spec)
        for t in (x, y):
            for m in t:
                assert poly_residual(Z2M1, m) <= 1e-12

    def test_deterministic_for_fixed_seed(self):
        spec = InstanceSpec("cube", 2, 6, 0.02, seed=31)
        x1, y1 = generate_instance(spec)
        x2, y2 = generate_instance(spec)
        assert all(np.array_equal(a, b) for a, b in zip(x1, x2))
        assert all(np.array_equal(a, b) for a, b in zip(y1, y2))

    def test_invalid_kind_rejected(self):
        with pytest.raises(InstanceError):
            InstanceSpec("torus", 2, 4, 0.1, seed=0)

    def test_complex_roots_rejected(self):
        bad = PolyC((1.0, 0.0, 1.0))  # z^2 + 1, roots +/- i
        spec = InstanceSpec("cube", 1, 4, 0.0, seed=0, polys=(bad,))
        with pytest.raises(InstanceError):
            generate_instance(spec)


class TestConnectCommuting:
    def test_equal_tuples_give_constant_paths(self):
        spec = InstanceSpec("cube", 2, 6, 0.0, seed=40)
        x, y = generate_instance(spec)
        res = connect_commuting(x, y)
        assert res.achieved_eps <= 1e-10
        assert res.endpoint_residual <= 1e-10

    def test_pure_rotation_makes_flat_segment_trivial(self, rng):
        spec = InstanceSpec("cube", 2, 8, 0.0, seed=41)
        x, _ = generate_instance(spec)
        v = unitary_near_identity(rng, 8, 0.01)
        y = NormalTuple.from_matrices([v @ m @ v.conj().T for m in x])
        res = connect_commuting(x, y)
        for p in res.paths:
            # second half of the samples is the flat segment
            half = p.n_samples // 2
            flat_len = sum(
                operator_norm(p.samples[i + 1] - p.samples[i])
                for i in range(half, p.n_samples - 1)
            )
            assert flat_len <= 1e-9

    def test_monte_carlo_invariants(self):
        worst_ratio = 0.0
        for seed in range(20):
            spec = InstanceSpec("cube", 2, 8, 0.05, seed=600 + seed)
            x, y = generate_instance(spec)
            res = connect_commuting(x, y)
            n = x.dim
            assert res.endpoint_residual <= 1e-8 * n
            assert res.max_commutation <= 1e-7 * n
            assert res.compressibility < 1.0
            for p in res.paths:
                # curved half preserves the spectrum
                curved = p.samples[: p.n_samples // 2 + 1]
                from matword.paths import MatrixPath

                cp = MatrixPath(np.linspace(0, 1, len(curved)), np.array(curved))
                assert spectrum_drift(cp) <= 1e-9
            if res.delta_in > 0:
                worst_ratio = max(worst_ratio, res.achieved_eps / res.delta_in)
        # harness threshold from seeded runs, far below the 10x budget
        assert worst_ratio <= 10.0

    def test_result_report_serializes(self):
        spec = InstanceSpec("cube", 2, 6, 0.02, seed=77)
        x, y = generate_instance(spec)
        res = connect_commuting(x, y, eps=0.2)
        doc = res.to_json_dict()
        json.dumps(doc)
        assert doc["passed"] is True

    def test_achieved_eps_monotone_in_delta_on_average(self):
        # statistical check: mean achieved eps grows with the pair distance
        means = []
        for delta in (0.01, 0.03, 0.06):
            vals = []
            for t in range(15):
                spec = InstanceSpec("cube", 2, 8, delta, seed=900 + t)
                x, y = generate_instance(spec)
                vals.append(connect_commuting(x, y).achieved_eps)
            means.append(float(np.mean(vals)))
        assert means[0] <= means[1] <= means[2]


class TestConnectAlgebraic:
    def test_equal_algebraic_tuples(self):
        x = NormalTuple.from_matrices([np.diag([1.0, -1.0])])
        res = connect_algebraic(x, x, (Z2M1,), eps=1e-6)
        assert res.achieved_eps <= 1e-12
        assert res.max_poly_residual <= 1e-12

    def test_rotated_pair_keeps_zero_set(self, rng):
        spec = InstanceSpec("cube", 2, 12, 0.02, seed=50, polys=(Z2M1,), eps_alg=0.0)
        x, y = generate_instance(spec)
        res = connect_algebraic(x, y, (Z2M1,), eps=1e-6)
        assert res.max_poly_residual <= 1e-9
        assert res.max_commutation <= 1e-7 * x.dim
        assert res.endpoint_residual <= 1e-8 * x.dim

    def test_min_root_gap(self):
        assert min_root_gap((Z2M1,)) == pytest.approx(2.0)

    def test_spectrum_outside_zero_set_rejected(self):
        x = NormalTuple.from_matrices([np.diag([0.5, -0.5])])
        with pytest.raises(DeformationError):
            connect_algebraic(x, x, (Z2M1,), eps=1e-6)

    def test_distance_beyond_gap_rejected(self):
        x = NormalTuple.from_matrices([np.diag([1.0, -1.0])])
        y = NormalTuple.from_matrices([np.diag([-1.0, 1.0])])
        with pytest.raises(DeformationError):
            connect_algebraic(x, y, (Z2M1,), eps=1e-6)


class TestConnectSoftAlgebraic:
    def test_already_algebraic_collapses(self):
        x = NormalTuple.from_matrices([np.diag([1.0, -1.0, 1.0])])
        res = connect_soft_algebraic(x, x, (Z2M1,), delta=0.01, eps=0.05)
        assert res.achieved_eps <= 1e-12

    def test_projection_segments_round_eigenvalues(self):
        d = np.diag([1.01, -0.99, 0.99, -1.01])
        x = NormalTuple.from_matrices([d])
        res = connect_soft_algebraic(x, x, (Z2M1,), delta=0.05, eps=0.2)
        p = res.paths[0]
        # segment junctions sit at t = 1/4 and 1/2; the head end is the
        # projected matrix, which satisfies the polynomial exactly
        i_q = int(np.argmin(np.abs(p.times - 0.25)))
        assert operator_norm(poly_eval_matrix(Z2M1, p.samples[i_q])) <= 1e-9
        assert operator_norm(p.samples[i_q] - p.start) <= 0.011

    def test_midpath_lipschitz_bound(self):
        spec = InstanceSpec("cube", 2, 10, 0.02, seed=60, polys=(Z2M1,), eps_alg=1e-2)
        x, y = generate_instance(spec)
        resid = max(poly_residual(Z2M1, m) for t in (x, y) for m in t)
        delta = max(resid * 1.01, 0.05)
        res = connect_soft_algebraic(x, y, (Z2M1,), delta=delta, eps=0.3)
        # brute-force Lipschitz constant of z^2-1 on the slightly inflated disk
        zs = np.linspace(-1.1, 1.1, 41)
        grid = zs[None, :] + 1j * zs[:, None]
        lip = float(np.max(np.abs(2 * grid)))
        for p, xj in zip(res.paths, x):
            worst_move = max(operator_norm(s - xj) for s in p.samples)
            bound = resid + lip * worst_move + 1e-9
            worst_p = max(
                operator_norm(poly_eval_matrix(Z2M1, s)) for s in p.samples
            )
            assert worst_p <= bound

    def test_residual_beyond_delta_rejected(self):
        x = NormalTuple.from_matrices([np.diag([1.3, -1.0])])
        with pytest.raises(DeformationError):
            connect_soft_algebraic(x, x, (Z2M1,), delta=0.01, eps=0.1)


@pytest.mark.parametrize("eps", [0.0, -1.0])
def test_non_positive_eps_is_refused(eps):
    x = NormalTuple.from_matrices([np.diag([1.0, -1.0])])
    refused = [
        lambda: connect_commuting(x, x, eps=eps),
        lambda: connect_algebraic(x, x, (Z2M1,), eps=eps),
        lambda: connect_soft_algebraic(x, x, (Z2M1,), delta=0.01, eps=eps),
        lambda: verify_ulpac(InstanceSpec("cube", 2, 4, 0.02, 7, (Z2M1,), 1e-3), 1, eps),
        lambda: verify_aulpac(InstanceSpec("cube", 2, 4, 0.02, 7), 1, eps),
    ]
    for call in refused:
        with pytest.raises(DeformationError, match="eps must be positive"):
            call()


@pytest.mark.parametrize("kind", ["cube", "sphere"])
def test_relation_of_the_one_pass_walk_equals_the_stacked_evaluation(kind):
    x, y = generate_instance(InstanceSpec(kind, 2, 6, 0.02, 7))
    res = connect_commuting(x, y, relation=kind)
    stacked = deformation._relation_residual([p.samples for p in res.paths], kind)
    assert res.relation_residual == stacked
    assert connect_commuting(x, y).relation_residual is None


def test_verify_refuses_the_zero_pass_threshold_of_delta_zero():
    # 10*delta, and 10*delta + 5*eps_alg, are 0: no trial could pass
    with pytest.raises(DeformationError, match="eps must be positive"):
        verify_aulpac(InstanceSpec("cube", 2, 4, 0.0, 7), 1)
    with pytest.raises(DeformationError, match="eps must be positive"):
        verify_ulpac(InstanceSpec("cube", 2, 4, 0.0, 7, (Z2M1,), 0.0), 1)


class TestVerifyUlpac:
    def test_delta_zero_exact_roots(self):
        spec = InstanceSpec("cube", 2, 8, 0.0, seed=70, polys=(Z2M1,), eps_alg=0.0)
        rep = verify_ulpac(spec, 5, eps_pass=0.05)
        assert rep.all_passed
        assert rep.achieved_stats()["max"] <= 1e-9

    def test_canonical_cube_run(self):
        spec = InstanceSpec("cube", 2, 16, 0.02, seed=71, polys=(Z2M1,), eps_alg=1e-3)
        rep = verify_ulpac(spec, 10, eps_pass=0.2)
        assert rep.pass_rate == 1.0
        assert rep.achieved_stats()["max"] <= 0.2

    def test_sphere_relation_holds_along_paths(self):
        half = PolyC((-0.5, 0.0, 1.0))  # roots on the m=2 unit circle
        spec = InstanceSpec("sphere", 2, 12, 0.02, seed=72, polys=(half,), eps_alg=1e-3)
        rep = verify_ulpac(spec, 8, eps_pass=0.2)
        assert rep.pass_rate == 1.0
        for r in rep.records:
            assert r.relation_residual <= r.relation_bound

    def test_cross_commutators_recorded(self):
        spec = InstanceSpec("cube", 2, 8, 0.02, seed=73, polys=(Z2M1,), eps_alg=1e-3)
        rep = verify_ulpac(spec, 3, eps_pass=0.2)
        for r in rep.records:
            assert 0.0 <= r.cross_commutator <= 0.1

    def test_requires_polynomials(self):
        spec = InstanceSpec("cube", 2, 8, 0.02, seed=74)
        with pytest.raises(DeformationError):
            verify_ulpac(spec, 1)

    def test_report_round_trip(self):
        spec = InstanceSpec("cube", 2, 8, 0.01, seed=75, polys=(Z2M1,), eps_alg=1e-3)
        rep = verify_ulpac(spec, 3, eps_pass=0.2)
        doc = rep.to_json_dict()
        assert json.loads(json.dumps(doc, sort_keys=True)) == json.loads(
            json.dumps(doc, sort_keys=True)
        )
        rows = rep.csv_rows()
        assert len(rows) == 4  # header + 3 trials


class TestVerifyAulpac:
    def test_delta_zero_constant_paths(self):
        spec = InstanceSpec("cube", 2, 6, 0.0, seed=80)
        rep = verify_aulpac(spec, 4, eps_pass=0.05)
        assert rep.all_passed
        assert rep.achieved_stats()["max"] <= 1e-10

    def test_canonical_run(self):
        spec = InstanceSpec("cube", 2, 8, 0.02, seed=81)
        rep = verify_aulpac(spec, 10, eps_pass=0.2)
        assert rep.pass_rate == 1.0
        for r in rep.records:
            assert r.max_commutation <= 1e-8
            assert r.dilation_mismatch <= 0.2
            assert r.recovery_residual <= 0.2

    def test_rejects_polynomials(self):
        spec = InstanceSpec("cube", 2, 8, 0.02, seed=82, polys=(Z2M1,))
        with pytest.raises(DeformationError):
            verify_aulpac(spec, 1)


def gated_pass(r, eps_pass, size):
    """A record's verdict recomputed from its recorded quantities and bounds."""
    optional = (r.max_poly_residual, r.dilation_mismatch, r.recovery_residual)
    return (
        r.endpoint_residual <= 1e-8 * size
        and r.max_commutation <= 1e-7 * size
        and r.normality_residual <= 1e-7 * size
        and r.achieved_eps <= eps_pass
        and r.relation_residual <= r.relation_bound
        and all(v <= eps_pass for v in optional if v is not None)
    )


class TestTrialRecords:
    @pytest.mark.parametrize(
        "verify,spec,trials,eps_pass,size,outcome",
        [
            (verify_ulpac, InstanceSpec("cube", 2, 8, 0.02, 73, (Z2M1,), 1e-3), 4, 0.2, 8, "pass"),
            (verify_ulpac, InstanceSpec("cube", 2, 8, 0.02, 73, (Z2M1,), 1e-3), 4, 0.02, 8, "fail"),
            (verify_aulpac, InstanceSpec("cube", 2, 8, 0.02, 81), 3, 0.2, 16, "pass"),
            (verify_aulpac, InstanceSpec("cube", 2, 8, 0.05, 7), 5, 0.027, 16, "fail"),
        ],
    )
    def test_passed_is_the_conjunction_of_gates(self, verify, spec, trials, eps_pass, size,
                                                outcome):
        rep = verify(spec, trials, eps_pass=eps_pass)
        verdicts = [r.passed for r in rep.records]
        assert (all(verdicts) if outcome == "pass" else any(verdicts) and not all(verdicts))
        for r in rep.records:
            assert r.passed == gated_pass(r, eps_pass, size)

    def test_refused_ulpac_trial(self):
        # delta exceeds a sixth of the root gap of z^2 - 1, so the soft
        # algebraic pipeline refuses every trial
        rep = verify_ulpac(InstanceSpec("cube", 2, 8, 0.4, 3, (Z2M1,), 1e-3), 1)
        (r,) = rep.records
        assert r.passed is False
        assert r.achieved_eps == r.relation_residual == r.normality_residual == np.inf
        assert r.relation_bound == 0.0
        assert r.dilation_mismatch is None and r.recovery_residual is None

    def test_refused_aulpac_trial_keeps_dilation_mismatch(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise DeformationError("refused")

        spec = InstanceSpec("cube", 2, 8, 0.02, 81)
        (ok,) = verify_aulpac(spec, 1, eps_pass=0.2).records
        monkeypatch.setattr(deformation, "connect_commuting", refuse)
        (r,) = verify_aulpac(spec, 1, eps_pass=0.2).records
        assert r.passed is False
        assert r.achieved_eps == r.relation_residual == r.normality_residual == np.inf
        assert r.relation_bound == 0.0
        assert r.dilation_mismatch == ok.dilation_mismatch > 0.0
        assert r.recovery_residual is None

    @pytest.mark.parametrize("verify,pipeline,spec", [
        (verify_ulpac, "_soft_connect",
         InstanceSpec("cube", 2, 8, 0.02, 73, (Z2M1,), 1e-3)),
        (verify_aulpac, "connect_commuting", InstanceSpec("cube", 2, 8, 0.02, 81)),
    ])
    @pytest.mark.parametrize("error", [
        DeformationError, ApproximantError, ClusteringError,
        JointDiagonalizationError, PathError, LinalgError, ValueError,
    ])
    def test_only_domain_refusals_are_recorded(self, monkeypatch, verify, pipeline, spec, error):
        def connect(*args, **kwargs):
            raise error("from the pipeline")

        monkeypatch.setattr(deformation, pipeline, connect)
        refusals = (DeformationError, ApproximantError, ClusteringError, JointDiagonalizationError)
        if issubclass(error, refusals):
            (r,) = verify(spec, 1, eps_pass=0.2).records
            assert r.passed is False and r.achieved_eps == np.inf
        else:
            with pytest.raises(error, match="from the pipeline"):
                verify(spec, 1, eps_pass=0.2)


def test_normality_is_gated(monkeypatch):
    # a bound no path can meet: every trial must fail on the normality entry
    # alone, and its record must carry the residual that broke the bound
    bound = -1.0
    specs = [
        (verify_ulpac, InstanceSpec("cube", 2, 8, 0.02, 73, (Z2M1,), 1e-3)),
        (verify_aulpac, InstanceSpec("cube", 2, 8, 0.02, 81)),
    ]
    unpatched = [verify(spec, 3, eps_pass=0.2) for verify, spec in specs]
    monkeypatch.setattr(deformation, "NormalityConstraint",
                        lambda _: NormalityConstraint(bound))
    for (verify, spec), ok in zip(specs, unpatched):
        rep = verify(spec, 3, eps_pass=0.2)
        assert len(rep.records) == 3
        for r, r_ok in zip(rep.records, ok.records):
            assert r_ok.passed is True
            assert r.passed is False
            assert np.isfinite(r.achieved_eps)  # connected, not refused
            assert np.isfinite(r.normality_residual) and r.normality_residual > bound
            assert r.normality_residual == r_ok.normality_residual


# Lifetimes: a verify run keeps one trial's paths at a time, and a pipeline
# holds no curved half while it checks the assembled paths.  Each test counts
# live weak references, with no garbage collection and no memory figures.
LIFETIME_RUNS = [
    (verify_aulpac, "connect_commuting", InstanceSpec("sphere", 2, 8, 0.02, 7)),
    (verify_ulpac, "_soft_connect",
     InstanceSpec("cube", 2, 8, 0.02, 73, (Z2M1,), 1e-3)),
]


@pytest.mark.parametrize("verify, pipeline, spec", LIFETIME_RUNS)
def test_no_earlier_trial_result_is_alive(monkeypatch, verify, pipeline, spec):
    real, results, alive_at_call = getattr(deformation, pipeline), [], []

    def recording(*args, **kwargs):
        alive_at_call.append(sum(r() is not None for r in results))
        res = real(*args, **kwargs)
        results.append(weakref.ref(res))
        return res

    monkeypatch.setattr(deformation, pipeline, recording)
    rep = verify(spec, 3, eps_pass=0.2)
    assert rep.all_passed
    assert alive_at_call == [0, 0, 0]


@pytest.mark.parametrize("verify, pipeline, spec", LIFETIME_RUNS)
def test_no_curved_half_is_alive_while_paths_are_checked(monkeypatch, verify, pipeline, spec):
    real_curved, real_assemble = deformation.curved_path, deformation._assemble_result
    halves, alive_at_assembly = [], []

    def recording(*args, **kwargs):
        c = real_curved(*args, **kwargs)
        halves.append(weakref.ref(c))
        return c

    def assemble(*args, **kwargs):
        alive_at_assembly.append(sum(c() is not None for c in halves))
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(deformation, "curved_path", recording)
    monkeypatch.setattr(deformation, "_assemble_result", assemble)
    verify(spec, 2, eps_pass=0.2)
    assert len(halves) == 2 * spec.m
    assert alive_at_assembly == [0, 0]


def test_ulpac_computes_each_endpoint_residual_once(monkeypatch):
    # verify_ulpac sizes delta from the endpoint residuals, so the soft
    # pipeline it calls must not compute them a second time
    real, calls = deformation.poly_residual, []

    def counting(p, a):
        calls.append(a.shape)
        return real(p, a)

    monkeypatch.setattr(deformation, "poly_residual", counting)
    spec = InstanceSpec("cube", 2, 8, 0.02, 73, (Z2M1,), 1e-3)
    assert verify_ulpac(spec, 3, eps_pass=0.2).all_passed
    assert len(calls) == 3 * 2 * spec.m
