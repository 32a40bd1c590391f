"""End-to-end local connectivity pipelines and the randomized harness.

The shared construction conjugates a commuting tuple along a curved path
generated by the principal log of Z = What* W, where W is the isospectral
approximant's unitary and What is the nearest unitary commuting with a
generator of the target's joint-cluster algebra.  The curved endpoint lands
inside the target's joint-diagonal algebra, so the closing flat segment
keeps everything commuting.  Algebraic variants project spectra onto
polynomial zero sets before and after the curved middle.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace
from itertools import product

import numpy as np

from .approximants import (
    ApproximantError,
    dilate,
    double_embed,
    isospectral_from_bases,
    joint_isospectral_approximant,
    nearby_commuting_unitary,
    upper_left_block,
)
from .linalg import (
    ClusteringError,
    JointDiagonalizationError,
    NormalTuple,
    default_tol,
    hermitian_part,
    joint_diagonalize,
    max_commutator,
    operator_norm,
    principal_unitary_log,
    threshold_clusters,
)
from .minpoly import PolyC, poly_residual
from .paths import (
    DEFAULT_SAMPLES,
    CommutationConstraint,
    MatrixPath,
    NormalityConstraint,
    PathReport,
    PolynomialConstraint,
    TargetDistanceConstraint,
    certify_paths,
    concat,
    curved_path,
    flat_path,
    sample_blocks,
)
from .sampling import haar_unitary, unitary_near_identity


class DeformationError(ValueError):
    pass


class InstanceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# instance generation


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded recipe for a pair of nearby commuting hermitian tuples."""

    kind: str  # "cube" | "sphere"
    m: int
    n: int
    delta: float
    seed: int
    polys: tuple[PolyC, ...] | None = None
    eps_alg: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cube", "sphere"):
            raise InstanceError(f"unknown kind {self.kind!r}")
        if self.m < 1 or self.n < 1:
            raise InstanceError("need m >= 1 and n >= 1")
        if self.delta < 0 or self.eps_alg < 0:
            raise InstanceError("delta and eps_alg must be non-negative")
        # the scale of an n x n product of the members, whose spectra sit at
        # the polynomials' roots; refused before it overflows
        top = max((float(np.abs(p.roots()).max(initial=1.0)) for p in self.polys or ()),
                  default=1.0)
        scale = top + self.delta + self.eps_alg
        if not math.isfinite(self.n * scale * scale):
            roots = f" with roots up to {top!r}" if top > 1 else ""
            raise InstanceError(f"delta {self.delta!r} and eps_alg {self.eps_alg!r} "
                                f"overflow at n = {self.n}{roots}")
        if self.polys is not None and len(self.polys) not in (1, self.m):
            raise InstanceError("need one polynomial, or one per tuple member")


def _normalize_polys(polys, m: int) -> tuple[PolyC, ...]:
    if isinstance(polys, PolyC):
        polys = (polys,)
    polys = tuple(polys)
    if len(polys) == 1:
        polys = polys * m
    if len(polys) != m:
        raise DeformationError(f"need {m} polynomials, got {len(polys)}")
    for p in polys:
        if p.degree < 1:
            raise DeformationError("constant polynomials carry no spectral constraint")
    return polys


def _real_roots(p: PolyC) -> np.ndarray:
    r = p.roots()
    if np.any(np.abs(r.imag) > 1e-9):
        raise InstanceError("polynomial roots must be real for hermitian instances")
    return np.sort(r.real)


def min_root_gap(polys) -> float:
    """Smallest distance between distinct roots across all polynomials."""
    gap = math.inf
    for p in polys:
        r = p.roots()
        for i in range(len(r)):
            for j in range(i + 1, len(r)):
                d = abs(r[i] - r[j])
                if d > 1e-12:
                    gap = min(gap, d)
    return gap


def generate_instance(spec: InstanceSpec) -> tuple[NormalTuple, NormalTuple]:
    """Pair (X, Y) of commuting hermitian tuples with ||X_j - Y_j|| <= delta.

    X is diagonal in a random common eigenbasis; sphere instances project
    the joint diagonal vectors onto the unit sphere; polynomial instances
    seed spectra at the zero sets, jittered by at most eps_alg.  Y applies a
    small random rotation plus, when the algebraic relations leave slack, a
    diagonal perturbation.  With eps_alg = 0 exact relations are preserved,
    so only the rotation is applied.
    """
    rng = np.random.default_rng(spec.seed)
    m, n = spec.m, spec.n
    q = haar_unitary(rng, n)

    polys = _normalize_polys(spec.polys, m) if spec.polys is not None else None
    diag = np.empty((m, n))
    for j in range(m):
        if polys is not None:
            roots = _real_roots(polys[j])
            base = roots[rng.integers(0, len(roots), n)]
            if spec.eps_alg > 0:
                base = base + rng.uniform(-1.0, 1.0, n) * spec.eps_alg
            diag[j] = base
        else:
            diag[j] = rng.uniform(-1.0, 1.0, n)

    if spec.kind == "sphere":
        norms = np.sqrt((diag**2).sum(axis=0))
        if np.any(norms < 1e-12):
            raise InstanceError("joint diagonal vector vanishes; cannot project to the sphere")
        diag = diag / norms
        if spec.eps_alg > 0:
            diag = diag + rng.uniform(-1.0, 1.0, (m, n)) * (spec.eps_alg / (2 * m))
            diag = np.clip(diag, -1.0, 1.0)

    def assemble(basis, values):
        return NormalTuple.from_matrices(
            [hermitian_part((basis * values[j]) @ basis.conj().T) for j in range(m)]
        )

    x = assemble(q, diag)
    if spec.delta == 0:
        return x, assemble(q, diag)

    exact_relations = (polys is not None or spec.kind == "sphere") and spec.eps_alg == 0.0
    d_pert = np.zeros((m, n))
    if not exact_relations:
        d_pert = rng.uniform(-0.5, 0.5, (m, n)) * spec.delta
    v = unitary_near_identity(rng, n, spec.delta / 4.0)
    y = NormalTuple.from_matrices([
        hermitian_part(v @ hermitian_part((q * (diag[j] + d_pert[j])) @ q.conj().T) @ v.conj().T)
        for j in range(m)
    ])

    worst = max(operator_norm(a - b) for a, b in zip(x, y))
    if worst > spec.delta * (1.0 + 1e-9):
        raise InstanceError(f"generated pair at distance {worst:.3e} > delta {spec.delta:.3e}")
    return x, y


# ---------------------------------------------------------------------------
# connectivity pipelines


@dataclass(frozen=True)
class DeformationResult:
    paths: tuple[MatrixPath, ...]
    achieved_eps: float
    reports: tuple[PathReport, ...]
    delta_in: float
    endpoint_residual: float
    max_commutation: float
    max_normality: float
    max_poly_residual: float | None
    compressibility: float  # ||W - What|| for the curved generator
    # the defining relation's residual along the paths, when one was asked for
    relation_residual: float | None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json_dict(self) -> dict:
        return {
            "delta_in": self.delta_in,
            "achieved_eps": self.achieved_eps,
            "endpoint_residual": self.endpoint_residual,
            "max_commutation": self.max_commutation,
            "max_poly_residual": self.max_poly_residual,
            "compressibility": self.compressibility,
            "passed": self.passed,
            "constraints": [[asdict(e) for e in rep.entries] for rep in self.reports],
        }


def _check_pair(x: NormalTuple, y: NormalTuple):
    if x.arity != y.arity or x.dim != y.dim:
        raise DeformationError("tuples must share arity and dimension")
    # the scale of an n x n product of the members, as InstanceSpec bounds it
    top = max(float(np.abs(m).max()) for t in (x, y) for m in t)
    if not math.isfinite(x.dim * top * top):
        raise DeformationError(f"entries up to {top!r} overflow at n = {x.dim}")


def _pair_distance(x: NormalTuple, y: NormalTuple) -> float:
    _check_pair(x, y)
    return max(operator_norm(a - b) for a, b in zip(x, y))


def _curved_connect(psi, x: NormalTuple, n_seg: int) -> tuple[Iterator[MatrixPath], float]:
    """Curved paths conjugating X into Y's joint-diagonal algebra, for the
    isospectral approximant ``psi`` of X and Y.

    The approximant's unitary W is compressed onto the nearest unitary What
    commuting with a generator of Y's joint-cluster algebra (distinct label
    per cluster of joint eigenvalues, merged at 1e-9); blocks
    on genuinely degenerate joint eigenspaces are kept whole, so only
    cross-cluster leakage counts against compressibility.  The paths then
    conjugate by the principal-log flow of What* W, whose eigh factors every
    member shares.

    Returns a generator of the per-member paths, each built when it is drawn
    so that the caller can drop one before the next exists, and ||W - What||.
    """
    uy, dy = psi.target_basis
    labels = threshold_clusters(np.stack(dy, 1), 1e-9).astype(float)
    d_gen = (uy * labels) @ uy.conj().T
    ncu = nearby_commuting_unitary(psi.w, d_gen, cluster_tol=0.25, min_gap=0.5)
    what = ncu.z.conj().T
    z = what.conj().T @ psi.w
    deviation = operator_norm(np.eye(x.dim) - z)
    if deviation >= 1.0:
        raise DeformationError(
            f"approximant is not jointly compressible: ||W - What|| = {deviation:.3e} >= 1"
        )
    eig = np.linalg.eigh(hermitian_part(principal_unitary_log(z)))
    return (curved_path(eig, xj, n_seg) for xj in x), deviation


def _assemble_result(
    paths: list[MatrixPath],
    x: NormalTuple,
    y: NormalTuple,
    eps: float | None,
    polys,
    delta: float,
    compressibility: float,
    relation: str | None,
) -> DeformationResult:
    """The result of a pipeline, from ``certify_paths`` over its paths, which
    also bounds the ``relation`` ("cube" or "sphere") residual when one is
    given."""
    n = x.dim
    comm_bound = 1e-7 * n
    dist_bound = math.inf if eps is None else eps
    constraints = []
    for j, p in enumerate(paths):
        cons = [
            CommutationConstraint(paths[k], comm_bound, label=f"commutation[{j},{k}]")
            for k in range(j + 1, len(paths))
        ]
        cons.append(NormalityConstraint(comm_bound))
        cons.append(TargetDistanceConstraint(y[j], dist_bound))
        if polys is not None:
            cons.append(PolynomialConstraint(polys[j], dist_bound))
        constraints.append(cons)
    reports, worst_relation = certify_paths(paths, constraints, relation)
    # each path's ends, formed here or by a junction check and kept by their segments
    endpoint = max(max(operator_norm(p.start - xj), operator_norm(p.end - yj))
                   for p, xj, yj in zip(paths, x, y))

    comm_vals = [
        e.max_residual
        for rep in reports
        for e in rep.entries
        if e.label.startswith("commutation")
    ]
    normality_vals = [
        e.max_residual for rep in reports for e in rep.entries if e.label == "normality"
    ]
    poly_vals = [
        e.max_residual for rep in reports for e in rep.entries if e.label == "polynomial"
    ]
    return DeformationResult(
        paths=tuple(paths),
        achieved_eps=max(rep.max_residual("distance-to-target") for rep in reports),
        reports=reports,
        delta_in=delta,
        endpoint_residual=endpoint,
        max_commutation=max(comm_vals, default=0.0),
        max_normality=max(normality_vals, default=0.0),
        max_poly_residual=max(poly_vals) if poly_vals else None,
        compressibility=compressibility,
        relation_residual=None if relation is None else _relation_value(worst_relation, relation),
    )


def _check_endpoint_residuals(polys, x, y, bound: float, reason: str):
    _check_pair(x, y)
    for j, p in enumerate(polys):
        for t, name in ((x, "X"), (y, "Y")):
            r = poly_residual(p, t[j])
            if r > bound:
                raise DeformationError(f"||p_{j}({name}_{j})|| = {r:.3e}{reason}")


def _check_eps(eps):
    if eps is not None and not eps > 0:
        raise DeformationError(f"eps must be positive, got {eps!r}")


def _curved_then_flat(x, y, delta, eps, polys, relation) -> DeformationResult:
    seg = (DEFAULT_SAMPLES + 1) // 2
    curved, deviation = _curved_connect(joint_isospectral_approximant(x, y, delta), x, seg)
    paths = [concat(c, flat_path(c.end, yj, seg)) for c, yj in zip(curved, y)]
    return _assemble_result(paths, x, y, eps, polys, delta, deviation, relation)


def connect_commuting(
    x: NormalTuple, y: NormalTuple, eps: float | None = None, *, relation: str | None = None
) -> DeformationResult:
    """Curved-then-flat homotopies between nearby commuting normal tuples.

    Each member follows the common conjugation onto the target's
    joint-diagonal algebra, then a flat segment to the target, each half
    sampled at (DEFAULT_SAMPLES + 1) // 2 points.  Pairwise commutation
    holds along the whole path; spectra are preserved on the curved half.
    A given ``eps`` must be positive.  ``relation`` ("cube" or "sphere")
    also evaluates that defining relation along the paths, in the same pass
    over the samples as the constraints (``relation_residual``).
    """
    _check_eps(eps)
    return _curved_then_flat(x, y, _pair_distance(x, y), eps, None, relation)


def connect_algebraic(
    x: NormalTuple, y: NormalTuple, polys, eps: float | None = None
) -> DeformationResult:
    """Connectivity under exact polynomial constraints p_j(Z_t) = 0.

    Spectra of both endpoints must already sit in the zero sets, with
    endpoint residuals within default_tol(n); the pair distance may not
    exceed a third of the minimal root gap, which forces the matched
    spectra to coincide and keeps every residual at rounding level along
    the path.  Paths are sampled as in connect_commuting.  A given ``eps``
    must be positive.
    """
    _check_eps(eps)
    polys = _normalize_polys(polys, x.arity)
    _check_endpoint_residuals(polys, x, y, default_tol(x.dim), "; spectrum is not in the zero set")
    gap = min_root_gap(polys)
    delta = _pair_distance(x, y)
    if delta > gap / 3.0:
        raise DeformationError(
            f"pair distance {delta:.3e} exceeds a third of the root gap {gap:.3e}"
        )
    return _curved_then_flat(x, y, delta, eps, polys, None)


def _project_to_roots(diags: list[np.ndarray], polys, delta: float) -> list[np.ndarray]:
    """Each member's eigenvalues moved to the nearest root of its polynomial."""
    out = []
    for dj, p in zip(diags, polys):
        roots = p.roots()
        rounded = np.empty_like(dj)
        for i, val in enumerate(dj):
            k = int(np.argmin(np.abs(roots - val)))
            shift = abs(roots[k] - val)
            if shift > delta / 2.0 * (1.0 + 1e-6) + 1e-12:
                raise DeformationError(
                    f"eigenvalue {val:.6f} sits {shift:.3e} from the zero set (> delta/2)"
                )
            rounded[i] = roots[k]
        out.append(rounded)
    return out


def connect_soft_algebraic(
    x: NormalTuple, y: NormalTuple, polys, delta: float, eps: float | None = None
) -> DeformationResult:
    """Connectivity under soft constraints ||p_j(Z_t)|| <= eps.

    Three segments per member, each sampled at (DEFAULT_SAMPLES + 2) // 3 + 1
    points: a flat projection of the spectrum onto the zero set, the curved
    algebraic connection, and a flat return to the target.  Requires endpoint residuals at most delta, spectra within
    delta/2 of the zero sets, and delta at most a sixth of the root gap.  A
    given ``eps`` must be positive.
    """
    _check_eps(eps)
    polys = _normalize_polys(polys, x.arity)
    _check_endpoint_residuals(polys, x, y, delta * (1.0 + 1e-9), f" exceeds delta {delta:.3e}")
    return _soft_connect(x, y, polys, delta, eps, None)


def _soft_connect(x, y, polys, delta: float, eps, relation) -> DeformationResult:
    """connect_soft_algebraic for normalized polys and endpoint residuals
    already known to be at most delta; ``relation`` as in connect_commuting."""
    gap = min_root_gap(polys)
    if delta > gap / 6.0:
        raise DeformationError(
            f"delta {delta:.3e} exceeds a sixth of the root gap {gap:.3e}"
        )

    ux, dx = joint_diagonalize(x, tol=max(x.commutator_bound, 1e-12))
    uy, dy = joint_diagonalize(y, tol=max(y.commutator_bound, 1e-12))
    rx, ry = _project_to_roots(dx, polys, delta), _project_to_roots(dy, polys, delta)
    xhat = NormalTuple.from_matrices([(ux * r) @ ux.conj().T for r in rx])
    yhat = NormalTuple.from_matrices([(uy * r) @ uy.conj().T for r in ry])

    seg = (DEFAULT_SAMPLES + 2) // 3 + 1
    # xhat and yhat are diagonal in the known bases, which the approximant reuses
    psi = isospectral_from_bases(ux, rx, uy, ry, _pair_distance(xhat, yhat))
    curved, deviation = _curved_connect(psi, xhat, seg)

    paths = [
        concat(flat_path(x[j], xhat[j], seg), c, flat_path(yhat[j], y[j], seg))
        for j, c in enumerate(curved)
    ]
    return _assemble_result(paths, x, y, eps, polys, _pair_distance(x, y), deviation, relation)


# ---------------------------------------------------------------------------
# randomized verification harness


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    achieved_eps: float
    endpoint_residual: float
    max_commutation: float
    normality_residual: float
    max_poly_residual: float | None
    relation_residual: float
    relation_bound: float
    cross_commutator: float
    dilation_mismatch: float | None
    recovery_residual: float | None
    passed: bool
    # "<exception class>: <message>" of a refused trial, else None
    refusal: str | None


@dataclass(frozen=True)
class ConnectivityReport:
    kind: str  # "ulpac" | "aulpac"
    spec: InstanceSpec
    eps_pass: float
    records: tuple[TrialRecord, ...]

    @property
    def pass_rate(self) -> float:
        return sum(r.passed for r in self.records) / len(self.records)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def achieved_stats(self) -> dict:
        vals = [r.achieved_eps for r in self.records]
        return {"min": min(vals), "max": max(vals), "mean": float(np.mean(vals))}

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "spec": {
                "kind": self.spec.kind,
                "m": self.spec.m,
                "n": self.spec.n,
                "delta": self.spec.delta,
                "eps_alg": self.spec.eps_alg,
                "seed": self.spec.seed,
                "polys": None if self.spec.polys is None else [p.coeffs for p in self.spec.polys],
            },
            "eps_pass": self.eps_pass,
            "pass_rate": self.pass_rate,
            "achieved_eps": self.achieved_stats(),
            "trials": [asdict(r) for r in self.records],
        }

    def csv_rows(self) -> list[list]:
        head = [
            "trial", "seed", "achieved_eps", "endpoint_residual", "max_commutation",
            "normality_residual", "max_poly_residual", "relation_residual", "cross_commutator",
            "passed", "refusal",
        ]
        rows = [head]
        for i, r in enumerate(self.records):
            rows.append([
                i, r.seed, repr(r.achieved_eps), repr(r.endpoint_residual),
                repr(r.max_commutation), repr(r.normality_residual),
                "" if r.max_poly_residual is None else repr(r.max_poly_residual),
                repr(r.relation_residual), repr(r.cross_commutator), int(r.passed),
                # the class only: a message may hold commas
                "" if r.refusal is None else r.refusal.partition(":")[0],
            ])
        return rows


def _trial_seed(base: int, t: int) -> int:
    return base + 1_000_003 * t


def _relation_stacks(blocks, kind: str, out) -> list:
    """Residual stacks of the defining relation on one block of samples per
    tuple member; the relation residual comes from their largest norm, by
    ``_relation_value``.  Cube: the members' own samples.  Sphere:
    sum_j Z_j^2 - 1, written into ``out`` unless that is None."""
    if kind == "cube":
        return [np.concatenate(blocks)]
    # sum(z @ z for z in blocks) - eye, in place: 0 + Z_0^2 turns -0.0 into 0.0
    r = np.matmul(blocks[0], blocks[0], out=out)
    r += 0.0
    for z in blocks[1:]:
        r += z @ z
    r -= np.eye(r.shape[-1])
    return [r]


def _relation_value(worst: float, kind: str) -> float:
    """Cube: contraction slack max(0, ||Z_j|| - 1).  Sphere: ||sum_j Z_j^2 - 1||."""
    return max(0.0, worst - 1.0) if kind == "cube" else max(0.0, worst)


def _relation_residual(members, kind: str) -> float:
    """Worst defining-relation residual of a tuple, or of tuples sampled along paths.

    ``members`` holds one matrix, or one (s, n, n) sample stack, per tuple
    member; samples are taken a block at a time.
    """
    stacks = [np.asarray(z).reshape(-1, *np.shape(z)[-2:]) for z in members]
    blocks = sample_blocks(len(stacks[0]), stacks[0].shape[-1])
    worst = max(float(operator_norm(r).max())
                for b in blocks for r in _relation_stacks([z[b] for z in stacks], kind, None))
    return _relation_value(worst, kind)


# The pipelines' domain refusals.  Any other error (a PathError, a shape bug)
# is a fault, not a failed trial, and propagates.
_REFUSALS = (DeformationError, ApproximantError, ClusteringError, JointDiagonalizationError)


def _run_trials(mode, spec, trials, eps_pass, size, lift, connect, base_relation):
    """Seeded trial loop shared by both harness modes.

    Per trial: ``lift(x, y)`` returns the tuples to connect plus the
    dilation mismatch (None without a lift), ``connect`` runs the pipeline
    on the lifted tuples, with the relation of ``spec.kind`` evaluated along
    its paths, and ``base_relation(y)`` is the target's own relation
    residual.  A lifted trial must also compress back onto its
    source.  A connection refused with one of _REFUSALS is recorded as a
    failed trial with infinite residuals and the refusal's class and
    message; any other error is raised.  Fewer than one trial raises
    DeformationError.
    """
    if trials < 1:
        raise DeformationError(f"need at least one trial, got {trials}")
    end_bound = 1e-8 * size

    def trial(t: int) -> TrialRecord:
        # a function, so that one trial's result and paths are freed before
        # the next trial starts
        sub = replace(spec, seed=_trial_seed(spec.seed, t))
        x, y = generate_instance(sub)
        lx, ly, mismatch = lift(x, y)
        cross = max_commutator(product(x, y))
        try:
            res = connect(lx, ly)
        except _REFUSALS as exc:  # recorded, not raised
            return TrialRecord(
                sub.seed, math.inf, math.inf, math.inf, math.inf, None, math.inf, 0.0,
                cross, mismatch, None, False, f"{type(exc).__name__}: {exc}",
            )
        recovery = None if mismatch is None else max(
            operator_norm(upper_left_block(p.start) - h) for p, h in zip(res.paths, x)
        )
        relation = res.relation_residual
        relation_bound = base_relation(y) + 2 * spec.m * res.achieved_eps + 1e-6
        # the path report gates commutation, normality, target distance and
        # polynomial residuals against the bounds _assemble_result set
        ok = (
            res.passed
            and res.endpoint_residual <= end_bound
            and relation <= relation_bound
            and all(v is None or v <= eps_pass for v in (mismatch, recovery))
        )
        return TrialRecord(
            sub.seed, res.achieved_eps, res.endpoint_residual, res.max_commutation,
            res.max_normality, res.max_poly_residual, relation, relation_bound, cross, mismatch,
            recovery, ok, None,
        )

    records = [trial(t) for t in range(trials)]
    return ConnectivityReport(mode, spec, eps_pass, tuple(records))


def verify_ulpac(
    spec: InstanceSpec, trials: int, eps_pass: float | None = None
) -> ConnectivityReport:
    """Sampled check of uniform local piecewise-analytic connectivity.

    Generates seeded instance pairs, connects them with the soft algebraic
    pipeline, and records endpoint, polynomial, commutation and defining
    relation residuals along every path.  Failed and refused trials are
    recorded, not raised.  The default pass threshold 10*delta + 5*eps_alg
    was calibrated on seeded runs of this harness.  The pass threshold, given
    or by default, must be positive.
    """
    if spec.polys is None:
        raise DeformationError("ULPAC verification needs polynomial constraints")
    eps_pass = 10.0 * spec.delta + 5.0 * spec.eps_alg if eps_pass is None else eps_pass
    _check_eps(eps_pass)
    polys = _normalize_polys(spec.polys, spec.m)

    def connect(x, y):
        resid = max(
            poly_residual(p, mat) for tup in (x, y) for p, mat in zip(polys, tup)
        )
        # delta_soft bounds every endpoint residual, so the public
        # function's recheck of them could never fire
        delta_soft = max(resid * 1.01, 2.0 * spec.eps_alg + spec.delta + 1e-9)
        return _soft_connect(x, y, polys, delta_soft, eps_pass, spec.kind)

    return _run_trials(
        "ulpac", spec, trials, eps_pass, spec.n,
        lift=lambda x, y: (x, y, None),
        connect=connect,
        base_relation=lambda y: _relation_residual(y.matrices, spec.kind),
    )


def verify_aulpac(
    spec: InstanceSpec, trials: int, eps_pass: float | None = None
) -> ConnectivityReport:
    """Sampled connectivity check after dilation to twice the size.

    Builds the swap dilation of the instance's approximant composed with the
    doubling embedding, checks its distances to the doubled endpoints, then
    connects the dilated tuple to the doubled target with the commuting
    pipeline.  Compression of the initial sample must recover the source.
    The pass threshold, given or by default (10*delta), must be positive.
    """
    if spec.polys is not None:
        raise DeformationError("AULPAC verification runs on unconstrained instances")
    eps_pass = 10.0 * spec.delta if eps_pass is None else eps_pass
    _check_eps(eps_pass)

    def lift(x, y):
        psi = joint_isospectral_approximant(x, y, _pair_distance(x, y))
        big = dilate(psi, "swap")
        dil_x = NormalTuple.from_matrices([big.apply(double_embed(h)) for h in x])
        dil_y = NormalTuple.from_matrices([double_embed(k) for k in y])
        mismatch = max(
            max(operator_norm(dx - double_embed(h)), operator_norm(dx - double_embed(k)))
            for dx, h, k in zip(dil_x.matrices, x, y)
        )
        return dil_x, dil_y, mismatch

    return _run_trials(
        "aulpac", spec, trials, eps_pass, 2 * spec.n,
        lift=lift,
        connect=lambda x, y: connect_commuting(x, y, eps=eps_pass, relation=spec.kind),
        # the cube bound carries no base term for the dilated target
        base_relation=lambda y: 0.0 if spec.kind == "cube"
        else _relation_residual([double_embed(k) for k in y], spec.kind),
    )
