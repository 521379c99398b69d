"""Discrete Skorokhod maps and Euler simulation of reflected systems.

Scheme: per time step, autonomous levels advance first by a full-truncation
Euler-Maruyama step (coefficients evaluated at the state clamped into the
interval, the standard positivity-preserving treatment of square-root
diffusions); constrained levels then advance and are projected onto the
moving interval defined by the already-updated neighbouring level.  The
per-step projection is the discrete two-sided Skorokhod solution, and the
constraining increments are accumulated exactly like the finite-variation
terms they approximate.

Every simulator here steps one interlacing array.  A system is a list of
levels, each an (n_paths, size) state moved in order.  Particle i of level
k >= 1 is projected onto [prev[i-1+above], prev[i+above]], where prev is
level k-1 already moved this step and above in {0, 1} is the level's
offset; an index out of range stands for the level's static wall (a
regular-reflecting endpoint, else none).  Level 0 sees only its walls.

  * two-level: levels (Y, X); NNP1 has above=0, NN and NP1N above=1;
  * GT: a level one larger than the previous has above=0 (triangular),
    an equal-size level above=1 (it sits above the previous one);
  * edge: one single-particle level per particle, above=1 on the right
    edge (pushed up) and above=0 on the left edge (pushed down).

Edge pushes are not projections: per-step projection misses the pushes
inside a step and leaves an O(sqrt(dt)) deficit.  Edge particle k >= 1 is
pushed instead by the exact maximum over the step of the gap to its
leader k-1 (already moved), taken as a Brownian bridge from the
start-of-step gap a <= 0 to the gap b after the Euler proposal, with
variance rate v = 2 (a_{k-1}(x_{k-1}) + a_k(x_k)) frozen at the start of
the step:

    push = max(M, 0),  M = (a + b + sqrt((b - a)^2 + 2 v dt E)) / 2,

E ~ Exp(1).  On the right edge the gap is leader minus particle and the
push is added; on the left edge it is particle minus leader and the push
is subtracted.  M >= b, so the ordering holds after every step.

Driving noise comes from counter-based Philox streams keyed by
(kind, level, particle): (0, 0, i) for Y and (1, 0, i) for X in two-level
systems, (2, k, i) for GT level k, (3, 0, i) for edge particle i.  The
bridge draws E of edge particle i >= 1 come from separate streams keyed
(4, 0, i), so the normals are those of a system without bridge pushes.
Bundles are bit-reproducible for a fixed seed and independent of
scheduling.

Stop rules: a two-level system tests Y's proposal before anything moves;
coincident or crossed Y particles, or a Y particle at a killing endpoint,
stop the path, which then stays frozen for the whole step.  A GT pattern
tests its interior levels after the step; only a strict crossing stops it.
Edge systems never stop.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .diffusion1d import Boundary, DiffusionSpec, conjugate, make_spec
from .diffusion1d.catalog import FAMILIES
from .twolevel import Shape


@dataclass
class SkorokhodResult:
    x: np.ndarray
    k: np.ndarray
    crossing_index: Optional[int] = None  # horizon truncation point, if any


def skorokhod_map(z, lower=None, upper=None) -> SkorokhodResult:
    """Discrete two-sided Skorokhod solution along a path (axis 0 = time).

    x = z + k stays in [lower, upper]; k is the signed cumulative pushing.
    For a constant lower barrier and no upper barrier this reproduces the
    explicit formula x(t) = z(t) + max_{s<=t} (lower - z(s))^+ on the grid.
    Barrier crossing (lower > upper) truncates the projection horizon and
    reports the index.
    """
    z = np.asarray(z, float)
    m = z.shape[0]
    lo = np.full(z.shape, -np.inf) if lower is None else np.broadcast_to(
        np.asarray(lower, float), z.shape
    )
    hi = np.full(z.shape, np.inf) if upper is None else np.broadcast_to(
        np.asarray(upper, float), z.shape
    )
    x = np.empty_like(z)
    k = np.zeros_like(z)
    crossing = None
    # track the gap k = x - z: projection becomes a clip of k alone, which
    # reproduces the running-max formula bit for bit in the one-sided case
    kcur = np.clip(np.zeros_like(z[0]), lo[0] - z[0], hi[0] - z[0])
    x[0] = z[0] + kcur
    k[0] = kcur
    for j in range(1, m):
        if np.any(lo[j] > hi[j]):
            crossing = j if crossing is None else crossing
            x[j:] = x[j - 1]
            k[j:] = k[j - 1]
            break
        kcur = np.clip(kcur, lo[j] - z[j], hi[j] - z[j])
        x[j] = z[j] + kcur
        k[j] = kcur
    return SkorokhodResult(x=x, k=k, crossing_index=crossing)


@dataclass
class PathBundle:
    """Simulated trajectories with constraining increments and stop times.

    levels[i] has shape (n_recorded, n_paths, n_particles_i); k_lower and
    k_upper hold the cumulative push-up/push-down amounts at the final
    time.  tau is +inf for paths never stopped.  contact_fraction is the
    fraction of constrained particle-steps, over all paths, in which a
    push moved the particle off its raw Euler proposal: a projection onto
    a barrier, or a nonzero bridge-sampled push on an edge.
    """

    grid: np.ndarray
    levels: list
    k_lower: list
    k_upper: list
    tau: np.ndarray
    seed: int
    dt: float
    level_names: list
    contact_fraction: float = 0.0

    def terminal(self, level: int) -> np.ndarray:
        return self.levels[level][-1]

    @property
    def alive(self) -> np.ndarray:
        return ~np.isfinite(self.tau)


@dataclass
class _Level:
    """One level of an interlacing array.

    x is the (n_paths, size) state, replaced by a new array each step;
    gens holds one Philox stream per particle; particle i is bounded by
    columns i-1+above and i+above of the previous level.  bridge, set on
    the constrained levels of an edge system, holds one stream of Exp(1)
    draws per particle: the push off the previous level is then sampled
    from the bridge maximum of the gap instead of projected.
    """

    spec: DiffusionSpec
    x: np.ndarray
    gens: list
    above: int = 0
    bridge: Optional[list] = None


@dataclass(frozen=True)
class _StopRule:
    """A path stops at a collision inside a tested level or at a hit of a
    killing end (kill = (lower, upper), infinite for none).

    on_proposal=True tests level 0's proposal before anything moves, so a
    stopped path freezes for the whole step, and coincident particles
    count as collided.  Otherwise `levels` are tested after the step and
    only a strict crossing counts, since projected particles may touch.
    """

    levels: tuple
    on_proposal: bool
    kill: tuple = (-np.inf, np.inf)

    def hits(self, states) -> np.ndarray:
        stopped = np.zeros(states[0].shape[0], bool)
        lo, hi = self.kill
        for x in states:
            if x.shape[1] > 1:
                gaps = np.diff(x, axis=1)
                stopped |= np.any(gaps <= 0.0 if self.on_proposal else gaps < 0.0, axis=1)
            if np.isfinite(lo):
                stopped |= np.any(x <= lo, axis=1)
            if np.isfinite(hi):
                stopped |= np.any(x >= hi, axis=1)
        return stopped


def _streams(seed: int, kind: int, level: int, particles) -> list:
    """Counter-based Philox streams keyed by (kind, level, particle).

    Streams are pairwise independent by seed-sequence spawning and the
    assignment depends only on the integer key, so it is stable under any
    reordering of the simulation set-up.
    """
    return [
        np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(kind, level, i))))
        for i in particles
    ]


def _euler_raw(spec: DiffusionSpec, x, dt, xi):
    """Full-truncation Euler proposal, and the diffusivity a it used: the
    coefficients are evaluated at x clamped into the interval, a floored
    at 0."""
    xc = np.clip(x, *spec.interval)
    a = np.maximum(np.asarray(spec.a(xc), float), 0.0)
    return x + np.asarray(spec.b(xc), float) * dt + np.sqrt(2.0 * a * dt) * xi, a


def _bridge_max(a, b, var, e):
    """Maximum over a step of a Brownian bridge from a to b with variance
    var over the step, by inversion of P(max > m) = exp(-2 (m-a)(m-b) / var)
    at the Exp(1) draw e."""
    return 0.5 * (a + b + np.sqrt((b - a) ** 2 + 2.0 * var * e))


def _static_barriers(spec: DiffusionSpec):
    """(lower, upper) hard walls from regular-reflecting endpoints."""
    lo = spec.l if spec.behavior_l is Boundary.REGULAR_REFLECTING else -np.inf
    hi = spec.r if spec.behavior_r is Boundary.REGULAR_REFLECTING else np.inf
    return lo, hi


def _resolve_steps(T, dt, t0=0.0):
    n_steps = max(int(round((T - t0) / dt)), 1)
    return n_steps, (T - t0) / n_steps


def _record_indices(n_steps, stride):
    if stride is None:
        return {n_steps}
    return set(range(0, n_steps + 1, stride)) | {n_steps}


def _bound_pieces(size, m, shift, wall):
    """(particles, bound) pieces of one side of a level.

    Particle i is bounded by column i+shift of the previous level (m
    columns) when it exists, else by the static wall; an infinite wall
    bounds nothing and is left out.
    """
    lo = min(max(-shift, 0), size)
    hi = max(min(m - shift, size), lo)
    pieces = [(slice(lo, hi), slice(lo + shift, hi + shift))] if hi > lo else []
    if np.isfinite(wall):
        pieces += [(p, wall) for p in (slice(0, lo), slice(hi, size)) if p.stop > p.start]
    return pieces


def _check_start(levels, names):
    """Raise unless every path starts interlaced: particle i of level k >= 1
    within columns i-1+above and i+above of level k-1, up to the 1e-12
    slack simulate_two_level allows."""
    for k in range(1, len(levels)):
        prev, x = levels[k - 1].x, levels[k].x
        for lower, shift in ((True, levels[k].above - 1), (False, levels[k].above)):
            for p, src in _bound_pieces(x.shape[1], prev.shape[1], shift, np.inf):
                gap = prev[:, src] - x[:, p] if lower else x[:, p] - prev[:, src]
                if not np.all(gap <= 1e-12):
                    raise ValueError(
                        f"initial {names[k]} does not interlace with {names[k - 1]}: it starts "
                        f"{'below' if lower else 'above'} a particle that bounds it")


def _simulate(levels, n_steps, dt, t0, seed, names, record_stride, stop=None) -> PathBundle:
    """Step an interlacing array: each level in turn takes an Euler step
    and is projected onto the interval its bounds set, with the previous
    level already moved; a level with bridge streams is pushed off the
    previous one by the sampled bridge maximum instead.  Pushes, contacts
    and stop times are recorded for the paths alive after each stop
    test."""
    n_paths = levels[0].x.shape[0]
    tau = np.full(n_paths, np.inf)
    alive = np.ones(n_paths, bool)
    # a view of alive: the in-place stop updates below narrow it too
    where = alive[:, None] if stop is not None else True
    klow = [np.zeros_like(lv.x) for lv in levels]
    kup = [np.zeros_like(lv.x) for lv in levels]
    noise = [np.empty(lv.x.shape[::-1]) for lv in levels]
    expo = [None if lv.bridge is None else np.empty(lv.x.shape[::-1]) for lv in levels]
    # per level: (is_lower, particles, bound source, push accumulator), lower
    # side first so that the projection is min(max(raw, lower), upper)
    pieces = []
    for k, lv in enumerate(levels):
        m = levels[k - 1].x.shape[1] if k else 0
        size = lv.x.shape[1]
        lo_wall, hi_wall = _static_barriers(lv.spec)
        pieces.append(
            [(True, p, src, klow[k][:, p])
             for p, src in _bound_pieces(size, m, lv.above - 1, lo_wall)]
            + [(False, p, src, kup[k][:, p])
               for p, src in _bound_pieces(size, m, lv.above, hi_wall)])
    contacts = 0.0
    rec_idx = _record_indices(n_steps, record_stride)
    rec_t, rec = [t0], [[lv.x] for lv in levels]

    for j in range(1, n_steps + 1):
        t = t0 + j * dt
        for k, lv in enumerate(levels):
            for g, row in zip(lv.gens, noise[k]):
                g.standard_normal(out=row)
            raw, diff = _euler_raw(lv.spec, lv.x, dt, noise[k].T)
            if lv.bridge is not None:
                for g, row in zip(lv.bridge, expo[k]):
                    g.standard_exponential(out=row)
            proj = raw.copy()
            pushes = []
            for lower, p, src, acc in pieces[k]:
                bound = levels[k - 1].x[:, src] if isinstance(src, slice) else src
                gap = bound - raw[:, p] if lower else raw[:, p] - bound
                if lv.bridge is None:
                    push = np.maximum(gap, 0.0)
                    (np.maximum if lower else np.minimum)(proj[:, p], bound, out=proj[:, p])
                else:
                    # edge levels have no walls, so src is the leader's column;
                    # the gap and its variance start from the start-of-step state
                    start = prev_x[:, src] - lv.x[:, p] if lower else lv.x[:, p] - prev_x[:, src]
                    var = 2.0 * (prev_diff[:, src] + diff[:, p]) * dt
                    push = np.maximum(_bridge_max(start, gap, var, expo[k][p].T), 0.0)
                    proj[:, p] += push if lower else -push
                pushes.append((acc, push))
            if k == 0 and stop is not None and stop.on_proposal:
                stopped = stop.hits([proj])
                tau[alive & stopped] = t
                alive &= ~stopped
            prev_x, prev_diff = lv.x, diff
            lv.x = np.where(where, proj, lv.x)
            for acc, push in pushes:
                np.add(acc, push, out=acc, where=where)
            if k:
                # summed a particle at a time in stepping order, so the
                # fraction does not depend on how levels are laid out
                for c in np.count_nonzero((proj != raw) & where, axis=0).tolist():
                    contacts += c / n_paths
        if stop is not None and not stop.on_proposal:
            stopped = stop.hits([levels[k].x for k in stop.levels])
            tau[alive & stopped] = t
            alive &= ~stopped
        if j in rec_idx:
            rec_t.append(t)
            for r, lv in zip(rec, levels):
                r.append(lv.x)

    n_constrained = sum(lv.x.shape[1] for lv in levels[1:])
    return PathBundle(
        grid=np.asarray(rec_t),
        levels=[np.asarray(r) for r in rec],
        k_lower=klow,
        k_upper=kup,
        tau=tau,
        seed=seed,
        dt=dt,
        level_names=names,
        contact_fraction=contacts / max(n_steps * n_constrained, 1),
    )


def simulate_two_level(
    spec: DiffusionSpec,
    shape: Shape,
    x0,
    y0,
    T: float,
    dt: float,
    n_paths: int,
    seed: int = 0,
    y_spec: Optional[DiffusionSpec] = None,
    t0: float = 0.0,
    record_stride: Optional[int] = None,
) -> PathBundle:
    """Evolve (X, Y) on an interlacing space.

    Y advances first as independent y_spec-diffusions (default: the raw
    conjugate of spec, i.e. the two-level kernel dynamics).  X is then
    projected per step onto the interval between its updated Y neighbours.
    tau is set at the first Y collision or killing-boundary hit required
    by the shape; stopped paths are frozen.
    """
    from .twolevel import check_shape_assumptions

    check_shape_assumptions(spec, shape)
    if y_spec is None:
        y_spec = conjugate(spec)
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps, dt = _resolve_steps(T, dt, t0)
    x0 = np.asarray(x0, float)
    n2 = x0.shape[-1]
    x = np.broadcast_to(x0, (n_paths, n2)).copy()
    if callable(y0):
        y = np.array(y0(n_paths), float)
    else:
        y = np.broadcast_to(np.asarray(y0, float), (n_paths, np.asarray(y0).shape[-1])).copy()
    n1 = y.shape[-1]
    l, r = spec.interval
    if not np.all((y >= l - 1e-12) & (y <= r + 1e-12)):
        raise ValueError(f"initial y leaves the state interval [{l:g}, {r:g}]")

    killing = (Boundary.EXIT, Boundary.REGULAR_ABSORBING)
    stop = _StopRule(levels=(0,), on_proposal=True, kill=(
        l if y_spec.behavior_l in killing else -np.inf,
        r if y_spec.behavior_r in killing else np.inf,
    ))
    levels = [
        _Level(y_spec, y, _streams(seed, 0, 0, range(n1))),
        _Level(spec, x, _streams(seed, 1, 0, range(n2)), above=int(shape is not Shape.NNP1)),
    ]
    names = ["y", "x"]
    _check_start(levels, names)
    return _simulate(levels, n_steps, dt, t0, seed, names, record_stride, stop)


def simulate_gt(
    level_specs: Sequence[DiffusionSpec],
    x0,
    T: float,
    dt: float,
    n_paths: int,
    seed: int = 0,
    t0: float = 0.0,
    record_stride: Optional[int] = None,
) -> PathBundle:
    """Interlacing-array dynamics: each level is reflected per step off the
    already-updated previous level; the first level is free.

    Level sizes come from the initial data and may grow by one per level
    (the triangular pattern) or stay equal (the alternating/symplectic
    pattern, where the new level sits above the previous one).  x0: list of
    per-level arrays or a callable sampler(n_paths) -> list of arrays.
    tau is the first interior-level collision, matching the stopping rule
    under which the pattern dynamics are defined.  Every path of x0 must
    interlace.
    """
    N = len(level_specs)
    n_steps, dt = _resolve_steps(T, dt, t0)
    if callable(x0):
        states = [np.atleast_2d(np.asarray(a, float)).copy() for a in x0(n_paths)]
    else:
        states = [
            np.broadcast_to(np.asarray(a, float), (n_paths, np.asarray(a).shape[-1])).copy()
            for a in x0
        ]
    sizes = [x.shape[1] for x in states]
    if len(sizes) != N:
        raise ValueError("one initial array per level is required")
    for k in range(1, N):
        if sizes[k] - sizes[k - 1] not in (0, 1):
            raise ValueError("consecutive level sizes may grow by at most one")

    levels = [
        _Level(sp, x, _streams(seed, 2, k, range(sizes[k])),
               above=int(k > 0 and sizes[k] == sizes[k - 1]))
        for k, (sp, x) in enumerate(zip(level_specs, states))
    ]
    names = [f"level{k+1}" for k in range(N)]
    _check_start(levels, names)
    # only interior levels can collide; with none, no path ever stops
    stop = _StopRule(levels=tuple(range(1, N - 1)), on_proposal=False) if N > 2 else None
    return _simulate(levels, n_steps, dt, t0, seed, names, record_stride, stop)


def edge_ladder_spec(base: DiffusionSpec, n: int, k: int) -> DiffusionSpec:
    """Level-k spec of the edge system: drift b + (n-k) a' stays in-family
    for the quadratic-a / affine-b catalog."""
    m = n - k
    if m == 0:
        return base
    rec = FAMILIES.get(base.family)
    if rec is None or rec.ladder is None:
        raise ValueError(f"edge ladder undefined for family {base.family!r}")
    return make_spec(rec.ladder(base.params, m))


def simulate_edge(
    base: DiffusionSpec,
    n: int,
    side: str,
    x0,
    T: float,
    dt: float,
    n_paths: int,
    seed: int = 0,
    t0: float = 0.0,
    record_stride: Optional[int] = None,
) -> PathBundle:
    """One-sided-collision system along a pattern edge.

    side='right': particle k (spec of ladder level k) is pushed up off
    particle k-1, ordering increasing.  side='left': pushed down, ordering
    decreasing.  Particle 1 is free.  x0 must be ordered that way.  Each
    push is the sampled maximum of the gap over the step (see the module
    docstring), so no push inside a step is missed.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    specs = [edge_ladder_spec(base, n, k) for k in range(1, n + 1)]
    for sp in specs:
        if sp.behavior_l not in (Boundary.NATURAL, Boundary.ENTRANCE) or sp.behavior_r not in (
            Boundary.NATURAL,
            Boundary.ENTRANCE,
        ):
            raise ValueError(
                f"edge systems require natural/entrance boundaries; {sp.name} violates this"
            )
    n_steps, dt = _resolve_steps(T, dt, t0)
    x = np.broadcast_to(np.asarray(x0, float), (n_paths, n))
    above = int(side == "right")
    levels = [_Level(sp, x[:, i:i + 1].copy(), _streams(seed, 3, 0, [i]), above,
                     bridge=_streams(seed, 4, 0, [i]) if i else None)
              for i, sp in enumerate(specs)]
    _check_start(levels, [f"{side} edge particle {i + 1}" for i in range(n)])
    pb = _simulate(levels, n_steps, dt, t0, seed, ["edge"], record_stride)
    return replace(
        pb,
        levels=[np.concatenate(pb.levels, axis=-1)],
        k_lower=[np.hstack(pb.k_lower)],
        k_upper=[np.hstack(pb.k_upper)],
    )
