"""Discrete Skorokhod maps and Euler simulation of reflected systems.

Every simulator here steps one interlacing array.  A system is a list of
levels, each an (n_paths, size) state moved in order.  Particle i of level
k >= 1 is bounded below by column i-1+above and above by column i+above
of prev, level k-1 already moved this step, where above in {0, 1} is the
level's offset; an index out of range stands for the level's static wall
(a regular-reflecting endpoint, else none).  Level 0 sees only its walls.

  * two-level: levels (Y, X); NNP1 has above=0, NN and NP1N above=1;
  * GT: a level one larger than the previous has above=0 (triangular),
    an equal-size level above=1 (it sits above the previous one);
  * edge: one single-particle level per particle, above=1 on the right
    edge (pushed up) and above=0 on the left edge (pushed down).

Scheme: per time step each level in turn takes a full-truncation Euler
step (coefficients evaluated at the state clamped into the interval, the
standard positivity-preserving treatment of square-root diffusions) and
is then pushed off its bounds.  Per-step projection onto the bounds would
miss the pushes inside a step and leave an O(sqrt(dt)) deficit.  Each
bound pushes instead by the exact maximum over the step of the gap to it,
taken as a Brownian bridge from the start-of-step gap a <= 0 to the gap b
after the Euler proposal, with variance rate v frozen at the start of the
step:

    push = max(M, 0),  M = (a + b + sqrt((b - a)^2 + 2 v dt E)) / 2,

E ~ Exp(1).  For a bound set by a particle of the previous level,
v = 2 (a_nbr(x_nbr) + a(x)), its start-of-step diffusivity plus the
particle's own; for a static wall, v = 2 a(x).  The gap is bound minus
particle on the lower side, where the push is added, and particle minus
bound on the upper side, where it is subtracted.  M >= b, so a particle
bounded on one side stays on its side.  A particle bounded on both sides
is pushed from each with its own draw, both gaps measured from the same
Euler proposal, and the result is clipped onto [lower, upper], lower
bound first; the clip's move is added to the push of the side it moves
away from, so each step moves a particle by its Euler increment plus its
lower push minus its upper push.

Noise comes from counter-based Philox streams keyed (kind, level,
particle):

    (0, 0, i), (1, 0, i)   normals of two-level Y, X particle i
    (2, k, i)              normals of GT level k
    (3, 0, i)              normals of edge particle i
    (4, 0, i)              Exp(1) draws of edge particle i >= 1
    (5, k, i), (6, k, i)   Exp(1) draws of particle i of two-level or GT
                           level k (0 = Y, 1 = X), bounded below, above

Only bounded particles draw E, each side from its own stream, so the
normals are those of a system without pushes.  Bundles are
bit-reproducible for a fixed seed and independent of scheduling.

Stop rules: a two-level system tests Y's proposal before anything moves;
coincident or crossed Y particles, or a Y particle at a killing endpoint,
stop the path, which then stays frozen for the whole step.  A GT pattern
tests its interior levels after the step; only a strict crossing stops it.
Edge systems never stop.  Stop times are tested on the grid only.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    push moved the particle off its raw Euler proposal: a nonzero
    bridge-sampled push, or the clip of a particle bounded on both sides.
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
    columns i-1+above and i+above of the previous level.  bridge holds, for
    the lower and the upper side, one stream of Exp(1) draws per particle
    bounded on that side (particle index -> stream), from which its push
    off that bound is sampled; _bridge_streams supplies them.
    """

    spec: DiffusionSpec
    x: np.ndarray
    gens: list
    above: int = 0
    bridge: tuple = field(default_factory=lambda: ({}, {}))


@dataclass(frozen=True)
class _StopRule:
    """A path stops at a collision inside a tested level or at a hit of a
    killing end (kill = (lower, upper), infinite for none).

    on_proposal=True tests level 0's proposal before anything moves, so a
    stopped path freezes for the whole step, and coincident particles
    count as collided.  Otherwise `levels` are tested after the step and
    only a strict crossing counts, since clipped particles may touch.
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


def _stream(seed: int, key: tuple) -> np.random.Generator:
    """Counter-based Philox stream keyed by (kind, level, particle).

    Streams are pairwise independent by seed-sequence spawning and the
    assignment depends only on the integer key, so it is stable under any
    reordering of the simulation set-up.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _streams(seed: int, kind: int, level: int, particles) -> list:
    """One stream per particle i, keyed (kind, level, i)."""
    return [_stream(seed, (kind, level, i)) for i in particles]


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


def _pieces(levels, k):
    """(side, particles, bound) pieces of level k, side 0 (lower) first.

    A bound is a column slice of level k-1 or a static wall; particles
    bounded by neither on a side have no piece for it.
    """
    lv = levels[k]
    m = levels[k - 1].x.shape[1] if k else 0
    walls = _static_barriers(lv.spec)
    return [(side, p, src)
            for side, shift in enumerate((lv.above - 1, lv.above))
            for p, src in _bound_pieces(lv.x.shape[1], m, shift, walls[side])]


def _two_sided(pieces):
    """(particles, lower bound, upper bound) for the particles of one level
    that are bounded on both sides, from the level's pieces."""
    def restrict(src, p, r):
        if not isinstance(src, slice):
            return src
        d = src.start - p.start
        return slice(r.start + d, r.stop + d)

    out = []
    for _, p, lo in (pc for pc in pieces if pc[0] == 0):
        for _, q, hi in (pc for pc in pieces if pc[0] == 1):
            r = slice(max(p.start, q.start), min(p.stop, q.stop))
            if r.stop > r.start:
                out.append((r, restrict(lo, p, r), restrict(hi, q, r)))
    return out


def _bridge_streams(levels, seed, key):
    """Give every level one Exp(1) stream per bounded side and particle:
    particle i of level k bounded on side s (0 lower, 1 upper) draws from
    the stream keyed key(s, k, i)."""
    for k, lv in enumerate(levels):
        lv.bridge = ({}, {})
        for side, p, _ in _pieces(levels, k):
            for i in range(p.start, p.stop):
                lv.bridge[side][i] = _stream(seed, key(side, k, i))


def _side_key(side, k, i):
    """Bridge stream key of particle i of two-level or GT level k."""
    return (5 + side, k, i)


def _check_start(levels, names):
    """Raise unless every path starts inside its walls and interlaced: each
    level within its spec's interval, and particle i of level k >= 1 within
    columns i-1+above and i+above of level k-1, both up to 1e-12 slack."""
    for lv, name in zip(levels, names):
        l, r = lv.spec.interval
        if not np.all((lv.x >= l - 1e-12) & (lv.x <= r + 1e-12)):
            raise ValueError(
                f"initial {name} leaves the state interval [{l:g}, {r:g}] of {lv.spec.name}")
    for k in range(1, len(levels)):
        prev, x = levels[k - 1].x, levels[k].x
        for side, p, src in _pieces(levels, k):
            if not isinstance(src, slice):
                continue
            gap = prev[:, src] - x[:, p] if side == 0 else x[:, p] - prev[:, src]
            if not np.all(gap <= 1e-12):
                raise ValueError(
                    f"initial {names[k]} does not interlace with {names[k - 1]}: it starts "
                    f"{'below' if side == 0 else 'above'} a particle that bounds it")


def _simulate(levels, n_steps, dt, t0, seed, names, record_stride, stop=None) -> PathBundle:
    """Step an interlacing array: each level in turn takes an Euler step and
    is pushed off each of its bounds by the sampled bridge maximum of its
    gap, with the previous level already moved; a particle bounded on both
    sides is then clipped onto [lower, upper].  Pushes, contacts and stop
    times are recorded for the paths alive after each stop test."""
    n_paths = levels[0].x.shape[0]
    tau = np.full(n_paths, np.inf)
    alive = np.ones(n_paths, bool)
    # a view of alive: the in-place stop updates below narrow it too
    where = alive[:, None] if stop is not None else True
    klow = [np.zeros_like(lv.x) for lv in levels]
    kup = [np.zeros_like(lv.x) for lv in levels]
    noise = [np.empty(lv.x.shape[::-1]) for lv in levels]
    pieces = [_pieces(levels, k) for k in range(len(levels))]
    clips = [_two_sided(pc) for pc in pieces]
    sides = [sorted({side for side, _, _ in pc}) for pc in pieces]
    # per level and bounded side: the Exp(1) draws, of which only the rows of
    # bounded particles are filled, and this step's pushes, zero where unbounded
    expo = [[np.empty(lv.x.shape[::-1]) if s in sd else None for s in (0, 1)]
            for lv, sd in zip(levels, sides)]
    push = [[np.zeros_like(lv.x) if s in sd else None for s in (0, 1)]
            for lv, sd in zip(levels, sides)]
    contacts = 0.0
    rec_idx = _record_indices(n_steps, record_stride)
    rec_t, rec = [t0], [[lv.x] for lv in levels]

    for j in range(1, n_steps + 1):
        t = t0 + j * dt
        for k, lv in enumerate(levels):
            for g, row in zip(lv.gens, noise[k]):
                g.standard_normal(out=row)
            raw, diff = _euler_raw(lv.spec, lv.x, dt, noise[k].T)
            for side, streams in enumerate(lv.bridge):
                for i, g in streams.items():
                    g.standard_exponential(out=expo[k][side][i])
            proj = raw.copy()
            for side, p, src in pieces[k]:
                # the gap runs from the start-of-step state to the proposal;
                # its variance rate is frozen at the start of the step
                if isinstance(src, slice):
                    start_bound, bound = prev_x[:, src], levels[k - 1].x[:, src]
                    var = 2.0 * (prev_diff[:, src] + diff[:, p]) * dt
                else:
                    start_bound = bound = src
                    var = 2.0 * diff[:, p] * dt
                if side == 0:
                    start, end = start_bound - lv.x[:, p], bound - raw[:, p]
                else:
                    start, end = lv.x[:, p] - start_bound, raw[:, p] - bound
                out = push[k][side][:, p]
                np.maximum(_bridge_max(start, end, var, expo[k][side][p].T), 0.0, out=out)
                if side == 0:
                    proj[:, p] += out
                else:
                    proj[:, p] -= out
            for q, lo, hi in clips[k]:
                x = proj[:, q]
                before = x.copy()
                for clip, src in ((np.maximum, lo), (np.minimum, hi)):
                    clip(x, levels[k - 1].x[:, src] if isinstance(src, slice) else src, out=x)
                moved = x - before
                push[k][0][:, q] += np.maximum(moved, 0.0)
                push[k][1][:, q] -= np.minimum(moved, 0.0)
            if k == 0 and stop is not None and stop.on_proposal:
                stopped = stop.hits([proj])
                tau[alive & stopped] = t
                alive &= ~stopped
            prev_x, prev_diff = lv.x, diff
            lv.x = np.where(where, proj, lv.x)
            for side in sides[k]:
                acc = (klow, kup)[side][k]
                np.add(acc, push[k][side], out=acc, where=where)
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
    pushed off its updated Y neighbours, and walls, by the bridge-sampled
    pushes of the module docstring.
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
    _bridge_streams(levels, seed, _side_key)
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
    """Interlacing-array dynamics: each level is pushed off the
    already-updated previous level, and its walls, by the bridge-sampled
    pushes of the module docstring; the first level sees only its walls.

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
    _bridge_streams(levels, seed, _side_key)
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
    levels = [_Level(sp, x[:, i:i + 1].copy(), _streams(seed, 3, 0, [i]), above)
              for i, sp in enumerate(specs)]
    _check_start(levels, [f"{side} edge particle {i + 1}" for i in range(n)])
    # level k holds edge particle k, bounded on one side by its leader
    _bridge_streams(levels, seed, lambda s, k, i: (4, 0, k))
    pb = _simulate(levels, n_steps, dt, t0, seed, ["edge"], record_stride)
    return replace(
        pb,
        levels=[np.concatenate(pb.levels, axis=-1)],
        k_lower=[np.hstack(pb.k_lower)],
        k_upper=[np.hstack(pb.k_upper)],
    )
