"""Discrete Skorokhod maps and simulation of reflected systems.

Every simulator here steps one interlacing array.  A system is a list of
levels, each an (n_paths, size) state moved in order.  Particle i of level
k >= 1 is bounded below by column i-1+above and above by column i+above
of prev, level k-1 already moved this step, where above in {0, 1} is the
level's offset; an index out of range stands for the level's static wall
(a regular-reflecting endpoint, else none).  Level 0 sees only its walls.
The rule is twolevel's (interlace_slices, interlace_bounds).

  * two-level: levels (Y, X); X's above is the shape's (Shape.above);
  * GT: a level one larger than the previous has above=0 (triangular),
    an equal-size level above=1 (it sits above the previous one);
  * edge: one single-particle level per particle (catalog.edge_ladder),
    above=1 on the right edge (pushed up) and above=0 on the left edge.

A level's start is one row of coordinates for every path or one row per
path (_start).  A start that is not an array of finite numbers in one of
these shapes, leaves its interval or does not interlace raises a
ValueError that names it.

Scheme: per time step each level in turn takes a free step and is then
pushed off its bounds.  A non-killed besq level steps exactly, each
particle drawn as x' = dt chi'^2_d(x / dt) (catalog.exact_step), and so
does a lag level, by the time-changed besq draw of its kernel; that draw
has the law reflected at 0 already, so such a level has no static wall.
A level with constant coefficients (catalog.constant_coefficients: the
Brownian families, a = 1/2) steps x' = x + b dt + sqrt(dt) xi and
evaluates nothing per step; its bridge variances below are floats.  Every
other level takes a full-truncation Euler step (coefficients evaluated at
the state clamped into the interval, the standard positivity-preserving
treatment of square-root diffusions).  Each level's step is chosen once,
before the time loop; the constant step gives the bits of the evaluated
one, and the bridge arithmetic runs in place in the same order.

Per-step projection onto the bounds would miss the pushes inside a step
and leave an O(sqrt(dt)) deficit.  Each bound pushes instead by the exact
maximum over the step of the gap to it, taken as a Brownian bridge from
the start-of-step gap a <= 0 to the gap b after the free step, of
variance V over the step:

    push = max(M, 0),  M = (a + b + sqrt((b - a)^2 + 2 V E)) / 2,

E ~ Exp(1).  A level that steps exactly, and whose bounding level also has
a = 2x, pushes in u = sqrt(x), where every particle has unit noise: V is
2 dt off a particle of the previous level.  There the pushed u is floored
at 0 and mapped back by x = u^2, so the state never leaves [0, inf).
Every other level pushes in state units with the variance rate frozen at
the start of the step: V = 2 (a_nbr(x_nbr) + a(x)) dt off a particle, its
start-of-step diffusivity plus the particle's own, and V = 2 a(x) dt off a
static wall.  The gap is bound minus particle on the lower side, where the
push is added, and particle minus bound on the upper side, where it is
subtracted.  M >= b, so a particle bounded on one side stays on its side.
A particle bounded on both sides is pushed from each with its own draw,
both gaps measured from the same free proposal, and the result is clipped
onto [lower, upper], lower bound first.  For Brownian levels (a = 1/2) the
Euler step is exact and V is the gap's true variance, so the push is
exact, or nearly so, at any dt; the same holds for besq and lag levels in
u = sqrt(x), up to the drift of u inside the step.

Noise comes from SFC64 streams, one per key (kind, level, particle):

    (0, 0, i), (1, 0, i)   free-step draws of two-level Y, X particle i
    (2, k, i)              free-step draws of GT level k
    (3, 0, i)              free-step draws of edge particle i
    (4, 0, i)              Exp(1) draws of edge particle i >= 1
    (5, k, i), (6, k, i)   Exp(1) draws of particle i of two-level or GT
                           level k (0 = Y, 1 = X), bounded below, above

A free step draws normals (Euler, and the exact steps of besq:2 and
lag:2) or noncentral chi^2 variates.  Only bounded particles draw E, each
side from its own stream, so the free steps are those of a system without
pushes.  Bundles are bit-reproducible for a fixed seed and independent of
scheduling.

Stop rules: a two-level system tests Y's proposal before anything moves;
coincident or crossed Y particles, or a Y particle at a killing endpoint,
stop the path, which then stays frozen for the whole step.  A single Y
particle with no killing end can do neither, so that system has no stop
rule.  A GT pattern tests its interior levels after the step; only a
strict crossing stops it, so a pattern of at most two levels has none.
Edge systems never stop.  Without a stop rule no state or contact is
masked.  Stop times are tested on the grid only, so a crossing inside a
step goes unseen: a coarse dt is safe only for a system that does not stop.

Every bundle counts its draws by kind (PathBundle.draws), from the
system's structure: per step, each particle's free-step variates
(catalog.free_step_draws) and one Exp(1) per bounded side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .diffusion1d import Boundary, DiffusionSpec, conjugate
from .diffusion1d.catalog import (constant_coefficients, edge_ladder, exact_step,
                                 free_step_draws, quad_coords)
from .twolevel import (Shape, check_shape_assumptions, counts, interlace_bounds,
                       interlace_slices)


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
    """Simulated trajectories with stop times.

    levels[i] has shape (n_recorded, n_paths, n_particles_i).  tau is +inf
    for paths never stopped.
    contact_fraction is the fraction of constrained particle-steps, over all
    paths, in which a push moved the particle off its free proposal: a nonzero
    bridge-sampled push, or the clip of a particle bounded on both sides.
    draws counts the variates the run drew, by kind ('normal',
    'noncentral_chisquare', 'exponential'), derived from the system's
    structure: stopped paths draw too, so each count is a product of the
    step count, the path count and the system's draws per step.
    """

    grid: np.ndarray
    levels: list
    tau: np.ndarray
    seed: int
    dt: float
    level_names: list
    contact_fraction: float = 0.0
    draws: dict = field(default_factory=dict)

    def terminal(self, level: int) -> np.ndarray:
        return self.levels[level][-1]

    @property
    def alive(self) -> np.ndarray:
        return ~np.isfinite(self.tau)


@dataclass
class _Level:
    """One level of an interlacing array.

    x is the (n_paths, size) state, replaced by a new array each step;
    gens holds one SFC64 stream per particle; particle i is bounded by
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
    """SFC64 stream keyed by (kind, level, particle).

    Streams are pairwise independent by seed-sequence spawning and the
    assignment depends only on the integer key, so it is stable under any
    reordering of the simulation set-up.  No stream is advanced, jumped or
    shared, so the generator need not be counter-based; SFC64 draws the
    same ziggurat variates as Philox at about 70 % of its cost per normal.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _check_counts(n_paths, record_stride, **counts):
    """Raise unless n_paths, record_stride when given, and each count passed
    by its parameter's name are positive integers."""
    stride = 1 if record_stride is None else record_stride
    for name, v in (("n_paths", n_paths), ("record_stride", stride), *counts.items()):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")


def _free_step(lv, dt):
    """Level lv's free step, chosen once before the time loop: a function of
    the start-of-step state x that returns the free proposal and the
    diffusivity a at the start of the step, floored at 0.

    An exact step draws each particle's column from its own stream.  Any
    other level fills one buffer with its particles' normals xi.  A level
    with constant coefficients steps x + b dt + sqrt(2 a dt) xi and returns
    its a as a float; any other takes a full-truncation Euler step, its a
    and b evaluated at x clamped into the interval."""
    spec, gens = lv.spec, lv.gens
    step = exact_step(spec)
    if step is not None:
        def free(x):
            xc = np.clip(x, *spec.interval)
            diff = np.maximum(np.asarray(spec.a(xc), float), 0.0)
            return np.column_stack([step(xc[:, i], dt, g) for i, g in enumerate(gens)]), diff
        return free

    noise = np.empty(lv.x.shape[::-1])

    def normals():
        for g, row in zip(gens, noise):
            g.standard_normal(out=row)
        return noise.T

    const = constant_coefficients(spec)
    if const is None:
        def free(x):
            xc = np.clip(x, *spec.interval)
            diff = np.maximum(np.asarray(spec.a(xc), float), 0.0)
            b = np.asarray(spec.b(xc), float)
            return x + b * dt + np.sqrt(2.0 * diff * dt) * normals(), diff
        return free

    diff = max(const[0], 0.0)
    scale, drift = math.sqrt(2.0 * diff * dt), const[1] * dt

    def free(x):
        xi = normals()
        np.multiply(xi, scale, out=xi)
        raw = x + drift
        raw += xi
        return raw, diff
    return free


def _cols(v, cols):
    """Columns cols of a per-particle array; a float stands for every column."""
    return v[:, cols] if isinstance(v, np.ndarray) else v


def _root(x):
    """u = sqrt(x), signed, so that an Euler proposal of a bounding level
    below 0 maps too and the map stays monotone."""
    return np.copysign(np.sqrt(np.abs(x)), x)


def _pushes_in_root(levels, k, pieces):
    """True when level k pushes in u = sqrt(x): it steps exactly, and it and
    any level whose particles bound it have a = 2x, so unit noise in u."""
    coords = {quad_coords(levels[k].spec)}
    if any(isinstance(src, slice) for _, _, src in pieces):
        coords.add(quad_coords(levels[k - 1].spec))
    return exact_step(levels[k].spec) is not None and coords == {"sqrt"}


def _bridge_max(a, b, var, e):
    """Maximum over a step of a Brownian bridge from a to b with variance
    var over the step, by inversion of P(max > m) = exp(-2 (m-a)(m-b) / var)
    at the Exp(1) draw e: 0.5 (a + b + sqrt((b - a)^2 + 2 var e)), in that
    order of operations.  a and e are scratch: the maximum is written over a
    and returned."""
    r = np.subtract(b, a)
    np.square(r, out=r)
    r += np.multiply(e, 2.0 * var, out=e)
    np.sqrt(r, out=r)
    np.add(a, b, out=a)
    a += r
    a *= 0.5
    return a


def _static_barriers(spec: DiffusionSpec):
    """(lower, upper) hard walls from regular-reflecting endpoints; none for
    a spec with an exact step, whose draw has the reflected law already."""
    if exact_step(spec) is not None:
        return -np.inf, np.inf
    lo = spec.l if spec.behavior_l is Boundary.REGULAR_REFLECTING else -np.inf
    hi = spec.r if spec.behavior_r is Boundary.REGULAR_REFLECTING else np.inf
    return lo, hi


def _resolve_steps(T, dt, t0=0.0):
    """(step count, step) that reach T from t0 in steps of about dt."""
    if not dt > 0:  # nan fails too
        raise ValueError(f"dt must be positive, got {dt:g}")
    for name, v in (("end time t", T), ("start time t0", t0)):
        if not math.isfinite(v):
            raise ValueError(f"the {name} must be finite, got {v:g}")
    if not T > t0:
        raise ValueError(f"the end time t = {T:g} must be after the start time {t0:g}")
    n_steps = max(int(round((T - t0) / dt)), 1)
    return n_steps, (T - t0) / n_steps


def _record_indices(n_steps, stride):
    if stride is None:
        return {n_steps}
    return set(range(0, n_steps + 1, stride)) | {n_steps}


def _pieces(levels, k):
    """(side, particles, bound) pieces of level k, side 0 (lower) first.

    On each side the particles with a bounding column of level k-1
    (twolevel.interlace_slices) come first, bounded by that column slice;
    the rest are bounded by the static wall, and an infinite wall bounds
    nothing and is left out.
    """
    lv = levels[k]
    size, m = lv.x.shape[1], levels[k - 1].x.shape[1] if k else 0
    out = []
    for side, (shift, wall) in enumerate(zip((lv.above - 1, lv.above), _static_barriers(lv.spec))):
        p, cols = interlace_slices(size, m, shift)
        pieces = [(p, cols)]
        if np.isfinite(wall):
            pieces += [(slice(0, p.start), wall), (slice(p.stop, size), wall)]
        out += [(side, q, src) for q, src in pieces if q.stop > q.start]
    return out


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
    columns i-1+above and i+above of level k-1 (twolevel.interlace_bounds),
    both up to 1e-12 slack."""
    for lv, name in zip(levels, names):
        l, r = lv.spec.interval
        if not np.all((lv.x >= l - 1e-12) & (lv.x <= r + 1e-12)):
            raise ValueError(
                f"initial {name} leaves the state interval [{l:g}, {r:g}] of {lv.spec.name}")
    for k in range(1, len(levels)):
        x = levels[k].x
        lo, hi = interlace_bounds(levels[k - 1].x, x.shape[1], levels[k].above)
        for side, inside in enumerate((x >= lo - 1e-12, x <= hi + 1e-12)):
            if not np.all(inside):
                raise ValueError(
                    f"initial {names[k]} does not interlace with {names[k - 1]}: it starts "
                    f"{('below', 'above')[side]} a particle that bounds it")


def _simulate(levels, n_steps, dt, t0, seed, names, record_stride, stop=None) -> PathBundle:
    """Step an interlacing array: each level in turn takes a free step and
    is pushed off each of its bounds by the sampled bridge maximum of its
    gap, with the previous level already moved; a particle bounded on both
    sides is then clipped onto [lower, upper].  Contacts and stop times are
    recorded for the paths alive after each stop test; with no stop rule
    nothing is masked."""
    n_levels, n_paths = len(levels), levels[0].x.shape[0]
    tau = np.full(n_paths, np.inf)
    alive = np.ones(n_paths, bool)
    # a view of alive: the in-place stop updates below narrow it too
    where = alive[:, None]
    free = [_free_step(lv, dt) for lv in levels]
    pieces = [_pieces(levels, k) for k in range(n_levels)]
    clips = [_two_sided(pc) for pc in pieces]
    # start- and end-of-step gaps of each piece, written over every step;
    # the push is written over the start gap
    gaps = [[(np.empty((n_paths, p.stop - p.start)), np.empty((n_paths, p.stop - p.start)))
             for _, p, _ in pc] for pc in pieces]
    # which levels push in u = sqrt(x); u holds the state in u of each level
    # that does and of each level that bounds one, None elsewhere
    root = [_pushes_in_root(levels, k, pieces[k]) for k in range(n_levels)]
    u = [_root(lv.x) if r or r_next else None
         for lv, r, r_next in zip(levels, root, root[1:] + [False])]
    # per level and bounded side: the Exp(1) draws, of which only the rows of
    # bounded particles are filled
    expo = [[np.empty(lv.x.shape[::-1]) if streams else None for streams in lv.bridge]
            for lv in levels]
    contacts = 0.0
    rec_idx = _record_indices(n_steps, record_stride)
    rec_t, rec = [t0], [[lv.x] for lv in levels]

    for j in range(1, n_steps + 1):
        t = t0 + j * dt
        for k, lv in enumerate(levels):
            raw, diff = free[k](lv.x)
            for side, streams in enumerate(lv.bridge):
                for i, g in streams.items():
                    g.standard_exponential(out=expo[k][side][i])
            # the pushes act on the level's push coordinates
            start_x, raw_u = (u[k], _root(raw)) if root[k] else (lv.x, raw)
            proj = raw_u.copy()
            for (side, p, src), (g0, g1) in zip(pieces[k], gaps[k]):
                # the gap runs from the start-of-step state to the proposal;
                # a frozen variance rate is taken at the start of the step
                if not isinstance(src, slice):
                    start_bound = bound = src
                    var = 2.0 * _cols(diff, p) * dt
                elif root[k]:
                    start_bound, bound = prev_u[:, src], u[k - 1][:, src]
                    var = 2.0 * dt
                else:
                    start_bound, bound = prev_x[:, src], levels[k - 1].x[:, src]
                    var = 2.0 * (_cols(prev_diff, src) + _cols(diff, p)) * dt
                if side == 0:
                    np.subtract(start_bound, start_x[:, p], out=g0)
                    np.subtract(bound, raw_u[:, p], out=g1)
                else:
                    np.subtract(start_x[:, p], start_bound, out=g0)
                    np.subtract(raw_u[:, p], bound, out=g1)
                push = np.maximum(_bridge_max(g0, g1, var, expo[k][side][p].T), 0.0, out=g0)
                if side == 0:
                    proj[:, p] += push
                else:
                    proj[:, p] -= push
            bounds = (u[k - 1] if root[k] else levels[k - 1].x) if k else None
            for q, lo, hi in clips[k]:
                x = proj[:, q]
                for clip, src in ((np.maximum, lo), (np.minimum, hi)):
                    clip(x, bounds[:, src] if isinstance(src, slice) else src, out=x)
            if root[k]:
                # the state is proj^2, or the free proposal where nothing pushed
                np.maximum(proj, 0.0, out=proj)
                new_x = np.where(proj != raw_u, np.square(proj), raw)
            else:
                new_x = proj
            if k == 0 and stop is not None and stop.on_proposal:
                stopped = stop.hits([new_x])
                tau[alive & stopped] = t
                alive &= ~stopped
            prev_x, prev_u, prev_diff = lv.x, u[k], diff
            # new_x is a fresh array each step, so recorded states never change
            lv.x = new_x if stop is None else np.where(where, new_x, lv.x)
            if u[k] is not None:
                u[k] = _root(lv.x)
            if k:
                contact = proj != raw_u
                if stop is not None:
                    contact &= where
                # summed a particle at a time in stepping order, so the
                # fraction does not depend on how levels are laid out; a
                # column at a time, since numpy's count along axis 0 of a
                # (paths, 2) array costs ten times as much
                for i in range(contact.shape[1]):
                    contacts += int(np.count_nonzero(contact[:, i])) / n_paths
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
        tau=tau,
        seed=seed,
        dt=dt,
        level_names=names,
        contact_fraction=contacts / max(n_steps * n_constrained, 1),
        draws=_draws(levels, n_steps),
    )


def _draws(levels, n_steps) -> dict:
    """Variates a run of n_steps draws, by kind: each particle's free-step
    draws and one Exp(1) per bounded side, every step and on every path,
    stopped or not."""
    n_paths = levels[0].x.shape[0]
    per_step = dict.fromkeys(("normal", "noncentral_chisquare", "exponential"), 0)
    for lv in levels:
        for kind, n in free_step_draws(lv.spec).items():
            per_step[kind] += n * lv.x.shape[1]
        per_step["exponential"] += sum(len(streams) for streams in lv.bridge)
    return {kind: n * n_steps * n_paths for kind, n in per_step.items()}


def _start(x0, n_paths, what) -> np.ndarray:
    """x0 as a new (n_paths, size) float array: one row for every path, of
    shape (size,) or (1, size), or one row per path, (n_paths, size).  Any
    other shape, or a start that is not finite numbers, raises a ValueError
    that names `what`."""
    try:
        a = np.asarray(x0, float)
    except (TypeError, ValueError):
        a = None
    if a is None or not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be an array of finite numbers")
    if a.ndim not in (1, 2) or a.ndim == 2 and a.shape[0] not in (1, n_paths):
        k = a.shape[1] if a.ndim == 2 else "k"
        raise ValueError(f"{what} has shape {a.shape}; expected ({k},) for every path or "
                         f"({n_paths}, {k}), one row per path")
    return np.broadcast_to(a, (n_paths, a.shape[-1])).copy()


def _run(specs, starts, above, names, free_key, bridge_key, n_steps, dt, t0, seed,
         record_stride, stop=None) -> PathBundle:
    """Build, check and step an interlacing array: level k has spec
    specs[k], start starts[k] and offset above[k], and its particle i draws
    free steps from stream free_key(k, i) and side s's pushes from stream
    bridge_key(s, k, i)."""
    levels = [_Level(sp, x, [_stream(seed, free_key(k, i)) for i in range(x.shape[1])], ab)
              for k, (sp, x, ab) in enumerate(zip(specs, starts, above))]
    _check_start(levels, names)
    _bridge_streams(levels, seed, bridge_key)
    return _simulate(levels, n_steps, dt, t0, seed, names, record_stride, stop)


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
    tau is set at the first Y collision or hit of a killing end of y_spec
    required by the shape; stopped paths are frozen.  x0 and y0 are each
    one row for every path or one row per path (_start), of the shape's
    particle counts, and every path must interlace, else a ValueError names
    the start.
    """
    check_shape_assumptions(spec, shape)
    _check_counts(n_paths, record_stride)
    if y_spec is None:
        y_spec = conjugate(spec)
    n_steps, dt = _resolve_steps(T, dt, t0)
    x, y = _start(x0, n_paths, "x0"), _start(y0, n_paths, "y0")
    n1, n2 = y.shape[1], x.shape[1]
    for name, size in (("y", n1), ("x", n2)):
        if size == 0:
            raise ValueError(f"the {name} level is empty: each level needs at least one particle")
    if n2 != counts(shape, n1):
        raise ValueError(f"{n2} x and {n1} y particles do not match the shape {shape.value}")
    l, r = y_spec.interval
    killing = (Boundary.EXIT, Boundary.REGULAR_ABSORBING)
    kill = (l if y_spec.behavior_l in killing else -np.inf,
            r if y_spec.behavior_r in killing else np.inf)
    # a single Y particle can neither collide nor, with no killing end, be
    # killed: such a system has no stop rule
    stop = (_StopRule(levels=(0,), on_proposal=True, kill=kill)
            if n1 > 1 or np.isfinite(kill).any() else None)
    return _run([y_spec, spec], [y, x], [0, shape.above], ["y", "x"], lambda k, i: (k, 0, i),
                _side_key, n_steps, dt, t0, seed, record_stride, stop)


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
    pattern, where the new level sits above the previous one).  x0 is a
    list of per-level starts, each one row for every path or one row per
    path (_start); every path must interlace, else a ValueError names the
    level.  tau is the first interior-level collision, matching the
    stopping rule under which the pattern dynamics are defined.
    """
    N = len(level_specs)
    if N == 0:
        raise ValueError("level_specs is empty: a pattern needs at least one level")
    n_steps, dt = _resolve_steps(T, dt, t0)
    _check_counts(n_paths, record_stride)
    if not isinstance(x0, (list, tuple, np.ndarray)) or len(x0) != N:
        raise ValueError(f"x0 must be a list of one start per level, {N} in all")
    states = [_start(a, n_paths, f"x0 level {k + 1}") for k, a in enumerate(x0)]
    sizes = [x.shape[1] for x in states]
    if 0 in sizes:
        raise ValueError(f"level {sizes.index(0) + 1} is empty: each level needs at least one "
                         "particle")
    for k in range(1, N):
        if sizes[k] - sizes[k - 1] not in (0, 1):
            raise ValueError("consecutive level sizes may grow by at most one")
    above = [int(k > 0 and sizes[k] == sizes[k - 1]) for k in range(N)]
    # only interior levels can collide; with none, no path ever stops
    stop = _StopRule(levels=tuple(range(1, N - 1)), on_proposal=False) if N > 2 else None
    return _run(level_specs, states, above, [f"level{k+1}" for k in range(N)],
                lambda k, i: (2, k, i), _side_key, n_steps, dt, t0, seed, record_stride, stop)


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
    decreasing.  Particle 1 is free.  x0 is one row of n coordinates for
    every path or one row per path (_start), ordered that way, else a
    ValueError names it.  Each push is the sampled maximum of the gap over
    the step (see the module docstring), so no push inside a step is missed.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _check_counts(n_paths, record_stride, n=n)
    specs = edge_ladder(base, n)
    n_steps, dt = _resolve_steps(T, dt, t0)
    x = _start(x0, n_paths, "x0")
    if x.shape[1] != n:
        raise ValueError(f"an edge of n = {n} particles needs {n} start coordinates, "
                         f"got {x.shape[1]}")
    # level k holds edge particle k, bounded on one side by its leader
    pb = _run(specs, np.split(x, n, axis=1), [int(side == "right")] * n,
              [f"{side} edge particle {i + 1}" for i in range(n)], lambda k, i: (3, 0, k),
              lambda s, k, i: (4, 0, k), n_steps, dt, t0, seed, record_stride)
    return replace(pb, levels=[np.concatenate(pb.levels, axis=-1)], level_names=["edge"])
