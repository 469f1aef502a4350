"""Manhattan-grid city model.

The city is built from two independent one dimensional Poisson point processes,
one per axis, each with density ``lam = 1 / (mu_b + mu_s)``.  Consecutive points
bound a cell; every cell splits into a street band on the low-coordinate side
and a building band on the high side, so streets run the full length of the
region in both directions and buildings occupy the rectangular blocks where two
building bands overlap.  Each block carries one building with a Rayleigh
distributed height.

There is one sampler: every city, one or a Monte Carlo chunk of them, is a
``_draw_anchored`` draw, with a street edge pinned at an anchor y.  A draw
makes only its RNG calls, each run of axis points as sorted unit variates,
and ``_join_cities`` maps a whole chunk's points to meters at once.

Distances are meters, times are seconds throughout.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import operator
import reprlib
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

GRID_FORMAT = "uavlos-grid-v1"


class DegenerateGridError(ValueError):
    """Raised when the requested region cannot hold a street grid."""


class DegenerateGeometryError(ValueError):
    """Raised when a link geometry has no meaningful crossing structure."""


class UserInBuildingError(ValueError):
    """Raised when a ground position sits inside a building footprint."""


# most mean cells (lam times side) a region may hold on either axis, and in
# all ((lam X)(lam Y)): a city draw allocates its axis points and its height
# matrix at once, so this keeps each to about 2**16 doubles (0.5 MB) in the
# mean, where an unchecked region can ask for more memory than the host has
MAX_MEAN_CELLS = 2.0**16


def _check_finite(*values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError("every field must be a finite number")


@dataclass
class GridParams:
    """City statistics: mean building width, mean street width, height scale.

    ``region`` gives the side lengths of the modeled area, centered on the
    origin, so a 400 x 400 region spans [-200, 200] on both axes.
    """

    mu_b: float
    mu_s: float
    sigma: float
    region: tuple[float, float] = (400.0, 400.0)

    def __post_init__(self) -> None:
        if len(self.region) != 2:
            raise ValueError(f"region must have two sides, got {len(self.region)}")
        _check_finite(self.mu_b, self.mu_s, self.sigma, *self.region)
        if self.mu_b <= 0 or self.mu_s <= 0:
            raise ValueError("mean widths must be positive")
        if self.sigma <= 0:
            raise ValueError("height scale must be positive")
        if self.region[0] <= 0 or self.region[1] <= 0:
            raise DegenerateGridError("region too small to contain a cell")
        nx, ny = self.lam * self.region[0], self.lam * self.region[1]
        if max(nx, ny, nx * ny) > MAX_MEAN_CELLS:
            raise ValueError(f"a {self.region[0]:g} x {self.region[1]:g} m region holds "
                             f"{nx:g} x {ny:g} mean cells, more than {MAX_MEAN_CELLS:g} "
                             "on an axis or in all")

    @property
    def lam(self) -> float:
        """Axis point density, one street/building pair per 1/lam meters."""
        return 1.0 / (self.mu_b + self.mu_s)

    @property
    def street_fraction(self) -> float:
        return self.mu_s / (self.mu_b + self.mu_s)

    @property
    def box(self) -> tuple[float, float, float, float]:
        """(x_lo, x_hi, y_lo, y_hi) of the modeled area."""
        hx, hy = self.region[0] / 2.0, self.region[1] / 2.0
        return (-hx, hx, -hy, hy)


@dataclass
class Uav:
    """A static aerial platform at (x, y, height) with a 3D link range."""

    x: float
    y: float
    height: float
    link_range: float = math.inf

    def __post_init__(self) -> None:
        _check_finite(self.x, self.y, self.height)
        if self.height <= 0:
            raise ValueError("height must be positive")
        if not self.link_range > 0:  # +inf is unlimited range; nan fails here
            raise ValueError("link range must be positive")


@dataclass
class UserMotion:
    """Ground user walking in the +X direction at constant speed."""

    x0: float
    y0: float
    speed: float
    duration: float

    def __post_init__(self) -> None:
        _check_finite(self.x0, self.y0, self.speed, self.duration)
        if self.speed < 0:
            raise ValueError("speed must be nonnegative")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")

    def position(self, t: float) -> tuple[float, float]:
        return (self.x0 + self.speed * t, self.y0)


@dataclass
class Pairs:
    """User-platform pairs, one row each: a user walking in +X from (x0, y0)
    at ``speed`` for ``duration`` seconds, linked to a platform at (ux, uy)
    ``height`` meters up.  The fields are arrays of one shape, or scalars
    for one pair that holds for every row.  A record iterates over its seven
    fields, so it packs into one array and one array unpacks into a record."""

    x0: np.ndarray | float
    y0: np.ndarray | float
    speed: np.ndarray | float
    duration: np.ndarray | float
    ux: np.ndarray | float
    uy: np.ndarray | float
    height: np.ndarray | float

    @classmethod
    def one(cls, motion: UserMotion, u: Uav, *rest) -> "Pairs":
        """Walk motion with platform u for every row; ``rest`` fills a subclass's fields."""
        return cls(motion.x0, motion.y0, motion.speed, motion.duration, u.x, u.y, u.height, *rest)

    @classmethod
    def of(cls, motions: list[UserMotion], uavs: list[Uav], *rest) -> "Pairs":
        """Row r pairs motions[r] with uavs[r]; ``rest`` as for ``one``."""
        walks = np.array([(m.x0, m.y0, m.speed, m.duration) for m in motions], dtype=float)
        platforms = np.array([(u.x, u.y, u.height) for u in uavs], dtype=float)
        return cls(*walks.reshape(-1, 4).T.copy(), *platforms.reshape(-1, 3).T.copy(), *rest)

    def __iter__(self):
        return iter((self.x0, self.y0, self.speed, self.duration, self.ux, self.uy, self.height))

    def take(self, rows) -> "Pairs":
        """The pairs of the given rows (an index, index array, mask, slice or
        tuple of them); a record of scalars holds for every row and is its own."""
        if not isinstance(self.x0, np.ndarray):
            return self
        return Pairs(*(f[rows] for f in self))

    @property
    def dy(self):
        return self.uy - self.y0

    @property
    def box(self):
        """(x_lo, x_hi, y_lo, y_hi) of the box each walk's links lie in; a
        walk runs east, from x0 to x0 + speed * duration."""
        x_end = self.x0 + self.speed * self.duration
        return (np.minimum(self.x0, self.ux), np.maximum(x_end, self.ux),
                np.minimum(self.y0, self.uy), np.maximum(self.y0, self.uy))


FACE = "face"  # first contact slides along a building front line (parallel X)
WALL = "wall"  # first contact pinned on a west wall (parallel Y)
OPEN = "open"  # no contact at all, the link sees no building edge


def _check_cells(lo: np.ndarray, hi: np.ndarray, splits: np.ndarray) -> None:
    """Axis invariants of ``UrbanGrid`` on cells [lo, hi) and their band splits."""
    if len(splits) != len(lo):
        raise ValueError(f"{len(splits)} band splits for {len(lo)} cells")
    if np.count_nonzero(hi - lo <= 0.0):
        raise ValueError("axis points must be strictly increasing")
    if np.count_nonzero(splits < lo) or np.count_nonzero(splits > hi):
        raise ValueError("band split outside its cell")


def _check_shapes(shapes: list[tuple], nx: list[int], ny: list[int]) -> None:
    """Height matrix shapes against cell counts (nx, ny), one per city."""
    if shapes != list(zip(nx, ny)):
        raise ValueError("height matrix shape does not match cell counts")


def _check_heights(heights: np.ndarray) -> None:
    if np.count_nonzero(heights < 0):
        raise ValueError("negative building height")


def _band(points: np.ndarray, splits: np.ndarray, c: float) -> tuple[str, int, float, float]:
    """("street" | "building", cell index, band_lo, band_hi) at c on one axis."""
    if len(points) < 2 or c < points[0] or c >= points[-1]:
        return ("street", -1, -math.inf, math.inf)
    k = int(points.searchsorted(c, "right")) - 1
    if c < splits[k]:
        return ("street", k, float(points[k]), float(splits[k]))
    return ("building", k, float(splits[k]), float(points[k + 1]))


@dataclass
class UrbanGrid:
    """One sampled city: axis points, per-cell band splits, block heights.

    ``x_splits[k]`` is the boundary between the street band and the building
    band inside the cell [x_points[k], x_points[k+1]); same for Y.  Block
    (k, j) is the rectangle x in [x_splits[k], x_points[k+1]) crossed with
    y in [y_splits[j], y_points[j+1]) and has height block_heights[k, j].
    ``cities`` holds the grid as a chunk of one city, derived from the rest.
    """

    params: GridParams
    seed: int
    x_points: np.ndarray
    y_points: np.ndarray
    x_splits: np.ndarray
    y_splits: np.ndarray
    block_heights: np.ndarray
    cities: _Cities = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for pts, spl in ((self.x_points, self.x_splits), (self.y_points, self.y_splits)):
            _check_cells(pts[:-1], pts[1:], spl)
        nx, ny = max(len(self.x_points) - 1, 0), max(len(self.y_points) - 1, 0)
        _check_shapes([self.block_heights.shape], [nx], [ny])
        _check_heights(self.block_heights)
        # the grid as a chunk of one city, as the chunk passes judge cities
        self.cities = _Cities(self.x_points, self.y_points, *self.building_columns(),
                              *self.building_rows(), self.block_heights.ravel(),
                              np.array([nx]), np.array([ny]), np.ones(1, dtype=int))

    # -- band queries ---------------------------------------------------------

    def band_at(self, axis: str, c: float) -> tuple[str, int, float, float]:
        """("street" | "building", cell index, band_lo, band_hi) at coordinate c.

        Outside the sampled point range everything counts as street, cell -1.
        """
        if axis == "x":
            return _band(self.x_points, self.x_splits, c)
        return _band(self.y_points, self.y_splits, c)

    def street_width_at_y(self, y: float) -> float:
        """Width of the street band containing y; errors if y is in a building band."""
        kind, k, lo, hi = self.band_at("y", y)
        if kind != "street":
            raise UserInBuildingError(f"y = {y} lies in a building band")
        if k < 0:
            raise DegenerateGeometryError("y outside the sampled street structure")
        return hi - lo

    def is_inside_building(self, x: float, y: float) -> bool:
        kx = self.band_at("x", x)
        ky = self.band_at("y", y)
        return kx[0] == "building" and ky[0] == "building"

    def building_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(west edges, east edges) of the vertical building bands."""
        return self.x_splits, self.x_points[1:]

    def building_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return self.y_splits, self.y_points[1:]

    def blocks_overlapping(
        self, x_lo: float, x_hi: float, y_lo: float, y_hi: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Blocks whose footprints share more than an edge with the axis-aligned
        box: ``_link_blocks`` on the grid's one city for one link's box.

        Returns (west, east, south, north, height) arrays, one entry per block.
        """
        box = np.array([[x_lo], [x_hi], [y_lo], [y_hi]], dtype=float)
        return _link_blocks(self.cities, *box)[1:]

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "format": GRID_FORMAT,
            # SeedSequence-seeded grids (Monte Carlo trials) serialize as seed 0
            "seed": self.seed if isinstance(self.seed, (int, np.integer)) else 0,
            "params": {
                "mu_b": self.params.mu_b,
                "mu_s": self.params.mu_s,
                "sigma": self.params.sigma,
                "region": list(self.params.region),
            },
            "x_points": self.x_points.tolist(),
            "y_points": self.y_points.tolist(),
            "x_splits": self.x_splits.tolist(),
            "y_splits": self.y_splits.tolist(),
            "block_heights": self.block_heights.tolist(),
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "UrbanGrid":
        """The grid ``to_json`` wrote.  Raises ValueError, naming the field,
        for a payload that is not such a grid."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("format") != GRID_FORMAT:
            found = payload.get("format") if isinstance(payload, dict) else payload
            raise ValueError(f"grid format must be {GRID_FORMAT!r}, got {reprlib.repr(found)}")
        p = payload.get("params")
        if not isinstance(p, dict):
            raise ValueError(f"grid params must be an object, got {reprlib.repr(p)}")
        seed = payload.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"grid seed must be an integer, got {reprlib.repr(seed)}")
        mu_b, mu_s, sigma = (_json_numbers(p, k) for k in ("mu_b", "mu_s", "sigma"))
        params = GridParams(mu_b, mu_s, sigma, tuple(_json_numbers(p, "region", 1).tolist()))
        xp, yp, xs, ys = (_json_numbers(payload, k, 1)
                          for k in ("x_points", "y_points", "x_splits", "y_splits"))
        heights = _json_numbers(payload, "block_heights", 2)
        nx, ny = max(len(xp) - 1, 0), max(len(yp) - 1, 0)
        if heights.size == nx * ny == 0:  # ``tolist`` keeps no rows of an (0, ny) matrix
            heights = heights.reshape(nx, ny)
        return cls(params, seed, xp, yp, xs, ys, heights)


def _json_numbers(obj: dict, name: str, depth: int = 0):
    """Field ``name`` of a JSON object: a finite number, as a float, or at
    depth d a list of depth d - 1 values, as a float array."""
    def fits(v, d: int) -> bool:
        if d:
            return isinstance(v, list) and all(fits(x, d - 1) for x in v)
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    value = obj.get(name)
    try:
        out = np.array(value, dtype=float) if fits(value, depth) else None
    except (ValueError, OverflowError):  # rows of different lengths, or an int past float
        out = None
    if out is None or not np.isfinite(out).all():
        kind = ("a finite number", "a list of finite numbers",
                "a list of lists of finite numbers")[depth]
        raise ValueError(f"grid field {name} must be {kind}, got {reprlib.repr(value)}")
    return float(out) if depth == 0 else out


# -- sampling -----------------------------------------------------------------


def _ppp(rng: np.random.Generator, lam: float, lo: float, hi: float) -> np.ndarray:
    """Homogeneous Poisson draws on [lo, hi), as sorted unit variates (``_scaled``)."""
    u = rng.random(rng.poisson(lam * (hi - lo)))
    u.sort()
    return u


def _scaled(lo, hi, u):
    """Unit variates u on [lo, hi) as ``rng.uniform`` maps them; floats or arrays."""
    return lo + (hi - lo) * u


def _cells(points: np.ndarray, sizes, f: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, split) of every cell [lo, hi) of cities' sorted axis points
    laid end to end, ``sizes[i]`` of them city i's: the pair that crosses from
    one city to the next bounds no cell, and each split lies a street
    fraction f into its cell."""
    keep = np.ones(len(points) + 1, dtype=bool)
    keep[np.cumsum(sizes) - 1] = False  # a city's last point starts no cell
    keep = keep[:-2]  # a city of no points marks the pad at -1
    lo, hi = points[:-1][keep], points[1:][keep]
    return lo, hi, lo + f * (hi - lo)


def sample_grid_anchored(
    params: GridParams,
    seed: int | np.random.SeedSequence,
    y_anchor: float = 0.0,
    street_width: float | None = None,
) -> UrbanGrid:
    """Draw a city conditioned so a street band starts exactly at ``y_anchor``.

    A cell boundary is pinned at y_anchor (adding one point to a Poisson
    process leaves the law of the rest unchanged), so a user standing at
    y = y_anchor is guaranteed to stand on the low edge of a street.  When
    ``street_width`` is given, that street's width is pinned to it and the
    building band behind keeps its natural width law; otherwise the anchor
    cell is split like any other cell.  A width that is not positive (nan
    too) raises ValueError; an infinite one gives a street up to the region
    edge, as does any width past it.

    Draw order: X count and points, anchor cell gap, Y points below, Y points
    above, then heights.  The city is one ``_draw_anchored`` draw mapped and
    split by ``_join_cities``, as each city of a Monte Carlo chunk is.
    """
    law = _law(params)
    pieces = _draw_anchored(np.random.default_rng(seed), law, y_anchor, street_width)
    city = _join_cities([pieces], [1], y_anchor, law)
    return UrbanGrid(params, seed, city.x_points, city.y_points, city.west, city.south, pieces[-1])


def _law(params: GridParams) -> tuple[float, ...]:
    """(lam, x_lo, x_hi, y_lo, y_hi, street fraction, sigma): all that a city
    draw reads of params, computed once for a chunk of draws."""
    return (params.lam, *params.box, params.street_fraction, params.sigma)


def _draw_anchored(
    rng: np.random.Generator,
    law: tuple[float, ...],
    y_anchor: float,
    street_width: float | None,
    contact_x: float | None = None,
) -> tuple | None:
    """The draws of ``sample_grid_anchored`` from rng, in its order, for the
    ``_law`` of its params, as raw pieces: (X points, Y points below y_anchor
    and above the anchor cell, each as sorted unit variates, the anchor
    cell's end, its pinned split, block heights) that ``_join_cities`` maps
    and splits.  None, without drawing past the X points, when contact_x is
    given and no building band covers it."""
    lam, x_lo, x_hi, y_lo, y_hi, f, sigma = law
    xu = _ppp(rng, lam, x_lo, x_hi)
    if contact_x is not None:
        # ``UrbanGrid.band_at`` on the one cell holding contact_x, split as
        # ``_cells`` splits it.  The cell is found in unit space, then
        # stepped to where the mapped points (monotone in u) put it, so only
        # the points next to contact_x are mapped
        span, u = x_hi - x_lo, xu.tolist()
        k = bisect.bisect_right(u, (contact_x - x_lo) / span)
        while k and x_lo + span * u[k - 1] > contact_x:
            k -= 1
        while k < len(u) and x_lo + span * u[k] <= contact_x:
            k += 1
        if not 0 < k < len(u):
            return None
        lo, hi = x_lo + span * u[k - 1], x_lo + span * u[k]
        if contact_x < lo + f * (hi - lo):
            return None
    if not (y_lo <= y_anchor < y_hi):
        raise DegenerateGridError("anchor outside the region")
    gap = rng.exponential(1.0 / lam)
    if street_width is None:
        w = f * gap
        cell_end = y_anchor + gap
    else:
        if not street_width > 0:  # nan too
            raise ValueError("street width must be positive")
        w = street_width
        cell_end = y_anchor + w + (1.0 - f) * gap
    if cell_end > y_hi:  # clip the anchor cell at the region edge so the street stays well defined
        cell_end = y_hi
    if cell_end - y_anchor <= w:
        w = cell_end - y_anchor
    below = _ppp(rng, lam, y_lo, y_anchor)
    above = _ppp(rng, lam, cell_end, y_hi) if cell_end < y_hi else np.empty(0)
    heights = rng.rayleigh(sigma, size=(max(len(xu) - 1, 0), len(below) + 1 + len(above)))
    return xu, below, above, cell_end, min(y_anchor + w, cell_end), heights


# -- seeding ------------------------------------------------------------------

# NumPy's SeedSequence hash: mix_entropy folds the entropy words into a pool of
# four uint32 words with the A constants, generate_state reads the pool out
# with the B constants.  uint32 arrays wrap on overflow as its C code does.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The n hash constants init * mult**k mod 2**32, k = 0 .. n - 1."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)


# word s hashes into the three others in index order, with A constants 4 + 3s,
# 5 + 3s and 6 + 3s.  ``_seed_state`` keeps those three as rows s + 1 .. s + 3
# of a 7-row pool, in cyclic order; _CYCLE[s] holds the constants (xor,
# multiply) of their hashes in that order
_CYCLE = [_hash_consts(_INIT_A, _MULT_A, 17)[
    [[4 + 3 * s + d - (d > s) + m for d in ((s + 1) % 4, (s + 2) % 4, (s + 3) % 4)] for m in (0, 1)]
][..., None] for s in range(4)]


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per pair of constants (broadcasting)."""
    v = v ^ xor
    v *= mult
    v ^= v >> _SHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of y into x, in place in both."""
    x *= _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> _SHIFT
    return x


def _seed_state(seed: int, *columns: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence([seed, columns[0][i], ...]).generate_state(4,
    np.uint64)``, bit for bit, for every row of the columns at once.

    ``seed`` is any non-negative int; column entries are ints in [0, 2**32),
    one entropy word each.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed}")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    n = len(words) + len(columns)
    entropy = np.zeros((max(n, 4), len(columns[0])), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words):n] = columns
    a = _hash_consts(_INIT_A, _MULT_A, 17 + 4 * (len(entropy) - 4))[:, None]
    # row r holds word r % 4; before word s hashes, row s + 3 takes the
    # latest word s - 1, so rows s + 1 .. s + 3 hold the three others
    pool = np.empty((7, entropy.shape[1]), dtype=np.uint32)
    pool[:4] = _hashmix(entropy[:4], a[:4], a[1:5])
    for s in range(4):
        if s:
            pool[s + 3] = pool[s - 1]
        _mix(pool[s + 1:s + 4], _hashmix(pool[s], *_CYCLE[s]))
    pool = pool[[4, 5, 6, 3]]  # words 0 .. 3 once all four have hashed
    for s in range(4, len(entropy)):  # entropy past the pool, into every word
        _mix(pool, _hashmix(entropy[s], a[4 * s:4 * s + 4], a[4 * s + 1:4 * s + 5]))
    b = _hash_consts(_INIT_B, _MULT_B, 9)[:, None]
    state = _hashmix(pool[[0, 1, 2, 3] * 2], b[:-1], b[1:])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _StateWords(ISeedSequence):
    """A seed sequence whose state is one row of ``_seed_state``, for PCG64."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words  # PCG64 asks for 4 words of np.uint64


def _generator(words: np.ndarray) -> np.random.Generator:
    """``default_rng(SeedSequence(entropy))`` from that entropy's ``_seed_state`` row."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


@dataclass
class _Cities:
    """Several sampled cities as flat arrays, city after city.

    ``x_points`` and ``y_points`` hold every city's axis points, ``west``
    and ``east`` its building columns (as ``UrbanGrid.building_columns``
    gives them), ``south`` and ``north`` its building rows, and ``heights``
    its height matrix row-major.  ``nx`` and
    ``ny`` count the columns and rows of each city, and ``draws`` the city
    draws it took.  Derived from those: ``col_city`` and ``row_city`` give
    the city of each column and row, and ``first_col``, ``first_row`` and
    ``first_cell`` the flat index of each city's first column, row and
    height.  Drawn cities come from ``_join_cities``, which checks them.
    """

    x_points: np.ndarray
    y_points: np.ndarray
    west: np.ndarray
    east: np.ndarray
    south: np.ndarray
    north: np.ndarray
    heights: np.ndarray
    nx: np.ndarray
    ny: np.ndarray
    draws: np.ndarray
    col_city: np.ndarray = field(init=False)
    row_city: np.ndarray = field(init=False)
    first_col: np.ndarray = field(init=False)
    first_row: np.ndarray = field(init=False)
    first_cell: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        city = np.arange(len(self.nx))
        self.col_city, self.row_city = city.repeat(self.nx), city.repeat(self.ny)
        self.first_col = self.nx.cumsum() - self.nx
        self.first_row = self.ny.cumsum() - self.ny
        cells = self.nx * self.ny
        self.first_cell = cells.cumsum() - cells


def _runs(low_edges, high_edges, first, size, lo, hi):
    """Per (city, link), the flat index of the first of the city's bands
    meeting the open interval (lo[k], hi[k]) on an axis, and how many do.

    Edges ascend within a city, so those bands form one run, from the first
    band whose high edge passes lo to the last whose low edge is below hi;
    each end is a count of edge tests, read off their cumulative counts
    along each city's bands.
    """
    counts = np.zeros((2, len(lo), len(low_edges) + 1), dtype=np.int64)
    np.cumsum([high_edges <= lo[:, None], low_edges < hi[:, None]], axis=-1, out=counts[..., 1:])
    past, below = (counts.take(first + size, axis=-1) - counts.take(first, axis=-1)).transpose(0, 2, 1)
    return first[:, None] + past, np.maximum(below - past, 0)


def _link_blocks(cities: _Cities, x_lo, x_hi, y_lo, y_hi):
    """(link, west, east, south, north, height) of every block meeting each
    link's own box, for L boxes given as 1-D arrays of bounds: city by city,
    link k of city c numbered c * L + k, each link's blocks column by column
    and row by row within a column.  The one box query of the package.

    A block meets a box when their footprints share more than an edge.  It
    is a prefilter only: a block left out at most touches the box, and the
    slab test finds that a touch blocks no link in the box.
    """
    col, cols = _runs(cities.west, cities.east, cities.first_col, cities.nx, x_lo, x_hi)
    row, rows = _runs(cities.south, cities.north, cities.first_row, cities.ny, y_lo, y_hi)
    count = (cols * rows).ravel()
    link = np.arange(len(count)).repeat(count)
    slot = np.arange(len(link)) - (count.cumsum() - count).repeat(count)
    i, j = np.divmod(slot, rows.ravel()[link])
    col, row = col.ravel()[link] + i, row.ravel()[link] + j
    # each city's heights are its (column, row) matrix, row-major
    city = link // len(x_lo)
    cell = ((cities.first_cell - cities.first_col * cities.ny - cities.first_row)[city]
            + col * cities.ny[city] + row)
    return (link, cities.west[col], cities.east[col], cities.south[row], cities.north[row],
            cities.heights[cell])


# attempts hashed per trial in a chunk's first round, and at most in any round
_FIRST_ROUND, _LAST_ROUND = 4, 64


def _draw_cities(
    params: GridParams,
    seed: int,
    trials: range,
    y_anchor: float,
    contact_x: float | None,
) -> _Cities:
    """For each trial, the first city over seeds [seed, trial, attempt],
    attempt = 0, 1, ..., with a building band at contact_x (the first city
    when contact_x is None), exactly as ``sample_grid_anchored`` draws it
    with the anchored street as wide as the mean street width.  This is the
    one seed rule of every Monte Carlo trial, drawn by ``oracle._run_chunks``.

    Trials draw in order, as one ``SeedSequence([seed, trial, attempt])`` per
    draw would, from the same streams: one ``_seed_state`` hash seeds a
    round of attempts for every trial not yet drawn.  A trial that rejects
    all of its round's attempts starts the next round, with twice as many
    attempts per trial, up to ``_LAST_ROUND``.  Each draw makes only its
    RNG calls and the contact test (``_draw_anchored``); one ``_join_cities``
    pass maps, splits and checks the accepted cities of the chunk.

    Raises DegenerateGeometryError after 1000 rejected draws.
    """
    law = _law(params)
    numbers = np.arange(trials.start, trials.stop, trials.step)
    cities, draws = [None] * len(numbers), [0] * len(numbers)
    first, per = 0, _FIRST_ROUND
    while first < len(numbers):
        state = _seed_state(seed, numbers[first:].repeat(per),
                            (np.array(draws[first:])[:, None] + np.arange(per)).ravel())
        for words in state.reshape(-1, per, 4):
            for row in words:
                draws[first] += 1
                cities[first] = _draw_anchored(_generator(row), law, y_anchor, params.mu_s,
                                               contact_x)
                if cities[first] is not None:
                    break
                if draws[first] == 1000:
                    raise DegenerateGeometryError(
                        f"no building band covered the start contact at x = {contact_x:g} "
                        "in 1000 city draws"
                    )
            else:  # trial ``first`` is still pending: rehash from it
                break
            first += 1
        per = min(2 * per, _LAST_ROUND)
    return _join_cities(cities, draws, y_anchor, law)


def _join_cities(pieces: list[tuple], draws: list[int], y_anchor: float, law: tuple) -> _Cities:
    """At least one city drawn by ``_draw_anchored`` at y_anchor for law, as
    flat arrays, built in one pass: one ``_scaled`` map of the unit
    variates per run of points (X, Y below, Y above), every cell of both
    axes split a street fraction into it (one ``_cells`` call), the anchor
    cells' splits pinned, and the invariants ``UrbanGrid`` checks checked on
    the flat arrays.  ``draws[i]`` counts the city draws behind city i."""
    _, x_lo, x_hi, y_lo, y_hi, f, _ = law
    xu, below, above, cell_end, pin, hs = zip(*pieces)
    n = len(pieces)
    n_points = np.fromiter(map(len, xu), int, n)
    n_below, n_above = np.fromiter(map(len, below), int, n), np.fromiter(map(len, above), int, n)
    size = n_below + n_above + 2
    # every city's X points, then every city's Y points: below, y_anchor,
    # the cell's end, above; at counts from each city's y_anchor
    first_y = n_points.sum()
    anchor = size.cumsum() - size + n_below
    at = np.arange(anchor[-1] + n_above[-1] + 2) - anchor.repeat(size)
    ends = np.fromiter(cell_end, float, n)
    points = np.empty(first_y + len(at))
    points[:first_y] = _scaled(x_lo, x_hi, np.concatenate(xu))
    y = points[first_y:]
    y[at < 0] = _scaled(y_lo, y_anchor, np.concatenate(below))
    y[anchor] = y_anchor
    y[anchor + 1] = ends
    y[at > 1] = _scaled(ends.repeat(n_above), y_hi, np.concatenate(above))
    lo, hi, split = _cells(points, np.concatenate([n_points, size]), f)
    nx = np.maximum(n_points - 1, 0)
    cols = nx.sum()  # the X cells come first
    cities = _Cities(points[:first_y], y, split[:cols], hi[:cols], split[cols:], hi[cols:],
                     np.concatenate([h.ravel() for h in hs]), nx, size - 1, np.array(draws))
    cities.south[cities.first_row + n_below] = pin
    _check_cells(lo, hi, split)
    _check_shapes([h.shape for h in hs], nx.tolist(), cities.ny.tolist())
    _check_heights(cities.heights)
    return cities


# -- slab intersection --------------------------------------------------------


def _slab_fracs(lo, hi, start, delta):
    """Per-axis entry/exit fractions of segments through [lo, hi) slabs (broadcasting).

    A segment with no run along the axis is inside a slab only strictly
    between its faces: lying along a face is clear, as grazing a corner is.
    A run so small that a fraction overflows gives it as +-inf, its limit.
    """
    if not np.count_nonzero(delta == 0.0):
        with np.errstate(over="ignore"):
            a = (lo - start) / delta
            b = (hi - start) / delta
        return np.minimum(a, b), np.maximum(a, b)
    # a segment with delta 0 lies inside the slab at every fraction or at none
    inside = (lo < start) & (start < hi)
    still = delta == 0.0
    with np.errstate(over="ignore"):
        a = (lo - start) / np.where(still, 1.0, delta)
        b = (hi - start) / np.where(still, 1.0, delta)
    return (np.where(still, np.where(inside, -np.inf, np.inf), np.minimum(a, b)),
            np.where(still, np.where(inside, np.inf, -np.inf), np.maximum(a, b)))


# -- corner event sweep -------------------------------------------------------


def corner_position(corner_x, ux, uy, y0, street_width: float):
    """User x at which the projected link sweeps onto a front-line corner.

    Similar triangles through the corner at (corner_x, y0 + street_width):
    the ray from the platform at (ux, uy) through the corner meets the user's
    line y = y0 at the returned x.  The user reaches it before reaching
    corner_x itself.  Works elementwise on arrays.
    """
    dy = uy - y0
    if _any(dy <= street_width):
        raise DegenerateGeometryError("platform not beyond the street's far line")
    return ux - (ux - corner_x) * dy / (dy - street_width)


def corner_events(grid: UrbanGrid, motion: UserMotion, u: Uav) -> SegmentTable:
    """Segment plan, a one-row table, for a user walking one realized street.

    The far-side corner set comes from the vertical building bands: west
    corners at the cell splits, east corners at the cell's high boundary.
    Face segments cover the spans where the front-line crossing lies inside a
    building band, wall segments the spans where it lies over a street gap
    (first contact then pinned on the next west wall).
    """
    w = grid.street_width_at_y(motion.y0)
    west, east = grid.building_columns()
    return segment_table(west[None, :], east[None, :], Pairs.one(motion, u), w)


KINDS = (FACE, WALL, OPEN)  # SegmentTable.kind indexes this tuple
_FACE, _WALL, _OPEN = range(3)


@dataclass
class SegmentTable:
    """Segment plans of one or more epochs [0, T] as flat arrays, plan by plan.

    A segment is a piece of the epoch over which the first-contact side does
    not change.  ``row`` numbers the plan each segment belongs to and
    ``kind`` indexes ``KINDS``.  Each row tiles [0, T] in time order, and
    neighbouring segments differ in kind, except two walls that track
    different walls.  A wall segment tracks two candidates, because which
    one the link meets depends on the sweep direction: ``wall_x`` is the west
    corner ahead of the front-line crossing (met while the user is west of
    the platform), ``back_wall_x`` the east corner behind it (met once the
    user has passed under the platform's x).  A missing candidate is +inf
    ahead and -inf behind: a link aimed at it never reaches a wall.  Plans
    from ``segment_table``, canonical or realized, give every face and open
    segment both candidates missing, and put every face segment's platform
    beyond the street's far line; a hand-built table need not, and
    ``mobility.expected_los_piecewise`` refuses one whose face does not.
    """

    row: np.ndarray
    kind: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    wall_x: np.ndarray
    back_wall_x: np.ndarray


def segment_table(west: np.ndarray, east: np.ndarray, pairs: Pairs,
                  street_width: float) -> SegmentTable:
    """Segment plans of several far-side layouts at once, one per row.

    Row r of ``west`` and ``east`` holds the sorted west and east corners of
    layout r, seen by the walk of row r of pairs (a record of scalars holds
    for every row) across a street ``street_width`` wide.  Every corner
    passage inside the epoch is a boundary; each piece between boundaries
    is classified by the front-line crossing at its midpoint: on a building
    face, over a gap (wall segment, with the nearest west wall ahead and
    east wall behind), or past every column (open).  Zero-length pieces are dropped, except the one piece of
    an epoch of length 0, and neighbours of the same kind merged; two wall
    pieces merge only when they track the same walls.  A layout without
    columns, or a user who passes no corner, gets one piece over [0, T].
    Raises DegenerateGeometryError unless every platform is beyond its
    street's far line (``corner_position``).
    """
    rows, cols = west.shape
    T = pairs.duration
    # corners interleave west, east, west, ... between a (-inf, -inf) and an
    # (inf, inf) pad; passages inherit that order, and one outside (x0, x_end)
    # pins to 0 or T and leaves only zero-length pieces behind, so a user
    # standing still keeps one piece
    padded = np.empty((rows, 2 * cols + 4))
    padded[:, :2] = -math.inf
    padded[:, -2:] = math.inf
    padded[:, 2:-2:2] = west
    padded[:, 3:-2:2] = east
    c = pairs.take((slice(None), None))
    pos = corner_position(padded[:, 2:-2], c.ux, c.uy, c.y0, street_width)
    # a tiny or zero speed overflows or divides only times that get pinned
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        times = np.where(pos >= c.x0 + c.speed * c.duration, c.duration, (pos - c.x0) / c.speed)
    times[pos <= c.x0] = 0.0
    if np.count_nonzero(times[:, 1:] < times[:, :-1]):
        times.sort(axis=1)
    bounds = np.zeros((rows, 2 * cols + 2))
    bounds[:, 1:-1] = times
    bounds[:, -1] = T
    # flat piece i runs from b[i] to b[i + 1]; from one row's T to the next
    # row's 0 is never kept, as T >= 0
    b = bounds.reshape(-1)
    keep = b[1:] > b[:-1]
    if _any(T == 0.0):
        keep[2 * cols::2 * cols + 2] |= T == 0.0
    i = keep.nonzero()[0]
    t0, t1 = b[i], b[i + 1]
    row = i // (2 * cols + 2)
    p = pairs.take(row)
    xc = _front_cross(p.x0 + p.speed * 0.5 * (t0 + t1), p.y0, p.ux, p.uy, street_width)
    wp, ep = padded.reshape(-1)[0::2], padded.reshape(-1)[1::2]  # column k of a row at k + 1
    # piece j of a row runs between passages j - 1 and j, so its crossing lies
    # in column (j - 1) // 2 up to rounding, at flat index row * (cols + 2) + (j + 1) // 2
    k = (i + 1) // 2 + row
    while True:  # step to the last west corner at or below the crossing
        up = wp[k + 1] <= xc
        if not np.count_nonzero(up):
            break
        k += up
    while True:
        west_k = wp[k]
        down = west_k > xc
        if not np.count_nonzero(down):
            break
        k -= down
    east_k = ep[k]
    face = xc < east_k
    ahead = np.where(face, math.inf, wp[k + (west_k != xc)])  # first west not below
    back = np.where(face, -math.inf, east_k)
    kind = np.where(face, _FACE, np.where(np.isinf(ahead) & np.isinf(back), _OPEN, _WALL))

    # neighbours merge when row, kind and both walls agree (faces and open
    # pieces all track inf, -inf); edges[m] starts segment m and ends m - 1
    new = np.empty(len(kind) + 1, dtype=bool)
    new[0] = new[-1] = True
    new[1:-1] = ((row[1:] != row[:-1]) | (kind[1:] != kind[:-1])
                 | (ahead[1:] != ahead[:-1]) | (back[1:] != back[:-1]))
    edges = new.nonzero()[0]
    first = edges[:-1]
    return SegmentTable(row[first], kind[first], t0[first], t1[edges[1:] - 1], ahead[first],
                        back[first])


def _any(mask) -> bool:
    """Whether a per-row mask, or one truth value for every row, holds anywhere."""
    return bool(np.count_nonzero(mask)) if isinstance(mask, np.ndarray) else bool(mask)


def _front_cross(x_user, y0, ux, uy, street_width: float):
    """X where the link to a platform at (ux, uy) crosses the building front
    line y = y0 + w (elementwise)."""
    return x_user + (ux - x_user) * street_width / (uy - y0)
