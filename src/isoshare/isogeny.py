"""Prime-degree isogeny steps, chains, walks, and an exact recovery search.

Steps are computed with Velu's formulas in rational form (Velu, C. R.
Acad. Sci. 1971): the kernel sums t, w that give the codomain (a - 5t,
b - 7w), and the image of P, each take one point Q of every pair {Q, -Q}
of nonzero kernel points, and an image costs one inversion per pair.  An
optional post-composition with the isomorphism (x, y) -> (u^2 x, u^3 y)
lets a recovered chain land exactly on a prescribed target curve; a step
keeps u, u^2 and u^3, so it costs an image one product a coordinate.
Velu's X is a function of x alone, so a step also images an x-only pair
(x-only Velu, as in Costello and Hisil, ASIACRYPT 2017), skipping the Y
sum.

Walks follow a cache of the ell-isogeny graph (_torsion_cache).  Velu's
sums are homogeneous: under psi_s: (x, y) -> (s^2 x, s^3 y), t scales by
s^4 and w by s^6, so the step out of psi_s(E) with kernel psi_s(K) is
psi_s o phi_K o psi_s^-1, and its codomain has phi_K's j.  So each
j-invariant and isomorphism class met is one _Vertex: a model R, its
E[ell] sampled once, and ell+1 _Edge's, each Velu's step out of R computed
once and moved onto the model of its codomain's vertex.  A walk's node is
a vertex and a scale s, the curve psi_s(R), with its points held in R's
coordinates; only the walks the search yields, and random_walk's, are
built as chains of Velu steps on the actual models.

The search meets in the middle: the walks of half the length out of the
target, kept as a tree on its vertex (see _meet), give the j-invariants
each depth reaches and the keys at the middle, and these decide which
walks out of the start are extended (see _walks).  A key is x^n times
its curve's invariant factor, kept on the edge, so it costs n products
and no inversion.  A walk that passes every prune is evaluated on P in
full for the final match.

All of it runs on the ints of isoshare.curves, scales u as (c0, c1) pairs;
an Fp2 or CurvePoint is built only for a caller that reads one.
"""

import functools
import math
import random

from .curves import CurvePoint, CurveSpec, _add, _checked, _of_order, _point, _times
from .curves import is_on_curve, is_supersingular, scalar_mul
from .errors import BadKernel, NoIsogenyFound, NoSuchOrder
from .fields import Fp2, _div, _inv, _mul, _pow, _sqrt, is_prime


class IsogenyStep:
    """One degree-ell isogeny with cyclic kernel <K>, followed by the
    isomorphism (x, y) -> (u^2 x, u^3 y) for its scale u (1 unless set by
    with_scale)."""

    __slots__ = ("domain", "kernel", "ell", "codomain", "_pairs", "_u")

    def __init__(self, domain: CurveSpec, kernel: CurvePoint, ell: int):
        if not is_prime(ell):
            raise BadKernel(f"step degree {ell} must be prime")
        if kernel.is_infinity or not is_on_curve(domain, kernel):
            raise BadKernel("kernel generator must be a finite point on the domain")
        # As ell is prime and K != O, ell*K = O alone proves ord(K) = ell.
        if _times(domain, ell, kernel.xy):
            raise BadKernel(f"kernel generator does not have order {ell}")
        self._velu(domain, kernel, ell, _multiples(domain, kernel.xy, ell))

    def _velu(self, domain, kernel, ell, points) -> "IsogenyStep":
        """Velu's formulas, unchecked: for a kernel of order ell derived from
        checked points, with points the xy tuples of the ell-1 nonzero points
        of <K> as _multiples lists them from some generator.  The first
        ell // 2 hold one Q of each pair {Q, -Q}, kept as the ints (x_Q, v_Q,
        u_Q) in c0, c1 pairs mod p: v_Q = 2 g_x(Q), or g_x(Q) at ell = 2,
        g_x(Q) = 3 x_Q^2 + a, and u_Q = 4 y_Q^2."""
        self.domain, self.kernel, self.ell = domain, kernel, ell
        self._u = ((1, 0),) * 3
        p = domain.p
        (a0, a1), (b0, b1) = domain.akey, domain.bkey
        g = 1 if ell == 2 else 2
        self._pairs = []
        t0 = t1 = w0 = w1 = 0
        for x0, x1, y0, y1 in points[: ell // 2]:
            v0 = g * (3 * (x0 * x0 - x1 * x1) + a0) % p
            v1 = g * (6 * x0 * x1 + a1) % p
            u0, u1 = 4 * (y0 * y0 - y1 * y1) % p, 8 * y0 * y1 % p
            self._pairs.append((x0, x1, v0, v1, u0, u1))
            t0, t1 = t0 + v0, t1 + v1
            w0, w1 = w0 + u0 + x0 * v0 - x1 * v1, w1 + u1 + x0 * v1 + x1 * v0
        # The codomain (a - 5t, b - 7w).
        a = (a0 - 5 * t0) % p, (a1 - 5 * t1) % p
        b = (b0 - 7 * w0) % p, (b1 - 7 * w1) % p
        self.codomain = object.__new__(CurveSpec)._set(p, a, b)
        return self

    scale = property(lambda self: Fp2(*self._u[0], self.domain.p))
    kernel_points = property(lambda self: [_point(q, self.domain.p) for q in _multiples(
        self.domain, self.kernel.xy, self.ell)])

    def with_scale(self, u: Fp2) -> "IsogenyStep":
        return self._scaled(u.key())

    def _scaled(self, u) -> "IsogenyStep":
        """This step followed by (x, y) -> (u^2 x, u^3 y), u a pair: the
        kernel sums stay, the codomain (a', b') becomes (u^4 a', u^6 b'), and
        the step's scale, kept as (u, u^2, u^3), takes on a factor u."""
        new = object.__new__(IsogenyStep)
        new.domain, new.kernel, new.ell, new._pairs = self.domain, self.kernel, self.ell, self._pairs
        p, c = self.domain.p, self.codomain
        u2 = _mul(u, u, p)
        new._u = tuple(_mul(w, v, p) for w, v in zip(self._u, (u, u2, _mul(u2, u, p))))
        ab = _moved(c.akey + c.bkey, u2, p)
        new.codomain = object.__new__(CurveSpec)._set(p, ab[:2], ab[2:])
        return new

    def evaluate(self, pt: CurvePoint) -> CurvePoint:
        return _point(self._image(_checked(self.domain, pt)), self.domain.p)

    def _image(self, xy):
        """evaluate on an xy tuple, unchecked: for a point derived from
        checked ones, in Velu's rational form: X = x + sum(v/d + u/d^2),
        Y = y (1 - sum(v/d^2 + 2u/d^3)), d = x - x_Q, which is 0 only at
        P = +-Q, mapped to O, then scaled by the kept u^2 and u^3.  X reads
        x alone (x-only Velu), so xy may be an x-only (x0, x1) pair, whose
        image is X alone: the Y sum is skipped."""
        if not xy:
            return ()
        p = self.domain.p
        x0, x1, *y = xy
        sx0 = sx1 = sy0 = sy1 = 0
        for q0, q1, v0, v1, u0, u1 in self._pairs:
            d0, d1 = x0 - q0, x1 - q1
            if not (d0 or d1):
                return ()
            # i = 1/d, f = u/d, r = v + u/d; sx += r/d, sy += (r + u/d)/d^2.
            k = pow((d0 * d0 + d1 * d1) % p, -1, p)
            i0, i1 = d0 * k % p, -d1 * k % p
            f0, f1 = (u0 * i0 - u1 * i1) % p, (u0 * i1 + u1 * i0) % p
            r0, r1 = v0 + f0, v1 + f1
            sx0, sx1 = sx0 + r0 * i0 - r1 * i1, sx1 + r0 * i1 + r1 * i0
            if y:
                r0, r1 = r0 + f0, r1 + f1
                j0, j1 = (i0 * i0 - i1 * i1) % p, 2 * i0 * i1 % p
                sy0, sy1 = sy0 + r0 * j0 - r1 * j1, sy1 + r0 * j1 + r1 * j0
        xy = _mul((x0 + sx0, x1 + sx1), self._u[1], p)
        if y:
            xy += _mul(_mul(y, (1 - sy0, -sy1), p), self._u[2], p)
        return xy


def _moved(xy, u, p: int):
    """The image of an xy tuple, or of an x-only (x0, x1) pair, under
    (x, y) -> (u^2 x, u^3 y)."""
    if not xy or u == (1, 0):
        return xy
    u2 = _mul(u, u, p)
    return _mul(u2, xy[:2], p) + (xy[2:] and _mul(_mul(u2, u, p), xy[2:], p))


class IsogenyChain:
    """Composition of steps; the empty chain is the identity isogeny."""

    __slots__ = ("domain", "steps")

    def __init__(self, domain: CurveSpec, steps=()):
        steps = tuple(steps)
        if [step.domain for step in steps] != ([domain] + [s.codomain for s in steps])[:len(steps)]:
            raise ValueError("consecutive steps do not chain")
        self.domain, self.steps = domain, steps

    @property
    def codomain(self) -> CurveSpec:
        return self.steps[-1].codomain if self.steps else self.domain

    @property
    def degree(self) -> int:
        return math.prod(step.ell for step in self.steps)

    def sort_key(self):
        return tuple(step.kernel.xy for step in self.steps)

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return f"IsogenyChain(degree={self.degree}, steps={len(self.steps)})"


def evaluate_chain(chain: IsogenyChain, pt: CurvePoint) -> CurvePoint:
    xy = _checked(chain.domain, pt)
    for step in chain.steps:
        xy = step._image(xy)
    return _point(xy, chain.domain.p)


def velu_step(e: CurveSpec, kernel: CurvePoint, ell: int) -> IsogenyStep:
    return IsogenyStep(e, kernel, ell)


def _multiples(e: CurveSpec, gen, ell: int) -> list[tuple]:
    """The xy tuples of the ell-1 nonzero points gen, 2gen, ..., (ell-1)gen
    of <gen>, gen of order ell: the first ell // 2 by additions, the rest as
    (ell-j)gen = -(j gen)."""
    pts = [gen]
    for _ in range(ell // 2 - 1):
        pts.append(_add(e, pts[-1], gen))
    p = e.p
    return pts + [(x0, x1, -y0 % p, -y1 % p)
                  for x0, x1, y0, y1 in reversed(pts[: (ell - 1) // 2])]


def require_rational_ell(p: int, ell: int) -> None:
    """Reject a step degree that is not a prime dividing p+1."""
    # Divisibility first: it bounds ell by p+1 before the primality test.
    if ell < 2 or (p + 1) % ell or not is_prime(ell):
        raise NoSuchOrder(f"ell = {ell} is not a prime dividing p+1 = {p + 1}")


def _step(domain: CurveSpec, points, ell: int) -> IsogenyStep:
    """velu_step(domain, min(points), ell), unchecked: Velu's sums over
    points, the ell-1 nonzero xy tuples of the kernel in _multiples order."""
    return object.__new__(IsogenyStep)._velu(domain, _point(min(points), domain.p), ell, points)


class _Vertex:
    """One model of a j-invariant in the cache of the ell-isogeny graph.

    subgroups holds the xy tuples of the ell-1 nonzero points of each of
    model's ell+1 cyclic subgroups of E[ell], in _multiples order, sampled
    when first needed; edges[i] is the _Edge with kernel subgroup i, or None
    until a walk takes it.  trees maps b to the (layers, levels) of b-walks
    out of model that _meet builds for a recovery onto this j.  orders maps
    (s, dual) to the child order children gave; distinct walks out of a
    start reach a vertex at distinct scales, so it keeps at most
    _ORDERS_KEPT and drops them all when full."""

    __slots__ = ("model", "ell", "subgroups", "edges", "trees", "orders")

    def __init__(self, model: CurveSpec, ell: int):
        self.model, self.ell, self.subgroups = model, ell, None
        self.edges, self.trees, self.orders = [None] * (ell + 1), {}, {}

    def children(self, s, dual) -> list[int]:
        """The indices of the subgroups of psi_s(model), in the order of
        their smallest point on it, the order of ell_torsion_subgroups, less
        the one holding the point dual (the dual's kernel of the edge into
        this node; None at a walk's start).  Points with one x are +-Q, so
        no two subgroups share an x, and the smallest s^2 x among the first
        ell // 2 points (one of each pair) decides.  Callers do not change
        the list."""
        if (s, dual) not in self.orders:
            if len(self.orders) == _ORDERS_KEPT:
                self.orders.clear()
            self.subgroups = self.subgroups or _sample_subgroups(self.model, self.ell)
            half, p = self.ell // 2, self.model.p
            keys = [min([_moved(q[:2], s, p) for q in pts[:half]]) for pts in self.subgroups]
            self.orders[s, dual] = [k for k in sorted(range(self.ell + 1), key=keys.__getitem__)
                                    if dual not in self.subgroups[k]]
        return self.orders[s, dual]

    def edge(self, i: int, resolve: bool) -> "_Edge":
        """Edge i, its Velu step made on first use, and its target, scale and
        dual too if resolve (a walk's last step needs none of them)."""
        edge = self.edges[i] = self.edges[i] or _Edge(_step(self.model, self.subgroups[i], self.ell))
        if resolve and edge.target is None:
            edge.target, edge.scale = _vertex(edge.velu.codomain, self.ell)
            edge.step = edge.velu._scaled(_inv(edge.scale, self.model.p))
            edge.dual = edge.step._image(self.subgroups[i - 1][0])
        return edge

    def child(self, s, i: int):
        """The node that edge i leads to out of the node (self, s, _)."""
        edge = self.edge(i, True)
        return edge.target, _mul(s, edge.scale, self.model.p), edge.dual


class _Edge:
    """Velu's step velu out of a vertex's model R with one kernel subgroup.
    Its codomain's j is all that pruning by j reads.  Once resolved, target
    is the vertex of that j with velu's codomain = psi_scale(target.model),
    step is velu followed by psi_scale^-1, so that images land on
    target.model, and dual is step's image of a point of E[ell] outside the
    kernel: it generates the dual step's kernel.  The step out of psi_s(R)
    is psi_s o velu o psi_s^-1, as Velu's sums t and w scale by s^4 and
    s^6.  invariant is velu's codomain's _invariant, made by the first
    key."""

    __slots__ = ("velu", "step", "target", "scale", "dual", "invariant")

    def __init__(self, velu: IsogenyStep):
        self.velu = velu
        self.step = self.target = self.scale = self.dual = self.invariant = None

    def key(self, x):
        """The key of x, a point's x-only (x0, x1) pair (or its xy tuple),
        on velu's codomain; () for O."""
        if not x:
            return ()
        n, k = self.invariant = self.invariant or _invariant(self.velu.codomain)
        for _ in range(n):
            k = _mul(k, x, self.velu.domain.p)
        return k


# (p, ell, j) -> the _Vertex of each isomorphism class of that j met, in
# the order first met.  Walks out of a supersingular E0 reach one class per
# j, so one vertex.
_torsion_cache: dict[tuple, list[_Vertex]] = {}
_ORDERS_KEPT = 64


def _vertex(e: CurveSpec, ell: int):
    """(vertex, s) with e = psi_s(vertex.model), psi_s the isomorphism
    (x, y) -> (s^2 x, s^3 y); a new vertex with model e when no vertex of
    e's j has an isomorphism onto e."""
    vertices = _torsion_cache.setdefault((e.p, ell, e.jkey), [])
    for vertex in vertices:
        scales = [(1, 0)] if vertex.model == e else _scales(vertex.model, e)
        if scales:
            return vertex, scales[0]
    vertices.append(_Vertex(e, ell))
    return vertices[-1], (1, 0)


def _chain_of(e0: CurveSpec, path) -> IsogenyChain:
    """The chain out of e0 along path, a tuple of (vertex, s, i) whose edges
    exist: each step is Velu's on psi_s(R) with kernel psi_s of subgroup i."""
    steps = []
    for vertex, s, i in path:
        domain = steps[-1].codomain if steps else e0
        # At scale 1 the domain is R, and edge i holds the step.
        steps.append(vertex.edges[i].velu if s == (1, 0) else
                     _step(domain, [_moved(q, s, e0.p) for q in vertex.subgroups[i]], vertex.ell))
    return IsogenyChain(e0, steps)


def ell_torsion_subgroups(e: CurveSpec, ell: int) -> list[CurvePoint]:
    """Canonical generators of the ell+1 cyclic subgroups of E[ell], sorted.

    Requires ell | p+1 so that E[ell] is rational with (Z/ell)^2 structure.
    The subgroups, and the smallest point of each, depend on the model
    alone.  So E[ell] is sampled once per j-invariant, and another model of
    that j gets it through the isomorphism (x, y) -> (u^2 x, u^3 y) from the
    sampled one, which maps subgroups onto subgroups.  A model with that j
    but no isomorphism over GF(p^2) (a twist) is sampled itself.
    """
    require_rational_ell(e.p, ell)
    vertex, s = _vertex(e, ell)
    return [_point(min([_moved(q, s, e.p) for q in vertex.subgroups[i]]), e.p)
            for i in vertex.children(s, None)]


def _sample_subgroups(e: CurveSpec, ell: int) -> list[list[tuple]]:
    """The nonzero points of each cyclic subgroup of E[ell], from random
    points of order ell, as _torsion_cache holds them.  A curve with a
    point whose order does not divide p+1 is refused with NoSuchOrder (see
    _of_order)."""
    rng = random.Random(("torsion", e.key(), ell).__repr__())
    g1 = _multiples(e, _of_order(e, ell, rng), ell)
    while (g2 := _of_order(e, ell, rng)) in g1:
        pass
    gens = [g2] + [_add(e, g2, q) for q in g1]
    return [g1] + [_multiples(e, g, ell) for g in gens]


def random_walk(e0: CurveSpec, ell: int, e: int, seed) -> IsogenyChain:
    """Non-backtracking walk of e steps of degree ell, deterministic per seed:
    each step is drawn among a node's children, along cached edges."""
    if e < 0:
        raise ValueError("walk length must be nonnegative")
    require_rational_ell(e0.p, ell)
    if not is_supersingular(e0):
        # Isogenous curves share the point count, so one check covers the walk.
        raise NoSuchOrder(f"{e0} is not supersingular")
    rng = random.Random(("walk", repr(seed)).__repr__())
    path = [(*_vertex(e0, ell), None)]
    for _ in range(e):
        vertex, s, dual = path[-1]
        i = rng.choice(vertex.children(s, dual))
        path[-1:] = [(vertex, s, i), vertex.child(s, i)]
    return _chain_of(e0, path[:-1])


def _scales(src: CurveSpec, dst: CurveSpec) -> list[tuple]:
    """All u with (u^4 a, u^6 b) = (a', b'), as sorted (c0, c1) pairs.

    The candidates v for u^2 are a b'/(a' b), or the square roots of a'/a
    when b = 0 (j = 1728), or the cube roots of b'/b when a = 0 (j = 0);
    u = +-sqrt(v) for each v with v^2 a = a' and v^3 b = b'.  The zeros of
    a and b pick the case, not j, which is 0 for every curve at p = 3.
    """
    p = src.p
    a, b, a2, b2 = src.akey, src.bkey, dst.akey, dst.bkey
    if any(a) != any(a2) or any(b) != any(b2):
        return []
    if any(a) and any(b):
        squares = [_div(_mul(a, b2, p), _mul(a2, b, p), p)]
    elif any(b):
        squares = _cube_roots(_div(b2, b, p), p)
    else:
        s = _sqrt(_div(a2, a, p), p)
        squares = [] if s is None else [s, (-s[0] % p, -s[1] % p)]
    # The v are distinct and nonzero, so no u comes up twice.
    scales = []
    for v in squares:
        if _moved(a + b, v, p) == a2 + b2:
            u = _sqrt(v, p)
            if u is not None:
                scales += [u, (-u[0] % p, -u[1] % p)]
    return sorted(scales)


def _cube_roots(c, p: int) -> list[tuple]:
    """All x in GF(p^2) with x^3 = c, for c a (c0, c1) pair, sorted
    (Adleman-Manders-Miller, r = 3)."""
    order = p * p - 1
    if not any(c):
        return [c]
    if order % 3:
        # Cubing permutes GF(p^2)*, so the root is unique.
        return [_pow(c, pow(3, -1, order), p)]
    one = (1, 0)
    if _pow(c, order // 3, p) != one:
        return []
    s, t = 0, order
    while t % 3 == 0:
        s, t = s + 1, t // 3
    # g generates the 3-Sylow subgroup of GF(p^2)*, of order 3^s, and w is
    # a primitive cube root of unity.
    z = next(z for z in ((k, 1) for k in range(p)) if _pow(z, order // 3, p) != one)
    g = _pow(z, t, p)
    w = _pow(g, 3 ** (s - 1), p)
    # x^3 = c * b, where b = c^(3u - 1) lies in <g> as 3u = 1 (mod t).
    u = pow(3, -1, t)
    x = _pow(c, u, p)
    b = _pow(c, 3 * u - 1, p)
    # b = g^k by base-3 digits (Pohlig-Hellman); 3 | k as c is a cube.
    k = 0
    for i in range(s):
        h = _pow(_mul(b, _pow(g, -k, p), p), 3 ** (s - 1 - i), p)
        k += (0 if h == one else 1 if h == w else 2) * 3**i
    root = _mul(x, _pow(g, -(k // 3), p), p)
    return sorted(_mul(root, _pow(w, i, p), p) for i in range(3))


def _invariant(e: CurveSpec):
    """(n, f) such that x^n f is the key of a point's x on e, which every
    isomorphism (x, y) -> (u^2 x, u^3 y) out of e keeps, automorphisms
    included: x a/b, or x^2/a at j = 1728 (b = 0), or x^3/b at j = 0
    (a = 0).  Kept on an edge of the cache once a key on it is made, so a
    key costs n products."""
    p, a, b = e.p, e.akey, e.bkey
    if not any(a):
        return 3, _inv(b, p)
    if not any(b):
        return 2, _inv(a, p)
    return 1, _div(a, b, p)


def _meet(target: CurveSpec, ell: int, b: int, image: CurvePoint):
    """(layers, keys) from the b-walks out of target: layers[r], r <= b,
    holds the j keys its r-walks reach; keys(j) is the set of _Edge.key's
    of the images of `image` on the b-walks' codomains of that j (empty for
    a j not in layers[b]), or keys is None if b = 0.  Raises NoSuchOrder if
    E[ell] of the target is not rational (b > 0).

    The walks depend on the target's vertex alone, not on its model or on
    image, so they are built once per vertex and b and kept in its trees
    with the layers, as levels: levels[r] holds a (k, edge) for each
    (r+1)-walk, the k-th r-walk (k = 0 at r = 0) followed by edge, the
    children taken as _walks takes them but in any order, as the keys and
    layers are isomorphism invariants.  Each layer maps each of its j to
    the (k, edge) of the walks that end there (none at r = 0).  A call
    moves image into the vertex's model's coordinates, and keys carries its
    x alone down the levels to the b-walks of each j asked for: each inner
    edge's step images it once per node, kept for every later walk through
    that node, and each last edge's velu gives a key on its codomain (a
    last edge is left unresolved, as a leaf of _walks is).  keys remembers
    the set of each j it was asked for."""
    if not b:
        return [{target.jkey}], None
    vertex, s = _vertex(target, ell)
    if b not in vertex.trees:
        levels, layers, nodes = [], [{target.jkey: []}] + [{} for _ in range(b)], [(vertex, None)]
        for r in range(b):
            levels.append([(k, parent.edge(i, r < b - 1))
                           for k, (parent, dual) in enumerate(nodes)
                           for i in parent.children((1, 0), dual)])
            nodes = [(edge.target, edge.dual) for _, edge in levels[-1]]
            for k, edge in levels[-1]:
                layers[r + 1].setdefault(edge.velu.codomain.jkey, []).append((k, edge))
        vertex.trees[b] = layers, levels
    layers, levels = vertex.trees[b]
    xs = {(0, 0): _moved(image.xy[:2], _inv(s, target.p), target.p)}

    def x_of(r, k):
        """The x at the k-th r-walk, imaged on first use."""
        if (r, k) not in xs:
            parent, edge = levels[r - 1][k]
            xs[r, k] = edge.step._image(x_of(r - 1, parent))
        return xs[r, k]

    return layers, functools.cache(lambda j: {
        edge.key(edge.velu._image(x_of(b - 1, k))) for k, edge in layers[b].get(j, ())})


def _walks(e0: CurveSpec, ell: int, e: int, point: CurvePoint, meet):
    """The chains of the non-backtracking walks of length e >= 1 out of e0
    that the meet lets through, kernels in canonical sorted order.  The
    search is depth first and takes each node's children in increasing
    kernel key order, so the walks come out in strictly increasing sort_key
    order.

    A node is (vertex, s, dual), the curve psi_s(R) for the vertex's model
    R, its point held in R's coordinates (see _Vertex.children); a path
    lists a walk's steps, each (vertex, s, i): out of psi_s(R), with kernel
    (psi_s of) subgroup i.  A node's child i is _Vertex.child, with its
    point's image under the edge's step, so no Velu step is built once the
    edges are; a leaf child is psi_s of velu's codomain.

    meet = _meet(target, ell, b, image), b = e // 2, prunes the walks that
    cannot end on target with point sent to image.  A child with r <= b
    steps still to take is skipped before it is expanded when its j is not
    in layers[r]; at r = b > 0 also when no b-walk psi' out of target sends
    image to the child's image of [ell^b]point up to isomorphism (judged by
    _Edge.key, among the keys of the child's j alone, as a curve of another
    j is not isomorphic to it).  Any walk psi o F, psi its last r steps,
    that maps point to image passes: the dual of psi, after the isomorphism
    onto target, is such an r-walk psi' out of target, ending on
    j(codomain of F).  [ell^b]point is computed once on e0 and the x of its
    image carried down each walk to that depth, as F([ell^b]P) =
    [ell^b]F(P) and the key reads x alone; it is the one point a node
    carries.  An edge is resolved only for an inner child that passes, and
    a vertex's E[ell] is sampled only once a walk expands it.
    """
    layers, keys = meet
    b, p = len(layers) - 1, e0.p
    vertex, s = _vertex(e0, ell)
    carried = None if keys is None else _moved(scalar_mul(e0, ell**b, point).xy[:2], _inv(s, p), p)
    stack = [(((vertex, s, None),), carried)]
    while stack:
        path, carried = stack.pop()
        vertex, s, dual = path[-1]
        # Steps a child still has to take after its own.  Leaf children come
        # out at once, smallest first; inner ones go on the stack, smallest
        # on top.
        remaining = e - len(path)
        order = vertex.children(s, dual)
        for i in reversed(order) if remaining else order:
            edge = vertex.edge(i, False)
            if remaining <= b and edge.velu.codomain.jkey not in layers[remaining]:
                continue
            if remaining == b and carried is not None and edge.key(
                    edge.velu._image(carried)) not in keys(edge.velu.codomain.jkey):
                continue
            if not remaining:
                yield _chain_of(e0, path[:-1] + ((vertex, s, i),))
                continue
            node = vertex.child(s, i)
            # [ell^b]point is carried only down to the meet.
            moved = edge.step._image(carried) if remaining > b and carried is not None else None
            stack.append((path[:-1] + ((vertex, s, i), node), moved))


def recover_isogeny(e0: CurveSpec, e1: CurveSpec, point: CurvePoint, image: CurvePoint,
                    ell: int, e: int) -> IsogenyChain:
    """Exact stand-in for the torsion-point isogeny recovery oracle.

    Searches the non-backtracking ell-walks of length e out of e0 and
    returns the lexicographically smallest chain (by kernel serialization)
    whose codomain can be identified with e1 by an isomorphism carrying the
    walk's image of `point` to `image`.  The walks are pruned by the
    b-walks out of e1, b = e // 2 (kept per j, see _meet): by the j-invariants
    those reach at each depth, and by a meet in the middle at depth b (see
    _walks).  _walks takes children in increasing kernel key order, so its
    walks come in increasing sort_key order, and the pruning skips only
    walks that cannot match: the first match is the smallest over all
    walks, and the search stops there.  Each walk that passes is evaluated
    on point, and the match's final step is rescaled so its codomain
    equals e1 and its action sends point to image literally.

    e0 must be supersingular (NoSuchOrder otherwise).  Every curve
    isogenous to it then has E = (Z/(p+1))^2, so a target whose E[ell] is
    not rational ends the search at once with NoIsogenyFound.
    """
    _checked(e0, point)
    _checked(e1, image)
    # Refuses an ell that is not a prime dividing p+1, and E0 if its E[ell]
    # is not rational; the one public torsion lookup of a recovery, whose
    # distinct j perfbench/layers.py divides its counts by.
    ell_torsion_subgroups(e0, ell)
    if not is_supersingular(e0):
        raise NoSuchOrder(f"{e0} is not supersingular")
    if e <= 0:
        if e == 0 and e1 == e0 and image == point:
            return IsogenyChain(e0)
        raise NoIsogenyFound(f"no length-{e} walk matches")
    try:
        meet = _meet(e1, ell, e // 2, image)
    except NoSuchOrder:
        raise NoIsogenyFound(f"E[{ell}] of the target curve is not rational") from None
    for chain in _walks(e0, ell, e, point, meet):
        mapped = evaluate_chain(chain, point).xy
        # Codomains of another j have no isomorphism onto e1.
        for u in _scales(chain.codomain, e1):
            if _moved(mapped, u, e0.p) == image.xy:
                return IsogenyChain(e0, chain.steps[:-1] + (chain.steps[-1]._scaled(u),))
    raise NoIsogenyFound(f"no degree {ell}^{e} chain maps the torsion point as required")
