"""Prime-degree isogeny steps, chains, walks, and an exact recovery search.

Steps are computed with Velu's formulas in rational form (Velu, C. R.
Acad. Sci. 1971): the kernel sums t, w that give the codomain (a - 5t,
b - 7w), and the image of P, each take one point Q of every pair {Q, -Q}
of nonzero kernel points, and an image costs one inversion per pair.  An
optional post-composition with the isomorphism (x, y) -> (u^2 x, u^3 y)
lets a recovered chain land exactly on a prescribed target curve.  The
search meets in the middle: one enumeration of the walks of half the
length out of the target gives the j-invariants each depth reaches and the
keys at the middle, and these decide which walks out of the start are
extended (see _walks).
"""

import random

from .curves import (
    INFINITY,
    CurvePoint,
    CurveSpec,
    _add,
    is_on_curve,
    is_supersingular,
    random_point,
    scalar_mul,
)
from .errors import BadKernel, NoIsogenyFound, NoSuchOrder, NotOnCurve
from .fields import Fp2, fp2_from_int, fp2_sqrt, is_prime


class IsogenyStep:
    """One degree-ell isogeny with cyclic kernel <K>."""

    __slots__ = ("domain", "kernel", "ell", "scale", "kernel_points", "codomain", "_pairs")

    def __init__(self, domain: CurveSpec, kernel: CurvePoint, ell: int):
        if not is_prime(ell):
            raise BadKernel(f"step degree {ell} must be prime")
        if kernel.is_infinity or not is_on_curve(domain, kernel):
            raise BadKernel("kernel generator must be a finite point on the domain")
        # As ell is prime and K != O, ell*K = O alone proves ord(K) = ell.
        # With h = ell // 2 that is (h+1)K = -(ell-h-1)K, the point that
        # _multiples puts after hK (O at ell = 2): one addition more.
        pts = _multiples(domain, kernel, ell)
        h = ell // 2
        if _add(domain, pts[h - 1], kernel) != (pts + [INFINITY])[h]:
            raise BadKernel(f"kernel generator does not have order {ell}")
        self._velu(domain, kernel, ell, pts)

    def _velu(self, domain, kernel, ell, kernel_points) -> "IsogenyStep":
        """Velu's formulas, unchecked: for a kernel of order ell derived from
        checked points, with kernel_points its ell-1 nonzero multiples.  The
        first ell // 2 hold one Q of each pair {Q, -Q}, kept as the ints
        (x_Q, v_Q, u_Q) in c0, c1 pairs mod p: v_Q = 2 g_x(Q), or g_x(Q) at
        ell = 2, g_x(Q) = 3 x_Q^2 + a, and u_Q = 4 y_Q^2."""
        self.domain = domain
        self.kernel = kernel
        self.ell = ell
        self.scale = fp2_from_int(1, domain.p)
        self.kernel_points = kernel_points
        p = domain.p
        a0, a1 = domain.a.c0, domain.a.c1
        g = 1 if ell == 2 else 2
        pairs = []
        t0 = t1 = w0 = w1 = 0
        for q in kernel_points[: ell // 2]:
            x0, x1, y0, y1 = q.x.c0, q.x.c1, q.y.c0, q.y.c1
            v0 = g * (3 * (x0 * x0 - x1 * x1) + a0) % p
            v1 = g * (6 * x0 * x1 + a1) % p
            u0, u1 = 4 * (y0 * y0 - y1 * y1) % p, 8 * y0 * y1 % p
            pairs.append((x0, x1, v0, v1, u0, u1))
            t0 += v0
            t1 += v1
            w0 += u0 + x0 * v0 - x1 * v1
            w1 += u1 + x0 * v1 + x1 * v0
        self._pairs = pairs
        # The codomain (a - 5t, b - 7w).
        a0, a1 = (a0 - 5 * t0) % p, (a1 - 5 * t1) % p
        b0, b1 = (domain.b.c0 - 7 * w0) % p, (domain.b.c1 - 7 * w1) % p
        self.codomain = CurveSpec(Fp2(a0, a1, p), Fp2(b0, b1, p), p)
        return self

    def with_scale(self, u: Fp2) -> "IsogenyStep":
        """This step followed by (x, y) -> (u^2 x, u^3 y): the kernel sums
        stay, and the codomain (a', b') becomes (u^4 a', u^6 b')."""
        new = object.__new__(IsogenyStep)
        for name in ("domain", "kernel", "ell", "kernel_points", "_pairs"):
            setattr(new, name, getattr(self, name))
        new.scale = self.scale * u
        u2 = u * u
        a, b = self.codomain.a, self.codomain.b
        new.codomain = CurveSpec(u2 * u2 * a, u2 * u2 * u2 * b, self.domain.p)
        return new

    def evaluate(self, pt: CurvePoint) -> CurvePoint:
        if not is_on_curve(self.domain, pt):
            raise NotOnCurve(f"{pt} not on step domain")
        return self._image(pt)

    def _image(self, pt: CurvePoint) -> CurvePoint:
        """evaluate, unchecked: for a point derived from checked ones, in
        Velu's rational form: X = x + sum(v/d + u/d^2), Y = y (1 - sum(v/d^2
        + 2u/d^3)), d = x - x_Q, which is 0 only at P = +-Q, mapped to O."""
        if pt.x is None:
            return INFINITY
        p = pt.x.p
        x0, x1 = pt.x.c0, pt.x.c1
        sx0 = sx1 = sy0 = sy1 = 0
        for q0, q1, v0, v1, u0, u1 in self._pairs:
            d0, d1 = x0 - q0, x1 - q1
            if not (d0 or d1):
                return INFINITY
            # i = 1/d, f = u/d, r = v + u/d; sx += r/d, sy += (r + u/d)/d^2.
            k = pow((d0 * d0 + d1 * d1) % p, -1, p)
            i0, i1 = d0 * k % p, -d1 * k % p
            f0, f1 = (u0 * i0 - u1 * i1) % p, (u0 * i1 + u1 * i0) % p
            r0, r1 = v0 + f0, v1 + f1
            sx0 += r0 * i0 - r1 * i1
            sx1 += r0 * i1 + r1 * i0
            r0, r1 = r0 + f0, r1 + f1
            j0, j1 = (i0 * i0 - i1 * i1) % p, 2 * i0 * i1 % p
            sy0 += r0 * j0 - r1 * j1
            sy1 += r0 * j1 + r1 * j0
        y0, y1 = pt.y.c0, pt.y.c1
        x0, x1 = (x0 + sx0) % p, (x1 + sx1) % p
        sy0, sy1 = sy0 % p, sy1 % p
        y0, y1 = (y0 - y0 * sy0 + y1 * sy1) % p, (y1 - y0 * sy1 - y1 * sy0) % p
        powers = _scale_powers(self.scale)
        if powers:
            s0, s1, c0, c1 = powers
            x0, x1 = s0 * x0 - s1 * x1, s0 * x1 + s1 * x0
            y0, y1 = c0 * y0 - c1 * y1, c0 * y1 + c1 * y0
        return CurvePoint(Fp2(x0, x1, p), Fp2(y0, y1, p))


def _scale_powers(u: Fp2):
    """u^2 and u^3 as c0, c1 of each mod p, or None for u = 1."""
    if not u.c1 and u.c0 == 1:
        return None
    p, c0, c1 = u.p, u.c0, u.c1
    s0, s1 = (c0 * c0 - c1 * c1) % p, 2 * c0 * c1 % p
    return s0, s1, (s0 * c0 - s1 * c1) % p, (s0 * c1 + s1 * c0) % p


class IsogenyChain:
    """Composition of steps; the empty chain is the identity isogeny."""

    __slots__ = ("domain", "steps")

    def __init__(self, domain: CurveSpec, steps=()):
        steps = tuple(steps)
        prev = domain
        for step in steps:
            if step.domain != prev:
                raise NotOnCurve("consecutive steps do not chain")
            prev = step.codomain
        self.domain = domain
        self.steps = steps

    @property
    def codomain(self) -> CurveSpec:
        return self.steps[-1].codomain if self.steps else self.domain

    @property
    def degree(self) -> int:
        d = 1
        for step in self.steps:
            d *= step.ell
        return d

    def extended(self, step: IsogenyStep) -> "IsogenyChain":
        # The earlier steps already chain, so only the new link is checked.
        if step.domain != self.codomain:
            raise NotOnCurve("consecutive steps do not chain")
        chain = object.__new__(IsogenyChain)
        chain.domain = self.domain
        chain.steps = self.steps + (step,)
        return chain

    def sort_key(self):
        return tuple(step.kernel.key() for step in self.steps)

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return f"IsogenyChain(degree={self.degree}, steps={len(self.steps)})"


def evaluate_chain(chain: IsogenyChain, pt: CurvePoint) -> CurvePoint:
    if not is_on_curve(chain.domain, pt):
        raise NotOnCurve(f"{pt} not on chain domain")
    for step in chain.steps:
        pt = step._image(pt)
    return pt


def velu_step(e: CurveSpec, kernel: CurvePoint, ell: int) -> IsogenyStep:
    return IsogenyStep(e, kernel, ell)


def _velu_step(e: CurveSpec, kernel: CurvePoint, ell: int) -> IsogenyStep:
    """velu_step, unchecked: for a kernel from ell_torsion_subgroups."""
    return object.__new__(IsogenyStep)._velu(e, kernel, ell, _multiples(e, kernel, ell))


def _multiples(e: CurveSpec, gen: CurvePoint, ell: int) -> list[CurvePoint]:
    """The ell-1 nonzero points gen, 2gen, ..., (ell-1)gen of <gen>, gen of
    order ell: the first ell // 2 by additions, the rest as (ell-j)gen = -(j gen)."""
    pts = [gen]
    for _ in range(ell // 2 - 1):
        pts.append(_add(e, pts[-1], gen))
    # O passes through: the checked constructor lists gen of any order.
    for q in reversed(pts[: (ell - 1) // 2]):
        pts.append(q if q.is_infinity else CurvePoint(q.x, -q.y))
    return pts


def _canonical_generator(e: CurveSpec, gen: CurvePoint, ell: int) -> CurvePoint:
    """Smallest-serialization generator of <gen>."""
    return min(_multiples(e, gen, ell), key=CurvePoint.key)


def require_rational_ell(p: int, ell: int) -> None:
    """Reject a step degree that is not a prime dividing p+1."""
    # Divisibility first: it bounds ell by p+1 before the primality test.
    if ell < 2 or (p + 1) % ell or not is_prime(ell):
        raise NoSuchOrder(f"ell = {ell} is not a prime dividing p+1 = {p + 1}")


# (p, ell, j) -> (the first model of that j-invariant that was sampled, the
# keys (x.c0, x.c1, y.c0, y.c1) of the ell-1 nonzero points of each of its
# ell+1 cyclic subgroups of E[ell]).
_torsion_cache: dict[tuple, tuple[CurveSpec, list[list[tuple]]]] = {}


def ell_torsion_subgroups(e: CurveSpec, ell: int) -> list[CurvePoint]:
    """Canonical generators of the ell+1 cyclic subgroups of E[ell], sorted.

    Requires ell | p+1 so that E[ell] is rational with (Z/ell)^2 structure.
    The subgroups, and the smallest point of each, depend on the model
    alone.  So E[ell] is sampled once per j-invariant, and another model of
    that j gets it through the isomorphism (x, y) -> (u^2 x, u^3 y) from the
    sampled one, which maps subgroups onto subgroups; it is applied to the
    points' int keys, and only the generators are built as points.  A model
    with that j but no isomorphism over GF(p^2) (a twist) is sampled itself.
    """
    require_rational_ell(e.p, ell)
    p = e.p
    key = (p, ell, e.j.key())
    entry = _torsion_cache.get(key)
    scales = isomorphism_scales(entry[0], e) if entry is not None else None
    if scales:
        s0, s1, c0, c1 = _scale_powers(scales[0]) or (1, 0, 1, 0)
        subgroups = [
            [
                ((s0 * x0 - s1 * x1) % p, (s0 * x1 + s1 * x0) % p,
                 (c0 * y0 - c1 * y1) % p, (c0 * y1 + c1 * y0) % p)
                for x0, x1, y0, y1 in pts
            ]
            for pts in entry[1]
        ]
    else:
        subgroups = [[q.key() for q in pts] for pts in _sample_subgroups(e, ell)]
        if entry is None:
            _torsion_cache[key] = (e, subgroups)
    return [
        CurvePoint(Fp2(x0, x1, p), Fp2(y0, y1, p))
        for x0, x1, y0, y1 in sorted(min(pts) for pts in subgroups)
    ]


def _sample_subgroups(e: CurveSpec, ell: int) -> list[list[CurvePoint]]:
    """The nonzero points of each cyclic subgroup of E[ell], from random points."""
    rng = random.Random(("torsion", e.key(), ell).__repr__())
    cofactor = (e.p + 1) // ell
    valuation = 1
    while cofactor % ell ** valuation == 0:
        valuation += 1

    def sample() -> CurvePoint:
        while True:
            q = scalar_mul(e, cofactor, random_point(e, rng))
            if q.is_infinity:
                continue
            # ell * q = (p+1) * P = O at once when the exponent divides
            # p+1; on any other curve, strip at most v_ell(p+1) factors.
            for _ in range(valuation):
                q_ell = scalar_mul(e, ell, q)
                if q_ell.is_infinity:
                    return q
                q = q_ell
            raise NoSuchOrder(f"{e} has points whose order does not divide p+1")

    g1 = _multiples(e, sample(), ell)
    while True:
        g2 = sample()
        if g2 not in g1:
            break
    gens = [g2] + [_add(e, g2, q) for q in g1]
    return [g1] + [_multiples(e, g, ell) for g in gens]


def _other_subgroup_point(subgroups, chosen: CurvePoint) -> CurvePoint:
    for g in subgroups:
        if g != chosen:
            return g
    raise AssertionError("ell+1 >= 2 subgroups always exist")


def random_walk(e0: CurveSpec, ell: int, e: int, seed) -> IsogenyChain:
    """Non-backtracking walk of e steps of degree ell, deterministic per seed."""
    require_rational_ell(e0.p, ell)
    if not is_supersingular(e0):
        # Isogenous curves share the point count, so one check covers the walk.
        raise NoSuchOrder(f"{e0} is not supersingular")
    rng = random.Random(("walk", repr(seed)).__repr__())
    chain = IsogenyChain(e0)
    forbidden = None
    current = e0
    for _ in range(e):
        subgroups = ell_torsion_subgroups(current, ell)
        allowed = [g for g in subgroups if g != forbidden]
        kernel = allowed[rng.randrange(len(allowed))]
        step = _velu_step(current, kernel, ell)
        aux = _other_subgroup_point(subgroups, kernel)
        forbidden = _canonical_generator(step.codomain, step._image(aux), ell)
        chain = chain.extended(step)
        current = step.codomain
    return chain


def isomorphism_scales(src: CurveSpec, dst: CurveSpec) -> list[Fp2]:
    """All u with (u^4 a, u^6 b) = (a', b'), i.e. isomorphisms src -> dst,
    sorted.

    The candidates v for u^2 are a b'/(a' b), or the square roots of a'/a
    when b = 0 (j = 1728), or the cube roots of b'/b when a = 0 (j = 0);
    u = +-sqrt(v) for each v with v^2 a = a' and v^3 b = b'.  The zeros of
    a and b pick the case, not j, which is 0 for every curve at p = 3.
    """
    if bool(src.a) != bool(dst.a) or bool(src.b) != bool(dst.b):
        return []
    if src.a and src.b:
        squares = [(src.a * dst.b) / (dst.a * src.b)]
    elif src.b:
        squares = _cube_roots(dst.b / src.b)
    else:
        s = fp2_sqrt(dst.a / src.a)
        squares = [] if s is None else [s, -s]
    # The v are distinct and nonzero, so no u comes up twice.
    scales = []
    for v in squares:
        v2 = v * v
        if v2 * src.a == dst.a and v2 * v * src.b == dst.b:
            u = fp2_sqrt(v)
            if u is not None:
                scales += [u, -u]
    return sorted(scales, key=Fp2.key)


def _cube_roots(c: Fp2) -> list[Fp2]:
    """All x in GF(p^2) with x^3 = c, sorted (Adleman-Manders-Miller, r = 3)."""
    p = c.p
    order = p * p - 1
    if not c:
        return [c]
    if order % 3:
        # Cubing permutes GF(p^2)*, so the root is unique.
        return [c ** pow(3, -1, order)]
    one = fp2_from_int(1, p)
    if c ** (order // 3) != one:
        return []
    s, t = 0, order
    while t % 3 == 0:
        s, t = s + 1, t // 3
    # g generates the 3-Sylow subgroup of GF(p^2)*, of order 3^s, and w is
    # a primitive cube root of unity.
    z = next(z for z in (Fp2(k, 1, p) for k in range(p)) if z ** (order // 3) != one)
    g = z**t
    w = g ** (3 ** (s - 1))
    # x^3 = c * b, where b = c^(3u - 1) lies in <g> as 3u = 1 (mod t).
    u = pow(3, -1, t)
    x = c**u
    b = c ** (3 * u - 1)
    # b = g^k by base-3 digits (Pohlig-Hellman); 3 | k as c is a cube.
    k = 0
    for i in range(s):
        h = (b * g ** (-k)) ** (3 ** (s - 1 - i))
        k += (0 if h == one else 1 if h == w else 2) * 3**i
    root = x * g ** (-(k // 3))
    return sorted((root, root * w, root * w * w), key=Fp2.key)


def _iso_invariant(e: CurveSpec, pt: CurvePoint):
    """A key of pt that every isomorphism (x, y) -> (u^2 x, u^3 y) out of e
    keeps, automorphisms included: x*a/b, or x^2/a at j = 1728 (b = 0), or
    x^3/b at j = 0 (a = 0); () for O."""
    if pt.is_infinity:
        return ()
    if not e.a:
        return (pt.x * pt.x * pt.x / e.b).key()
    if not e.b:
        return (pt.x * pt.x / e.a).key()
    return (pt.x * e.a / e.b).key()


def _meet(target: CurveSpec, ell: int, b: int, image: CurvePoint):
    """(layers, keys) from the b-walks out of target: layers[r], r <= b,
    the j keys its r-walks reach; keys the (j, _iso_invariant) of each
    b-walk's codomain and its image of `image`, or None if b = 0.  Raises
    NoSuchOrder if E[ell] of the target is not rational (b > 0)."""
    leaves = list(_walks(target, ell, b, image))
    layers = [{target.j.key()}] + [
        {walk.steps[r].codomain.j.key() for walk, _ in leaves} for r in range(b)
    ]
    if not b:
        return layers, None
    return layers, {
        (walk.codomain.j.key(), _iso_invariant(walk.codomain, pt)) for walk, pt in leaves
    }


def _walks(e0: CurveSpec, ell: int, e: int, point: CurvePoint, meet=((), None)):
    """(chain, its image of point) for the non-backtracking length-e walks
    out of e0, kernels in canonical sorted order.  The search is depth
    first and takes each chain's children in increasing kernel key order,
    so the walks come out in strictly increasing sort_key order.

    meet = _meet(target, ell, b, image), b = e // 2, prunes the walks that
    cannot end on target with point sent to image.  A child with r <= b
    steps still to take is skipped before it is expanded when its j is not
    in layers[r]; at r = b > 0 also when no b-walk psi' out of target sends
    image to the child's image of [ell^b]point up to isomorphism (judged by
    j and _iso_invariant).  Any walk psi o F, psi its last r steps, that
    maps point to image passes: the dual of psi, after the isomorphism onto
    target, is such an r-walk psi' out of target, ending on j(codomain of
    F).  [ell^b]point is computed once on e0 and its image carried down each
    walk to that depth, as F([ell^b]P) = [ell^b]F(P); a child's image of
    point is taken only once it passes.
    """
    layers, keys = meet
    b = len(layers) - 1
    carried = scalar_mul(e0, ell**b, point) if keys is not None else None
    stack = [(IsogenyChain(e0), point, carried, None)]
    while stack:
        chain, mapped, carried, forbidden = stack.pop()
        if len(chain) == e:
            yield chain, mapped
            continue
        # Steps a child still has to take after its own.
        remaining = e - len(chain) - 1
        current = chain.codomain
        subgroups = ell_torsion_subgroups(current, ell)
        for kernel in reversed(subgroups):
            if forbidden is not None and kernel == forbidden:
                continue
            step = _velu_step(current, kernel, ell)
            codomain = step.codomain
            if remaining <= b:
                j_key = codomain.j.key()
                if j_key not in layers[remaining]:
                    continue
            moved = None if carried is None else step._image(carried)
            if remaining == b and moved is not None:
                if (j_key, _iso_invariant(codomain, moved)) not in keys:
                    continue
                moved = None
            child = step._image(mapped)
            next_forbidden = None
            if remaining:
                # A leaf never expands, so it needs no kernel to forbid.
                aux = _other_subgroup_point(subgroups, kernel)
                next_forbidden = _canonical_generator(codomain, step._image(aux), ell)
            stack.append((chain.extended(step), child, moved, next_forbidden))


def recover_isogeny(
    e0: CurveSpec,
    e1: CurveSpec,
    point: CurvePoint,
    image: CurvePoint,
    ell: int,
    e: int,
) -> IsogenyChain:
    """Exact stand-in for the torsion-point isogeny recovery oracle.

    Searches the non-backtracking ell-walks of length e out of e0 and
    returns the lexicographically smallest chain (by kernel serialization)
    whose codomain can be identified with e1 by an isomorphism carrying the
    walk's image of `point` to `image`.  The walks are pruned by one
    enumeration of the b-walks out of e1, b = e // 2: by the j-invariants
    those reach at each depth, and by a meet in the middle at depth b (see
    _walks).  _walks takes children in increasing kernel key order, so its
    walks come in increasing sort_key order, and the pruning skips only
    walks that cannot match: the first match is the smallest over all
    walks, and the search stops there.  Its final step is rescaled so its
    codomain equals e1 and its action sends point to image literally.

    e0 must be supersingular (NoSuchOrder otherwise).  Every curve
    isogenous to it then has E = (Z/(p+1))^2, so a target whose E[ell] is
    not rational ends the search at once with NoIsogenyFound.
    """
    if not is_on_curve(e0, point):
        raise NotOnCurve("torsion point not on the starting curve")
    if not is_on_curve(e1, image):
        raise NotOnCurve("image point not on the target curve")
    require_rational_ell(e0.p, ell)
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
    for chain, mapped in _walks(e0, ell, e, point, meet):
        # Codomains of another j have no isomorphism onto e1.
        for u in isomorphism_scales(chain.codomain, e1):
            u2 = u * u
            if mapped.is_infinity:
                adjusted_pt = INFINITY
            else:
                adjusted_pt = CurvePoint(u2 * mapped.x, u2 * u * mapped.y)
            if adjusted_pt == image:
                last = chain.steps[-1].with_scale(u)
                return IsogenyChain(e0, chain.steps[:-1] + (last,))
    raise NoIsogenyFound(f"no degree {ell}^{e} chain maps the torsion point as required")
