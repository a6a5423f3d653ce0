"""The simplicial interval rings and their constructive Kan fillers.

Level m of the basic tower is the truncated polynomial ring on interval
variables T_0, ..., T_m subject (in the "pi" variant) to T_0 + ... + T_m = p.
We keep T_0 .. T_{m-1} as free variables and treat the last one as the
derived expression p - (T_0 + ... + T_{m-1}); with this choice the two faces
of the 1-simplex variable T_0 evaluate to 0 and p.

A monotone map sigma: [n] -> [m] acts by the ring morphism sending T_i to
the sum of T_j over the sigma-preimage of i.  The checks in this module run
in plain truncated polynomial arithmetic; the tower itself also supports
divided-power levels, which is how the de Rham double complex reuses the
same structure maps.

The tower can carry extra geometric variables (a coefficient algebra), which
every structure map fixes; the mapping-space fillers reuse the same code.

Structure maps act through cached T-monomial images: for each map sigma and
interval exponent te the tower substitutes T^te once (``t_image``), and a
term c*x^a*T^te then goes to c*x^a times that image.  The image has no x,
since sigma fixes the geometric variables, so every product term keeps the
x-monomial x^a of the input: it stays inside the window, and an input in
quotient normal form gives an output in normal form, with no reduction.
``face_matrix`` writes a face in coordinates from the same cache.

The simplicial identity check builds the structure images of each face and
degeneracy once per check.  Every image is affine in the T variables (a sum
of T_j, or p minus such a sum, plus the bump of a negative control), so the
check composes maps in coordinates (``compose_affine``): the image of
c + sum a_j T_j is c + sum a_j (image of T_j), with no series substitution.
It never reads the ``t_image`` cache, which it thereby certifies.  Division by
the full variable product is prepared once per tower and level: the product
multiples are eliminated into one Howell form with transforms, and each
division is then a single reduction against it.

The regularity check runs in stages: stage (S, j) asks that multiplication
by T_j be injective, in the window, modulo the ideal of the elements in S.
It reads only the projection of the left kernel of [multiplication rows;
ideal rows] onto the multiplication rows, {f : f*T_j in the ideal}, and
takes just that projection (``kernel`` with k set).  The Howell form is
unique, so the projection's rows are, in order, the f-parts of the full
kernel's Howell rows that lead in the multiplication rows.  A stage depends
on S only through the span of its rows, so ``regular_sequence_suite``
checks each distinct stage once, (m+1)*2^m of them for the (m+1)! orders.
"""

from itertools import permutations

from .errors import (IncompatibleFaces, PrecisionExhausted,
                     SignConventionViolation, SubstitutionOutsideIdeal,
                     VarSpecMismatch)
from .linalg import HowellBasis, Matrix, block_matrix, kernel
from .reports import CheckReport, merge_reports
from .ring import ZpN
from .series import PDSeries, VarSpec, pd_substitute


class SimplexMap:
    """A weakly monotone map [n] -> [m], stored as its n+1 values."""

    __slots__ = ("values", "n", "m")

    def __init__(self, values, m):
        values = tuple(values)
        if not values:
            raise ValueError("domain [n] must be nonempty")
        if any(v < 0 or v > m for v in values):
            raise ValueError("values outside codomain")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError("map is not monotone")
        self.values = values
        self.n = len(values) - 1
        self.m = m

    @classmethod
    def identity(cls, m):
        return cls(range(m + 1), m)

    @classmethod
    def coface(cls, m, i):
        """delta_i: [m-1] -> [m], skipping the value i."""
        return cls([j for j in range(m + 1) if j != i], m)

    @classmethod
    def codegeneracy(cls, m, i):
        """sigma_i: [m+1] -> [m], repeating the value i."""
        vals = list(range(i + 1)) + list(range(i, m + 1))
        return cls(vals, m)

    def then(self, other: "SimplexMap") -> "SimplexMap":
        """The composite other o self (self first)."""
        if self.m != other.n:
            raise ValueError("maps do not compose")
        return SimplexMap([other.values[v] for v in self.values], other.m)

    def preimage(self, i):
        return [j for j, v in enumerate(self.values) if v == i]

    def __eq__(self, other):
        return isinstance(other, SimplexMap) and \
            (self.values, self.m) == (other.values, other.m)

    def __hash__(self):
        return hash((self.values, self.m))

    def __repr__(self):
        return f"SimplexMap({list(self.values)} -> [{self.m}])"


def t_monomials(nvars, bound):
    """All exponent tuples of length nvars with total degree <= bound."""
    if nvars == 0:
        return [()]
    out = []

    def rec(prefix, remaining, left):
        if remaining == 1:
            for e in range(left + 1):
                out.append(prefix + (e,))
            return
        for e in range(left + 1):
            rec(prefix + (e,), remaining - 1, left - e)

    rec((), nvars, bound)
    out.sort()
    return out


class LevelTower:
    """Interval-ring levels over a fixed geometric base algebra.

    ``variant`` is "interval" for the quotient tower (T_0+...+T_m = p, last
    variable eliminated) or "free" for the unquotiented tower on T_0..T_m.
    """

    def __init__(self, ring: ZpN, D: int, geom=(), E: int = 0,
                 divided: bool = False, variant: str = "interval"):
        if variant not in ("interval", "free"):
            raise ValueError(f"unknown variant {variant!r}")
        self.ring = ring
        self.D = D
        self.geom = tuple(geom)
        self.E = E
        self.divided = divided
        self.variant = variant
        self._specs = {}
        self._t_images = {}
        self._products = {}
        self._product_spaces = {}
        self._indices = {}

    def nvars(self, m):
        return m if self.variant == "interval" else m + 1

    def spec(self, m) -> VarSpec:
        if m not in self._specs:
            names = tuple(f"T{i}" for i in range(self.nvars(m)))
            self._specs[m] = VarSpec(self.ring, geom=self.geom, pd=names,
                                     E=self.E, D=self.D, divided=self.divided)
        return self._specs[m]

    def var(self, m, i) -> PDSeries:
        return PDSeries.pd_var(self.spec(m), f"T{i}")

    def eliminated_expr(self, m) -> PDSeries:
        """The derived last variable p - (T_0 + ... + T_{m-1}) at level m."""
        spec = self.spec(m)
        out = PDSeries.constant(spec, self.ring.p)
        for i in range(m):
            out = out.sub(self.var(m, i))
        return out

    def var_or_derived(self, m, j) -> PDSeries:
        if self.variant == "free" or j < m:
            return self.var(m, j)
        return self.eliminated_expr(m)

    def structure_images(self, sigma: SimplexMap) -> dict:
        """Images of the free variables of level sigma.m inside level sigma.n."""
        n = sigma.n
        images = {}
        for i in range(self.nvars(sigma.m)):
            img = PDSeries.zero(self.spec(n))
            for j in sigma.preimage(i):
                img = img.add(self.var_or_derived(n, j))
            images[f"T{i}"] = img
        return images

    def t_image(self, sigma: SimplexMap, te) -> PDSeries:
        """The image of the interval monomial T^te under sigma, cached.

        Structure maps fix the geometric variables, so an image with an x
        term means the structure images are wrong.
        """
        images = self._images_of(sigma)
        img = images.get(te)
        if img is None:
            src = self.spec(sigma.m)
            mono = PDSeries(src, {(src.zero_x(), te): 1})
            img = pd_substitute(mono, self.structure_images(sigma),
                                self.spec(sigma.n))
            for (xe, _te) in img.terms:
                if any(xe):
                    raise SignConventionViolation(
                        "structure map is not degree preserving",
                        witness=(te, xe))
            images[te] = img
        return img

    def _images_of(self, sigma: SimplexMap) -> dict:
        """The cached T-monomial images of sigma, te -> image."""
        images = self._t_images.get(sigma)
        if images is None:
            images = self._t_images[sigma] = {}
        return images

    def apply_map(self, sigma: SimplexMap, f: PDSeries) -> PDSeries:
        """f under the ring map of sigma: x^a T^te goes to x^a t_image(te)."""
        src = self.spec(sigma.m)
        if f.spec is not src and f.spec != src:
            raise VarSpecMismatch(f"{f.spec} is not level {sigma.m} of the tower")
        mod = self.ring.p ** f.prec
        images = self._images_of(sigma)
        out = {}
        for (xe, te), c in f.terms.items():
            img = images.get(te)
            if img is None:
                img = self.t_image(sigma, te)
            for (_x0, te2), c2 in img.terms.items():
                key = (xe, te2)
                v = (out.get(key, 0) + c * c2) % mod
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return PDSeries._trusted(self.spec(sigma.n), out, f.prec)

    def face(self, m, i, f: PDSeries) -> PDSeries:
        return self.apply_map(SimplexMap.coface(m, i), f)

    def degeneracy(self, m, i, f: PDSeries) -> PDSeries:
        return self.apply_map(SimplexMap.codegeneracy(m, i), f)

    def product(self, m) -> PDSeries:
        """The full product T_0 * ... * T_m at level m (interval variant)."""
        prod = self._products.get(m)
        if prod is None:
            prod = PDSeries.one(self.spec(m))
            for j in range(m + 1):
                prod = prod.mul(self.var_or_derived(m, j))
            self._products[m] = prod
        return prod

    def _product_space(self, m, prec=None):
        """The row space of the product multiples at level m, cached.

        Returns (monomials, space): ``space`` is the Howell form, with
        transforms, of the ``product_multiples(m)`` rows over ``basis(m)``.
        At a precision prec < N the rows p^prec * e_j follow,
        one per basis column, so that ``space`` solves modulo p^prec;
        coordinates past the listed monomials belong to those rows.
        """
        N = self.ring.N
        prec = N if prec is None else prec
        entry = self._product_spaces.get((m, prec))
        if entry is None:
            monos, rows = self.product_multiples(m)
            ncols = len(self._index(m))
            if prec < N:
                rows += [{j: self.ring.p ** prec} for j in range(ncols)]
            space = HowellBasis(self.ring, rows, ncols, transforms=True)
            entry = self._product_spaces[(m, prec)] = (monos, space)
        return entry

    def boundary_class(self, m, f: PDSeries) -> PDSeries:
        """Canonical representative of f modulo the full variable product.

        This realizes the boundary quotient ring of level m: elements are
        classes modulo (T_0 * ... * T_m), represented by Howell reduction
        against the expanded product multiples on the window at f's
        precision (``_product_space(m, f.prec)``), so the class is canonical
        modulo p^prec.
        """
        _monos, space = self._product_space(m, f.prec)
        basis = self.basis(m)
        out_terms = {}
        for xe, vec in self._rows_by_x(m, f):
            res, _ = space.reduce(vec)
            for k, c in res.items():
                out_terms[(xe, basis[k])] = c
        return PDSeries(self.spec(m), out_terms, f.prec)

    def reduction(self, m, f: PDSeries) -> PDSeries:
        """Reduce modulo (p, T): kill the interval variables, coefficients mod p."""
        base = VarSpec(self.ring.with_precision(1), geom=self.geom, pd=(),
                       E=self.E, D=self.D, divided=self.divided)
        terms = {}
        for (xe, te), c in f.terms.items():
            if sum(te) == 0 and c % self.ring.p:
                terms[(xe, ())] = c % self.ring.p
        return PDSeries(base, terms, 1)

    # -- linear-algebra views ------------------------------------------

    def basis(self, m):
        return t_monomials(self.nvars(m), self.D)

    def _index(self, m):
        """Column numbers of the ``basis(m)`` monomials, cached."""
        index = self._indices.get(m)
        if index is None:
            index = {te: k for k, te in enumerate(self.basis(m))}
            self._indices[m] = index
        return index

    def series_to_vector(self, m, f: PDSeries) -> dict:
        index = self._index(m)
        vec = {}
        for (xe, te), c in f.terms.items():
            if any(xe):
                raise ValueError("vectorization expects no geometric part")
            vec[index[te]] = c
        return vec

    def _rows_by_x(self, m, f: PDSeries):
        """f split by x-monomial, as sorted (x^a, coordinate row) pairs.

        The row of x^a holds the coefficients of x^a * T^te over
        ``basis(m)``.
        """
        index = self._index(m)
        by_xe = {}
        for (xe, te), c in f.terms.items():
            by_xe.setdefault(xe, {})[index[te]] = c
        return sorted(by_xe.items())

    def face_matrix(self, m, i) -> Matrix:
        """Face i from level m to level m-1 in coordinates.

        One row per ``basis(m)`` monomial T^te: the cached ``t_image`` of
        T^te under the coface, over ``basis(m-1)``.
        """
        sigma = SimplexMap.coface(m, i)
        index = self._index(m - 1)
        rows = []
        for te in self.basis(m):
            img = self.t_image(sigma, te)
            rows.append({index[t]: c for (_xe, t), c in img.terms.items()})
        return Matrix._trusted(self.ring, rows, len(index))

    def product_multiples(self, m):
        """The product T_0 * ... * T_m times each monomial T^te of degree
        <= D - (m+1), so that none truncates: (monomials, coordinate rows)."""
        monos = t_monomials(self.nvars(m), self.D - (m + 1))
        return monos, self.multiples(m, self.product(m), monos)

    def multiples(self, m, a: PDSeries, monos):
        """The coordinate rows of a * T^te at level m, one per te in monos.

        Callers keep deg a + deg te <= D, so nothing truncates and the spans
        are exact.
        """
        spec = self.spec(m)
        return [self.series_to_vector(
                    m, a.mul(PDSeries(spec, {(spec.zero_x(), te): 1})))
                for te in monos]


# -- simplicial identity suite -----------------------------------------


def _affine_parts(f: PDSeries):
    """The constant and the T_j coefficients of an affine series.

    Structure maps fix the geometric variables and send each interval
    variable to an affine expression, so an x term or a term of T-degree
    >= 2 means the structure images are wrong.
    """
    const = 0
    linear = []
    for (xe, te), c in f.terms.items():
        degree = sum(te)
        if any(xe) or degree > 1:
            raise SignConventionViolation(
                "structure image is not affine linear", witness=f)
        if degree:
            linear.append((te.index(1), c))
        else:
            const = c
    return const, linear


def compose_affine(images: dict, then_images: dict, target: VarSpec) -> dict:
    """The images of ``images`` under the ring map given by ``then_images``.

    ``images`` maps variable names to affine series on one level, and
    ``then_images`` sends that level's interval variables into ``target``.
    A ring map is linear, so the image of c + sum a_j T_j is
    c + sum a_j * then_images[T_j]: the result is a scaled sum of the given
    images.  It equals ``pd_substitute`` of each image, at the precision
    that would use (the least of the image's and every ``then_images``
    precision), and keeps its check that no image of a variable has a unit
    T-free term.  A non-affine image raises ``SignConventionViolation``.
    """
    if not images:
        return {}
    source = next(iter(images.values())).spec
    prec_then = min((g.prec for g in then_images.values()), default=None)
    p = target.ring.p
    linear_images = []
    for n in source.pd:
        if n not in then_images:
            raise VarSpecMismatch(f"no image given for capped variable {n}")
        img = then_images[n]
        const, _linear = _affine_parts(img)
        if const % p:
            raise SubstitutionOutsideIdeal(
                f"image of {n} has unit term outside the ideal",
                witness=(n, target.zero_x(), const))
        linear_images.append(img.terms)
    unit_key = (target.zero_x(), target.zero_t())
    out = {}
    for name, f in images.items():
        prec = f.prec if prec_then is None else min(f.prec, prec_then)
        mod = p ** prec
        const, linear = _affine_parts(f)
        acc = {unit_key: const} if const else {}
        for j, a in linear:
            for key, c in linear_images[j].items():
                acc[key] = acc.get(key, 0) + a * c
        terms = {}
        for key, c in acc.items():
            c %= mod
            if c:
                terms[key] = c
        out[name] = PDSeries._trusted(target, terms, prec)
    return out


def verify_simplicial_identities(ring: ZpN, D: int, m_max: int,
                                 variant: str = "interval") -> CheckReport:
    """Check the face/degeneracy relations levelwise up to m_max.

    Compares composed structure morphisms on every free generator.  Every
    structure image is affine in the T variables, so a composite is built
    by ``compose_affine``: the image of c + sum a_j T_j under the second
    map is c + sum a_j (image of T_j), a scaled sum of images already
    built; an image that is not affine raises ``SignConventionViolation``.
    Each map's images are built once, and every identity that uses the map
    reads the same images.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if m_max > 4:
        raise ValueError("m_max above 4 is not certified (cost control)")
    if D < 1:
        raise ValueError("D must be >= 1: the interval variables need degree 1")
    tower = LevelTower(ring, D, variant=variant)
    memo = {}

    def images_of(kind, m, i):
        """Structure images plus the level they land in, built once."""
        key = (kind, m, i)
        if key not in memo:
            sigma = SimplexMap.coface(m, i) if kind == "d" \
                else SimplexMap.codegeneracy(m, i)
            memo[key] = (tower.structure_images(sigma), sigma.n)
        return memo[key]

    def compose(first, then_):
        """Apply ``first`` then ``then_``; both are (images, target) pairs."""
        first_images, _ = first
        then_images, target_level = then_
        return (compose_affine(first_images, then_images,
                               tower.spec(target_level)), target_level)

    def maps_equal(a, b):
        (ia, la), (ib, lb) = a, b
        if la != lb or sorted(ia) != sorted(ib):
            return False
        return all(ia[k] == ib[k] for k in ia)

    failures = []
    checked = 0
    for m in range(m_max + 1):
        # d_i d_j = d_{j-1} d_i for i < j, maps from level m (m >= 2)
        if m >= 2:
            for j in range(m + 1):
                for i in range(j):
                    lhs = compose(images_of("d", m, j), images_of("d", m - 1, i))
                    rhs = compose(images_of("d", m, i), images_of("d", m - 1, j - 1))
                    checked += 1
                    if not maps_equal(lhs, rhs):
                        failures.append(f"d{i} d{j} != d{j-1} d{i} at level {m}")
        # s_i s_j = s_{j+1} s_i for i <= j, maps from level m
        for j in range(m + 1):
            for i in range(j + 1):
                lhs = compose(images_of("s", m, j), images_of("s", m + 1, i))
                rhs = compose(images_of("s", m, i), images_of("s", m + 1, j + 1))
                checked += 1
                if not maps_equal(lhs, rhs):
                    failures.append(f"s{i} s{j} != s{j+1} s{i} at level {m}")
        # mixed identities d_i s_j (operators on level m-1)
        if m >= 1:
            for j in range(m):
                for i in range(m + 1):
                    lhs = compose(images_of("s", m - 1, j), images_of("d", m, i))
                    checked += 1
                    if i == j or i == j + 1:
                        ident = ({f"T{k}": tower.var(m - 1, k)
                                  for k in range(tower.nvars(m - 1))}, m - 1)
                        if not maps_equal(lhs, ident):
                            failures.append(f"d{i} s{j} != id at level {m}")
                    elif i < j:
                        rhs = compose(images_of("d", m - 1, i),
                                      images_of("s", m - 2, j - 1))
                        if not maps_equal(lhs, rhs):
                            failures.append(f"d{i} s{j} != s{j-1} d{i} at level {m}")
                    else:
                        rhs = compose(images_of("d", m - 1, i - 1),
                                      images_of("s", m - 2, j))
                        if not maps_equal(lhs, rhs):
                            failures.append(f"d{i} s{j} != s{j} d{i-1} at level {m}")
        # the augmentation (all T -> 0, coefficients mod p) commutes with
        # every face and degeneracy: variable images must have no unit
        # constant term
        for kind, count in (("d", m + 1 if m >= 1 else 0), ("s", m + 1)):
            for i in range(count):
                images, _lvl = images_of(kind, m, i)
                for name, img in images.items():
                    const = img.constant_coefficient()
                    checked += 1
                    if const % ring.p:
                        failures.append(
                            f"augmentation broken by {kind}{i} at level {m} on {name}")

    if failures:
        return CheckReport("simplicial-identities", False,
                           witness=failures[0],
                           details={"failures": len(failures),
                                    "checked": checked,
                                    "variant": variant})
    return CheckReport("simplicial-identities", True,
                       details={"checked": checked, "variant": variant,
                                "m_max": m_max})


# -- boundary restriction and its kernel --------------------------------


def boundary_restriction(tower: LevelTower, m: int, f: PDSeries):
    """All faces of f together with its reduction modulo (p, T)."""
    if m < 1:
        raise ValueError("boundary restriction needs m >= 1")
    faces = tuple(tower.face(m, i, f) for i in range(m + 1))
    return faces, tower.reduction(m, f)


def faces_compatible(tower: LevelTower, m: int, faces) -> bool:
    """The simplicial compatibility d_i f_j = d_{j-1} f_i for i < j."""
    if m < 2:
        return len(faces) == m + 1
    for j in range(m + 1):
        for i in range(j):
            if tower.face(m - 1, i, faces[j]) != tower.face(m - 1, j - 1, faces[i]):
                return False
    return True


def _window_too_small(name, m: int, D: int) -> CheckReport:
    """The inconclusive report of a check that needs the product T_0...T_m."""
    return CheckReport(name, True, inconclusive=True,
                       witness=f"window D={D} cannot hold the degree-{m+1} product",
                       details={"m": m, "D": D})


def verify_boundary_kernel(p: int, N: int, D: int, m: int) -> CheckReport:
    """Certify: a level-m element has all faces zero iff the full variable
    product divides it.

    At precision N alone the forward inclusion is polluted by coefficients
    whose faces vanish only because a p-power overflowed the modulus, so the
    kernel is computed with valuation headroom (precision N + D + m + 1) and
    then projected back to precision N, where it must coincide with the span
    of exact product multiples.  The m+1 face matrices stand side by side,
    so the kernel is one left kernel, and one product certifies that every
    product multiple has zero faces, hence lies in that kernel and, reduced,
    in its projection; what remains is that every kernel element is a
    product multiple.
    """
    name = "boundary-kernel"
    if m < 1:
        raise ValueError("m >= 1 required")
    if D < m + 1:
        return _window_too_small(name, m, D)
    buffered = ZpN(p, N + D + m + 1)
    tower = LevelTower(buffered, D)
    basis_m = tower.basis(m)
    ncols = len(basis_m)
    nf = len(tower.basis(m - 1))
    faces = block_matrix(buffered, [("m", ncols)],
                         [(i, nf) for i in range(m + 1)],
                         [("m", i, tower.face_matrix(m, i), 1)
                          for i in range(m + 1)])

    monos, ideal_rows = tower.product_multiples(m)
    # every face of a product multiple must vanish exactly
    products = Matrix._trusted(buffered, ideal_rows, ncols).mul(faces)
    for te, row in zip(monos, products._rows):
        if row:
            mu = PDSeries(tower.spec(m), {(tower.spec(m).zero_x(), te): 1})
            return CheckReport(name, False,
                               witness=f"product multiple {mu} has "
                                       f"nonzero face {min(row) // nf}",
                               details={"m": m})

    # project both modules to precision N and compare canonical forms
    small = ZpN(p, N)
    hb_ker = HowellBasis(small, kernel(faces)._rows, ncols)
    hb_ideal = HowellBasis(small, ideal_rows, ncols)
    for row in hb_ker.rows():
        if not hb_ideal.contains(row):
            return CheckReport(name, False,
                               witness=f"kernel element at monomial "
                                       f"{basis_m[min(row)]} is not a "
                                       f"product multiple",
                               details={"m": m, "D": D, "N": N})
    return CheckReport(name, True,
                       details={"m": m, "D": D, "N": N,
                                "buffer": buffered.N - N,
                                "kernel_rank": len(hb_ker)})


# -- regular sequences ---------------------------------------------------


class _RegularityStages:
    """The stages (S, j) of the windowed regularity check at level m.

    A verdict is kept per (boundary quotient, S, j), and every permutation
    that reaches the stage reads it.  The tower, each element's
    multiplication rows and each S's ideal are built once.
    """

    def __init__(self, p: int, N: int, D: int, m: int):
        if m > 3:
            raise ValueError("m above 3 is not certified (cost control)")
        self.m, self.D = m, D
        self.small = ZpN(p, N)
        self.tower = LevelTower(ZpN(p, N + D + 2), D)
        self.basis = self.tower.basis(m)
        index = self.tower._index(m)
        self.basis_in = [te for te in self.basis if sum(te) <= D - 1]
        self.in_to_all = [index[te] for te in self.basis_in]
        self._rows = {}
        self._ideals = {}
        self._verdicts = {}

    def _multiples(self, j):
        """The rows of T_j * T^te over ``basis(m)``, te in the degree <= D-1
        monomials (T_m is the derived expression)."""
        rows = self._rows.get(j)
        if rows is None:
            tower = self.tower
            rows = self._rows[j] = tower.multiples(
                self.m, tower.var_or_derived(self.m, j), self.basis_in)
        return rows

    def _ideal(self, S, boundary_quotient):
        """The ideal of S (and of the product, with the boundary quotient):
        its generator rows in degree <= D, and the precision-N Howell basis
        of those in degree <= D-1, the membership target.  Built once."""
        key = (boundary_quotient, S)
        ideal = self._ideals.get(key)
        if ideal is None:
            full, low = [], []
            if boundary_quotient:
                monos, full = self.tower.product_multiples(self.m)
                low = [row for te, row in zip(monos, full)
                       if sum(te) + self.m + 1 <= self.D - 1]
            for s in sorted(S):
                rows = self._multiples(s)
                full += rows
                low += [row for te, row in zip(self.basis_in, rows)
                        if sum(te) <= self.D - 2]
            ideal = self._ideals[key] = (
                full, HowellBasis(self.small, low, len(self.basis)))
        return ideal

    def stage(self, S: frozenset, j: int, boundary_quotient: bool):
        """The leading monomial of a class of degree <= D-1 that T_j kills
        modulo the ideal of S but that is not in that ideal, or None.

        The projected kernel of [multiplication rows of T_j; ideal rows] is
        the Howell basis of the f with f*T_j in the ideal, computed with
        valuation headroom; membership is then decided in Z/p^N.
        """
        key = (boundary_quotient, S, j)
        if key in self._verdicts:
            return self._verdicts[key]
        mult_rows = self._multiples(j)
        full, low = self._ideal(S, boundary_quotient)
        ker = kernel(Matrix._trusted(self.tower.ring, mult_rows + full,
                                     len(self.basis)), len(mult_rows))
        verdict = None
        for row in ker._rows:
            f_part = {self.in_to_all[k]: v for k, v in row.items()}
            if not low.contains(f_part):
                verdict = self.basis[min(f_part)]
                break
        self._verdicts[key] = verdict
        return verdict

    def run(self, perm, boundary_quotient: bool = False) -> CheckReport:
        """The report of one permutation: its stages in order, up to the
        first failure."""
        m = self.m
        perm = tuple(perm)
        if sorted(perm) != list(range(m + 1)):
            raise ValueError("perm must order the m+1 interval variables")
        for stage, j in enumerate(perm):
            mono = self.stage(frozenset(perm[:stage]), j, boundary_quotient)
            if mono is not None:
                witness = (f"stage {stage} (element T{j}): class at "
                           f"monomial {mono} is killed but nonzero")
                return CheckReport("regular-sequence", False, witness=witness,
                                   details={"m": m, "perm": perm,
                                            "stage": stage,
                                            "boundary_quotient": boundary_quotient})
        return CheckReport("regular-sequence", True,
                           details={"m": m, "perm": perm,
                                    "boundary_quotient": boundary_quotient})


def check_regular_sequence(p: int, N: int, D: int, m: int, perm,
                           boundary_quotient: bool = False) -> CheckReport:
    """Windowed regularity of the permuted interval variables at level m.

    Stage j multiplies by the j-th sequence element on the quotient by the
    previous ones; a degree <= D-1 element killed in degree <= D must itself
    lie in the previous ideal, up to terms invisible at precision N.  The
    kernel is computed with valuation headroom, and membership is then
    decided in Z/p^N: a vector lies in span(prev) + p^N * (everything) over
    the buffered ring iff its reduction lies in the span of the reduced
    previous rows, because reduction onto Z/p^N is onto and its kernel is
    p^N times everything.  Failures are reported with the offending class.
    With ``boundary_quotient`` the same test runs in the ring modulo the
    full variable product, where it must fail.

    Only the f-part of the kernel of [multiplication rows; previous rows]
    is read, so each stage takes the kernel's projection onto the
    multiplication rows, {f : f*a in span(previous rows)}.  Its Howell rows
    are, in order, the f-parts of the full kernel's Howell rows that lead
    in those rows (the Howell form is unique), so the verdict and the
    witness are those of the full kernel.  This runs the permutation
    through the same stages as ``regular_sequence_suite``.
    """
    return _RegularityStages(p, N, D, m).run(perm, boundary_quotient)


def regular_sequence_suite(p: int, N: int, D: int, m: int) -> CheckReport:
    """All permutations at level m, plus the boundary-ring negative control.

    A stage's verdict depends only on the span of the earlier elements'
    rows, that is on the set S of earlier elements and not on their order,
    and its projected kernel and precision-N Howell basis are unique for
    that span.  So every distinct stage (S, j) is checked once, (m+1)*2^m
    of them instead of (m+1)!*(m+1), on one buffered tower, and each
    permutation's report is exactly that of ``check_regular_sequence``.
    The negative control keeps stages of its own.
    """
    stages = _RegularityStages(p, N, D, m)
    reports = [stages.run(perm) for perm in permutations(range(m + 1))]
    control = "boundary-ring-negative-control"
    if D < m + 1:
        # the quotient by a product the window cannot hold is the plain ring
        reports.append(_window_too_small(control, m, D))
    else:
        neg = stages.run(tuple(range(m + 1)), boundary_quotient=True)
        ok_neg = not neg.passed
        reports.append(CheckReport(control, ok_neg,
                                   witness="" if ok_neg else
                                   "zero divisors went undetected",
                                   details={"expected_failure": neg.witness}))
    return merge_reports(f"regular-sequences-m{m}", reports)


# -- boundary fillers -----------------------------------------------------


def divide_by_variable_product(tower: LevelTower, m: int, g: PDSeries):
    """Solve  (T_0 * ... * T_m) * q = g  at level m and g's precision, or
    return None.  At level 0 the product is the derived T_0 = p.

    The product is free of geometric variables, so the division splits over
    the geometric monomials of g and each piece is a small linear solve in
    the interval-variable coordinates, against the product multiples that
    the tower eliminates once per level and precision.
    """
    monos, space = tower._product_space(m, g.prec)
    q_terms = {}
    for xe, vec in tower._rows_by_x(m, g):
        x = space.solve(vec)
        if x is None:
            return None
        for k, v in x.items():
            if k < len(monos):
                q_terms[(xe, monos[k])] = v
    return PDSeries(tower.spec(m), q_terms, g.prec)


def fill_boundary(tower: LevelTower, m: int, faces, base: PDSeries) -> PDSeries:
    """An element of level m with the given faces and reduction.

    Faces are corrected one at a time through degeneracies; the remaining
    defect on the last face has all of its own faces zero and is repaired by
    exact division by the full variable product T_0 * ... * T_{m-1} of the
    level below, which at level 0 is T_0 = p.  The quotient re-enters
    through the carrier inclusion times T_0 * ... * T_{m-1}, which vanishes
    on faces 0..m-1 and is the product again on the last face.
    """
    if tower.variant != "interval":
        raise ValueError("fillers are defined for the interval variant")
    if m == 0:
        lifted = PDSeries(base.spec.with_ring(tower.ring), base.terms)
        return lifted.embed(tower.spec(0))
    if tower.D < 1:
        raise ValueError("D must be >= 1: the interval variables need degree 1")
    if len(faces) != m + 1:
        raise IncompatibleFaces(f"expected {m+1} faces, got {len(faces)}")
    if not faces_compatible(tower, m, faces):
        raise IncompatibleFaces("faces violate the simplicial compatibility",
                                witness=faces)
    for i, fc in enumerate(faces):
        if tower.reduction(m - 1, fc) != base:
            raise IncompatibleFaces(
                f"face {i} does not reduce to the base datum", witness=fc)

    f = PDSeries.zero(tower.spec(m))
    for i in range(m):
        defect = tower.face(m, i, f).sub(faces[i])
        f = f.sub(tower.degeneracy(m - 1, i, defect))
    g = faces[m].sub(tower.face(m, m, f))
    if m >= 2:
        for i in range(m):
            if not tower.face(m - 1, i, g).is_zero():
                raise IncompatibleFaces("residual defect has a nonzero face",
                                        witness=g)
    if g.is_zero():
        return f
    q = divide_by_variable_product(tower, m - 1, g)
    if q is None:
        raise PrecisionExhausted(
            "residual defect is not a product multiple at this precision",
            witness=g)
    correction = q.embed(tower.spec(m))
    for i in range(m):
        correction = correction.mul(tower.var(m, i))
    f = f.add(correction)
    for i in range(m + 1):
        if tower.face(m, i, f) != faces[i]:
            raise PrecisionExhausted(f"face {i} not matched after repair",
                                     witness=f)
    return f
