"""Presentations of smooth algebras and their lifts across p-power precision.

A presentation is standard smooth: free generators (polynomial or Laurent),
finitely many polynomial relations, and a witness subset of generators whose
Jacobian minor is invertible in the quotient.  Tier 1 (no relations) covers
the free and Laurent coordinate rings; Tier 2 adds hypersurface/complete
intersection quotients whose monomial normal form is described by explicit
rewrite rules supplied with the presentation.

Morphisms store generator images in the target's carrier, possibly extended
by interval variables T_0..T_{m-1} (an m-simplex of the mapping space).
Lifting and filling are Newton iterations driven by the witness minor; the
corrections vanish on faces, so boundary data is preserved exactly.  A
homotopy between congruent lifts is the m = 1 filler: its faces are the
two lifts, at T0 = 0 and at T0 = p.
"""

from .errors import (
    IncompatibleFaces,
    NewtonStall,
    NotCongruent,
    NotInvertible,
    PrecisionExhausted,
    RewriteLoop,
    WitnessNotInvertible,
)
from .linalg import HowellBasis
from .ring import ZpN
from .series import GeomVar, PDSeries, VarSpec
from .simplicial import LevelTower, fill_boundary, t_monomials


class RewriteRule:
    """Rewrite any monomial divisible by ``lead`` using a relation.

    The relation is solved for its lead monomial: lead -> replacement, where
    the lead coefficient is a unit.  Termination holds because replacement
    monomials carry strictly smaller total degree in the lead's variables.
    """

    __slots__ = ("lead", "replacement")

    def __init__(self, lead, replacement):
        self.lead = tuple(lead)
        self.replacement = dict(replacement)
        lead_deg = sum(self.lead)
        for xe in self.replacement:
            deg = sum(e for e, l in zip(xe, self.lead) if l > 0)
            if deg >= lead_deg:
                raise ValueError("replacement does not decrease the lead degree")

    def applies(self, xe):
        return all(e >= l for e, l in zip(xe, self.lead))

    @classmethod
    def from_relation(cls, rel: dict, lead, ring: ZpN):
        lead = tuple(lead)
        c_lead = rel.get(lead, 0)
        if c_lead % ring.p == 0:
            raise ValueError("lead coefficient must be a unit")
        inv = ring.unit_inverse(c_lead)
        replacement = {xe: (-inv * c) % ring.modulus
                       for xe, c in rel.items() if xe != lead}
        return cls(lead, replacement)


class Presentation:
    """A standard-smooth algebra with carrier window E.

    ``leads`` designates, for each relation, the monomial it is solved for;
    the induced rewrite rules give the quotient's monomial normal form (and
    stay consistent with the relations at every precision).  Tier 1 algebras
    have no relations and need no leads.
    """

    def __init__(self, name, ring: ZpN, generators=(), relations=(),
                 witness=(), leads=(), E=6):
        self.name = name
        self.ring = ring
        self.generators = tuple(GeomVar(*g) if not isinstance(g, GeomVar) else g
                                for g in generators)
        self.gen_names = tuple(g.name for g in self.generators)
        self.relations = tuple({tuple(xe): c % ring.modulus
                                for xe, c in rel.items() if c % ring.modulus}
                               for rel in relations)
        self.witness = tuple(witness)
        self.leads = tuple(tuple(l) for l in leads)
        self.E = E
        if len(self.witness) != len(self.relations):
            raise ValueError("witness must pick one generator per relation")
        if self.relations and len(self.leads) != len(self.relations):
            raise ValueError("each relation needs a lead monomial")
        for w in self.witness:
            if w not in self.gen_names:
                raise ValueError(f"witness generator {w} not present")
        self.rewrites = tuple(
            RewriteRule.from_relation(rel, lead, ring)
            for rel, lead in zip(self.relations, self.leads))
        self._towers = {}
        self.complexes = {}  # level-0 de Rham complexes by D, see derham

    def __repr__(self):
        return f"Presentation({self.name}, p={self.ring.p}, N={self.ring.N})"

    def at_precision(self, N) -> "Presentation":
        """The same presentation over Z/p^N: coefficients are read modulo
        p^N (at N = 1 those divisible by p drop out) and the rewrite rules
        are derived again from them."""
        return Presentation(self.name, self.ring.with_precision(N),
                            self.generators, self.relations, self.witness,
                            self.leads, self.E)

    # -- carriers -------------------------------------------------------

    def carrier(self, D=0, level=0) -> VarSpec:
        names = tuple(f"T{i}" for i in range(level))
        return VarSpec(self.ring, geom=self.generators, pd=names,
                       E=self.E, D=D, divided=False)

    def mapping_tower(self, D) -> LevelTower:
        """The interval tower of the mapping space, one per D.

        Its structure-map cache then serves every face, degeneracy and
        filler of morphisms into this presentation.
        """
        tower = self._towers.get(D)
        if tower is None:
            tower = self._towers[D] = LevelTower(
                self.ring, D, geom=self.generators, E=self.E,
                divided=False, variant="interval")
        return tower

    def relation_series(self, idx, spec) -> PDSeries:
        zero_t = spec.zero_t()
        return PDSeries(spec, {(xe, zero_t): c
                               for xe, c in self.relations[idx].items()})

    # -- quotient normal form --------------------------------------------

    def is_normal_monomial(self, xe) -> bool:
        return not any(r.applies(xe) for r in self.rewrites)

    def reduce(self, f: PDSeries) -> PDSeries:
        """Rewrite every monomial of f to quotient normal form."""
        if not self.rewrites:
            return f
        spec = f.spec
        mod = spec.ring.p ** f.prec
        pending = dict(f.terms)
        out = {}
        guard = 0
        while pending:
            guard += 1
            if guard > 200000:
                raise RewriteLoop(
                    f"rewrite rules of {self.name} do not terminate")
            (xe, te), c = pending.popitem()
            rule = next((r for r in self.rewrites if r.applies(xe)), None)
            if rule is None:
                nv = (out.get((xe, te), 0) + c) % mod
                if nv:
                    out[(xe, te)] = nv
                else:
                    out.pop((xe, te), None)
                continue
            new_xe = [e - l for e, l in zip(xe, rule.lead)]
            for rep_xe, rep_c in rule.replacement.items():
                comb = tuple(a + b for a, b in zip(new_xe, rep_xe))
                if not spec.fits_geom(comb):
                    continue
                key = (comb, te)
                nv = (pending.get(key, 0) + c * rep_c) % mod
                if nv:
                    pending[key] = nv
                else:
                    pending.pop(key, None)
        return PDSeries(spec, out, f.prec)

    def normal_monomials(self, E):
        """The normal x-monomials of the window E, sorted: exponents in
        [-E, E] for a Laurent generator and [0, E] otherwise."""
        xes = [()]
        for g in self.generators:
            r = range(-E if g.kind == "laurent" else 0, E + 1)
            xes = [xe + (e,) for xe in xes for e in r]
        return sorted(xe for xe in xes if self.is_normal_monomial(xe))

    def quotient_basis(self, spec):
        """Normal-form monomials of the carrier, T-part included."""
        tes = t_monomials(len(spec.pd), spec.D)
        return sorted((xe, te) for xe in self.normal_monomials(spec.E)
                      for te in tes)

    def quotient_inverse(self, f: PDSeries) -> PDSeries:
        """Inverse of f in the windowed quotient, via a linear solve."""
        try:
            return self.reduce(f.inverse())
        except NotInvertible:
            return self._solve_inverse(f)

    def require_unit(self, f: PDSeries):
        """Raise NotInvertible unless f is a unit of the windowed quotient.

        The same answer as ``quotient_inverse`` without computing the
        inverse: when the unit + nilpotent split of f exists, so does its
        geometric-series inverse (see ``PDSeries.inverse``); only when it
        does not is the linear solve needed.
        """
        try:
            f._unit_split()
        except NotInvertible:
            self._solve_inverse(f)

    def _solve_inverse(self, f: PDSeries) -> PDSeries:
        """The canonical solution x of f*x = 1 in the windowed quotient."""
        spec = f.spec
        basis = self.quotient_basis(spec)
        index = {b: k for k, b in enumerate(basis)}
        rows = []
        for (xe, te) in basis:
            mono = PDSeries(spec, {(xe, te): 1}, f.prec)
            img = self.reduce(f.mul(mono))
            row = {}
            for key, c in img.terms.items():
                if key in index:
                    row[index[key]] = c
            rows.append(row)
        target = {index[(spec.zero_x(), spec.zero_t())]: 1}
        space = HowellBasis(self.ring, rows, len(basis), transforms=True)
        x = space.solve(target)
        if x is None:
            raise NotInvertible("element is not a unit in the windowed quotient",
                                witness=f)
        terms = {basis[k]: v for k, v in x.items()}
        return PDSeries(spec, terms, f.prec)

    # -- witness ---------------------------------------------------------

    def jacobian_polys(self):
        """d(relation_i)/d(generator_j) as raw polynomial dicts."""
        out = []
        for rel in self.relations:
            row = []
            for j, _g in enumerate(self.generators):
                d = {}
                for xe, c in rel.items():
                    if xe[j]:
                        nxe = list(xe)
                        nxe[j] -= 1
                        d[tuple(nxe)] = d.get(tuple(nxe), 0) + c * xe[j]
                row.append({k: v % self.ring.modulus for k, v in d.items()
                            if v % self.ring.modulus})
            out.append(row)
        return out

    def witness_minor(self, target, images, spec):
        """The witness minor W of the Jacobian at generator images.

        The relations of this presentation are evaluated at ``images`` in
        target's carrier ``spec``; returns W's entries, one row per relation,
        and det W, both reduced in target's quotient.
        """
        cols = [self.gen_names.index(w) for w in self.witness]
        entries = [[evaluate_poly(row[j], target, images, spec) for j in cols]
                   for row in self.jacobian_polys()]
        return entries, target.reduce(_det(entries, spec))

    def witness_solve(self, target, images, spec, vectors, prec=None):
        """-W^-1 v for each vector v, W the witness minor at images.

        Each v has one series per relation; its solution has one per witness
        generator, computed as -(adj W . v) * (det W)^-1 in target's quotient.
        """
        entries, det = self.witness_minor(target, images, spec)
        det_inv = target.quotient_inverse(det)
        adj = _adjugate(entries, spec)
        out = []
        for vec in vectors:
            sol = []
            for adj_row in adj:
                acc = PDSeries.zero(spec, prec)
                for a, v in zip(adj_row, vec):
                    acc = acc.add(a.mul(v))
                sol.append(target.reduce(acc.mul(det_inv)).neg())
            out.append(sol)
        return out

    def check_witness(self):
        """The witness minor must be a unit in the mod-p quotient."""
        small = self.at_precision(1)
        spec = small.carrier()
        images = {g.name: PDSeries.geom_var(spec, g.name)
                  for g in small.generators}
        _entries, det = small.witness_minor(small, images, spec)
        try:
            small.require_unit(det)
        except NotInvertible as exc:
            raise WitnessNotInvertible(
                f"witness minor of {self.name} is not invertible mod p",
                witness=det) from exc
        return True

    def is_homogeneous(self):
        for rel in self.relations:
            degs = {sum(g.weight * e for g, e in zip(self.generators, xe))
                    for xe in rel}
            if len(degs) > 1:
                return False
        return True


def _det(entries, spec):
    n = len(entries)
    if n == 0:
        return PDSeries.one(spec)
    if n == 1:
        return entries[0][0]
    acc = PDSeries.zero(spec)
    for j in range(n):
        minor = [[entries[r][c] for c in range(n) if c != j]
                 for r in range(1, n)]
        term = entries[0][j].mul(_det(minor, spec))
        acc = acc.add(term) if j % 2 == 0 else acc.sub(term)
    return acc


def _adjugate(entries, spec):
    n = len(entries)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[entries[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = _det(minor, spec)
            if (i + j) % 2:
                cof = cof.neg()
            adj[j][i] = cof
    return adj


def evaluate_poly(poly: dict, pres: Presentation, images: dict, spec) -> PDSeries:
    """Evaluate a raw polynomial at generator images inside spec."""
    prec = min([img.prec for img in images.values()] or [spec.ring.N])
    out = PDSeries.zero(spec, prec)
    pow_cache = {}

    def gen_power(name, e):
        key = (name, e)
        if key not in pow_cache:
            base = images[name]
            if e >= 0:
                val = base.power(e)
            else:
                val = pres.quotient_inverse(base).power(-e)
            pow_cache[key] = pres.reduce(val)
        return pow_cache[key]

    for xe, c in sorted(poly.items()):
        term = PDSeries.constant(spec, c, prec)
        for name, e in zip(pres.gen_names, xe):
            if e:
                term = term.mul(gen_power(name, e))
        out = out.add(term)
    return pres.reduce(out)


def relation_residuals(source: Presentation, target: Presentation,
                       images: dict, spec) -> list:
    """Each relation of source evaluated at images, in target's quotient."""
    return [evaluate_poly(rel, target, images, spec)
            for rel in source.relations]


def lift_algebra(Abar: Presentation, N: int) -> Presentation:
    """Lift a mod-p presentation to precision N, coefficients verbatim.

    Any coefficient lift presents a formally smooth algebra; the verbatim one
    is canonical.  Rewrite rules are re-derived from the lifted relations, so
    quotient and relations agree at the new precision.  The witness minor
    stays a unit because unitality only depends on the reduction mod p.
    """
    if Abar.ring.N != 1:
        raise ValueError("lift_algebra expects a mod-p presentation")
    lifted = Abar.at_precision(N)
    lifted.check_witness()
    return lifted


class Morphism:
    """Generator images in the target carrier at simplicial level m."""

    def __init__(self, source: Presentation, target: Presentation,
                 images: dict, level: int = 0, D: int = 0, prec=None,
                 validate: bool = True):
        if source.ring != target.ring:
            raise ValueError("source and target live over different rings")
        self.source = source
        self.target = target
        self.level = level
        self.D = D
        self.spec = target.carrier(D=D, level=level)
        self.images = {}
        for g in source.generators:
            if g.name not in images:
                raise ValueError(f"missing image for generator {g.name}")
            img = images[g.name]
            if img.spec != self.spec:
                raise ValueError(f"image of {g.name} lives in the wrong carrier")
            self.images[g.name] = img
        self.prec = min([img.prec for img in self.images.values()]
                        + ([prec] if prec is not None else [source.ring.N]))
        if validate:
            self.validate()

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.source.name == other.source.name
                and self.target.name == other.target.name
                and self.level == other.level
                and self.prec == other.prec
                and self.images == other.images)

    def __repr__(self):
        ims = ", ".join(f"{n} -> {s}" for n, s in sorted(self.images.items()))
        return f"Morphism(level={self.level}, {ims})"

    def validate(self):
        """Every source relation must map to zero within precision and caps,
        and every Laurent generator to a unit."""
        for idx, val in enumerate(self.residuals()):
            if not val.reduce_precision(self.prec).is_zero():
                raise PrecisionExhausted(
                    f"relation {idx} of {self.source.name} not preserved",
                    witness=val)
        return self.require_units()

    def require_units(self):
        """Every Laurent generator must map to a unit: all that ``validate``
        adds to residuals that ``newton_correct`` has driven to zero."""
        for g in self.source.generators:
            if g.kind == "laurent":
                self.target.require_unit(self.images[g.name])
        return self

    def residuals(self):
        return relation_residuals(self.source, self.target, self.images,
                                  self.spec)

    def face(self, i) -> "Morphism":
        tower = self.target.mapping_tower(self.D)
        images = {n: tower.face(self.level, i, img)
                  for n, img in self.images.items()}
        return Morphism(self.source, self.target, images,
                        level=self.level - 1, D=self.D, prec=self.prec,
                        validate=False)

    def degeneracy(self, i, D=None) -> "Morphism":
        D = self.D if D is None else D
        tower = self.target.mapping_tower(D)
        images = {n: img.embed(tower.spec(self.level))
                  if img.spec != tower.spec(self.level) else img
                  for n, img in self.images.items()}
        images = {n: tower.degeneracy(self.level, i, img)
                  for n, img in images.items()}
        return Morphism(self.source, self.target, images,
                        level=self.level + 1, D=D, prec=self.prec,
                        validate=False)

    def reduction(self) -> dict:
        """Images modulo (p, T): the underlying mod-p morphism data."""
        tower = self.target.mapping_tower(self.D)
        return {n: tower.reduction(self.level, img)
                for n, img in sorted(self.images.items())}


def newton_correct(phi: Morphism) -> Morphism:
    """Drive the relation residuals of phi to zero by witness-minor Newton.

    Corrections are multiples of the current residuals, so they vanish
    wherever the residuals do (mod p, on every interval face); boundary data
    survives the iteration exactly.  Like phi, the result is not validated:
    its residuals are zero, so a caller only needs ``require_units``.
    """
    src, tgt = phi.source, phi.target
    if not src.relations:
        return phi
    spec = phi.spec
    images = dict(phi.images)
    steps = tgt.ring.N.bit_length() + phi.D + 4

    def order(series_list):
        # combined p-adic plus T-adic order; caps count as fully converged
        best = None
        for s in series_list:
            for (xe, te), coeff in s.terms.items():
                o = tgt.ring.val(coeff) + sum(te)
                best = o if best is None else min(best, o)
        return best

    res = relation_residuals(src, tgt, images, spec)
    prev_order = order(res)
    for _ in range(steps):
        if all(r.is_zero() for r in res):
            return Morphism(src, tgt, images, level=phi.level, D=phi.D,
                            prec=phi.prec, validate=False)
        [deltas] = src.witness_solve(tgt, images, spec, [res], prec=phi.prec)
        for w, delta in zip(src.witness, deltas):
            images[w] = images[w].add(delta)
        res = relation_residuals(src, tgt, images, spec)
        new_order = order(res)
        if new_order is not None and prev_order is not None \
                and new_order <= prev_order:
            raise NewtonStall(
                "residual order did not improve; witness data is inconsistent",
                witness=res)
        prev_order = new_order
    raise NewtonStall("iteration budget exhausted", witness=res)


def lift_morphism(phibar_images: dict, A: Presentation, B: Presentation,
                  seeds: dict = None) -> Morphism:
    """Lift a mod-p morphism to full precision by Newton iteration.

    ``phibar_images`` give the mod-p generator images (series over B's mod-p
    carrier).  Seeds, when given, are full-precision starting images and must
    reduce to the mod-p data; by default coefficients lift verbatim.
    """
    spec = B.carrier()
    if seeds is None:
        images = {}
        for name, img in phibar_images.items():
            images[name] = PDSeries(spec, dict(img.terms))
    else:
        images = dict(seeds)
    start = Morphism(A, B, images, level=0, validate=False)
    small_ring = B.ring.with_precision(1)
    small_spec = spec.with_ring(small_ring)
    for name, img in phibar_images.items():
        got = start.images[name].change_ring(small_ring)
        want = PDSeries(small_spec, dict(img.terms), 1)
        if got != want:
            raise NotCongruent(f"seed for {name} does not reduce to the "
                               f"mod-p morphism", witness=name)
    return newton_correct(start).require_units()


class Homotopy(Morphism):
    """A 1-simplex of the mapping space: face 0 is its end at T0 = 0 and
    face 1 its end at T0 = p, the derived last variable of level 1."""

    @property
    def at_zero(self) -> Morphism:
        return self.face(0)

    @property
    def at_pi(self) -> Morphism:
        return self.face(1)


def build_homotopy(phi1: Morphism, phi2: Morphism, D: int) -> Homotopy:
    """An interval morphism restricting to phi1 at T = 0 and phi2 at T = p.

    This is the m = 1 filler of the mapping space with faces (phi1, phi2):
    phi1 + T*(phi2 - phi1)/p, Newton corrected for relation-bearing
    sources, which leaves the endpoints untouched.
    """
    if D < 1:
        raise ValueError("D must be >= 1: the interval variables need degree 1")
    if phi1.source is not phi2.source or phi1.target is not phi2.target:
        if (phi1.source.name, phi1.target.name) != (phi2.source.name,
                                                    phi2.target.name):
            raise ValueError("homotopy endpoints must be parallel morphisms")
    base = phi1.reduction()
    if base != phi2.reduction():
        raise NotCongruent("endpoint morphisms differ mod p",
                           witness=(phi1, phi2))
    h = fill_mapping_boundary(1, [phi1, phi2], base, D)
    return Homotopy(h.source, h.target, h.images, level=1, D=D, prec=h.prec,
                    validate=False)


def fill_mapping_boundary(m: int, faces, base: dict, D: int) -> Morphism:
    """An m-simplex of the mapping space with the given boundary.

    ``faces`` are m+1 compatible (m-1)-simplices, ``base`` the common mod-p
    reduction (a dict of reduction series); ``fill_boundary`` checks both,
    generator by generator.  Generator images are filled additively, the
    last face repaired by division by the variable product of level m-1
    (at m = 1: T0 = p, so a homotopy is the m = 1 filler); relation-bearing
    sources are then Newton corrected through the interval layers, which
    fixes the boundary pointwise.
    """
    if m < 1 or m > 3:
        raise ValueError("mapping fillers are certified for m in 1..3")
    if D < 1:
        raise ValueError("D must be >= 1: the interval variables need degree 1")
    if len(faces) != m + 1:
        raise IncompatibleFaces(f"expected {m+1} faces, got {len(faces)}")
    first = faces[0]
    src, tgt = first.source, first.target
    tower = tgt.mapping_tower(D)
    images = {}
    for name in sorted(first.images):
        face_elts = [fc.images[name] for fc in faces]
        images[name] = fill_boundary(tower, m, face_elts, base[name])
    filler = Morphism(src, tgt, images, level=m, D=D, prec=first.prec,
                      validate=False)
    if src.relations:
        # fill_boundary matched each generator's faces; Newton may move them
        filler = newton_correct(filler)
        for i in range(m + 1):
            if filler.face(i).images != faces[i].images:
                raise PrecisionExhausted(f"face {i} not matched by the filler",
                                         witness=i)
    return filler.require_units()


# -- catalog --------------------------------------------------------------


def catalog(name: str, ring: ZpN, E: int = 6) -> Presentation:
    """Built-in algebras: point, a1, gm, and the sample hypersurface."""
    if name == "point":
        return Presentation("point", ring, (), E=E)
    if name == "a1":
        return Presentation("a1", ring, (GeomVar("x", "poly", 1),), E=E)
    if name == "gm":
        return Presentation("gm", ring, (GeomVar("x", "laurent", 1),), E=E)
    if name == "ell-3-1-2":
        if ring.p != 3:
            raise ValueError("the sample hypersurface is defined over p = 3")
        # y^2 = x^3 + x + 2; the x-partial -(3x^2+1) is a unit everywhere
        rel = {(0, 2): 1, (3, 0): -1, (1, 0): -1, (0, 0): -2}
        pres = Presentation(
            "ell-3-1-2", ring,
            (GeomVar("x", "poly", 1), GeomVar("y", "poly", 1)),
            relations=[rel], witness=("x",), leads=[(0, 2)], E=E)
        pres.check_witness()
        return pres
    raise KeyError(f"unknown catalog algebra {name!r}")


def unit_pair_presentation(ring: ZpN, E: int = 6) -> Presentation:
    """The two-generator torus presentation x*y = 1 (used in tests)."""
    pres = Presentation(
        "gm-pair", ring,
        (GeomVar("x", "poly", 1), GeomVar("y", "poly", -1)),
        relations=[{(1, 1): 1, (0, 0): -1}], witness=("y",),
        leads=[(1, 1)], E=E)
    pres.check_witness()
    return pres
