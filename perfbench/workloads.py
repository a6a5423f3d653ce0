"""The benchmark's workloads: seeded inputs, the jobs, and their output checks.

A workload is a list of jobs.  A job runs the way a user runs crystalcalc:
either one command line through ``crystalcalc.cli.main`` or one group of
public library calls.  Every job's output is checked against a reference
that does not use the pipeline under test, and rendered to text so that its
hash can be compared between passes.

Seed 0 gives the parameters documented for each workload.  Any other seed
adds ``--seed`` to every command, draws (p, N) for the light commands from
the small sets below (the caps D, E and M stay fixed) and draws the random
library inputs.  The heavy command of each workload keeps its (p, N): its
cost differs by up to a quarter from one (p, N) to another, which would
make the timing depend on which seed ran.
"""

import contextlib
import functools
import hashlib
import io
import random
import re

from crystalcalc import cli, simplicial, smoothlift
from crystalcalc.ring import ZpN
from crystalcalc.series import PDSeries

# Per workload: (command line, (p, N) at seed 0, the (p, N) other seeds draw
# from, or None to keep the seed-0 values).  The first command is the heavy one.
COMMANDS = {
    "torus-compare": [
        ("compare --algebra gm --p {p} --N {N} --D 6 --E 9 --M 2", (3, 3),
         None),
        ("cris --algebra gm --p {p} --N {N} --D 4 --E 6 --M 2", (3, 2),
         [(3, 2), (2, 3), (5, 2), (3, 3), (2, 2)]),
    ],
    "curve-compare": [
        # ell-3-1-2 is only defined over p = 3
        ("compare --algebra ell-3-1-2 --p {p} --N {N} --D 4 --E 4 --M 2",
         (3, 3), None),
    ],
    "line-derham": [
        ("dr --algebra a1 --p {p} --N {N} --D 7 --E 9 --M 2 --poincare-m 3 "
         "--base-change", (2, 3), None),
        ("dr --algebra a1 --p {p} --N {N} --E 6 --cech x,x-1", (2, 2),
         [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]),
    ],
    "interval-fillers": [
        ("verify-simplicial --p {p} --N {N} --D 5 --m-max 2", (2, 2),
         [(2, 2), (3, 2), (2, 3)]),
    ],
}

# Library calls of interval-fillers, in the shapes of acceptance 01-05.
FILLER_RING = (3, 3)
FILLER_D = 7
FILLER_TRIALS = 40
HOMOTOPY_D = 9
HOMOTOPY_PAIRS = 10   # per algebra, gm and a1


class CheckFailed(Exception):
    """An output disagrees with its reference."""


class Job:
    """One unit of work: ``run`` is timed, ``check`` and ``render`` are not.

    ``check(output)`` returns the number of certified cells and round trips
    in the output, or raises ``CheckFailed``.
    """

    def __init__(self, name, run, check, render):
        self.name = name
        self.run = run
        self.check = check
        self.render = render

    def digest(self, output):
        return hashlib.sha256(self.render(output).encode()).hexdigest()


def argv_lists(workload, seed):
    """The command lines of a workload for a seed, as argv lists."""
    rng = random.Random(seed)
    out = []
    for line, (p, N), choices in COMMANDS[workload]:
        if seed and choices:
            p, N = rng.choice(choices)
        argv = line.format(p=p, N=N).split()
        out.append(argv + ["--seed", str(seed)] if seed else argv)
    return out


def build(workload, seed):
    """The jobs of a workload, with all inputs made from the seed."""
    if workload not in COMMANDS:
        raise KeyError(f"unknown workload {workload!r}")
    jobs = [_cli_job(argv) for argv in argv_lists(workload, seed)]
    if workload == "interval-fillers":
        jobs += _library_jobs(random.Random(f"interval-fillers/{seed}"))
    return jobs


def setup_algebras(workload, seed):
    """(algebra, p, N, E) of every algebra the workload loads."""
    out = []
    for argv in argv_lists(workload, seed):
        opts = _options(argv)
        if "algebra" in opts:
            out.append((opts["algebra"], int(opts["p"]), int(opts["N"]),
                        int(opts.get("E", 6))))
    if workload == "interval-fillers":
        out += [("gm",) + FILLER_RING + (6,), ("a1",) + FILLER_RING + (6,)]
    return out


def _options(argv):
    return {argv[k][2:]: argv[k + 1] for k in range(1, len(argv) - 1)
            if argv[k].startswith("--") and not argv[k + 1].startswith("--")}


# -- command line jobs ----------------------------------------------------------


def run_cli(argv):
    """Exit code and report text of one command, as a user would see them."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def parse_report(text):
    """The report's own status and its cohomology cells {(i, g): divisors}."""
    status = None
    cells = {}
    for line in text.splitlines():
        if status is None and line.startswith("status: "):
            status = line[len("status: "):]
        m = re.fullmatch(r"H\^(\d+) g=(-?\d+|all): (.*)", line)
        if m:
            cells[(int(m.group(1)), m.group(2))] = m.group(3)
    return status, cells


def _cli_job(argv):
    verb = argv[0]
    opts = _options(argv)
    algebra = opts.get("algebra")
    p, N = int(opts["p"]), int(opts["N"])
    E = int(opts.get("E", 6))
    want_status = "report" if verb == "cris" else "pass"

    def check(output):
        code, text = output
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        status, cells = parse_report(text)
        if status != want_status:
            raise CheckFailed(f"status {status!r}, expected {want_status!r}")
        if algebra in ("gm", "a1"):
            expected = oracle_cells(algebra, p, N, E)
        elif algebra == "ell-3-1-2":
            expected = dr_reference(argv, E)
            other = dr_reference(argv, E + 1)
            if other != expected:
                raise CheckFailed(f"dr differs between E={E} and E={E + 1}")
        else:
            return 0
        _compare_cells(cells, expected)
        return len(expected)

    return Job(" ".join(argv), lambda: run_cli(argv), check,
               lambda output: f"exit {output[0]}\n{output[1]}")


def _compare_cells(got, expected):
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise CheckFailed(f"cells differ: missing {missing[:3]}, "
                          f"unexpected {extra[:3]}")
    for key in sorted(expected):
        if got[key] != expected[key]:
            raise CheckFailed(f"H^{key[0]} g={key[1]}: {got[key]}, "
                              f"reference {expected[key]}")


# -- references ---------------------------------------------------------------


def kernel_exponent(k, p, N):
    """log_p of |{c in Z/p^N : k c = 0}|, by enumeration."""
    mod = p ** N
    return _log_p(sum(1 for c in range(mod) if (k * c) % mod == 0), p)


def cokernel_exponent(k, p, N):
    """log_p of |Z/p^N / (k)|, by enumerating the image."""
    mod = p ** N
    return _log_p(mod // len({(k * c) % mod for c in range(mod)}), p)


def _log_p(size, p):
    e = 0
    while p ** e < size:
        e += 1
    if p ** e != size:
        raise ValueError(f"{size} is not a power of {p}")
    return e


@functools.lru_cache(maxsize=None)
def oracle_cells(algebra, p, N, E):
    """Cohomology cells of gm or a1 in the window E, by enumeration.

    Graded piece g of the de Rham complex is multiplication by g on Z/p^N
    (x^g -> g x^g dx/x), so H^0 is its kernel and H^1 its cokernel.  At
    g = 0 that gives Z/p^N twice on gm (1 and dx/x) but only once on a1,
    where dx has degree 1 and no 1-form has degree 0.
    """
    def divisor(e):
        return str(p ** e) if e else "0"

    if algebra == "gm":
        degrees = range(-(E - 1), E + 1)
    else:
        degrees = range(0, E + 1)
    cells = {}
    for g in degrees:
        h0 = N if g == 0 else kernel_exponent(g, p, N)
        if g == 0:
            h1 = N if algebra == "gm" else 0
        else:
            h1 = cokernel_exponent(g, p, N)
        cells[(0, str(g))] = divisor(h0)
        cells[(1, str(g))] = divisor(h1)
    return cells


def dr_reference(argv, E):
    """Plain de Rham cells at window E for the algebra and caps of argv.

    This is the direct de Rham pipeline, which does not build the
    simplicial totalization that ``cris`` and ``compare`` report.
    """
    opts = _options(argv)
    return _dr_cells(opts["algebra"], opts["p"], opts["N"], opts["D"], str(E))


@functools.lru_cache(maxsize=None)
def _dr_cells(algebra, p, N, D, E):
    ref = ["dr", "--algebra", algebra, "--p", p, "--N", N, "--D", D, "--E", E]
    code, text = run_cli(ref)
    status, cells = parse_report(text)
    if code != 0 or status != "pass" or not cells:
        raise CheckFailed(f"reference {' '.join(ref)} did not pass")
    return cells


# -- library jobs of interval-fillers -------------------------------------------


def _checks_job(name, calls):
    def run():
        return [call() for call in calls]

    def check(reports):
        for rep in reports:
            if not rep.passed or rep.inconclusive:
                raise CheckFailed(f"{rep.name}: {rep.status()} {rep.witness}")
        return 0

    def render(reports):
        return "\n".join(line for rep in reports for line in rep.lines())

    return Job(name, run, check, render)


def _random_level2_element(tower, rng):
    spec = tower.spec(2)
    terms = {}
    for te in simplicial.t_monomials(2, tower.D):
        if rng.random() < 0.5:
            terms[(spec.zero_x(), te)] = rng.randrange(tower.ring.modulus)
    return PDSeries(spec, terms)


def _random_gm_2simplex(A, D, rng):
    """x times a unit congruent to 1 mod p, on the 2-simplex of gm."""
    ring = A.ring
    spec = A.carrier(D=D, level=2)
    small = PDSeries.zero(spec)
    for te in simplicial.t_monomials(2, D):
        if sum(te) >= 1 and rng.random() < 0.5:
            small = small.add(PDSeries(
                spec, {((rng.randint(-1, 1),), te): rng.randrange(ring.modulus)}))
    small = small.add(PDSeries.constant(
        spec, ring.p * rng.randrange(ring.modulus // ring.p)))
    unit = PDSeries.one(spec).add(small)
    x = PDSeries.geom_var(spec, "x")
    return smoothlift.Morphism(A, A, {"x": x.mul(unit)}, level=2, D=D)


def _random_pair(A, rng):
    """Two lifts of one morphism A -> A that agree mod p."""
    p, mod = A.ring.p, A.ring.modulus
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")

    def series(lo, hi, scale, prob):
        terms = {((k,), ()): scale * rng.randrange(mod // scale)
                 for k in range(lo, hi) if rng.random() < prob}
        return PDSeries(spec, terms)

    if A.name == "gm":
        first = x.mul(PDSeries.one(spec).add(series(-2, 3, p, 0.5)))
        bump = series(-1, 3, p, 0.5)
    else:
        first = x.add(series(0, 4, 1, 0.7))
        bump = series(0, 4, p, 0.7)
    phi1 = smoothlift.Morphism(A, A, {"x": first})
    phi2 = smoothlift.Morphism(A, A, {"x": first.add(bump)})
    return phi1, phi2


def _in_product_ideal(tower, diff):
    """diff is a multiple of the variable product T0*T1*T2 at level 2."""
    if diff.is_zero():
        return True
    q = simplicial.divide_by_variable_product(tower, 2, diff)
    return q is not None and tower.product(2).mul(q) == diff


def _library_jobs(rng):
    ring = ZpN(*FILLER_RING)
    jobs = [
        _checks_job("simplicial identities, m <= 4, D = 7", [
            functools.partial(simplicial.verify_simplicial_identities,
                              ZpN(p, 2), 7, 4, variant)
            for p in (2, 3) for variant in ("free", "interval")]),
        _checks_job("boundary kernel, p = 3, N = 2, D = 10", [
            functools.partial(simplicial.verify_boundary_kernel, 3, 2, 10, m)
            for m in (1, 2)]),
        _checks_job("regular sequences, p = 3, N = 2, D = 7", [
            functools.partial(simplicial.regular_sequence_suite, 3, 2, 7, m)
            for m in (1, 2)]),
    ]

    tower = simplicial.LevelTower(ring, FILLER_D)
    elements = []
    for _ in range(FILLER_TRIALS):
        g = _random_level2_element(tower, rng)
        faces, red = simplicial.boundary_restriction(tower, 2, g)
        elements.append((g, list(faces), red))

    def check_interval(fillers):
        for trial, ((g, faces, _red), f) in enumerate(zip(elements, fillers)):
            for i in range(3):
                if tower.face(2, i, f) != faces[i]:
                    raise CheckFailed(f"trial {trial}: face {i} differs")
            if not _in_product_ideal(tower, g.sub(f)):
                raise CheckFailed(f"trial {trial}: difference not in the ideal")
        return len(fillers)

    jobs.append(Job(
        f"interval-ring fillers x{FILLER_TRIALS}",
        lambda: [simplicial.fill_boundary(tower, 2, faces, red)
                 for _g, faces, red in elements],
        check_interval,
        lambda fillers: "\n".join(str(f) for f in fillers)))

    gm = smoothlift.catalog("gm", ring, E=6)
    mtower = gm.mapping_tower(FILLER_D)
    simplices = []
    for _ in range(FILLER_TRIALS):
        H = _random_gm_2simplex(gm, FILLER_D, rng)
        simplices.append((H, [H.face(i) for i in range(3)], H.reduction()))

    def check_mapping(fillers):
        for trial, ((H, faces, _red), F) in enumerate(zip(simplices, fillers)):
            for i in range(3):
                if F.face(i).images != faces[i].images:
                    raise CheckFailed(f"mapping trial {trial}: face {i} differs")
            if not _in_product_ideal(mtower,
                                     H.images["x"].sub(F.images["x"])):
                raise CheckFailed(f"mapping trial {trial}: difference not "
                                  "in the ideal")
        return len(fillers)

    jobs.append(Job(
        f"mapping-space fillers x{FILLER_TRIALS}",
        lambda: [smoothlift.fill_mapping_boundary(2, faces, red, D=FILLER_D)
                 for _H, faces, red in simplices],
        check_mapping,
        lambda fillers: "\n".join(repr(F) for F in fillers)))

    a1 = smoothlift.catalog("a1", ring, E=6)
    pairs = [_random_pair(A, rng) for A in (gm, a1)
             for _ in range(HOMOTOPY_PAIRS)]

    def check_homotopies(homotopies):
        for trial, ((phi1, phi2), h) in enumerate(zip(pairs, homotopies)):
            if h.at_zero.images != phi1.images:
                raise CheckFailed(f"homotopy {trial}: endpoint at T=0")
            if h.at_pi.images != phi2.images:
                raise CheckFailed(f"homotopy {trial}: endpoint at T=p")
        return len(homotopies)

    jobs.append(Job(
        f"homotopies x{len(pairs)}, D = {HOMOTOPY_D}",
        lambda: [smoothlift.build_homotopy(phi1, phi2, HOMOTOPY_D)
                 for phi1, phi2 in pairs],
        check_homotopies,
        lambda homotopies: "\n".join(repr(h) for h in homotopies)))
    return jobs
