"""Command line front end.

Verbs: verify-simplicial, lift, homotopy, dr, cris, compare, known.
Exit codes: 0 on pass, 1 on a mathematical failure (the report carries a
witness), 2 on usage or configuration errors and on unreadable input files.

Reports and presentation/morphism inputs use a line-based text format with
the versioned header ``schema: crystalcalc/1``; outputs are deterministic
functions of the inputs and the seed.
"""

import argparse
import os
import re
import sys

from .crystal import (  # compare_dr_cris: perfbench checks its rebinding here
    KNOWN_ALGEBRAS,
    DoubleComplex,
    _compare_dr_cris,
    _cris,
    compare_dr_cris,
    cris,
    dr_report,
    known_values_check,
)
from .derham import base_change_check, poincare_check
from .errors import CrystalError, NotACover, PrecisionExhausted
from .localized import cech_descent_check
from .reports import merge_reports
from .ring import ZpN
from .series import PDSeries
from .simplicial import (
    regular_sequence_suite,
    verify_boundary_kernel,
    verify_simplicial_identities,
)
from .smoothlift import (
    Morphism,
    Presentation,
    build_homotopy,
    catalog,
    lift_algebra,
    lift_morphism,
)

SCHEMA = "crystalcalc/1"
DEFAULT_E = 6


# -- input files -------------------------------------------------------------


def _parse_monomial(text, gen_names):
    xe = [0] * len(gen_names)
    text = text.strip()
    if text == "1":
        return tuple(xe)
    for factor in text.split("*"):
        m = re.fullmatch(r"([A-Za-z_]\w*)(?:\^(-?\d+))?", factor.strip())
        if not m:
            raise ValueError(f"bad monomial factor {factor!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if name not in gen_names:
            raise ValueError(f"unknown generator {name!r}")
        xe[gen_names.index(name)] += exp
    return tuple(xe)


def _parse_poly(text, gen_names):
    poly = {}
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        mono, _, coeff = term.rpartition("=")
        if not mono:
            raise ValueError(f"term {term!r} is not monomial=coefficient")
        xe = _parse_monomial(mono, gen_names)
        poly[xe] = poly.get(xe, 0) + int(coeff)
    return poly


def _read_schema_lines(text, kind):
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != f"schema: {SCHEMA}":
        raise ValueError(f"missing 'schema: {SCHEMA}' header")
    if len(lines) < 2 or lines[1] != f"kind: {kind}":
        raise ValueError(f"expected 'kind: {kind}'")
    return lines[2:]


def parse_presentation(text, ring: ZpN, default_E: int) -> Presentation:
    """Presentation files: generators, relations with leads, witness."""
    lines = _read_schema_lines(text, "presentation")
    name = "custom"
    generators = []
    relations = []
    leads = []
    witness = []
    E = default_E
    for ln in lines:
        key, _, rest = ln.partition(":")
        rest = rest.strip()
        if key == "name":
            name = rest
        elif key == "generator":
            parts = rest.split()
            if len(parts) == 2:
                parts.append("1")
            gname, kind, weight = parts
            generators.append((gname, kind, int(weight)))
        elif key == "relation":
            body, _, lead = rest.partition(";")
            lead = lead.strip()
            if not lead.startswith("lead="):
                raise ValueError("relation needs '; lead=<monomial>'")
            gen_names = [g[0] for g in generators]
            relations.append(_parse_poly(body, gen_names))
            leads.append(_parse_monomial(lead[len("lead="):], gen_names))
        elif key == "witness":
            witness = rest.split()
        elif key == "window":
            E = int(rest)
        else:
            raise ValueError(f"unknown presentation field {key!r}")
    pres = Presentation(name, ring, generators, relations, witness, leads, E)
    if relations:
        pres.check_witness()
    return pres


def parse_morphism(text, resolve, ring: ZpN, E: int):
    """Morphism files: source/target algebra plus generator images."""
    lines = _read_schema_lines(text, "morphism")
    source = target = None
    raw_images = {}
    for ln in lines:
        key, _, rest = ln.partition(":")
        rest = rest.strip()
        if key == "source":
            source = resolve(rest)
        elif key == "target":
            target = resolve(rest)
        elif key == "image":
            gen, _, poly = rest.partition("=")
            raw_images[gen.strip()] = poly.strip()
        else:
            raise ValueError(f"unknown morphism field {key!r}")
    if source is None or target is None:
        raise ValueError("morphism needs source and target")
    spec = target.carrier()
    images = {}
    for gen, poly_text in raw_images.items():
        poly = _parse_poly(poly_text, list(target.gen_names))
        images[gen] = PDSeries(spec, {(xe, ()): c for xe, c in poly.items()})
    return Morphism(source, target, images)


def load_algebra(spec_text: str, ring: ZpN, E: int) -> Presentation:
    """Catalog name or presentation file path."""
    if os.path.exists(spec_text):
        with open(spec_text, "r", encoding="utf-8") as fh:
            return parse_presentation(fh.read(), ring, E)
    return catalog(spec_text, ring, E)


def _load_algebra_arg(args, ring: ZpN) -> Presentation:
    """The ``--algebra`` of a verb; the report header then shows its window.

    A presentation file's ``window:`` sets E when ``--E`` is not given; an
    explicit ``--E`` that disagrees with it is a usage error.
    """
    A = load_algebra(args.algebra, ring,
                     DEFAULT_E if args.E is None else args.E)
    _adopt_window(args, A, args.algebra)
    return A


def _adopt_window(args, A: Presentation, label: str):
    """The report header shows A's window; an explicit ``--E`` must agree."""
    if args.E is not None and A.E != args.E:
        raise ValueError(f"--E {args.E} disagrees with the window {A.E} "
                         f"of {label}")
    args.E = A.E


# -- report output ------------------------------------------------------------


def write_report(args, verb, status, body_lines, witness=""):
    lines = [f"schema: {SCHEMA}", "kind: report", f"verb: {verb}",
             f"status: {status}"]
    for key in ("p", "N", "D", "E", "M"):
        val = getattr(args, key, None)
        if val is not None:
            lines.append(f"{key}: {val}")
    lines.append(f"seed: {getattr(args, 'seed', 0)}")
    if witness:
        lines.append(f"witness: {witness}")
    lines.extend(body_lines)
    text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if status in ("pass", "report") else 1


# -- verbs ----------------------------------------------------------------------


def run_verify_simplicial(args):
    ring = ZpN(args.p, args.N)
    reports = []
    for variant in ("free", "interval"):
        reports.append(verify_simplicial_identities(ring, args.D,
                                                    args.m_max, variant))
    for m in range(1, min(args.m_max, 2) + 1):
        reports.append(verify_boundary_kernel(args.p, args.N, args.D, m))
        reports.append(regular_sequence_suite(args.p, args.N,
                                              min(args.D, 5), m))
    merged = merge_reports("verify-simplicial", reports)
    body = []
    for rep in reports:
        body.extend(rep.lines())
    return write_report(args, "verify-simplicial", merged.status(), body,
                        merged.witness)


def run_lift(args):
    ring = ZpN(args.p, args.N)
    A = _load_algebra_arg(args, ring)
    Abar = A.at_precision(1)
    lifted = lift_algebra(Abar, args.N)
    sbar = Abar.carrier()
    phibar = {g.name: PDSeries.geom_var(sbar, g.name) for g in Abar.generators}
    phi = lift_morphism(phibar, lifted, lifted)
    body = [f"algebra: {A.name}",
            f"generators: {len(A.generators)}",
            f"relations: {len(A.relations)}",
            "witness: ok",
            f"identity-lift-precision: {phi.prec}"]
    return write_report(args, "lift", "pass", body)


def demo_morphisms(A: Presentation):
    spec = A.carrier()
    images = {g.name: PDSeries.geom_var(spec, g.name) for g in A.generators}
    phi1 = Morphism(A, A, images)
    p = A.ring.p
    if A.name == "a1":
        shifted = dict(images)
        shifted["x"] = images["x"].add(PDSeries.constant(spec, p))
        phi2 = Morphism(A, A, shifted)
    elif A.name == "gm":
        scaled = dict(images)
        scaled["x"] = images["x"].scale(1 + p)
        phi2 = Morphism(A, A, scaled)
    else:
        phi2 = phi1
    return phi1, phi2


def run_homotopy(args):
    if (args.morphism1 is None) != (args.morphism2 is None):
        raise ValueError("--morphism1 and --morphism2 must be given together")
    ring = ZpN(args.p, args.N)
    if args.morphism1 is None:
        phi1, phi2 = demo_morphisms(_load_algebra_arg(args, ring))
    else:
        # the morphisms' source is the algebra: --algebra is not read
        E = DEFAULT_E if args.E is None else args.E

        def resolve(name):
            return load_algebra(name, ring, E)

        with open(args.morphism1, "r", encoding="utf-8") as fh:
            phi1 = parse_morphism(fh.read(), resolve, ring, E)
        with open(args.morphism2, "r", encoding="utf-8") as fh:
            phi2 = parse_morphism(fh.read(), resolve, ring, E)
        _adopt_window(args, phi1.source, f"the morphisms' source "
                                         f"{phi1.source.name}")
    try:
        h = build_homotopy(phi1, phi2, args.D)
    except PrecisionExhausted as exc:
        # the filler needs interval degree above the cap: nothing was shown
        return write_report(
            args, "homotopy", "inconclusive", [],
            f"no homotopy within the interval degree cap D = {args.D} "
            f"(PrecisionExhausted: {exc})")
    body = [f"algebra: {phi1.source.name}", "endpoints: exact"]
    for n, s in sorted(h.images.items()):
        body.append(f"interval-image {n}: {s}")
    return write_report(args, "homotopy", "pass", body)


def run_dr(args):
    ring = ZpN(args.p, args.N)
    A = _load_algebra_arg(args, ring)
    reports = []
    if args.poincare_m:
        reports.append(poincare_check(A, args.poincare_m, args.D))
    if args.base_change:
        reports.append(base_change_check(A, args.M, args.D))
    if args.cech:
        if len(A.generators) != 1 or A.generators[0].kind != "poly" \
                or A.relations:
            raise ValueError("--cech covers are defined for the affine line "
                             "(one polynomial generator, no relations)")
        cover = [_parse_cover_element(elt) for elt in args.cech.split(",")]
        try:
            reports.append(cech_descent_check(ring, args.E, cover))
        except NotACover as exc:
            # a cover the check does not take: nothing was checked
            raise ValueError(exc) from None
    report = dr_report(A, args.D, seed=args.seed)
    merged = merge_reports("dr", reports)
    body = []
    for rep in reports:
        body.extend(rep.lines())
    body.extend(report.lines())
    return write_report(args, "dr", merged.status(), body, merged.witness)


def _parse_cover_element(text):
    """Linear polynomials in x: '1', 'x', 'x-1', '2x+1', ..."""
    text = text.strip().replace(" ", "")
    m = re.fullmatch(r"(?:(-?\d*)x)?([+-]?\d+)?", text)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError(f"cannot parse cover element {text!r}")
    lead_raw, const_raw = m.group(1), m.group(2)
    poly = {}
    if lead_raw is not None:
        poly[1] = int(lead_raw) if lead_raw not in ("", "-") else \
            (-1 if lead_raw == "-" else 1)
    if const_raw:
        poly[0] = int(const_raw)
    return poly


def run_cris(args):
    ring = ZpN(args.p, args.N)
    A = _load_algebra_arg(args, ring)
    report = cris(A, args.M, args.D, seed=args.seed)
    return write_report(args, "cris", "report", report.lines())


def run_compare(args):
    ring = ZpN(args.p, args.N)
    A = _load_algebra_arg(args, ring)
    # one double complex: the divisor report reuses the compared cells
    dc = DoubleComplex(A, args.M, args.D)
    rep = _compare_dr_cris(dc)
    divisors = _cris(dc, degrees=range(0, max(args.M, 1)), seed=args.seed)
    body = rep.lines() + divisors.lines()
    return write_report(args, "compare", rep.status(), body, rep.witness)


def run_known(args):
    ring = ZpN(args.p, args.N)
    A = _load_algebra_arg(args, ring)
    if A.name not in KNOWN_ALGEBRAS:
        raise ValueError(f"no stored values for algebra {A.name!r} "
                         f"(stored: {', '.join(KNOWN_ALGEBRAS)})")
    rep = known_values_check(A, args.M, args.D)
    return write_report(args, "known", rep.status(), rep.lines(), rep.witness)


# -- argument parsing -------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crystalcalc",
        description="truncated p-adic de Rham and simplicial divided-power "
                    "cohomology over Z/p^N")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, needs_algebra=True, M_default=None):
        sp.add_argument("--p", type=int, required=True, help="prime")
        sp.add_argument("--N", type=int, default=2, help="p-adic precision")
        sp.add_argument("--D", type=int, default=4, help="interval weight cap")
        # with an algebra, a presentation file's window is the default
        sp.add_argument("--E", type=int,
                        default=None if needs_algebra else DEFAULT_E,
                        help=f"geometric window (default: the presentation "
                             f"file's window, else {DEFAULT_E})")
        if M_default is not None:
            sp.add_argument("--M", type=int, default=M_default,
                            help="column truncation")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default=None,
                        help="report file (default stdout)")
        if needs_algebra:
            sp.add_argument("--algebra", type=str, default="gm",
                            help="catalog name or presentation file")

    sp = sub.add_parser("verify-simplicial",
                        help="simplicial identities, boundary kernel, "
                             "regular sequences")
    common(sp, needs_algebra=False)
    sp.add_argument("--m-max", dest="m_max", type=int, default=2)
    sp.set_defaults(func=run_verify_simplicial)

    sp = sub.add_parser("lift", help="lift an algebra and the identity map")
    common(sp)
    sp.set_defaults(func=run_lift)

    sp = sub.add_parser("homotopy", help="interval between two lifts")
    common(sp)
    sp.add_argument("--morphism1", type=str, default=None)
    sp.add_argument("--morphism2", type=str, default=None)
    sp.set_defaults(func=run_homotopy)

    sp = sub.add_parser("dr", help="de Rham complex and optional checks")
    common(sp, M_default=1)
    sp.add_argument("--poincare-m", dest="poincare_m", type=int, default=0)
    sp.add_argument("--base-change", dest="base_change", action="store_true")
    sp.add_argument("--cech", type=str, default=None,
                    help="comma separated linear localizing elements")
    sp.set_defaults(func=run_dr)

    sp = sub.add_parser("cris", help="cohomology of the interval totalization")
    common(sp, M_default=2)
    sp.set_defaults(func=run_cris)

    sp = sub.add_parser("compare", help="direct de Rham vs totalization")
    common(sp, M_default=2)
    sp.set_defaults(func=run_compare)

    sp = sub.add_parser("known", help="compare against stored catalog values")
    common(sp, M_default=2)
    sp.set_defaults(func=run_known)
    return parser


def validate(args):
    if getattr(args, "N", 1) < 1 or getattr(args, "D", 1) < 0 \
            or (args.E is not None and args.E < 0):
        raise ValueError("N must be >= 1 and caps nonnegative")
    if getattr(args, "M", 1) is not None and getattr(args, "M", 1) < 0:
        raise ValueError("M must be >= 0")
    if getattr(args, "seed", 0) < 0:
        raise ValueError("seed must be >= 0")
    ZpN(args.p, getattr(args, "N", 1))  # validates primality


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        validate(args)
    except ValueError as exc:
        parser.exit(2, f"configuration error: {exc}\n")
    try:
        return args.func(args)
    except CrystalError as exc:
        write_report(args, args.verb, "fail", [],
                     witness=f"{type(exc).__name__}: {exc}")
        return 1
    except (ValueError, KeyError, OSError) as exc:
        parser.exit(2, f"usage error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
