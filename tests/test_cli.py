"""CLI surface: exit codes, report files, determinism, input parsing."""

import io
import sys

import pytest

from crystalcalc.cli import (
    _parse_cover_element,
    build_parser,
    load_algebra,
    main,
    parse_morphism,
    parse_presentation,
)
from crystalcalc.derham import DeRhamComplex
from crystalcalc.reports import CheckReport, merge_reports
from crystalcalc.ring import ZpN


def run_cli(argv, tmp_path=None, name="report.txt"):
    out = None
    if tmp_path is not None:
        out = str(tmp_path / name)
        argv = argv + ["--out", out]
    code = main(argv)
    text = None
    if out:
        with open(out, "r", encoding="utf-8") as fh:
            text = fh.read()
    return code, text


def test_missing_p_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["cris"])
    assert exc.value.code == 2


def test_bad_prime_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["cris", "--p", "4"])
    assert exc.value.code == 2


def test_unknown_algebra_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["cris", "--p", "3", "--algebra", "nonexistent"])
    assert exc.value.code == 2


def test_verify_simplicial_small(tmp_path):
    code, text = run_cli(["verify-simplicial", "--p", "2", "--N", "2",
                          "--D", "4", "--m-max", "1"], tmp_path)
    assert code == 0
    assert "status: pass" in text
    assert text.startswith("schema: crystalcalc/1\n")


def test_lift_verb(tmp_path):
    code, text = run_cli(["lift", "--p", "3", "--N", "3",
                          "--algebra", "ell-3-1-2"], tmp_path)
    assert code == 0
    assert "witness: ok" in text


def test_homotopy_verb(tmp_path):
    code, text = run_cli(["homotopy", "--p", "3", "--N", "3", "--D", "4",
                          "--algebra", "gm"], tmp_path)
    assert code == 0
    assert "endpoints: exact" in text


def test_dr_verb_with_cech(tmp_path):
    code, text = run_cli(["dr", "--p", "2", "--N", "2", "--E", "6",
                          "--algebra", "a1", "--cech", "x,x-1"], tmp_path)
    assert code == 0
    assert "check: cech-descent" in text


def test_cris_and_compare(tmp_path):
    code, text = run_cli(["cris", "--p", "3", "--N", "2", "--D", "3",
                          "--E", "4", "--M", "1", "--algebra", "point"],
                         tmp_path)
    assert code == 0
    assert "H^0 g=0: 9" in text
    code, text = run_cli(["compare", "--p", "3", "--N", "2", "--D", "3",
                          "--E", "4", "--M", "2", "--algebra", "gm"],
                         tmp_path)
    assert code == 0
    assert "status: pass" in text


def test_known_verb(tmp_path):
    code, text = run_cli(["known", "--p", "3", "--N", "2", "--D", "3",
                          "--E", "4", "--M", "2", "--algebra", "point"],
                         tmp_path)
    assert code == 0


def test_determinism_byte_identical(tmp_path):
    argv = ["cris", "--p", "3", "--N", "2", "--D", "3", "--E", "4",
            "--M", "1", "--algebra", "gm", "--seed", "7"]
    _, first = run_cli(argv, tmp_path, "one.txt")
    _, second = run_cli(argv, tmp_path, "two.txt")
    assert first == second
    assert "seed: 7" in first


def test_cover_element_parsing():
    assert _parse_cover_element("x") == {1: 1}
    assert _parse_cover_element("x-1") == {1: 1, 0: -1}
    assert _parse_cover_element("2x+3") == {1: 2, 0: 3}
    assert _parse_cover_element("1") == {0: 1}


PRES_TEXT = """\
schema: crystalcalc/1
kind: presentation
name: pairtorus
generator: x poly 1
generator: y poly -1
relation: x^1*y^1=1, 1=-1 ; lead=x^1*y^1
witness: y
window: 5
"""


def test_presentation_file_roundtrip(tmp_path):
    ring = ZpN(3, 2)
    pres = parse_presentation(PRES_TEXT, ring, 6)
    assert pres.name == "pairtorus"
    assert pres.E == 5
    assert pres.relations[0] == {(1, 1): 1, (0, 0): 8}
    path = tmp_path / "pairtorus.pres"
    path.write_text(PRES_TEXT, encoding="utf-8")
    loaded = load_algebra(str(path), ring, 6)
    assert loaded.relations == pres.relations


def _compare_pairtorus(tmp_path, extra):
    path = tmp_path / "pairtorus.pres"
    path.write_text(PRES_TEXT, encoding="utf-8")
    return run_cli(["compare", "--algebra", str(path), "--p", "3", "--N", "2",
                    "--D", "2", "--M", "1"] + extra, tmp_path)


def test_explicit_E_that_disagrees_with_the_window_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _compare_pairtorus(tmp_path, ["--E", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --E 4 disagrees with the window 5 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("extra", [["--E", "5"], []])
def test_header_shows_the_window_that_was_used(tmp_path, extra):
    # an agreeing --E and the file's window alone both compute at E = 5
    code, text = _compare_pairtorus(tmp_path, extra)
    assert code == 0
    lines = text.splitlines()
    assert lines.count("E: 5") == 2  # the header and the cris section
    assert "E: 6" not in lines


def test_header_default_window_without_a_file(tmp_path):
    code, text = run_cli(["cris", "--algebra", "gm", "--p", "3", "--N", "2",
                          "--D", "2", "--M", "1"], tmp_path)
    assert code == 0
    assert text.splitlines()[7] == "E: 6"
    code, text = run_cli(["verify-simplicial", "--p", "2", "--N", "2",
                          "--D", "2", "--m-max", "1"], tmp_path)
    assert text.splitlines()[7] == "E: 6"


MOR_TEXT = """\
schema: crystalcalc/1
kind: morphism
source: gm
target: gm
image: x = x^1=4
"""


def test_morphism_file(tmp_path):
    ring = ZpN(3, 3)
    resolve = lambda nm: load_algebra(nm, ring, 6)
    phi = parse_morphism(MOR_TEXT, resolve, ring, 6)
    assert phi.source.name == "gm"
    assert phi.images["x"].terms == {((1,), ()): 4}


def test_homotopy_with_morphism_files(tmp_path):
    m1 = tmp_path / "m1.mor"
    m2 = tmp_path / "m2.mor"
    m1.write_text(MOR_TEXT.replace("x^1=4", "x^1=1"), encoding="utf-8")
    m2.write_text(MOR_TEXT, encoding="utf-8")
    code, text = run_cli(["homotopy", "--p", "3", "--N", "3", "--D", "4",
                          "--algebra", "gm",
                          "--morphism1", str(m1), "--morphism2", str(m2)],
                         tmp_path)
    assert code == 0


@pytest.mark.parametrize("flag", ["--morphism1", "--morphism2"])
def test_lone_morphism_file_exits_2(tmp_path, capsys, flag):
    # the demo pair must not stand in for a missing second file
    path = tmp_path / "m1.mor"
    path.write_text(MOR_TEXT, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["homotopy", "--p", "3", "--N", "3", "--D", "4",
              flag, str(path)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("usage error: --morphism1 and --morphism2 must be "
                       "given together\n")


def test_homotopy_report_names_the_morphisms_source(tmp_path):
    # with no --algebra the flag's default is gm; the report names a1
    m1 = tmp_path / "m1.mor"
    m2 = tmp_path / "m2.mor"
    a1_text = MOR_TEXT.replace("gm", "a1")
    m1.write_text(a1_text.replace("x^1=4", "x^1=1"), encoding="utf-8")
    m2.write_text(a1_text.replace("x^1=4", "x^1=1, 1=3"), encoding="utf-8")
    code, text = run_cli(["homotopy", "--p", "3", "--N", "3", "--D", "4",
                          "--morphism1", str(m1), "--morphism2", str(m2)],
                         tmp_path)
    assert code == 0
    lines = text.splitlines()
    assert "algebra: a1" in lines and "algebra: gm" not in lines
    assert "interval-image x: 1*T0 + 1*x" in lines


def _pairtorus_morphisms(tmp_path):
    """x -> x, y -> y and the unit pair x -> 4x, y -> 7y (4 * 7 = 1 mod 27)
    on the presentation file of PRES_TEXT, whose window is 5."""
    pres = tmp_path / "pairtorus.pres"
    pres.write_text(PRES_TEXT, encoding="utf-8")
    paths = []
    for name, (a, b) in (("p1.mor", (1, 1)), ("p2.mor", (4, 7))):
        path = tmp_path / name
        path.write_text(f"schema: crystalcalc/1\nkind: morphism\n"
                        f"source: {pres}\ntarget: {pres}\n"
                        f"image: x = x^1={a}\nimage: y = y^1={b}\n",
                        encoding="utf-8")
        paths.append(str(path))
    return ["--morphism1", paths[0], "--morphism2", paths[1]]


@pytest.mark.parametrize("extra", [[], ["--E", "5"]])
def test_homotopy_header_shows_the_morphisms_window(tmp_path, extra):
    # the --algebra default gm has window 6; the morphisms' source has 5
    code, text = run_cli(["homotopy", "--p", "3", "--N", "3", "--D", "2"]
                         + extra + _pairtorus_morphisms(tmp_path), tmp_path)
    assert code == 0
    lines = text.splitlines()
    assert "status: pass" in lines and "algebra: pairtorus" in lines
    assert "E: 5" in lines and "E: 6" not in lines


def test_homotopy_explicit_E_that_disagrees_with_the_window_exits_2(
        tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homotopy", "--p", "3", "--N", "3", "--D", "2", "--E", "4"]
             + _pairtorus_morphisms(tmp_path))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: --E 4 disagrees with the "
                              "window 5 ")
    assert out.err.count("\n") == 1


def test_homotopy_beyond_the_interval_cap_is_inconclusive(tmp_path):
    # the Newton-corrected y needs T0^2: D = 1 cannot hold it, D = 2 can
    code, text = run_cli(["homotopy", "--p", "3", "--N", "3", "--D", "1"]
                         + _pairtorus_morphisms(tmp_path), tmp_path)
    assert code == 1
    lines = text.splitlines()
    assert "status: inconclusive" in lines[:4]
    witness = next(ln for ln in lines if ln.startswith("witness: "))
    assert "interval degree cap D = 1" in witness
    assert "PrecisionExhausted" in witness
    code, text = run_cli(["homotopy", "--p", "3", "--N", "3", "--D", "2"]
                         + _pairtorus_morphisms(tmp_path), tmp_path)
    assert code == 0
    assert "interval-image y: 1*y + 26*y*T0 + 1*y*T0^2" in text.splitlines()


def test_algebra_that_is_a_directory_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lift", "--algebra", str(tmp_path), "--p", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_missing_morphism_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.mor")
    with pytest.raises(SystemExit) as exc:
        main(["homotopy", "--algebra", "gm", "--p", "3", "--N", "3",
              "--morphism1", missing, "--morphism2", missing])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_mathematical_failure_exits_1(tmp_path):
    # homotopy between incongruent morphisms is a mathematical failure
    m1 = tmp_path / "m1.mor"
    m2 = tmp_path / "m2.mor"
    m1.write_text(MOR_TEXT.replace("x^1=4", "x^1=1"), encoding="utf-8")
    m2.write_text(MOR_TEXT.replace("x^1=4", "x^1=2"), encoding="utf-8")
    code, text = run_cli(["homotopy", "--p", "3", "--N", "3", "--D", "4",
                          "--algebra", "gm",
                          "--morphism1", str(m1), "--morphism2", str(m2)],
                         tmp_path)
    assert code == 1
    assert "NotCongruent" in text


def test_dr_verb_poincare_and_base_change(tmp_path):
    code, text = run_cli(["dr", "--p", "3", "--N", "2", "--D", "3",
                          "--E", "4", "--algebra", "gm",
                          "--poincare-m", "1", "--base-change"], tmp_path)
    assert code == 0
    assert "poincare" in text
    assert "check: base-change-gm-m1" in text


@pytest.mark.parametrize("M", ["0", "2", "3"])
def test_dr_base_change_certifies_the_level_M(tmp_path, M):
    # --M is the level of the mod-p identification, as given
    code, text = run_cli(["dr", "--p", "3", "--N", "2", "--D", "3",
                          "--E", "4", "--algebra", "a1", "--M", M,
                          "--base-change"], tmp_path)
    lines = text.splitlines()
    assert code == 0
    assert f"M: {M}" in lines
    assert f"check: base-change-a1-m{M}" in lines


def test_dr_builds_each_level0_differential_once(monkeypatch, tmp_path):
    # the Poincare check and the divisor report share one level-0 complex
    builds = []
    dmat = DeRhamComplex.dmat

    def counted(self, q, g=None):
        if self.level == 0 and (q, g) not in self._dmat_cache:
            builds.append((q, g))
        return dmat(self, q, g)

    monkeypatch.setattr(DeRhamComplex, "dmat", counted)
    code, text = run_cli(["dr", "--algebra", "a1", "--p", "2", "--N", "3",
                          "--D", "7", "--E", "9", "--M", "2",
                          "--poincare-m", "3", "--base-change"], tmp_path)
    assert code == 0
    assert "check: poincare-a1-m3" in text
    assert builds and len(builds) == len(set(builds))


def test_lift_verb_from_presentation_file(tmp_path):
    path = tmp_path / "pair.pres"
    path.write_text(PRES_TEXT, encoding="utf-8")
    code, text = run_cli(["lift", "--p", "3", "--N", "3",
                          "--algebra", str(path)], tmp_path)
    assert code == 0
    assert "algebra: pairtorus" in text
    assert "relations: 1" in text


def test_cech_requires_the_line():
    with pytest.raises(SystemExit) as exc:
        main(["dr", "--p", "2", "--N", "2", "--algebra", "gm",
              "--cech", "x,x-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", [
    "schema: crystalcalc/1\n",
    "schema: crystalcalc/1\nkind: morphism\nsource: gm\n",
])
def test_bad_presentation_header_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.pres"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["dr", "--p", "3", "--N", "2", "--D", "1", "--E", "3",
              "--algebra", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: expected 'kind: presentation'")
    assert err.count("\n") == 1


def test_presentation_format_fuzz(tmp_path, capsys):
    # no window line: a mutated window could ask for an arbitrarily large E
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    base = [ln for ln in PRES_TEXT.splitlines() if not ln.startswith("window")]
    path = tmp_path / "fuzz.pres"
    at = st.integers(0, len(base) - 1)
    edit = st.one_of(
        st.tuples(st.just("head"), at, st.integers(0, len(base)), st.just("")),
        st.tuples(st.just("drop"), at, st.integers(0, 0), st.just("")),
        st.tuples(st.just("cut"), at, st.integers(0, 40), st.just("")),
        st.tuples(st.just("copy"), at, at, st.just("")),
        st.tuples(st.just("insert"), at, st.integers(0, 40),
                  st.text(alphabet="xy1-^*=,;: ", max_size=6)),
    )

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.lists(edit, max_size=3))
    def run(edits):
        lines = list(base)
        for op, i, k, text in edits:
            i %= max(len(lines), 1)
            if not lines:
                break
            if op == "head":
                del lines[k:]
            elif op == "drop":
                del lines[i]
            elif op == "cut":
                lines[i] = lines[i][:k]
            elif op == "copy":
                lines.insert(i, lines[k % len(lines)])
            else:
                lines[i] = lines[i][:k] + text + lines[i][k:]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            code = main(["dr", "--p", "3", "--N", "2", "--D", "1", "--E", "3",
                         "--algebra", str(path)])
        except SystemExit as exc:
            code = exc.code if exc.code == 2 else ("exit", exc.code)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert code != 2 or err.count("\n") == 1

    run()


LOOP_TEXT = """schema: crystalcalc/1
kind: presentation
name: loop
generator: x poly 1
generator: y poly 1
relation: x^1=1, y^1=-2 ; lead=x^1
relation: y^1=1, x^1=-1 ; lead=y^1
witness: x y
window: 3
"""


def test_nonterminating_rewrite_exits_2(tmp_path, capsys):
    # x -> 2y and y -> x each lower their own lead degree, but loop together
    path = tmp_path / "loop.pres"
    path.write_text(LOOP_TEXT, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["lift", "--algebra", str(path), "--p", "3", "--N", "2",
              "--D", "1", "--E", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "usage error: rewrite rules of loop do not terminate\n"


TWO_LAURENT_TEXT = """schema: crystalcalc/1
kind: presentation
name: twolaurent
generator: x laurent 1
generator: y laurent 1
window: 3
"""


@pytest.mark.parametrize("argv", [
    ["compare", "--M", "1"],
    ["dr", "--poincare-m", "1"],
])
def test_zero_certified_cells_is_inconclusive(tmp_path, argv):
    # every graded piece x^a y^(g-a) of the window is clipped: no cell of
    # either check is certified, so neither may report a pass
    path = tmp_path / "twolaurent.pres"
    path.write_text(TWO_LAURENT_TEXT, encoding="utf-8")
    code, text = run_cli(argv + ["--algebra", str(path), "--p", "3",
                                 "--N", "2", "--D", "2", "--E", "3"], tmp_path)
    assert code == 1
    lines = text.splitlines()
    assert "status: inconclusive" in lines[:4]
    assert "witness: no certified graded cells at window E=3" in lines
    assert "status: pass" not in lines


@pytest.mark.parametrize("argv, message", [
    (["dr", "--algebra", "a1", "--poincare-m", "-1"], "m must be >= 0"),
    (["verify-simplicial", "--m-max", "-1"], "m_max must be >= 0"),
    (["verify-simplicial", "--D", "0"], "D must be >= 1"),
    (["dr", "--algebra", "a1", "--D", "3", "--E", "4", "--M", "4",
      "--base-change"], "m above 3 is not certified"),
])
def test_out_of_range_level_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", "3"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"usage error: {message}")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["compare", "--algebra", "gm", "--N", "2", "--E", "4", "--M", "1"],
    ["cris", "--algebra", "gm", "--N", "2", "--E", "4", "--M", "1"],
    ["known", "--algebra", "gm", "--N", "2", "--E", "4", "--M", "1"],
    ["dr", "--algebra", "a1", "--N", "2", "--E", "4", "--poincare-m", "2"],
    ["dr", "--algebra", "gm", "--N", "2", "--E", "4", "--base-change"],
    ["homotopy", "--algebra", "gm", "--N", "3"],
])
def test_interval_levels_at_D_0_exit_2(capsys, argv):
    # at D = 0 the level-m forms carry no T and no dT, so every column is a
    # copy of column 0 and a check would pass (or fail) vacuously
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", "3", "--D", "0"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("usage error: D must be >= 1: the interval variables "
                       "need degree 1\n")


@pytest.mark.parametrize("argv", [
    ["cris", "--algebra", "gm", "--N", "2", "--E", "4", "--M", "0"],
    ["dr", "--algebra", "a1", "--N", "2", "--E", "4"],
    ["dr", "--algebra", "a1", "--N", "2", "--E", "4", "--M", "0",
     "--base-change"],
])
def test_level_0_at_D_0_stays_legal(tmp_path, argv):
    code, text = run_cli(argv + ["--p", "3", "--D", "0"], tmp_path)
    assert code == 0
    assert "D: 0" in text.splitlines()


def test_fail_outranks_inconclusive():
    failed = CheckReport("a", False, witness="a failed")
    unsure = CheckReport("b", True, inconclusive=True, witness="b unsure")
    both = CheckReport("c", False, inconclusive=True, witness="c failed")
    assert both.status() == "fail"
    for parts in ([unsure, failed], [failed, unsure]):
        merged = merge_reports("m", parts)
        assert merged.status() == "fail"
        assert merged.witness == "a failed"
    merged = merge_reports("m", [CheckReport("ok", True), unsure])
    assert merged.status() == "inconclusive"
    assert merged.witness == "b unsure"


def test_known_values_for_an_algebra_outside_the_catalog_exits_2(capsys):
    # nothing can be checked, so this is a usage error and not a failed check
    with pytest.raises(SystemExit) as exc:
        main(["known", "--algebra", "ell-3-1-2", "--p", "3", "--N", "2",
              "--M", "1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("usage error: no stored values for algebra "
                       "'ell-3-1-2' (stored: point, a1, gm)\n")


def test_known_values_rejects_m_below_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["known", "--algebra", "a1", "--p", "3", "--M", "0",
              "--D", "3", "--E", "4"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("usage error: M must be >= 1 for the known-values "
                       "check, got 0\n")


def test_cech_at_empty_pole_window_is_inconclusive(tmp_path):
    # an E = 0 window holds no pole term, so the charts compare constants
    # and polynomials only: nothing about descent is certified
    code, text = run_cli(["dr", "--algebra", "a1", "--p", "2", "--E", "0",
                          "--cech", "x,x-1"], tmp_path)
    assert code == 1
    lines = text.splitlines()
    assert "status: inconclusive" in lines[:4]
    assert "witness: window E=0 holds no pole term of any chart" in lines
    assert "status: pass" not in lines


@pytest.mark.parametrize("cover", ["x,x,x-1,2x-2", "x,x,1,x-1,1,2x-2"])
def test_cech_with_repeated_charts_is_the_cover_without_them(tmp_path, cover):
    # a repeated chart adds nothing: two distinct roots, well under the cap
    # of three, and the same report as the cover x, x-1
    argv = ["dr", "--algebra", "a1", "--p", "5", "--N", "2", "--E", "3"]
    code, text = run_cli(argv + ["--cech", cover], tmp_path, "repeated.txt")
    _, plain = run_cli(argv + ["--cech", "x,x-1"], tmp_path, "plain.txt")
    assert code == 0
    assert "status: pass" in text.splitlines()[:5]
    assert "check: cech-descent" in text
    assert text == plain


@pytest.mark.parametrize("cover, a, b", [("x,x-4,x-1", 0, 4),
                                         ("x,x-2,1", 0, 2)])
def test_cech_with_roots_that_agree_mod_p_is_inconclusive(tmp_path, cover,
                                                          a, b):
    # in Z/8, (x-4)^(-1) = x^(-1) + 4x^(-2): the partial-fraction labels of
    # a chart inverting x and x - 4 are dependent, so its model is not the
    # localization and the comparison certifies nothing
    code, text = run_cli(["dr", "--algebra", "a1", "--p", "2", "--N", "3",
                          "--E", "4", "--cech", cover], tmp_path)
    assert code == 1
    lines = text.splitlines()
    assert "status: inconclusive" in lines[:5]
    assert (f"witness: roots {a} and {b} agree mod 2: the chart model is "
            "not the localization") in lines
    assert "status: pass" not in lines


@pytest.mark.parametrize("cover, p, message", [
    ("x,x-1,x-2,x-3", "5", "covers of size above 3 are not certified"),
    ("3,x", "3", "element vanishes identically mod p"),
    ("3x+1,x", "3", "leading coefficient must be a unit or zero"),
])
def test_cech_cover_the_check_does_not_take_exits_2(capsys, cover, p,
                                                    message):
    # nothing is checked, so there is no verdict to report
    with pytest.raises(SystemExit) as exc:
        main(["dr", "--algebra", "a1", "--p", p, "--N", "2", "--E", "4",
              "--cech", cover])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"usage error: {message}\n"


def test_cech_non_cover_is_a_fail_verdict(tmp_path):
    code, text = run_cli(["dr", "--algebra", "a1", "--p", "3", "--E", "4",
                          "--cech", "x"], tmp_path)
    assert code == 1
    lines = text.splitlines()
    assert "status: fail" in lines[:5]
    assert ("witness: localizing elements share their zero locus mod p "
            "(not a cover)") in lines
