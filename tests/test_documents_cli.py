import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import bbcenter
from bbcenter import cli, documents, verify
from bbcenter.briot_bouquet import MAX_EXACT_WORK
from bbcenter.errors import ParseError
from bbcenter.series import ExactComplex
from bbcenter.verify import MAX_RK4_STEPS


def mono(coeff, exponents):
    """coeff: (re_num, re_den, im_num, im_den) or int"""
    if isinstance(coeff, int):
        coeff = (coeff, 1, 0, 1)
    rn, rd, im_n, im_d = coeff
    return {"coefficient": [[rn, rd], [im_n, im_d]], "exponents": list(exponents)}


def i_times(k=1):
    return (0, 1, k, 1)


def toggle_doc(b200):
    """x' = ix, y' = 2iy + b*x^2, z' = z"""
    eqs = [
        [mono(i_times(), (1, 0, 0))],
        [mono(i_times(2), (0, 1, 0))],
        [mono(1, (0, 0, 1))],
    ]
    if b200:
        eqs[1].append(mono(b200, (2, 0, 0)))
    return {"variables": ["x", "y", "z"], "equations": eqs}


def test_parse_splits_linear_and_nonlinear():
    h = documents.parse_system(toggle_doc(1))
    assert h.dim == 3
    assert h.linear.entry(0, 0) == ExactComplex(0, 1)
    assert h.linear.entry(1, 1) == ExactComplex(0, 2)
    assert h.linear.entry(2, 2) == ExactComplex(1)
    assert h.nonlinear[1].coeff((2, 0, 0)) == ExactComplex(1)


def test_parse_1d_rejected_for_systems():
    doc = {"variables": ["x"], "equations": [[mono(i_times(), (1,))]]}
    with pytest.raises(ParseError):
        documents.parse_system(doc)


def test_parse_1d_accepted_for_bb():
    doc = {"variables": ["x", "u"],
           "equations": [[mono(1, (1, 0)), mono(2, (0, 1))]]}
    bb = documents.parse_bb_document(doc)
    assert bb.n == 1
    assert bb.px == (ExactComplex(1),)
    assert bb.A.entry(0, 0) == ExactComplex(2)


def test_parse_rejects_constant_term():
    doc = toggle_doc(0)
    doc["equations"][0].append(mono(1, (0, 0, 0)))
    with pytest.raises(ParseError) as err:
        documents.parse_system(doc)
    assert "equations[0]" in err.value.location


def test_parse_rejects_zero_denominator():
    doc = toggle_doc(0)
    doc["equations"][0][0]["coefficient"] = [[1, 0], [0, 1]]
    with pytest.raises(ParseError):
        documents.parse_system(doc)


def test_system_roundtrip_exact():
    doc = toggle_doc(1)
    h = documents.parse_system(doc)
    emitted = documents.emit_system_document(h, doc["variables"])
    h2 = documents.parse_system(emitted)
    assert h2.linear == h.linear
    assert h2.nonlinear == h.nonlinear
    assert documents.emit_system_document(h2, doc["variables"]) == emitted


def test_period_strings():
    assert documents.period_string(Fraction(1)) == "2π"
    assert documents.period_string(Fraction(1, 3)) == "2π/3"
    assert documents.period_string(Fraction(3)) == "3·2π"
    assert documents.period_string(Fraction(2, 3)) == "2·2π/3"


def test_report_document_deterministic(tmp_path):
    from bbcenter.centers import enumerate_centers
    h = documents.parse_system(toggle_doc(1))
    reports = enumerate_centers(h)
    doc1 = documents.report_document(h, reports, ["x", "y", "z"], True)
    doc2 = documents.report_document(h, reports, ["x", "y", "z"], True)
    assert documents.emit_report(doc1) == documents.emit_report(doc2)
    # the text rendering is a pure function of the json document
    assert documents.emit_report(doc1, "text") == documents.emit_report(doc2, "text")


def test_empty_report_document():
    from bbcenter.centers import enumerate_centers
    doc = {"variables": ["x", "y"], "equations": [
        [mono(1, (1, 0))], [mono(2, (0, 1))]]}
    h = documents.parse_system(doc)
    out = documents.report_document(h, enumerate_centers(h), ["x", "y"])
    assert out["manifolds"] == []
    assert "no purely imaginary eigenvalue" in out["note"]


# ---------------------------------------------------------------------------
# CLI

def write_doc(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_classify_exit_zero(tmp_path, capsys):
    path = write_doc(tmp_path, toggle_doc(1))
    code = cli.main(["classify", path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] is True
    mults = {m["chart"]: m["multiplicity"] for m in out["manifolds"]}
    assert mults == {"x": "none", "y": "unique"}


def test_cli_series_includes_coefficients(tmp_path, capsys):
    path = write_doc(tmp_path, toggle_doc(0))
    code = cli.main(["series", path, "--order", "8"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    for m in out["manifolds"]:
        if m["multiplicity"] != "none":
            assert "series" in m
            for coeffs in m["series"].values():
                assert len(coeffs) == 8


def test_cli_parse_error_exit_two(tmp_path, capsys):
    doc = toggle_doc(0)
    doc["equations"][0].append(mono(1, (0, 0, 0)))
    path = write_doc(tmp_path, doc)
    code = cli.main(["classify", path])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_uncertifiable_exit_three(tmp_path, capsys):
    # eigenvalues +- sqrt(2): exact certification impossible
    doc = {"variables": ["x", "y"], "equations": [
        [mono(1, (0, 1))],
        [mono(2, (1, 0))],
    ]}
    path = write_doc(tmp_path, doc)
    code = cli.main(["classify", path])
    assert code == 3
    assert f"error: {path}:" in capsys.readouterr().err
    # two such files: each error line names its own file
    other = write_doc(tmp_path, doc, name="other.json")
    assert cli.main(["classify", path, other]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"error: {path}:")
    assert lines[1].startswith(f"error: {other}:")


def test_cli_numeric_fallback(tmp_path, capsys):
    doc = {"variables": ["x", "y"], "equations": [
        [mono(1, (0, 1))],
        [mono(2, (1, 0))],
    ]}
    path = write_doc(tmp_path, doc)
    code = cli.main(["classify", path, "--numeric-fallback"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] is False
    assert out["spectrum"]["certified"] is False


def test_cli_verify_passes(tmp_path, capsys):
    path = write_doc(tmp_path, toggle_doc(0))
    code = cli.main(["verify", path, "--order", "8", "--starts", "6"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    blocks = [m.get("verification") for m in out["manifolds"]
              if m["multiplicity"] != "none"]
    assert blocks and all(b["pass"] for b in blocks)


def test_cli_verify_failure_exit_four(tmp_path, capsys):
    # an unreachable tolerance turns a healthy system into a failing check
    path = write_doc(tmp_path, toggle_doc(0))
    code = cli.main(["verify", path, "--order", "8", "--starts", "4",
                     "--tol", "1e-30"])
    assert code == 4
    out = json.loads(capsys.readouterr().out)
    failed = [m["verification"]["pass"] for m in out["manifolds"]
              if m.get("verification")]
    assert failed and not all(failed)


def test_cli_bb_subcommand(tmp_path, capsys):
    # x u' = x + 2u: family with c2 free
    doc = {"variables": ["x", "u"],
           "equations": [[mono(1, (1, 0)), mono(2, (0, 1))]]}
    path = write_doc(tmp_path, doc)
    code = cli.main(["bb", path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "family"
    assert out["obstructions"]["pbar"] == "0"
    assert out["coefficients"][0] == ["-1"]
    assert out["free_parameters"] == [{"order": 2, "variable": 0, "id": "c2[0]"}]


def test_cli_bb_three_dependents(tmp_path, capsys):
    # x y1' = y1 + x y2, x y2' = 2 y2 + x y1, x y3' = y3/2 + y1 y2
    doc = {"variables": ["x", "y1", "y2", "y3"], "equations": [
        [mono(1, (0, 1, 0, 0)), mono(1, (1, 0, 1, 0))],
        [mono(2, (0, 0, 1, 0)), mono(1, (1, 1, 0, 0))],
        [mono((1, 2, 0, 1), (0, 0, 0, 1)), mono(1, (0, 1, 1, 0))],
    ]}
    path = write_doc(tmp_path, doc)
    code = cli.main(["bb", path, "--order", "6"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "family"
    assert [(p["order"], p["variable"]) for p in out["free_parameters"]] == [(1, 0), (2, 1)]
    assert sorted(out["obstructions"]) == ["pbar", "phat", "r1[2]", "r2[2]", "rbar", "rhat"]


def test_cli_order_too_small_names_user_order(tmp_path, capsys):
    # x' = ix, y' = 5iy + x z^2, z' = -z + x^2: the x chart resonates at order 5
    doc = {"variables": ["x", "y", "z"], "equations": [
        [mono(i_times(), (1, 0, 0))],
        [mono(i_times(5), (0, 1, 0)), mono(1, (1, 0, 2))],
        [mono(-1, (0, 0, 1)), mono(1, (2, 0, 0))],
    ]}
    path = write_doc(tmp_path, doc)
    assert cli.main(["classify", path, "--order", "5"]) == 3
    assert "need --order 7" in capsys.readouterr().err
    assert cli.main(["classify", path, "--order", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    x = next(m for m in out["manifolds"] if m["chart"] == "x")
    assert x["multiplicity"] == "none"
    assert x["obstructions"]["pbar"] == "-4/25+3/25i"
    # the same error from bb: exit 3 with the file name, as for classify
    bb_path = write_doc(tmp_path, {"variables": ["x", "u"], "equations": [
        [mono(1, (1, 0)), mono(2, (0, 1))]]}, name="bb.json")
    assert cli.main(["bb", bb_path, "--order", "1"]) == 3
    err = capsys.readouterr().err
    assert f"error: {bb_path}:" in err and "need --order 4" in err


def _with_true(doc, where):
    """The toggle document with one integer replaced by JSON true."""
    doc = json.loads(json.dumps(doc))
    if where == "coefficient":
        doc["equations"][0][0]["coefficient"][1][0] = True
    elif where == "exponent":
        doc["equations"][1][0]["exponents"][1] = True
    else:
        doc["time_scale"] = [True, 1]
    return doc


@pytest.mark.parametrize("case", [
    "coefficient", "exponent", "time_scale", "order 0", "order 65"])
def test_cli_rejects_bool_integers_and_uncapped_order(tmp_path, capsys, case):
    if case.startswith("order"):
        path = write_doc(tmp_path, toggle_doc(0))
        with pytest.raises(SystemExit) as exit_:
            cli.main(["classify", path, "--order", case.split()[1]])
        assert exit_.value.code == 2
        assert "an integer from 1 to 64" in capsys.readouterr().err
        return
    path = write_doc(tmp_path, _with_true(toggle_doc(0), case))
    assert cli.main(["classify", path]) == 2
    assert f"error: {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [
    ("--starts", "0"), ("--starts", "-2"), ("--starts", "1001"),
    ("--radius", "0"), ("--radius", "-1"),
    ("--radius", "inf"), ("--radius", "nan"), ("--tol", "nan"), ("--tol", "inf"),
    ("--tol", "0"), ("--tol", "-1"),
])
def test_cli_verify_rejects_out_of_range_options(tmp_path, capsys, option, value):
    path = write_doc(tmp_path, toggle_doc(0))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", path, "--order", "8", option, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and option in err


@pytest.mark.parametrize("command", ["classify", "bb"])
@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "a document must be a JSON object (at document)"),
    ("null", "a document must be a JSON object (at document)"),
    ("3", "a document must be a JSON object (at document)"),
    ('{"variables": ["x", "y"], "equations": 5}', "need one equation per"),
])
def test_cli_malformed_document_exit_two(tmp_path, capsys, command, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


def test_cli_undecodable_file_exit_two(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: cannot read: ") and err.count("\n") == 1


def test_cli_verify_help_states_radius_and_tol(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "positive and finite (default 1e-2)" in text
    assert "positive and finite (default 1e-6)" in text
    assert f"min(period/{verify.STEPS_PER_PERIOD}, 2/|A|)" in text


def test_cli_verify_unreachable_tol_stops_halving_at_rounding(tmp_path, capsys,
                                                              monkeypatch):
    # both manifolds are exact rotations, so the first pair's Richardson
    # estimate is already at the rounding level of the starts, where halving
    # further only stirs rounding; halving until E stops falling would take
    # many more steps
    steps = []
    rk4 = verify._rk4_batch

    def counted(field, rotation, states, t_final, step):
        steps.append(max(1, round(t_final / step)))
        return rk4(field, rotation, states, t_final, step)

    monkeypatch.setattr(verify, "_rk4_batch", counted)
    path = write_doc(tmp_path, toggle_doc(0))
    assert cli.main(["verify", path, "--order", "8", "--starts", "4",
                     "--tol", "1e-30"]) == 4
    blocks = [m["verification"] for m in json.loads(capsys.readouterr().out)
              ["manifolds"] if "verification" in m]
    assert len(blocks) == 2 and not any(b["pass"] for b in blocks)
    assert not any("message" in b for b in blocks)
    assert sum(steps) <= 50_000


def test_cli_verify_refuses_period_beyond_rk4_cap(tmp_path, capsys):
    # x' = (i/1000) x, y' = -50 y + x^2: period 2000 pi at the stability
    # bound 2/50, 157080 + 314160 = 471240 steps for the first two runs
    doc = {"variables": ["x", "y"], "equations": [
        [mono((0, 1, 1, 1000), (1, 0))],
        [mono(-50, (0, 1)), mono(1, (2, 0))],
    ]}
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    assert cli.main(["verify", path]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"error: {path}:" in err and "471240 RK4 steps" in err
    assert str(MAX_RK4_STEPS) in err


def stiff_doc(lam):
    """x' = ix + y^2, y' = lam y + x^2"""
    return {"variables": ["x", "y"], "equations": [
        [mono(i_times(), (1, 0)), mono(1, (0, 2))],
        [mono(lam, (0, 1)), mono(1, (2, 0))],
    ]}


def test_cli_verify_halving_cap_is_a_failure_not_a_refusal(tmp_path, capsys,
                                                           monkeypatch):
    # lam = -1 at radius 0.3: the estimate still falls 16x per halving at
    # 256 steps (E ~ 4e-11), and the next halving passes a cap of 500
    monkeypatch.setattr(verify, "MAX_RK4_STEPS", 500)
    path = write_doc(tmp_path, stiff_doc(-1))
    assert cli.main(["verify", path, "--order", "8", "--radius", "0.3",
                     "--tol", "1e-30"]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    (block,) = [m["verification"] for m in json.loads(captured.out)["manifolds"]
                if "verification" in m]
    assert block["pass"] is False
    assert "cap of 500 steps" in block["message"]
    assert "the error estimate there is " in block["message"]


def test_cli_verify_rounding_level_estimate_does_not_blame_the_cap(
        tmp_path, capsys, monkeypatch):
    # lam = -5000: the start step is 2/5000, whose first two runs take 47124
    # steps and leave E at the rounding level of the starts; an unreachable
    # tolerance fails there, and the cap (a third run would pass it) is not
    # the cause
    results = []
    check = cli.check_isochronous

    def recorded(*args, **kwargs):
        results.append(check(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "check_isochronous", recorded)
    path = write_doc(tmp_path, stiff_doc(-5000))
    assert cli.main(["verify", path, "--order", "8", "--tol", "1e-30"]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    (block,) = [m["verification"] for m in json.loads(captured.out)["manifolds"]
                if "verification" in m]
    assert block["pass"] is False and "message" not in block
    (result,) = results
    assert result.error_estimate <= 64 * sys.float_info.epsilon * 1e-2


def test_cli_verify_strict_tolerance_on_the_verify_corpus(monkeypatch, capsys):
    # every manifold of the benchmark's seed-1 verify corpus passes at
    # --tol 1e-12, with the integration error counted against the tolerance
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import corpus
    blocks = []
    for doc in corpus.build("verify-rk4", 1):
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc.text))
        assert cli.main(doc.argv + ["--tol", "1e-12"]) == 0
        report = json.loads(capsys.readouterr().out)
        blocks += [m["verification"] for m in report["manifolds"]
                   if "verification" in m]
    assert len(blocks) == 12 and all(b["pass"] for b in blocks)


def huge_coefficient_doc(power):
    """x' = ix + 10^power y^2, y' = -y + x^2: the y graph carries 10^power."""
    return {"variables": ["x", "y"], "equations": [
        [mono(i_times(), (1, 0)), mono(10 ** power, (0, 2))],
        [mono(-1, (0, 1)), mono(1, (2, 0))],
    ]}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("power", [10, 300])
def test_cli_verify_divergence_prints_strict_json(tmp_path, capsys, power):
    # 10^10 overflows the divergence bound; at 10^300 the graph stays outside
    # the radius however far the starts move in, so RK4 is not run
    message = {10: "not finite",
               300: "cannot be sampled inside radius 0.01"}[power]
    path = write_doc(tmp_path, huge_coefficient_doc(power))
    assert cli.main(["verify", path, "--order", "6"]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out, parse_constant=_reject_constant)
    (block,) = [m["verification"] for m in out["manifolds"] if "verification" in m]
    assert block["return_error"] is None and block["residual_error"] is None
    assert block["pass"] is False
    assert message in block["message"]
    assert cli.main(["verify", path, "--order", "6", "--format", "text"]) == 4
    assert f"verify: {block['message']}, pass: False" in capsys.readouterr().out


def test_cli_verify_coefficient_beyond_double_range(tmp_path, capsys):
    path = write_doc(tmp_path, huge_coefficient_doc(400))
    assert cli.main(["classify", path]) == 0
    capsys.readouterr()
    assert cli.main(["verify", path, "--order", "6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:")
    assert "beyond double range" in captured.err


def test_cli_text_format(tmp_path, capsys):
    path = write_doc(tmp_path, toggle_doc(1))
    code = cli.main(["classify", path, "--format", "text"])
    assert code == 0
    text = capsys.readouterr().out
    assert "spectrum:" in text
    assert "pbar" in text


def test_cli_multiple_files_worst_exit(tmp_path, capsys):
    good = write_doc(tmp_path, toggle_doc(0), "good.json")
    bad_doc = toggle_doc(0)
    bad_doc["equations"][0].append(mono(1, (0, 0, 0)))
    bad = write_doc(tmp_path, bad_doc, "bad.json")
    code = cli.main(["classify", good, bad])
    assert code == 2


def test_cli_import_does_not_load_numpy():
    # numpy is imported by the verify functions that use it, not at startup
    env = dict(os.environ, PYTHONPATH=str(Path(bbcenter.__file__).parents[1]))
    probe = "import sys, bbcenter.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# caps and limits: a message and an exit code, never a traceback

def test_cli_refuses_exact_work_past_the_cap(tmp_path, capsys):
    # every monomial of degree <= 20 in three variables (5,301 terms, about
    # 300 KiB) at --order 64: three charts of 231 powers and 5,301 terms at
    # order 63 need 3 * 231 * 63^2 + 5301 * 63 = 3752028 units of work
    names = "xyz"
    omegas = (1, Fraction(3, 2), Fraction(-5, 3))
    doc = {"variables": list(names), "equations": [
        [mono((0, 1, w.numerator, w.denominator) if isinstance(w, Fraction)
              else i_times(w), [int(j == i) for j in range(3)])]
        + [mono(1, e) for e in product(range(21), repeat=3) if 2 <= sum(e) <= 20]
        for i, w in enumerate(omegas)]}
    assert sum(map(len, doc["equations"])) == 3 + 5301
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    assert cli.main(["series", "--order", "64", path]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {path}: the exact solve needs 3752028 units of work" in err
    assert f"the cap is {MAX_EXACT_WORK}" in err


def test_cli_help_states_the_exact_work_cap(capsys):
    for command in ("classify", "series", "verify", "bb"):
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"summed over charts) passes {MAX_EXACT_WORK} is refused" in text


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    DIGIT_LIMIT == 0, reason="this interpreter converts integers of any length")


@needs_digit_limit
def test_cli_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    text = json.dumps(toggle_doc(1)).replace(
        "[[1, 1], [0, 1]]", f"[[1{'0' * DIGIT_LIMIT}, 1], [0, 1]]", 1)
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: an integer has more than {DIGIT_LIMIT} digits" in err
    assert "Traceback" not in err


@needs_digit_limit
def test_cli_result_past_the_digit_limit_fails_cleanly(tmp_path, capsys):
    # x' = ix + (10^4000/3) y^2, y' = -y + (10^4000/7) x^2: the order-2
    # coefficient of the graph y(x) has 8,006 characters
    big = 10**4000
    doc = {"variables": ["x", "y"], "equations": [
        [mono(i_times(), (1, 0)), mono((big, 3, 0, 1), (0, 2))],
        [mono(-1, (0, 1)), mono((big, 7, 0, 1), (2, 0))]]}
    path = write_doc(tmp_path, doc)
    assert cli.main(["series", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert (f"error: {path}: a result has an integer of more than {DIGIT_LIMIT} "
            "digits") in err
    assert cli.main(["classify", path]) == 0


def test_cli_closed_stdout_exits_quietly(tmp_path, capsys):
    # like `bbcenter series ... | head -n 1`: the reader leaves after one
    # line, long before the output fits in any pipe, so a later write meets
    # a closed pipe
    path = write_doc(tmp_path, toggle_doc(1))
    argv = ["series", "--order", "64"] + [path] * 400
    assert cli.main(argv[:4]) == 0
    assert len(capsys.readouterr().out) * 400 > 1 << 20
    env = dict(os.environ, PYTHONPATH=str(Path(bbcenter.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "bbcenter.cli"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
