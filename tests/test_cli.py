import hashlib
import json
import os
import sys
from fractions import Fraction
from xml.dom import minidom

import pytest

from echtoric import (Point, ToricDomain, concave_weights, convex_weights,
                      load_domain, save_domain)
from echtoric.cli import build_parser, main

F = Fraction


def run(capsys, *argv):
    """Exit code, parsed stdout report (if any), raw stdout, stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    out, err = capsys.readouterr()
    report = json.loads(out) if code == 0 and out else None
    return code, report, out, err


def test_weights_concave(data_dir, capsys):
    code, rep, out, _ = run(capsys, "weights", str(data_dir / "omega1.json"))
    assert code == 0
    assert rep["domain_type"] == "concave" and rep["head"] is None
    assert rep["weights"] == ["2", "2/3", "2/3", "1/3", "1/3"]
    assert rep["weight_count"] == 5 and rep["area"] == "23/9"
    assert rep["input"]["sha256"] == rep["input"]["sha256"].lower()
    # reports are canonical JSON, byte for byte
    assert out == json.dumps(rep, sort_keys=True, indent=2) + "\n"


def test_weights_convex_with_svg(data_dir, capsys, tmp_path):
    svg = tmp_path / "dec.svg"
    code, rep, _, _ = run(capsys, "weights", str(data_dir / "omega2.json"),
                          "--svg", str(svg))
    assert code == 0
    assert rep["head"] == "5" and rep["weights"] == ["3", "2", "1"]
    assert rep["svg"]["polygons"] == 4
    doc = minidom.parseString(svg.read_text())
    assert len(doc.getElementsByTagName("polygon")) == 4


def test_weights_approx_block(data_dir, capsys):
    code, rep, _, _ = run(capsys, "--approx", "weights",
                          str(data_dir / "omega1.json"))
    assert code == 0
    assert rep["approx"]["inexact"] is True
    assert rep["approx"]["weights"][0] == 2.0
    assert abs(rep["approx"]["weights"][1] - 2 / 3) < 1e-12


def test_caps_square(data_dir, capsys):
    code, rep, _, _ = run(capsys, "caps", str(data_dir / "square.json"),
                          "--k", "3")
    assert code == 0
    assert rep["values"] == ["0", "1", "2", "2"]
    assert rep["certified"] is True


def test_caps_oracle(data_dir, capsys):
    code, rep, _, _ = run(capsys, "caps", str(data_dir / "delta2.json"),
                          "--k", "6", "--oracle")
    assert code == 0
    assert rep["values"] == ["0", "2", "2", "4", "4", "4", "6"]
    oracle = rep["oracle"]
    assert oracle["k_max"] == 6 and oracle["agrees"] is True
    assert oracle["values"] == rep["values"]
    assert oracle["witnesses"][3] == [[0, 0], [1, 1], [2, 0]]


def test_caps_oracle_caps_k_at_20(data_dir, capsys):
    code, rep, _, _ = run(capsys, "caps", str(data_dir / "delta2.json"),
                          "--k", "25", "--oracle")
    assert code == 0
    oracle = rep["oracle"]
    assert oracle["k_max"] == 20 and oracle["agrees"] is True
    assert oracle["values"] == rep["values"][:21]


def test_caps_usage_errors(data_dir, capsys):
    code, _, _, err = run(capsys, "caps", str(data_dir / "omega1.json"),
                          "--k", "3", "--oracle")
    assert code == 1 and "convex domains only" in err
    code, _, _, _ = run(capsys, "caps", str(data_dir / "omega1.json"),
                        "--k", "-2")
    assert code == 1


def test_pack_feasible(capsys):
    code, rep, _, _ = run(capsys, "pack", "--target", "2",
                          "--balls", "1,1,1,1")
    assert code == 0
    assert rep["feasible"] is True
    assert rep["trace"] == [["2", "1", "1", "1", "1"],
                            ["1", "1", "0", "0", "0"]]


def test_pack_infeasible_is_still_exit_zero(capsys):
    code, rep, _, _ = run(capsys, "pack", "--target", "1",
                          "--balls", "1,1/2")
    assert code == 0
    assert rep["feasible"] is False
    assert rep["failures"] == ["negative-entry", "volume"]
    assert rep["volume_slack"] == "-1/4"
    assert rep["terminal"] == ["1/2", "1/2", "0", "-1/2"]


def test_pack_trace_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, rep, _, _ = run(capsys, "pack", "--target", "5",
                          "--balls", "3,2,2,1,2/3,2/3,1/3,1/3",
                          "--trace", str(cert_path))
    assert code == 0 and rep["trace_file"] == str(cert_path)
    cert = json.loads(cert_path.read_text())
    assert cert["feasible"] is True
    assert cert["trace"] == rep["trace"]
    assert cert_path.read_text() == json.dumps(cert, sort_keys=True,
                                               indent=2) + "\n"


def test_pack_bad_input(capsys):
    code, _, _, err = run(capsys, "pack", "--target", "0", "--balls", "1")
    assert code == 3 and "invalid input" in err
    code, _, _, _ = run(capsys, "pack", "--target", "1", "--balls", "1,zork")
    assert code == 3
    code, _, _, _ = run(capsys, "pack", "--target", "1", "--balls", "")
    assert code == 3


def test_embed_full_report(data_dir, capsys):
    args = ("embed", str(data_dir / "omega1.json"),
            str(data_dir / "omega2.json"), "--report", "12",
            "--scale-search", "1/100")
    code, rep, out1, _ = run(capsys, *args)
    assert code == 0
    assert rep["feasible"] is True
    assert rep["instance"]["target"] == "5"
    assert rep["instance"]["balls"] == ["3", "2", "2", "1", "2/3", "2/3",
                                        "1/3", "1/3"]
    caps = rep["capacities"]
    assert caps["all_ok"] is True and caps["first_violation"] is None
    assert caps["rows"][5] == [5, "16/3", "7", True, True]
    assert rep["scale"] == {"precision": "1/100", "feasible_at": "1",
                            "infeasible_at": "129/128"}
    # byte determinism across runs
    code, _, out2, _ = run(capsys, *args)
    assert code == 0 and out2 == out1


def test_embed_checks_options_before_the_work(data_dir, capsys,
                                              monkeypatch):
    # a bad --report or --scale-search fails before the expansions and
    # the packing decision run, --report first
    def unreached(*args):
        raise AssertionError("decide_packing ran before the options")
    monkeypatch.setattr("echtoric.cli.decide_packing", unreached)
    embed = ("embed", str(data_dir / "omega1.json"),
             str(data_dir / "omega2.json"))
    code, _, out, err = run(capsys, *embed, "--scale-search", "0.001")
    assert code == 3 and "invalid input" in err and out == ""
    code, _, _, err = run(capsys, *embed, "--report", "-1")
    assert code == 1 and "--report must be nonnegative" in err
    code, _, _, err = run(capsys, *embed, "--report", "-1",
                          "--scale-search", "0.001")
    assert code == 1 and "--report must be nonnegative" in err


def test_embed_refuses_zero_precision_before_the_work(data_dir, capsys,
                                                     monkeypatch):
    # --scale-search 0 is refused where it is parsed, with the message
    # optimal_scale gives, before the instance is built
    def unreached(*args):
        raise AssertionError("reduce_to_packing ran before the precision")
    monkeypatch.setattr("echtoric.cli.reduce_to_packing", unreached)
    for precision in ("0", "0/3", "-1/8"):
        code, _, out, err = run(capsys, "embed",
                                str(data_dir / "omega1.json"),
                                str(data_dir / "omega2.json"),
                                "--report", "8", f"--scale-search={precision}")
        assert code == 3 and out == ""
        assert "precision must be positive" in err


def test_svg_refuses_a_negative_delta_before_the_expansion(capsys, tmp_path):
    # E(1, 2*10^6) would exceed the node limit in the expansion; the
    # sign of the delta is refused first, with the approximations' message
    path = tmp_path / "long.json"
    save_domain(ToricDomain.ellipsoid(1, 2_000_000), path)
    code, _, out, err = run(capsys, "svg", str(path), str(tmp_path / "a.svg"),
                            "--approximation=-1/12")
    assert code == 3 and out == ""
    assert "perturbations must be nonnegative" in err
    assert not (tmp_path / "a.svg").exists()


@pytest.fixture
def kernel(monkeypatch):
    """Pieces handed to the row kernel of the weight recursion.

    A concave domain's expansion runs the kernel once, a convex domain's
    once per side piece, so the list counts expansions whoever calls
    them.
    """
    import echtoric.weights as w
    calls = []
    rows = w._rows

    def counted(*args):
        calls.append(args[0])
        return rows(*args)
    monkeypatch.setattr(w, "_rows", counted)
    return calls


def test_embed_scale_search_expands_each_domain_once(data_dir, capsys,
                                                    monkeypatch, kernel):
    import echtoric.embeddings as emb
    calls = []
    for name in ("concave_weights", "convex_weights"):
        def counted(*args, _name=name, _fn=getattr(emb, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(emb, name, counted)
    source, target = data_dir / "omega1.json", data_dir / "omega2.json"
    concave_weights(load_domain(source))
    convex_weights(load_domain(target))
    once = len(kernel)
    kernel.clear()
    code, rep, _, _ = run(capsys, "embed", str(source), str(target),
                          "--report", "12", "--scale-search", "1/100")
    assert code == 0 and rep["scale"]["infeasible_at"] == "129/128"
    assert sorted(calls) == ["concave_weights", "convex_weights"]
    assert len(kernel) == once


@pytest.mark.parametrize("name", ["omega1", "omega2"])
def test_svg_output_expands_each_domain_once(data_dir, capsys, tmp_path,
                                             kernel, name):
    path = data_dir / f"{name}.json"
    dom = load_domain(path)
    (concave_weights if dom.kind == "concave" else convex_weights)(dom)
    once = len(kernel)  # a convex domain runs it once per side piece
    assert once >= 1
    for argv in (["weights", str(path)],
                 ["weights", str(path), "--svg", str(tmp_path / "w.svg")],
                 ["caps", str(path), "--k", "5"],
                 ["svg", str(path), str(tmp_path / "d.svg"),
                  "--decomposition"],
                 ["svg", str(path), str(tmp_path / "a.svg"),
                  "--approximation", "1/100"]):
        kernel.clear()
        code, _, _, _ = run(capsys, *argv)
        assert code == 0 and len(kernel) == once, argv


def test_file_commands_open_each_input_once(data_dir, capsys, tmp_path):
    source = str(data_dir / "omega1.json")
    target = str(data_dir / "omega2.json")
    opened = []
    recording = [True]

    def hook(event, args):
        if (recording[0] and event == "open"
                and isinstance(args[0], (str, os.PathLike))):
            opened.append(os.fspath(args[0]))
    # an audit hook sees every open, however the file is read; it cannot
    # be removed, so it goes quiet after this test
    sys.addaudithook(hook)
    try:
        runs = [(["embed", source, target], [source, target]),
                (["caps", target, "--k", "3"], [target]),
                (["weights", source, "--svg", str(tmp_path / "w.svg")],
                 [source]),
                (["svg", source, str(tmp_path / "d.svg"), "--decomposition"],
                 [source])]
        for argv, inputs in runs:
            opened.clear()
            code, _, _, _ = run(capsys, *argv)
            assert code == 0
            assert sorted(p for p in opened if p in inputs) == sorted(inputs)
    finally:
        recording[0] = False


def test_reports_hash_the_bytes_they_parse(capsys, tmp_path):
    # CRLF line ends parse as LF would, and the digest covers the bytes
    # on disk
    text = '{"type": "convex",\r\n "boundary": [["0", "1"], ["1", "0"]]}\r\n'
    path = tmp_path / "crlf.json"
    path.write_bytes(text.encode())
    code, rep, _, _ = run(capsys, "caps", str(path), "--k", "2")
    assert code == 0 and rep["values"] == ["0", "1", "1"]
    assert rep["input"]["sha256"] == hashlib.sha256(text.encode()).hexdigest()
    path.write_bytes(b'\xff{"type": "convex"}')
    code, _, _, err = run(capsys, "caps", str(path), "--k", "2")
    assert code == 3 and "not UTF-8" in err


def test_embed_rejects_wrong_kinds(data_dir, capsys):
    code, _, _, err = run(capsys, "embed", str(data_dir / "omega2.json"),
                          str(data_dir / "omega2.json"))
    assert code == 3 and "concave" in err


def test_svg_decomposition(data_dir, capsys, tmp_path):
    out_path = tmp_path / "fig.svg"
    code, rep, _, _ = run(capsys, "svg", str(data_dir / "omega1.json"),
                          str(out_path), "--decomposition")
    assert code == 0
    assert rep["mode"] == "decomposition" and rep["polygons"] == 5
    doc = minidom.parseString(out_path.read_text())
    assert len(doc.getElementsByTagName("polygon")) == 5


def test_svg_approximation(data_dir, capsys, tmp_path):
    out_path = tmp_path / "fig.svg"
    code, rep, _, _ = run(capsys, "svg", str(data_dir / "omega1.json"),
                          str(out_path), "--approximation", "1/12")
    assert code == 0
    assert rep["mode"] == "approximation" and rep["nesting_ok"] is True
    assert rep["approx_boundary"][0] == ["0", "41/12"]
    assert rep["approx_boundary"][-1] == ["29/12", "0"]
    assert F(rep["approx_area"]) > F(rep["area"]) == F(23, 9)
    # the equal-delta inner approximation of the square has no room
    code, _, _, err = run(capsys, "svg", str(data_dir / "square.json"),
                          str(tmp_path / "x.svg"), "--approximation", "1/12")
    assert code == 3 and "overlap" in err


def test_invalid_files(data_dir, capsys, tmp_path):
    code, _, _, _ = run(capsys, "weights", str(tmp_path / "missing.json"))
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "concave", "boundary": [[0.5, 1], [1, 0]]}')
    code, _, _, err = run(capsys, "weights", str(bad))
    assert code == 3 and "invalid input" in err
    raw = tmp_path / "notutf8.json"
    raw.write_bytes(b'\xff\xfe{"type":"concave"}')
    code, _, _, err = run(capsys, "weights", str(raw))
    assert code == 3 and "not UTF-8" in err


def test_non_ascii_digits_are_invalid_input(capsys, tmp_path):
    # Arabic-Indic and full-width digits are digits to Python's int(),
    # but not to the "n" or "p/q" grammar
    for one in ("\u0661", "\uff11", "\uff11/\uff11"):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"type": "convex",
                                    "boundary": [["0", one], [one, "0"]]}),
                        encoding="utf-8")
        code, _, _, err = run(capsys, "weights", str(path))
        assert code == 3 and "invalid input" in err, one
    code, _, _, err = run(capsys, "pack", "--target", "\u0663",
                          "--balls", "1")
    assert code == 3 and "invalid input" in err


def test_numerals_past_the_digit_limit(capsys, tmp_path, digit_limit):
    # an input numeral that int() refuses is invalid input, whether it
    # reaches the parser as text or as a JSON number
    many = "1" * (digit_limit + 60)
    for boundary in (f'[["0", "{many}"], ["1", "0"]]',
                     f'[[0, {many}], [1, 0]]'):
        path = tmp_path / "long.json"
        path.write_text('{"type": "concave", "boundary": %s}' % boundary)
        code, _, out, err = run(capsys, "weights", str(path))
        assert code == 3 and out == "", boundary
        assert err.startswith("echtoric: invalid input: "), boundary
    # the 1/12 outer approximation of E(1,1500) has numerals of 660
    # digits: a report that cannot print them is a resource guard
    path = tmp_path / "e1500.json"
    save_domain(ToricDomain.ellipsoid(1, 1500), path)
    code, _, out, err = run(capsys, "svg", str(path), str(tmp_path / "a.svg"),
                            "--approximation", "1/12")
    assert code == 4 and out == ""
    assert err.startswith("echtoric: resource guard: ")
    # so is an area whose numerator outgrows the limit on inputs within it
    big = "1" + "0" * 400
    path.write_text(json.dumps({"type": "concave",
                                "boundary": [["0", big], [big, "0"]]}))
    code, _, out, err = run(capsys, "weights", str(path))
    assert code == 4 and out == ""
    assert err.startswith("echtoric: resource guard: ")


def test_approx_past_the_float_range_is_a_resource_guard(capsys, tmp_path):
    # the exact report of a value past the float range prints; its
    # inexact rendering is a resource guard, and a failed weights
    # request writes no drawing
    big = "1" + "0" * 400
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"type": "concave",
                                "boundary": [["0", big], [big, "0"]]}))
    svg = tmp_path / "big.svg"
    calls = (["weights", str(path), "--svg", str(svg)],
             ["caps", str(path), "--k", "3"],
             ["pack", "--target", big, "--balls", "1"])
    for argv in calls:
        code, _, out, err = run(capsys, "--approx", *argv)
        assert code == 4 and out == "", argv
        assert err.startswith("echtoric: resource guard: "), argv
    assert not svg.exists()
    for argv in calls:
        code, rep, _, _ = run(capsys, *argv)
        assert code == 0 and big in json.dumps(rep), argv
    assert svg.exists()


def test_deeply_nested_json_is_invalid_input(data_dir, capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    omega1, omega2 = str(data_dir / "omega1.json"), str(data_dir / "omega2.json")
    for argv in (["weights", str(deep)], ["embed", str(deep), omega2],
                 ["embed", omega1, str(deep)]):
        code, _, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("echtoric: invalid input: "), argv
        assert "recursion depth" in err, argv


def test_cli_texts_build_no_fractions(data_dir, capsys, tmp_path,
                                      monkeypatch):
    # reports and drawings are written from integers over a denominator,
    # the weights report's area too, from twice the area over 2 D^2; an
    # embed report builds one, the volume slack the library returns as
    # a Fraction, and its capacity rows add none
    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps({"type": "convex",
                                "boundary": [["0", "3"], ["3", "0"]]}))
    omega1, omega2 = str(data_dir / "omega1.json"), str(data_dir / "omega2.json")
    svg = str(tmp_path / "out.svg")
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counted)
    for argv, fractions in ((["caps", omega1, "--k", "20"], 0),
                            (["caps", omega2, "--k", "20"], 0),
                            (["caps", str(ball), "--k", "20"], 0),
                            (["svg", omega1, svg, "--decomposition"], 0),
                            (["svg", omega2, svg, "--decomposition"], 0),
                            (["weights", omega1, "--svg", svg], 0),
                            (["weights", omega2, "--svg", svg], 0),
                            (["embed", omega1, omega2, "--report", "20"], 1)):
        made.clear()
        code, _, _, _ = run(capsys, *argv)
        assert code == 0 and len(made) == fractions, (argv, made)


def test_cli_paths_build_no_points(data_dir, capsys, tmp_path, monkeypatch):
    # domains and lattice paths are integers from file to report; a
    # Point is only their view, built when something asks for one
    ellipsoids = {}
    for n in (200, 3000):
        ellipsoids[n] = str(tmp_path / f"e{n}.json")
        save_domain(ToricDomain.ellipsoid(1, n), ellipsoids[n])
    made = []
    init = Point.__post_init__

    def counted(self):
        made.append(self)
        init(self)
    monkeypatch.setattr(Point, "__post_init__", counted)
    out = str(tmp_path / "out.svg")
    for argv in (["svg", ellipsoids[200], out, "--approximation", "1/12"],
                 ["svg", str(data_dir / "omega2.json"), out,
                  "--approximation", "1/12"],
                 ["caps", str(data_dir / "square.json"), "--k", "12",
                  "--oracle"],
                 ["embed", str(data_dir / "omega1.json"),
                  str(data_dir / "omega2.json"), "--scale-search", "1/100"],
                 ["weights", ellipsoids[3000]]):
        code, _, _, _ = run(capsys, *argv)
        assert code == 0 and len(made) == 0, argv
    assert ToricDomain.ball(1).boundary and len(made) == 2


def test_argparse_usage_is_exit_one(capsys):
    code, _, _, _ = run(capsys, "frobnicate")
    assert code == 1
    code, _, _, _ = run(capsys)
    assert code == 1


def test_node_budget_env(data_dir, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("TDE_MAX_NODES", "2")
    omega1 = str(data_dir / "omega1.json")
    omega2 = str(data_dir / "omega2.json")
    for argv in (["weights", omega1],
                 ["caps", omega2, "--k", "5"],
                 ["embed", omega1, omega2, "--report", "3",
                  "--scale-search", "1/100"],
                 ["svg", omega1, str(tmp_path / "d.svg"), "--decomposition"],
                 ["svg", omega1, str(tmp_path / "a.svg"),
                  "--approximation", "1/100"]):
        code, _, _, err = run(capsys, *argv)
        assert code == 4 and "resource guard" in err, argv
    monkeypatch.setenv("TDE_MAX_NODES", "zork")
    code, _, _, _ = run(capsys, "weights", str(data_dir / "omega1.json"))
    assert code == 1
    monkeypatch.setenv("TDE_MAX_NODES", "-3")
    code, _, _, _ = run(capsys, "weights", str(data_dir / "omega1.json"))
    assert code == 1
    monkeypatch.setenv("TDE_MAX_NODES", "100")
    code, _, _, _ = run(capsys, "weights", str(data_dir / "omega1.json"))
    assert code == 0


@pytest.mark.parametrize("command", ["weights", "caps", "embed", "svg"])
def test_node_budget_boundary(data_dir, capsys, monkeypatch, tmp_path,
                              command):
    # E(1,300) has exactly 300 cuts; the thin target has 39 side cuts and
    # its head takes one more slot
    source = tmp_path / "e1300.json"
    source.write_text(json.dumps({"type": "concave",
                                  "boundary": [[0, 300], [1, 0]]}))
    thin = tmp_path / "thin.json"
    thin.write_text(json.dumps({"type": "convex",
                                "boundary": [[0, 1], [1, 1], [40, 0]]}))
    omega1 = str(data_dir / "omega1.json")
    omega2 = str(data_dir / "omega2.json")
    svg = str(tmp_path / "d.svg")
    argvs = {"weights": lambda f: ["weights", f],
             "caps": lambda f: ["caps", f, "--k", "3"],
             "embed": lambda f: (["embed", f, omega2] if f == str(source)
                                 else ["embed", omega1, f]),
             "svg": lambda f: ["svg", f, svg, "--decomposition"]}
    for path, nodes in ((source, 300), (thin, 40)):
        argv = argvs[command](str(path))
        monkeypatch.setenv("TDE_MAX_NODES", str(nodes))
        code, _, _, _ = run(capsys, *argv)
        assert code == 0, argv
        monkeypatch.setenv("TDE_MAX_NODES", str(nodes - 1))
        code, _, _, err = run(capsys, *argv)
        assert code == 4 and "resource guard" in err, argv


def test_capacity_guard(data_dir, capsys, monkeypatch, tmp_path):
    # balls times horizon past MAX_STAIRCASE_CELLS is refused before the
    # staircases are built: a concave source, a convex target with
    # weights and a head ball alone
    omega1 = str(data_dir / "omega1.json")
    omega2 = str(data_dir / "omega2.json")
    for argv in (["caps", omega1, "--k", "10000000"],
                 ["caps", omega2, "--k", "10000000"],
                 ["caps", str(data_dir / "delta1.json"), "--k", "10000000"],
                 ["embed", omega1, omega2, "--report", "10000000"]):
        code, _, _, err = run(capsys, *argv)
        assert code == 4 and "resource guard" in err, argv
    # a thin target grows its complement range over several rounds; the
    # guard also stops a later round
    thin = tmp_path / "thin.json"
    thin.write_text(json.dumps({"type": "convex",
                                "boundary": [[0, 1], [1, 1], [30, 0]]}))
    code, rep, _, _ = run(capsys, "caps", str(thin), "--k", "5")
    assert code == 0 and rep["certified"]
    monkeypatch.setattr("echtoric.capacities.MAX_STAIRCASE_CELLS", 10_000)
    code, _, _, err = run(capsys, "caps", str(thin), "--k", "5")
    assert code == 4 and "resource guard" in err


def test_timing_flag(data_dir, capsys):
    code, rep, _, _ = run(capsys, "--timing", "weights",
                          str(data_dir / "omega1.json"))
    assert code == 0
    assert isinstance(rep["timing_seconds"], float)


def test_parser_is_built_once(data_dir, capsys):
    # every call shares one parser, and no flag carries over to the next
    assert build_parser() is build_parser()
    omega1 = str(data_dir / "omega1.json")
    code, rep, _, _ = run(capsys, "--timing", "weights", omega1)
    assert code == 0 and "timing_seconds" in rep
    code, rep, _, _ = run(capsys, "weights", omega1)
    assert code == 0 and "timing_seconds" not in rep


def test_round_trip_with_library(data_dir, capsys, tmp_path):
    # a report's boundary block reproduces the domain the library loads
    code, rep, _, _ = run(capsys, "svg", str(data_dir / "omega2.json"),
                          str(tmp_path / "y.svg"), "--approximation", "1/12")
    assert code == 0
    dom = load_domain(data_dir / "omega2.json")
    assert rep["area"] == str(dom.area())
    assert rep["approx_boundary"] == [["0", "11/12"], ["1", "23/12"],
                                      ["13/12", "23/12"], ["59/12", "0"]]
