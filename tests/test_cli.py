import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from xml.dom import minidom

import pytest
from hypothesis import given, strategies as st

from echtoric import (Point, ToricDomain, cli, concave_weights,
                      convex_weights, load_domain, render_decomposition,
                      save_domain)
from echtoric.cli import build_parser, main

F = Fraction


def run(capsys, *argv):
    """Exit code, parsed stdout report (if any), raw stdout, stderr."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    report = json.loads(out) if code == 0 and out.startswith("{") else None
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
    monkeypatch.setattr("echtoric.packing.decide_packing", unreached)
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
    monkeypatch.setattr("echtoric.embeddings.reduce_to_packing", unreached)
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


def test_svg_writes_over_devices_and_fifos(data_dir, capsys, tmp_path):
    # a drawing goes to any writable path; only a regular file is cut to
    # the length of the new text
    omega1 = str(data_dir / "omega1.json")
    code, rep, _, _ = run(capsys, "svg", omega1, os.devnull, "--decomposition")
    assert code == 0 and rep["output"] == os.devnull
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    try:
        code, _, _, _ = run(capsys, "svg", omega1, str(fifo), "--decomposition")
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0
    want = render_decomposition(load_domain(omega1),
                                concave_weights(load_domain(omega1))[1])
    assert got == [want.encode()]


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
    # and, as for weights --svg, a failed request writes no drawing
    assert not (tmp_path / "a.svg").exists()
    # so is an area whose numerator outgrows the limit on inputs within it
    big = "1" + "0" * 400
    path.write_text(json.dumps({"type": "concave",
                                "boundary": [["0", big], [big, "0"]]}))
    code, _, out, err = run(capsys, "weights", str(path))
    assert code == 4 and out == ""
    assert err.startswith("echtoric: resource guard: ")


def test_approx_past_the_float_range_is_a_resource_guard(capsys, tmp_path):
    # the exact report of a value past the float range prints; its
    # inexact rendering is a resource guard, and a failed weights or
    # pack request writes no drawing and no certificate
    big = "1" + "0" * 400
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"type": "concave",
                                "boundary": [["0", big], [big, "0"]]}))
    svg = tmp_path / "big.svg"
    cert = tmp_path / "cert.json"
    calls = (["weights", str(path), "--svg", str(svg)],
             ["caps", str(path), "--k", "3"],
             ["pack", "--target", big, "--balls", "1", "--trace", str(cert)])
    for argv in calls:
        code, _, out, err = run(capsys, "--approx", *argv)
        assert code == 4 and out == "", argv
        assert err.startswith("echtoric: resource guard: "), argv
    assert not svg.exists() and not cert.exists()
    for argv in calls:
        code, rep, _, _ = run(capsys, *argv)
        assert code == 0 and big in json.dumps(rep), argv
    assert svg.exists() and cert.exists()


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
    init = Point.__init__

    def counted(self, x, y):
        made.append(self)
        init(self, x, y)
    monkeypatch.setattr(Point, "__init__", counted)
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


# -- the command table -------------------------------------------------------

USAGE_ERRORS = [
    # argv, and the argument stderr must name
    ([], "subcommand"),
    (["frobnicate", "f.json"], "frobnicate"),
    (["--timing", "--", "weights", "f.json"], "'--'"),
    (["caps", "f.json", "--k", "3", "--bogus"], "--bogus"),
    (["--bogus", "caps", "f.json", "--k", "3"], "--bogus"),
    (["pack", "--t", "1", "--balls", "1"], "--t"),
    (["caps", "f.json", "--k"], "--k"),
    (["svg", "f.json", "o.svg", "--approximation", "-1/12"],
     "--approximation"),
    (["caps", "f.json"], "--k"),
    (["pack", "--balls", "1"], "--target"),
    (["pack", "--target", "1"], "--balls"),
    (["svg", "f.json", "o.svg"], "--decomposition"),
    (["svg", "f.json", "o.svg", "--decomposition", "--approximation", "1/12"],
     "--approximation"),
    (["caps", "f.json", "--k", "three"], "three"),
    (["embed", "a.json", "b.json", "--report", "1.5"], "1.5"),
    (["caps", "f.json", "--k", "3", "--oracle=yes"], "--oracle"),
    (["weights", "f.json", "extra.json"], "extra.json"),
    (["embed", "a.json"], "target"),
    (["weights", "f.json", "--timing"], "--timing"),
]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS)
def test_usage_errors_exit_one(capsys, argv, named):
    # refused before any file is read: none of these files exists
    code, _, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: echtoric") and named in err


def test_help_exits_zero_at_both_levels(capsys):
    for argv, usage in ((["-h"], "usage: echtoric [-h] [--timing]"),
                        (["--timing", "--help"], "usage: echtoric [-h]"),
                        (["caps", "-h"], "usage: echtoric caps [-h] --k K"),
                        (["svg", "f.json", "--he", "--bogus"],
                         "usage: echtoric svg [-h] (--decomposition |")):
        code, _, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out.startswith(usage), argv
    # help names every subcommand and every option
    code, _, out, _ = run(capsys, "--help")
    for word in ("weights", "caps", "pack", "embed", "svg", "--approx"):
        assert word in out
    code, _, out, _ = run(capsys, "embed", "--help")
    assert "--report K" in out and "--scale-search PRECISION" in out


def test_cli_imports_no_argparse():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    subprocess.run([sys.executable, "-c",
                    "import sys, echtoric.cli; "
                    "assert 'argparse' not in sys.modules"],
                   env={**os.environ, "PYTHONPATH": src}, check=True,
                   timeout=60)


def test_cli_imports_no_dataclasses():
    # the value classes are written out, so importing the CLI generates
    # no code and loads neither dataclasses nor the inspect it pulls in
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    subprocess.run([sys.executable, "-c",
                    "import sys, echtoric.cli; "
                    "assert not {'dataclasses', 'inspect'} & set(sys.modules)"],
                   env={**os.environ, "PYTHONPATH": src}, check=True,
                   timeout=60)


# the modules a command loads only when its handler runs
HANDLER_MODULES = {f"echtoric.{name}" for name in (
    "blowups", "latticepaths", "svgout", "packing", "embeddings", "classes")}


def _fresh_modules(*argv, flags=()):
    """The modules a fresh interpreter holds after importing echtoric.cli
    and, given argv, running main(argv) to exit code 0."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    run = f"assert echtoric.cli.main({list(argv)!r}) == 0\n" if argv else ""
    code = f"import sys, echtoric.cli\n{run}print(*sys.modules)"
    out = subprocess.run([sys.executable, *flags, "-c", code],
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         timeout=60, capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def test_cli_imports_only_what_every_command_reads():
    loaded = _fresh_modules()
    assert not HANDLER_MODULES & loaded
    # caps reads it, and bench/run.py's traced mode finds it in
    # sys.modules before any request runs
    assert "echtoric.capacities" in loaded


def test_one_shot_commands_load_only_their_handlers_modules(data_dir):
    square, omega1 = (str(data_dir / f"{name}.json")
                      for name in ("square", "omega1"))
    assert not HANDLER_MODULES & _fresh_modules("caps", square, "--k", "5")
    embed = _fresh_modules("embed", omega1, square)
    assert {"echtoric.packing", "echtoric.embeddings"} <= embed
    assert not {"echtoric.blowups", "echtoric.latticepaths",
                "echtoric.svgout"} & embed
    # a positive control: the oracle loads when caps --oracle asks for it
    assert "echtoric.latticepaths" in _fresh_modules(
        "caps", square, "--k", "5", "--oracle")


def test_cli_imports_no_pathlib():
    # without site (which may import pathlib itself) nothing the CLI
    # imports pulls in pathlib
    assert "pathlib" not in _fresh_modules(flags=("-S",))


def reference_parser():
    """The argparse parser the command table replaced, kept as the
    reference for its grammar."""
    parser = argparse.ArgumentParser(prog="echtoric")
    parser.add_argument("--timing", action="store_true")
    parser.add_argument("--approx", action="store_true")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("weights")
    p.add_argument("file")
    p.add_argument("--svg", metavar="PATH")
    p.set_defaults(func=cli.cmd_weights)
    p = sub.add_parser("caps")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True, metavar="K")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cli.cmd_caps)
    p = sub.add_parser("pack")
    p.add_argument("--target", required=True, metavar="B")
    p.add_argument("--balls", required=True, metavar="LIST")
    p.add_argument("--trace", metavar="PATH")
    p.set_defaults(func=cli.cmd_pack)
    p = sub.add_parser("embed")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--report", type=int, metavar="K")
    p.add_argument("--scale-search", metavar="PRECISION")
    p.set_defaults(func=cli.cmd_embed)
    p = sub.add_parser("svg")
    p.add_argument("file")
    p.add_argument("out")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--decomposition", action="store_true")
    mode.add_argument("--approximation", metavar="DELTA")
    p.set_defaults(func=cli.cmd_svg)
    return parser


REFERENCE = reference_parser()


def outcome(parse, argv):
    """("read", fields), ("help", first words of the usage) or
    ("refused",) for one parser and argv."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            fields = vars(parse(list(argv)))
    except SystemExit as exc:  # argparse
        if exc.code:
            return ("refused",)
        return ("help", out.getvalue().split()[:3])
    except cli.HelpRequest as request:
        return ("help", build_parser().help(request.command).split()[:3])
    except cli.ArgvError:
        return ("refused",)
    return ("read", fields)


# every argv shape of the tests, README, CI and the benchmark workloads,
# and the corners of the grammar
CORPUS = [
    ["weights", "omega1.json"],
    ["weights", "omega2.json", "--svg", "decomposition.svg"],
    ["--approx", "weights", "omega1.json"],
    ["--timing", "weights", "omega1.json"],
    ["caps", "square.json", "--k", "10"],
    ["caps", "omega2.json", "--k", "6", "--oracle"],
    ["caps", "square.json", "--oracle", "--k", "20"],
    ["caps", "omega1.json", "--k", "-2"],
    ["--approx", "caps", "delta2.json", "--k", "8", "--oracle"],
    ["pack", "--target", "5", "--balls", "3,2,2,1,2/3,2/3,1/3,1/3",
     "--trace", "cert.json"],
    ["pack", "--target", "1", "--balls", ""],
    ["--approx", "pack", "--target", "1", "--balls", "1,1/2"],
    ["embed", "omega1.json", "omega2.json", "--report", "12",
     "--scale-search", "1/100"],
    ["embed", "d001.json", "d002.json", "--scale-search", "1/1000"],
    ["embed", "omega1.json", "omega2.json", "--report", "8",
     "--scale-search=0"],
    ["embed", "omega1.json", "omega2.json", "--report", "-1",
     "--scale-search", "0.001"],
    ["--approx", "embed", "e1_300.json", "ball3.json"],
    ["svg", "omega1.json", "fig.svg", "--decomposition"],
    ["svg", "omega1.json", "fig.svg", "--approximation", "1/12"],
    ["svg", "long.json", "a.svg", "--approximation=-1/12"],
    ["embed", "a", "b", "--scale", "1/10"],
    ["caps", "f", "--k=3"],
    ["--tim", "weights", "f"],
    ["svg", "f", "o", "--approx", "1/12"],
    ["embed", "a", "b", "--report", "-1"],
    ["svg", "f", "o", "--approximation", "-1/12"],
    ["embed", "a", "--", "b"],
    ["embed", "--", "a", "b"],
    ["weights", "--", "--svg"],
    ["caps", "f", "--k", "3", "--k", "4"],
    ["caps", "--k", "3", "f", "--oracle"],
    ["caps", "f", "--k", " 3"],
    ["weights", "-1"],
    ["weights", "f", "--svg", "-.5"],
    ["weights", "f", "--svg="],
    ["weights", "-"],
    ["weights", ""],
    ["weights", "a b"],
    ["weights", "-x y"],
    [], ["frobnicate"], ["--", "weights", "f"], ["--timing=1", "weights", "f"],
    ["-h"], ["-h", "frobnicate"], ["frobnicate", "-h"], ["caps", "-h"],
    ["caps", "f", "--k", "x", "-h"], ["caps", "-h", "--k", "x"],
    ["pack", "-h", "--t", "1"], ["-h", "weights", "--=x"],
    ["-hx"], ["--help=1"], ["weights", "f", "--s", "o.svg"],
]


@pytest.mark.parametrize("argv", CORPUS)
def test_table_reads_the_corpus_as_argparse_did(argv):
    assert outcome(build_parser().parse_args, argv) == \
        outcome(REFERENCE.parse_args, argv)


VALUES = ["a.json", "b", "3", "0", "-1", "-2.5", "-.5", "1/12", ""]
ODD = ["-h", "--help", "--he", "--timing", "--tim", "--approx", "--bogus",
       "-x", "-1/12", "-", "a b", "-1 2", "--=x"]
OPTIONS = {
    "weights": ["--svg", "--sv", "--svg=o.svg", "--svg=", "--s"],
    "caps": ["--k", "--k=3", "--k=x", "--oracle", "--o", "--oracle=1"],
    "pack": ["--target", "--ta", "--t", "--target=1", "--balls", "--b",
             "--trace", "--tr"],
    "embed": ["--report", "--rep", "--report=-1", "--scale-search",
              "--scale", "--s=1/8"],
    "svg": ["--decomposition", "--d", "--approximation", "--approx",
            "--a", "--approximation=-1/12", "--decomposition=1"],
}
# well-formed pieces of each subcommand's calls
CHUNKS = {
    "weights": [["--svg", "o.svg"], ["--svg=-1/12"], ["--sv", "-1"]],
    "caps": [["--k", "3"], ["--k=-2"], ["--k", " 4"], ["--oracle"], ["--o"]],
    "pack": [["--target", "5"], ["--ta=1"], ["--balls", "1,1/2"],
             ["--b", ""], ["--trace", "c.json"], ["--tr=-1"]],
    "embed": [["--report", "-1"], ["--rep=12"], ["--scale-search", "1/100"],
              ["--scale", "-.5"], ["--s=0"]],
    "svg": [["--decomposition"], ["--d"], ["--approximation", "1/12"],
            ["--approx", "-1"], ["--a=-1/12"]],
}


def _argv(parts):
    """Global flags, a subcommand and its tokens, with one "--" put in
    at index cut, or -cut tokens after the subcommand when cut is
    negative, unless that makes it the last token: how argparse reads a second or a trailing
    "--" depends on the tokens before it, and changed between Python
    versions."""
    head, command, rest, cut = parts
    argv = [*head, command, *rest]
    if cut < 0:
        cut = len(head) + 1 - cut
    if cut < len(argv):
        argv.insert(cut, "--")
    return argv


_FLAGS = ["--timing", "--tim", "--approx", "--app"]
_flags = st.lists(st.sampled_from(_FLAGS + ["--timing=1", "--bogus", "-h"]),
                  max_size=2)
# options and values of a subcommand with odd tokens among them
_mixed = st.sampled_from([*OPTIONS, "frob", "-1", ""]).flatmap(
    lambda command: st.tuples(_flags, st.just(command), st.lists(
        st.sampled_from(2 * (OPTIONS.get(command, []) + VALUES) + ODD),
        max_size=7), st.integers(0, 10))).map(_argv)
# a subcommand's positionals and well-formed options in any order
_calls = st.sampled_from(list(CHUNKS)).flatmap(lambda command: st.tuples(
    st.lists(st.sampled_from(_FLAGS), max_size=2),
    st.just(command),
    st.tuples(st.lists(st.sampled_from(CHUNKS[command]), max_size=3),
              st.lists(st.sampled_from(VALUES[:4]).map(lambda v: [v]),
                       min_size=len(cli.COMMANDS[command].positionals),
                       max_size=len(cli.COMMANDS[command].positionals)))
    .flatmap(lambda parts: st.permutations(parts[0] + parts[1]))
    .map(lambda chunks: [t for chunk in chunks for t in chunk]),
    st.integers(-10, -1))).map(_argv)


@given(_mixed | _calls)
def test_table_reads_token_sequences_as_argparse_did(argv):
    assert outcome(build_parser().parse_args, argv) == \
        outcome(REFERENCE.parse_args, argv), argv
