"""Command-line interface tests: exit codes, output format, round trips."""

import json

import pytest

from toposat.cli import main


def run(capsys, monkeypatch, argv, stdin=""):
    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_sat_exit_and_verdict(capsys, monkeypatch, tmp_path):
    path = write(tmp_path, "f.txt", "C(a, b) & a != 0\n")
    code, out, _err = run(capsys, monkeypatch, ["sat", path])
    assert code == 10
    assert out.splitlines()[0].startswith("SAT bound=")
    assert "method=forks" in out.splitlines()[0]
    # the printed certificate is a loadable model
    body = "\n".join(out.splitlines()[1:-1])
    data = json.loads(body)
    assert "frame" in data and "valuation" in data


def test_sat_reads_stdin(capsys, monkeypatch):
    code, out, _err = run(capsys, monkeypatch, ["sat"], stdin="a != 0 & a = 0\n")
    assert code == 20
    assert out.startswith("UNSAT bound=")


def test_sat_bounded_exit(capsys, monkeypatch):
    code, out, _err = run(
        capsys, monkeypatch,
        ["sat", "--frame", "regc", "--bound", "2", "--method", "bounded"],
        stdin="conn_le(1, a) & !conn(a) & a != 0\n")
    assert code == 30
    assert out.startswith("UNSAT_WITHIN_BOUND bound=2 method=bounded")


def test_sat_refutes_through_the_relaxation(capsys, monkeypatch):
    # nothing borders both a region and its complement, connected or not
    text = "EC(a, b) & EC(a, -b) & conn(a)\n"
    code, out, _err = run(capsys, monkeypatch,
                          ["sat", "--frame", "conregc", "--bound", "4"],
                          stdin=text)
    assert code == 20
    assert out.startswith("UNSAT ") and "method=relaxed-forks" in out
    assert out.splitlines()[-1].startswith("completeness=COMPLETE ")
    # the bounded method is the bounded search alone
    code, out, _err = run(capsys, monkeypatch,
                          ["sat", "--frame", "conregc", "--bound", "4",
                           "--method", "bounded"], stdin=text)
    assert code == 30
    assert out.startswith("UNSAT_WITHIN_BOUND bound=4 method=bounded")


def test_sat_reports_fence_saturation(capsys, monkeypatch):
    # three intervals cannot touch pairwise without overlap
    text = "conn(a) & conn(b) & conn(c) & EC(a, b) & EC(b, c) & EC(a, c)\n"
    code, out, _err = run(capsys, monkeypatch,
                          ["sat", "--frame", "fence", "--bound", "20"],
                          stdin=text)
    assert code == 30
    assert out.startswith("UNSAT_WITHIN_BOUND bound=20 method=bounded")
    assert "saturated_at=" in out.splitlines()[-1]
    code, out, _err = run(capsys, monkeypatch,
                          ["sat", "--frame", "fence", "--bound", "3"],
                          stdin=text)
    assert code == 30 and "saturated_at=" not in out


def test_parse_error_exit(capsys, monkeypatch):
    code, _out, err = run(capsys, monkeypatch, ["sat"], stdin="C(a &\n")
    assert code == 2
    assert "parse error" in err


def test_usage_error_exit(capsys, monkeypatch):
    code, _out, err = run(capsys, monkeypatch,
                          ["sat", "--method", "forks"], stdin="conn(a)\n")
    assert code == 1
    assert "error" in err
    code, _out, _err = run(capsys, monkeypatch, ["sat", "/no/such/file"])
    assert code == 1
    code, _out, _err = run(capsys, monkeypatch, ["frobnicate"])
    assert code == 1


def test_contact_on_a_power_set_class_is_an_error(capsys, monkeypatch):
    for frame_class, text in (("all", "C(a, b)"), ("con", "DC(a, b)")):
        code, out, err = run(capsys, monkeypatch,
                             ["sat", "--frame", frame_class], stdin=text + "\n")
        assert code == 1 and out == ""
        assert err.startswith("error:")


def test_valid_dual_verdicts(capsys, monkeypatch):
    code, out, _err = run(capsys, monkeypatch, ["valid"],
                          stdin="C(a, b) -> C(b, a)\n")
    assert code == 20
    assert out.startswith("VALID bound=")
    code, out, _err = run(capsys, monkeypatch, ["valid"], stdin="a = 0\n")
    assert code == 10
    assert out.startswith("NOT_VALID bound=")


def test_valid_prints_stats_unless_deterministic(capsys, monkeypatch):
    for text, code in (("C(a, b) -> C(b, a)\n", 20), ("a = 0\n", 10),
                       ("conn(a) | !conn(a)\n", 30)):
        got, out, _err = run(capsys, monkeypatch,
                             ["valid", "--frame", "regc", "--bound", "2"],
                             stdin=text)
        assert got == code
        stats = out.splitlines()[-1]
        assert stats.startswith("completeness=") and " frames=" in stats
        assert " nodes=" in stats
        if code == 10:      # the certificate sits between the two lines
            json.loads("\n".join(out.splitlines()[1:-1]))
        got, out, _err = run(capsys, monkeypatch,
                             ["valid", "--deterministic", "--frame", "regc",
                              "--bound", "2"], stdin=text)
        assert got == code and "completeness=" not in out


def test_check_exit_codes(capsys, monkeypatch, tmp_path):
    model = {"frame": {"points": [{"id": "a", "depth": 0}], "edges": []},
             "frame_class": "regc", "valuation": {"r": ["a"]}}
    mpath = write(tmp_path, "m.json", json.dumps(model))
    code, out, _err = run(capsys, monkeypatch,
                          ["check", "--model", mpath], stdin="r != 0\n")
    assert code == 0 and out == "TRUE\n"
    code, out, _err = run(capsys, monkeypatch,
                          ["check", "--model", mpath], stdin="r = 0\n")
    assert code == 1 and out == "FALSE\n"


def test_translate_targets(capsys, monkeypatch):
    cases = [
        ("nnf", "!(a = 0 & b != 0)", "a != 0 | b = 0"),
        ("rcc8", "EC(a, b)", "a * b = 0 & C(a, b)"),
        ("fp", "conn(r)", "!F(P((r & F((!r & F(r))))))"),
    ]
    for target, text, expected in cases:
        code, out, _err = run(capsys, monkeypatch,
                              ["translate", "--to", target], stdin=text + "\n")
        assert code == 0
        assert out.strip() == expected
    for target in ("dagger", "no-contact", "no-contact-connected"):
        code, out, _err = run(capsys, monkeypatch,
                              ["translate", "--to", target],
                              stdin="C(a, b)\n")
        assert code == 0 and out.strip()


def test_translate_outside_fragment_is_usage_error(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["translate", "--to", "fp"],
                         stdin="C(a, b)\n")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_deterministic_output_stable(capsys, monkeypatch):
    outs = set()
    for _ in range(3):
        code, out, _err = run(capsys, monkeypatch,
                              ["sat", "--deterministic"],
                              stdin="C(a, b) & a != 0\n")
        assert code == 10
        outs.add(out)
    assert len(outs) == 1
    # without the flag a stats line follows the verdict
    _code, out, _err = run(capsys, monkeypatch, ["sat"],
                           stdin="C(a, b) & a != 0\n")
    assert "completeness=" in out


def test_main_twice_gives_the_same_output(capsys, monkeypatch):
    for argv, text in ((["sat"], "C(a, b) & a != 0\n"),
                       (["translate", "--to", "nnf"], "!(a = 0 & C(a, b))\n"),
                       (["sat", "--bound", "0"], "a = 0\n"),
                       (["check"], "a = 0\n")):
        assert (run(capsys, monkeypatch, argv, stdin=text)
                == run(capsys, monkeypatch, argv, stdin=text))


def test_deterministic_only_where_a_stats_line_is_printed(capsys, monkeypatch,
                                                          tmp_path):
    for command, code in (("sat", 10), ("valid", 10)):
        got, out, _err = run(capsys, monkeypatch, [command, "--deterministic"],
                             stdin="a != 0\n")
        assert got == code and "completeness=" not in out
    model = write(tmp_path, "m.json", json.dumps(
        {"frame": {"points": [{"id": "a", "depth": 0}], "edges": []},
         "frame_class": "regc", "valuation": {"r": ["a"]}}))
    spec = write(tmp_path, "tree.json", json.dumps(
        {"chi": ["var", "p"], "psi": ["var", "p"]}))
    for argv in (["check", "--model", model], ["translate", "--to", "nnf"],
                 ["generate", "tree", "--spec", spec, "--out",
                  str(tmp_path / "t")], ["corpus"]):
        got, out, err = run(capsys, monkeypatch, argv + ["--deterministic"],
                            stdin="r != 0\n")
        assert got == 1 and out == ""
        assert "unrecognized arguments: --deterministic" in err


def test_generate_check_roundtrip(capsys, monkeypatch, tmp_path):
    spec = {
        "states": ["q0", "q1", "q2", "qY", "qH"],
        "initial": "q0", "accepting": "qY", "halting": "qH",
        "alphabet": ["_", "a"], "blank": "_", "space": 2,
        "delta": [["q0", "_", "q1", "_", 1], ["q0", "a", "q1", "_", 1],
                  ["q1", "_", "q2", "_", -1], ["q1", "a", "q2", "_", -1],
                  ["q2", "_", "qY", "_", 0], ["qY", "_", "qH", "_", 0]]}
    spath = write(tmp_path, "tm.json", json.dumps(spec))
    prefix = str(tmp_path / "out")
    code, out, _err = run(capsys, monkeypatch,
                          ["generate", "tm", "--spec", spath,
                           "--witness", "--out", prefix])
    assert code == 0
    assert "wrote" in out
    code, out, _err = run(capsys, monkeypatch,
                          ["check", "--model", prefix + ".model.json",
                           prefix + ".formula"])
    assert code == 0 and out == "TRUE\n"


def test_generate_tree_kind(capsys, monkeypatch, tmp_path):
    spec = {"chi": ["var", "p"],
            "psi": ["box", 1, ["var", "p"]]}
    spath = write(tmp_path, "tree.json", json.dumps(spec))
    prefix = str(tmp_path / "tree")
    code, _out, _err = run(capsys, monkeypatch,
                           ["generate", "tree", "--spec", spath,
                            "--out", prefix])
    assert code == 0
    text = (tmp_path / "tree.formula").read_text(encoding="utf-8")
    assert "conn(" in text


def test_generate_bad_spec(capsys, monkeypatch, tmp_path):
    spath = write(tmp_path, "bad.json", "{not json")
    code, _out, _err = run(capsys, monkeypatch,
                           ["generate", "tm", "--spec", spath, "--out",
                            str(tmp_path / "x")])
    assert code == 2
    spath = write(tmp_path, "empty.json", "{}")
    code, _out, _err = run(capsys, monkeypatch,
                           ["generate", "tm", "--spec", spath, "--out",
                            str(tmp_path / "x")])
    assert code == 1
