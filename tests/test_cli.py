import json
import os
import typing

import pytest

from tblsim import PhysicalDefaults, cli
from tblsim.cli import main

CIRCUITS = os.path.join(os.path.dirname(__file__), "..", "circuits")


def circuit(name):
    return os.path.join(CIRCUITS, name)


def write(tmp_path, text, name="c.tbl"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_truth_matches_reference(capsys):
    rc = main(
        ["truth", circuit("nand.tbl"), "--inputs", "a,b", "--output", "q",
         "--expect", "!(a&b)"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "matches !(a&b)" in out
    assert out.count("|") >= 4


@pytest.mark.parametrize(
    "inputs, output, what",
    [("a", "zz", "zz"), ("zz", "q", "zz"), ("a,a", "q", "repeat")],
    ids=["unknown-output", "unknown-input", "repeated-input"],
)
def test_truth_bad_node_names_are_usage_errors(inputs, output, what, capsys):
    rc = main(["truth", circuit("not.tbl"), "--inputs", inputs, "--output", output])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("tblsim: error: ")
    assert what in err


def test_truth_mismatch_exits_4(capsys):
    rc = main(
        ["truth", circuit("nand.tbl"), "--inputs", "a,b", "--output", "q",
         "--expect", "!(a|b)"]
    )
    err = capsys.readouterr().err
    assert rc == 4
    assert "mismatch" in err


def test_truth_json_lines(capsys):
    rc = main(
        ["--format", "json-lines", "truth", circuit("not.tbl"),
         "--inputs", "a", "--output", "q"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["output"] for r in rows] == [1, 0]
    assert rows[0]["inputs"] == {"a": 0}


def test_sim_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    rc = main(
        ["sim", circuit("ring3_calibrated.tbl"), "--t-end", "0.2",
         "--out", str(out_file)]
    )
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "time_s,m1_kPa,m2_kPa,m3_kPa"
    assert len(lines) > 100
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


def test_sim_csv_to_stdout(capsys):
    rc = main(["sim", circuit("not.tbl"), "--t-end", "0.05"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("time_s,q_kPa\n")


def test_sim_svg_plot(tmp_path):
    svg = tmp_path / "trace.svg"
    rc = main(
        ["sim", circuit("ring3_calibrated.tbl"), "--t-end", "0.2",
         "--out", str(tmp_path / "t.csv"), "--svg", str(svg)]
    )
    assert rc == 0
    body = svg.read_text()
    assert body.startswith("<svg")
    assert body.count("<polyline") == 3


@pytest.mark.parametrize("flag", ["--out", "--svg"])
@pytest.mark.parametrize("name, reason", [("no/such/dir.csv", "No such file or directory"),
                                          (".", "Is a directory")], ids=["missing-dir", "a-dir"])
def test_sim_unwritable_output_is_a_usage_error(tmp_path, capsys, flag, name, reason):
    path = tmp_path / name
    rc = main(["sim", circuit("not.tbl"), "--t-end", "0.05", flag, str(path)])
    assert rc == 1
    assert capsys.readouterr().err == f"tblsim: error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_sim_unwritable_output_fails_before_the_run(tmp_path, monkeypatch, capsys, flag):
    def no_run(*args):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(cli, "simulate", no_run)
    path = tmp_path / "no" / "such.csv"
    rc = main(["sim", circuit("ring3.tbl"), "--t-end", "100", flag, str(path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"tblsim: error: cannot write {path}: ")


def test_sim_unwritable_svg_writes_no_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["sim", circuit("not.tbl"), "--t-end", "0.05", "--out", str(out),
               "--svg", str(tmp_path / "no" / "such.svg")])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err
    assert not out.exists()


def test_sim_one_file_for_out_and_svg_is_a_usage_error(tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(cli, "simulate", no_run)
    out = tmp_path / "t.csv"
    out.write_text("an earlier trace\n")
    svg = os.path.join(str(tmp_path), ".", "t.csv")
    rc = main(["sim", circuit("ring3.tbl"), "--out", str(out), "--svg", svg])
    assert rc == 1
    assert capsys.readouterr().err == f"tblsim: error: --out and --svg name one file: {svg}\n"
    assert out.read_text() == "an earlier trace\n"


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_sim_output_naming_the_circuit_file_is_a_usage_error(flag, tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(cli, "simulate", no_run)
    with open(circuit("not.tbl"), encoding="utf-8") as fh:
        netlist = fh.read()
    net = tmp_path / "c.tbl"
    net.write_text(netlist)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    target = os.path.join(".", "sub", "..", "c.tbl")
    rc = main(["sim", "c.tbl", "--t-end", "0.01", flag, target])
    assert rc == 1
    assert capsys.readouterr().err == f"tblsim: error: {flag} names the circuit file: {target}\n"
    assert net.read_text() == netlist


def test_sim_failed_run_leaves_its_outputs_as_they_were(tmp_path, capsys):
    out, svg = tmp_path / "t.csv", tmp_path / "t.svg"
    out.write_text("an earlier trace\n")
    rc = main(["sim", circuit("not.tbl"), "--t-end", "1e9", "--out", str(out), "--svg", str(svg)])
    assert rc == 1
    assert "exceeds the cap" in capsys.readouterr().err
    assert out.read_text() == "an earlier trace\n"
    assert not svg.exists()


def test_sim_rejects_bad_t_end(capsys):
    rc = main(["sim", circuit("not.tbl"), "--t-end", "-2"])
    assert rc == 1
    assert "SimConfig.t_end must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["sim", "--probe", "nosuch", circuit("not.tbl")], "nosuch"),
        (["freq", "--t-end", "-1", circuit("ring3_calibrated.tbl")], "t_end"),
        (["sim", "--sample-interval", "0", circuit("not.tbl")], "sample_interval"),
        (["sim", "--t-end", "1e9", circuit("not.tbl")],
         "1e+12 samples of 1 probe(s) exceeds the cap of 10000000 values"),
        (["sim", "--t-end", "1e300", circuit("ring3.tbl")],
         "1e+303 samples of 3 probe(s) exceeds the cap of 10000000 values"),
        # the samples' count overflows the float range
        (["sim", "--t-end", "1e300", "--sample-interval", "1e-300", circuit("ring3.tbl")],
         "inf samples of 3 probe(s) exceeds the cap of 10000000 values"),
    ],
    ids=["unknown-probe", "negative-t-end", "zero-sample-interval", "unbounded-sample-grid",
         "sample-grid-of-1e303", "sample-grid-past-the-float-range"],
)
def test_bad_option_values_are_usage_errors(argv, what, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("tblsim: error: ")
    assert what in err
    assert err.count("\n") == 1


def test_freq_reports_calibrated_ring(capsys):
    rc = main(["freq", circuit("ring3_calibrated.tbl"), "--t-end", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "frequency:" in out
    assert "phase" in out


@pytest.mark.parametrize(
    "flags, what",
    [(["--min-amplitude", "nan"], "min_amplitude_kpa"), (["--min-amplitude", "-5"], "min_amplitude_kpa"),
     (["--probe", "m1", "--probe", "m1"], "m1 more than once")],
    ids=["nan-floor", "negative-floor", "repeated-probe"],
)
def test_freq_bad_options_are_usage_errors(flags, what, capsys):
    rc = main(["freq", circuit("ring3_calibrated.tbl"), *flags])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("tblsim: error: ")
    assert what in captured.err


def test_freq_on_static_circuit_exits_3(capsys):
    rc = main(["freq", circuit("not.tbl"), "--t-end", "0.2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "NoOscillation" in err


def test_bom_text_and_json(capsys):
    rc = main(["bom", circuit("ring3.tbl")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "total: $1.35" in out
    rc = main(["--format", "json-lines", "bom", circuit("not.tbl")])
    out = capsys.readouterr().out
    assert rc == 0
    last = json.loads(out.strip().splitlines()[-1])
    assert last["total_usd"] == "0.45"
    assert last["devices"] == 1


def test_check_reports_structure(capsys):
    rc = main(["check", circuit("nor.tbl")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok:" in out and "operating point:" in out


def test_check_astable_ring_is_reported_not_failed(capsys):
    rc = main(["check", circuit("ring3.tbl")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "astable" in out


def test_check_canonical_round_trips(tmp_path, capsys):
    rc = main(["check", circuit("ring3_calibrated.tbl"), "--canonical"])
    out = capsys.readouterr().out
    assert rc == 0
    path = write(tmp_path, out)
    rc = main(["check", path, "--canonical"])
    assert capsys.readouterr().out == out
    assert rc == 0


@pytest.mark.parametrize(
    "text, code_word",
    [
        ("tube t1 from=a to=b length=5parsecs\n", "UnknownUnit"),
        ("gadget g1 in=a out=b\n", "UnknownKeyword"),
        ("source S pressure=145kPa\nring r n=4 supply=S\n", "EvenRing"),
        ("source S pressure=145kPa\nsource S pressure=1kPa\n", "DuplicateId"),
        ("gate NOT g in=a out=q supply=S\n", "SupplyMissing"),
        ("source S pressure=145kPa\ntube t from=S to=S length=5cm\n", "InvalidNetwork"),
    ],
)
def test_netlist_errors_exit_2_with_position(tmp_path, capsys, text, code_word):
    path = write(tmp_path, text)
    rc = main(["check", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert code_word in err
    assert path in err


@pytest.mark.parametrize(
    "text, line, first",
    [
        ("tube SUP from=a to=b length=5cm\nsource SUP pressure=145kPa\n", 2, "tube 'SUP' on line 1"),
        ("balloon b1 node=x\nvalve b1 from=a to=b control=x\n", 2, "balloon 'b1' on line 1"),
        ("source S pressure=145kPa\ngate NOT g in=a out=q supply=S\n"
         "tube g.ts from=a to=b length=5cm\n", 3, "gate 'g' on line 2"),
        ("source S pressure=145kPa\ngate AND g in=a,b out=q supply=S\n"
         "gate NOT g.n in=a out=r supply=S\n", 3, "gate 'g' on line 2"),
        ("source S pressure=145kPa\nring r n=3 supply=S\n"
         "gate NOT r.g1 in=a out=b supply=S\n", 3, "ring 'r' on line 2"),
    ],
    ids=["source-tube", "balloon-valve", "tube-gate", "gate-gate", "gate-ring"],
)
def test_an_element_name_two_statements_make_exits_2_at_the_later_line(
    tmp_path, capsys, text, line, first
):
    path = write(tmp_path, text)
    rc = main(["check", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"{path}:{line}: DuplicateId: ")
    assert err.rstrip().endswith(f"already made by {first}")


def test_missing_file_exits_2(capsys):
    rc = main(["sim", "/nonexistent/file.tbl"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate", "x.tbl"]) == 1


def test_set_overrides_statement_parameter(capsys):
    rc = main(
        ["--set", "SUP.pressure=200kPa", "truth", circuit("not.tbl"),
         "--inputs", "a", "--output", "q"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    # 200 kPa supply lifts the LOW->HIGH level from 96.6 to 133.3
    assert "(133." in out


def test_set_overrides_default(capsys):
    rc = main(
        ["--set", "inflate_kpa=95", "truth", circuit("not.tbl"),
         "--inputs", "a", "--output", "q"]
    )
    err = capsys.readouterr().err
    # 96.6 kPa still reads HIGH against the raised 95 kPa threshold
    assert rc == 0
    rc = main(
        ["--set", "inflate_kpa=97", "truth", circuit("not.tbl"),
         "--inputs", "a", "--output", "q"]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert "IndeterminateLevel" in err


def test_one_parser_serves_every_call_afresh(capsys):
    # a bad --set before a good call, and a usage error between: no value
    # or list default of one call reaches the next
    assert cli._build_parser() is cli._build_parser()
    assert main(["--set", "SUP.warp=1", "check", circuit("not.tbl")]) == 2
    assert main(["check", "--bogus", circuit("not.tbl")]) == 1
    capsys.readouterr()
    assert main(["check", circuit("not.tbl")]) == 0
    assert capsys.readouterr().out.startswith("ok: ")
    assert cli._build_parser().parse_args(["bom", "x.tbl"]).overrides == []


def test_override_annotations_resolve():
    assert typing.get_type_hints(cli._apply_overrides)["defaults"] is PhysicalDefaults


def test_set_unknown_default_is_usage_error(capsys):
    rc = main(["--set", "warp_factor=9", "check", circuit("not.tbl")])
    assert rc == 1
    assert "warp_factor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pair, word",
    [("inflate_kpa", "KEY=VALUE"), ("inflate_kpa=high", "'high'"), ("SUP.pressure", "KEY=VALUE")],
)
def test_set_malformed_pair_or_bad_default_is_usage_error(capsys, pair, word):
    rc = main(["--set", pair, "check", circuit("not.tbl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("tblsim: error: --set") and word in err


def test_set_bad_statement_patch_keeps_its_line(capsys):
    rc = main(["--set", "SUP.pressure=high", "check", circuit("not.tbl")])
    assert rc == 2
    assert "not.tbl:" in capsys.readouterr().err


def test_defaults_file_flag(tmp_path, capsys):
    cfg = tmp_path / "defs.json"
    cfg.write_text(json.dumps({"supply_kpa": 200.0}))
    rc = main(
        ["--defaults", str(cfg), "truth", circuit("not.tbl"),
         "--inputs", "a", "--output", "q"]
    )
    assert rc == 0
    cfg.write_text("{broken")
    rc = main(["--defaults", str(cfg), "check", circuit("not.tbl")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text, json_text", [("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity")])
@pytest.mark.parametrize("key", ["supply_kpa", "inflate_kpa"])
def test_non_finite_default_is_usage_error_naming_the_key(tmp_path, capsys, key, text, json_text):
    argv = ["truth", circuit("not.tbl"), "--inputs", "a", "--output", "q"]
    assert main(["--set", f"{key}={text}"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("tblsim: error: --set") and key in err and "finite" in err
    cfg = tmp_path / "defs.json"
    cfg.write_text(f'{{"{key}": {json_text}}}')
    assert main(["--defaults", str(cfg)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("tblsim: error: defaults") and key in err and "finite" in err


def test_env_defaults_respected(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "defs.json"
    cfg.write_text(json.dumps({"pulldown_length": 0.30}))
    monkeypatch.setenv("TBL_DEFAULTS", str(cfg))
    rc = main(["truth", circuit("not.tbl"), "--inputs", "a", "--output", "q"])
    out = capsys.readouterr().out
    assert rc == 0
    # doubled pull-down raises the divider: 145*2R2/(R1+1/g+2R2) = 115.9
    assert "(115." in out


@pytest.mark.parametrize(
    "text, line, what",
    [
        ("source S pressure=-200kPa\n", 1, "source S: "),
        ("source S pressure=145kPa\ntube t from=S to=ATM length=-5cm\n", 2, "tube t: length"),
        ("source S pressure=145kPa\ngate NOT g in=a out=q supply=S inflate=50kPa\n", 2, "gate g: "),
        (
            "source S pressure=145kPa\nvalve v from=S to=q control=c leak=1 open_conductance=1e-5\n"
            "tube t from=q to=ATM length=5cm\n",
            2,
            "valve v: leak_conductance",
        ),
        ("source S pressure=145kPa\nballoon b node=S compliance=0\n", 2, "balloon b: compliance"),
    ],
    ids=["vacuum-source", "negative-length", "inverted-band", "leak-above-open", "zero-compliance"],
)
def test_bad_element_values_exit_2_at_their_line(tmp_path, capsys, text, line, what):
    path = write(tmp_path, text)
    rc = main(["check", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"{path}:{line}: BadValue: {what}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text, what",
    [
        ("tube t from=S to=ATM length=0cm\n", "tube t: length 0.0"),
        ("gate NOT g in=ATM out=q supply=S length=0cm\n", "gate g: length 0.0"),
        ("ring r n=3 supply=S length=0cm\n", "ring r: length 0.0"),
    ],
    ids=["tube", "gate", "ring"],
)
def test_a_zero_length_tube_exits_2_at_its_line(tmp_path, capsys, text, what):
    path = write(tmp_path, "source S pressure=145kPa\n" + text)
    rc = main(["check", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"{path}:2: BadValue: {what} gives a tube no resistance; "
                   "fold zero-length segments into a neighbouring tube\n")


@pytest.mark.parametrize("command", ["check", "sim", "freq", "bom"])
@pytest.mark.parametrize(
    "text, what",
    [
        ("source S pressure=145kPa\ntube t from=S to=ATM length=5cm id=1e-300\n",
         "tube t: inner_diameter 1e-300"),
        ("source S pressure=145kPa\nring r n=3 supply=S id=1e300\n", "ring r: inner_diameter 1e+300"),
    ],
    ids=["d4-underflows", "d4-overflows"],
)
def test_a_diameter_out_of_the_float_range_exits_2_at_its_line(tmp_path, capsys, command, text, what):
    path = write(tmp_path, text)
    rc = main([command, path])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"{path}:2: BadValue: {what} puts the resistance out of the float range\n"


def test_check_names_a_vacuum_source_once(tmp_path, capsys):
    path = write(tmp_path, "source S pressure=-200kPa\n")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err.count("source S") == 1


def test_sim_json_lines(capsys):
    rc = main(["--format", "json-lines", "sim", circuit("not.tbl"), "--t-end", "0.003"])
    out = capsys.readouterr().out
    assert rc == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["time_s"] for r in recs] == [0.0, 0.001, 0.002, 0.003]
    for r in recs:
        assert set(r) == {"time_s", "q"} and r["q"] == pytest.approx(96.608, abs=1e-3)


def test_freq_json_lines_on_the_stock_ring(capsys):
    rc = main(["--format", "json-lines", "freq", "--t-end", "1.5", circuit("ring3_calibrated.tbl")])
    out = capsys.readouterr().out
    assert rc == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["probe"] for r in recs] == ["m1", "m2", "m3"]
    for r, phase in zip(recs, (0.0, 240.0, 120.0)):
        assert r["frequency_hz"] == pytest.approx(14.995, rel=0.01)
        assert r["peak_kpa"] == pytest.approx(35.15, rel=0.01)
        assert r["phase_deg"] == pytest.approx(phase, abs=1e-6)
        assert r["cycles"] == 3


def test_freq_cap_before_a_full_cycle_exits_3(capsys):
    # the stock ring's events first repeat a full cycle near t = 0.153 s
    rc = main(["freq", "--t-end", "0.1", circuit("ring3_calibrated.tbl")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "NoOscillation: no full cycle of valve events within t_end = 0.1 s" in captured.err


def test_freq_cap_after_a_full_cycle_warns_and_reports_it(capsys):
    rc = main(["--format", "json-lines", "freq", "--t-end", "0.2", circuit("ring3_calibrated.tbl")])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == (
        "warning: the run stopped at t_end = 0.2 s before its last two cycles matched; "
        "its last full cycle is reported\n"
    )
    recs = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["probe"] for r in recs] == ["m1", "m2", "m3"]
    for r in recs:
        assert r["frequency_hz"] == pytest.approx(15.0001, rel=1e-5)
        assert r["cycles"] == 2


def test_sim_prints_trace_warnings_to_stderr(tmp_path, capsys):
    # a 250 kPa supply charges the balloon past its 200 kPa burst level
    path = write(
        tmp_path,
        "source SUP pressure=250kPa\ntube t1 from=SUP to=x length=5cm\n"
        "balloon b1 node=x\nprobe x\n",
    )
    rc = main(["sim", path, "--t-end", "0.5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("time_s,x_kPa\n")
    warning = "warning: balloon b1 passed its burst pressure (200.0 kPa) at t="
    assert captured.err.startswith(warning)
    assert captured.err.count("\n") == 1


def test_freq_at_rest_prints_its_warnings_before_the_error(tmp_path, capsys):
    path = write(
        tmp_path,
        "source SUP pressure=250kPa\ntube t1 from=SUP to=x length=5cm\n"
        "balloon b1 node=x\nprobe x\n",
    )
    rc = main(["freq", path])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert len(lines) == 2
    assert lines[0].startswith("warning: balloon b1 passed its burst pressure (200.0 kPa) at t=")
    assert lines[1].endswith("NoOscillation: the circuit comes to rest: no valve switches again")


def test_freq_prints_trace_warnings_to_stderr(capsys):
    argv = ["freq", circuit("ring3.tbl"), "--t-end", "2"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(["--set", "osc.burst=50kPa"] + argv) == 0
    captured = capsys.readouterr()
    assert plain.err == ""
    assert captured.out == plain.out
    lines = captured.err.splitlines()
    assert [w.split(" passed")[0] for w in lines] == [
        f"warning: balloon osc.g{k}.v" for k in (1, 2, 3)
    ]
    assert all("burst pressure (50.0 kPa)" in w for w in lines)


@pytest.mark.parametrize("command", ["sim", "freq"])
def test_infinite_t_end_is_a_usage_error(command, capsys):
    rc = main([command, circuit("not.tbl"), "--t-end", "inf"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "tblsim: error: SimConfig.t_end must be positive and finite\n"


def test_check_notes_several_operating_points(tmp_path, capsys):
    path = write(
        tmp_path,
        "source SUP pressure=145kPa\n"
        "gate NOT g1 in=q2 out=q1 supply=SUP\n"
        "gate NOT g2 in=q1 out=q2 supply=SUP\n",
    )
    rc = main(["check", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "operating point: g1.v=open, g2.v=closed\n" in out
    assert out.endswith("note: 2 distinct operating points exist\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["sim", circuit("not.tbl"), "--t-end", "0.003"],
        ["truth", circuit("nand.tbl"), "--inputs", "a,b", "--output", "q", "--expect", "!(a&b)"],
        ["freq", "--t-end", "1.5", circuit("ring3_calibrated.tbl")],
        ["bom", circuit("ring3.tbl")],
        ["check", circuit("nor.tbl")],
    ],
    ids=["sim", "truth", "freq", "bom", "check"],
)
def test_json_lines_output_is_json_on_every_line(argv, capsys):
    rc = main(["--format", "json-lines", *argv])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.endswith("\n")
    for line in out.splitlines():
        assert isinstance(json.loads(line), dict)


@pytest.mark.parametrize("expr, rc, matches", [("!(a&b)", 0, True), ("!(a|b)", 4, False)])
def test_truth_json_lines_ends_with_its_verdict(expr, rc, matches, capsys):
    argv = ["--format", "json-lines", "truth", circuit("nand.tbl"), "--inputs", "a,b",
            "--output", "q", "--expect", expr]
    assert main(argv) == rc
    captured = capsys.readouterr()
    recs = [json.loads(line) for line in captured.out.splitlines()]
    assert len(recs) == 5 and all("output" in r for r in recs[:4])
    assert recs[-1] == {"expect": expr, "matches": matches}
    assert ("mismatch at" in captured.err) is not matches


def test_check_json_lines_is_one_record(tmp_path, capsys):
    latch = write(
        tmp_path,
        "source SUP pressure=145kPa\n"
        "gate NOT g1 in=q2 out=q1 supply=SUP\n"
        "gate NOT g2 in=q1 out=q2 supply=SUP\n",
    )
    recs = {}
    for name, path in (("nor", circuit("nor.tbl")), ("ring3", circuit("ring3.tbl")),
                       ("latch", latch)):
        assert main(["--format", "json-lines", "check", path]) == 0
        (recs[name],) = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert recs["nor"] == {"valves": 2, "tubes": 4, "balloons": 2, "nodes": 9,
                           "operating_point": {"g1.v1": "open", "g1.v2": "open"},
                           "fixed_points": 1}
    assert recs["ring3"]["operating_point"] is None and recs["ring3"]["fixed_points"] == 0
    assert recs["latch"]["operating_point"] == {"g1.v": "open", "g2.v": "closed"}
    assert recs["latch"]["fixed_points"] == 2
