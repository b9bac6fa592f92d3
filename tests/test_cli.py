"""End-to-end command-line behaviour: formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pabraid import cli


@pytest.fixture
def run_cli(capsys):
    """Run ``cli.main`` in this process; the result reads like a finished subprocess."""

    def run(*args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    return run


def test_dilatation_json_anchor(run_cli):
    proc = run_cli("dilatation", "sigma", "1", "3")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["tn_class"] == "pseudo_anosov"
    assert data["poly"] == [-1, 1, 2, 0, -2, -1, 1]
    assert abs(data["root"]["witness"] - 1.72208) < 1e-4
    assert data["provenance"] == "both_agree"
    # exact rational endpoints survive serialization
    assert "/" in data["root"]["lower"] or data["root"]["lower"].lstrip("-").isdigit()


def test_dilatation_periodic_has_no_root(run_cli):
    proc = run_cli("dilatation", "sigma", "2", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["tn_class"] == "periodic"
    assert data["root"] is None and data["poly"] is None


def test_dilatation_beta_1_1(run_cli):
    proc = run_cli("dilatation", "beta", "1", "1")
    data = json.loads(proc.stdout)
    assert abs(data["root"]["witness"] - 2.6180339887) < 1e-9


def test_dilatation_rejects_bad_params(run_cli):
    proc = run_cli("dilatation", "beta", "0", "1")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_deterministic_output():
    # two fresh interpreters (each with its own hash seed) running
    # ``python -m pabraid`` on the package this process imports
    def run_module(*args):
        return subprocess.run(
            [sys.executable, "-m", "pabraid", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )

    first = run_module("dilatation", "sigma", "1", "4")
    second = run_module("dilatation", "sigma", "1", "4")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_runtime_needs_no_mpmath(tmp_path):
    # a fresh interpreter in which ``import mpmath`` fails runs every command
    base = tmp_path / "base.txt"
    base.write_text("-2,-1,1\n", encoding="utf-8")
    commands = [
        ["dilatation", "sigma", "2", "5", "--csv"],
        ["table", "beta", "1..3", "1..3"],
        ["salem-boyd", str(base), "6"],
        ["verify", "--depth", "quick"],
        ["horseshoe", "10000100"],
    ]
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from pabraid import cli\n"
        f"print([cli.main(argv) for argv in {commands!r}], file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[0, 0, 0, 0, 0]\n"


def test_import_leaves_the_check_registry_unloaded():
    script = "import sys\nimport pabraid.cli\nprint('pabraid.verify' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_table_csv_classification_cells(run_cli):
    proc = run_cli("table", "sigma", "1..3", "1..8", "--csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "family,m,n,class,lambda,log_lambda"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 24
    classes = {(int(r[1]), int(r[2])): r[3] for r in rows}
    for cell in ((1, 1), (2, 2), (3, 3)):
        assert classes[cell] == "periodic"
    for cell in ((1, 2), (2, 1), (2, 3), (3, 2), (3, 4)):
        assert classes[cell] == "reducible"
    lambdas = {(int(r[1]), int(r[2])): r[4] for r in rows}
    assert lambdas[(1, 1)] == "" and lambdas[(1, 3)] != ""


def test_table_row_monotone_for_beta(run_cli):
    proc = run_cli("table", "beta", "1..1", "1..3", "--csv")
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    values = [float(r[4]) for r in rows]
    assert values[0] > values[1] > values[2]


def test_table_reversed_range_rejected(run_cli):
    for ranges in (("5..3", "1..2"), ("1..2", "2..1")):
        proc = run_cli("table", "beta", *ranges, "--csv")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_table_malformed_range(run_cli):
    proc = run_cli("table", "beta", "1-3", "1..2")
    assert proc.returncode == 2


def test_salem_boyd_sweep(run_cli, tmp_path):
    poly_file = tmp_path / "base.txt"
    poly_file.write_text("-2,-1,1\n")
    proc = run_cli("salem-boyd", str(poly_file), "20", "--sign", "plus", "--csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,mahler,lambda,outside,on_circle"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 22  # n = 0..20 plus the base row
    assert rows[-1][0] == "base"
    assert float(rows[-1][1]) == pytest.approx(2.0, abs=1e-8)
    # Mahler column tends to the base value 2
    assert abs(float(rows[20][1]) - 2.0) < 1e-2
    # outside count never exceeds the base count 1
    assert all(int(r[3]) <= 1 for r in rows if r[3] != "")


def test_salem_boyd_rejects_non_monic(run_cli, tmp_path):
    poly_file = tmp_path / "bad.txt"
    poly_file.write_text("-2,-1,3")
    proc = run_cli("salem-boyd", str(poly_file), "4")
    assert proc.returncode == 2


def test_salem_boyd_missing_file(run_cli):
    proc = run_cli("salem-boyd", "/nonexistent/base.txt", "4")
    assert proc.returncode == 2


def test_verify_quick_passes_with_enough_checks(run_cli):
    proc = run_cli("verify", "--depth", "quick")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["summary"]["passed"] == report["summary"]["total"]
    ids = {c["id"] for c in report["checks"]}
    assert len(ids) >= 12
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("tol", ["0.01", "0.5"])
def test_verify_quick_passes_at_coarse_tol(capsys, tol):
    # adjacent members share a dyadic endpoint at these widths; the ordering
    # checks narrow both enclosures until the gap shows
    assert cli.main(["verify", "--depth", "quick", "--tol", tol]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"] == {"passed": 24, "total": 24}


def test_verify_honours_precision(capsys):
    # a 1e-45 enclosure needs more than the default 128-bit witness
    assert cli.main(["verify", "--tol", "1e-45", "--precision", "256"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"] == {"passed": 24, "total": 24}


def test_dilatation_at_coarse_tol_is_pinned(capsys):
    # the enclosure at tol 0.5 starts at 1, so it is narrowed at tol 0.005
    assert cli.main(["dilatation", "beta", "4", "8", "--tol", "0.5"]) == 0
    root = json.loads(capsys.readouterr().out)["root"]
    assert (root["lower"], root["upper"]) == ("381/256", "191/128")


def test_horseshoe_known_code(run_cli):
    proc = run_cli("horseshoe", "10010")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["canonical"] == "00101"
    assert data["family"] == {"m": 1, "n": 3, "form": "A"}
    assert abs(data["lambda"] - 1.72208) < 1e-4


def test_horseshoe_unmatched_codes(run_cli):
    for code in ("10010110", "0"):
        data = json.loads(run_cli("horseshoe", code).stdout)
        assert data["family"] is None and data["lambda"] is None


def test_horseshoe_rejects_non_binary(run_cli):
    proc = run_cli("horseshoe", "10a1")
    assert proc.returncode == 2


_SUBCOMMANDS = [
    ["dilatation", "beta", "1", "1"],
    ["table", "beta", "1..2", "1..2"],
    ["salem-boyd", "BASE", "3"],
    ["verify"],
    ["horseshoe", "10010"],
]


def _with_base(argv, tmp_path):
    base = tmp_path / "base.txt"
    base.write_text("-2,-1,1")
    return [str(base) if a == "BASE" else a for a in argv]


@pytest.mark.parametrize(
    "flag",
    ["--tol=inf", "--tol=-inf", "--tol=nan", "--tol=0", "--tol=-1",
     "--precision=52", "--precision=16", "--precision=0", "--precision=-5", "--precision=1025"],
)
@pytest.mark.parametrize("argv", _SUBCOMMANDS, ids=lambda argv: argv[0])
def test_bad_common_flag_rejected_before_work(argv, flag, tmp_path, capsys):
    assert cli.main(_with_base(argv, tmp_path) + [flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_witness_outside_enclosure_is_rejected(capsys):
    # at 128 bits the witness cannot resolve a 1e-45 enclosure
    assert cli.main(["dilatation", "beta", "1", "1", "--tol", "1e-45"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--tol" in err and "--precision" in err
    assert cli.main(["dilatation", "beta", "1", "1", "--tol", "1e-45", "--precision", "256"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["root"]["witness"] - 2.618033989) < 1e-9


def test_argparse_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dilatation", "gamma", "1", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# -- pinned bytes of the output-format paths ------------------------------------


def _base_file(tmp_path, coeffs):
    base = tmp_path / "base.txt"
    base.write_text(coeffs + "\n")
    return str(base)


def test_salem_boyd_json_is_the_default(run_cli, tmp_path):
    proc = run_cli("salem-boyd", _base_file(tmp_path, "-2,-1,1"), "2")
    assert proc.returncode == 0
    assert proc.stdout == (
        '{"n":0,"mahler":1.0,"lambda":-1.0,"outside":0,"on_circle":2}\n'
        '{"n":1,"mahler":3.732050808,"lambda":3.732050808,"outside":1,"on_circle":1}\n'
        '{"n":2,"mahler":2.618033989,"lambda":2.618033989,"outside":1,"on_circle":2}\n'
        '{"n":"base","mahler":2.0,"lambda":2.0,"outside":1,"on_circle":1}\n'
    )


def test_salem_boyd_zero_and_constant_rows(run_cli, tmp_path):
    # base 1, minus sign: q_0 = 0 and the base itself are constant, so every cell is empty
    base = _base_file(tmp_path, "1")
    proc = run_cli("salem-boyd", base, "2", "--sign", "minus")
    assert proc.returncode == 0
    assert proc.stdout == (
        '{"n":0,"mahler":null,"lambda":null,"outside":null,"on_circle":null}\n'
        '{"n":1,"mahler":1.0,"lambda":1.0,"outside":0,"on_circle":1}\n'
        '{"n":2,"mahler":1.0,"lambda":1.0,"outside":0,"on_circle":2}\n'
        '{"n":"base","mahler":null,"lambda":null,"outside":null,"on_circle":null}\n'
    )
    proc = run_cli("salem-boyd", base, "2", "--sign", "minus", "--csv")
    assert proc.stdout == "n,mahler,lambda,outside,on_circle\n0,,,,\n1,1,1,0,1\n2,1,1,0,2\nbase,,,,\n"


def test_salem_boyd_row_without_a_real_root(run_cli, tmp_path):
    proc = run_cli("salem-boyd", _base_file(tmp_path, "1,0,1"), "2")
    assert proc.returncode == 0
    assert proc.stdout == (
        '{"n":0,"mahler":2.0,"lambda":null,"outside":0,"on_circle":2}\n'
        '{"n":1,"mahler":1.0,"lambda":-1.0,"outside":0,"on_circle":3}\n'
        '{"n":2,"mahler":1.0,"lambda":null,"outside":0,"on_circle":4}\n'
        '{"n":"base","mahler":1.0,"lambda":null,"outside":0,"on_circle":2}\n'
    )


def test_table_json_rows(run_cli):
    proc = run_cli("table", "sigma", "2..2", "2..4")
    assert proc.returncode == 0
    assert proc.stdout == (
        '{"family":"sigma","m":2,"n":2,"tn_class":"periodic","poly":null,"root":null,"provenance":null}\n'
        '{"family":"sigma","m":2,"n":3,"tn_class":"reducible","poly":null,"root":null,"provenance":null}\n'
        '{"family":"sigma","m":2,"n":4,"tn_class":"pseudo_anosov","poly":[-1,1,0,2,0,-2,0,-1,1],'
        '"root":{"lower":"1573645127/1073741824","upper":"196705641/134217728","witness":1.465571232},'
        '"provenance":"both_agree"}\n'
    )


def test_dilatation_csv_row(run_cli):
    proc = run_cli("dilatation", "sigma", "3", "40", "--csv")
    assert proc.returncode == 0
    assert proc.stdout == "sigma,3,40,pseudo_anosov,1.543688983,0.4341749957\n"


def test_range_and_n_max_below_bounds_exit_2(run_cli, tmp_path):
    proc = run_cli("table", "beta", "0..2", "1..3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: range endpoints must be >= 1\n")
    proc = run_cli("salem-boyd", _base_file(tmp_path, "-2,-1,1"), "-1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: n_max must be >= 0\n")


@pytest.mark.parametrize("argv", [["verify", "--csv"], ["horseshoe", "10010", "--format", "csv"]])
def test_format_flags_only_where_they_act(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_last_format_flag_wins(run_cli):
    json_row = run_cli("dilatation", "sigma", "1", "3").stdout
    csv_row = "sigma,1,3,pseudo_anosov,1.722083806,0.5435350725\n"
    assert run_cli("dilatation", "sigma", "1", "3", "--csv", "--format", "json").stdout == json_row
    assert run_cli("dilatation", "sigma", "1", "3", "--format", "json", "--csv").stdout == csv_row
    assert run_cli("dilatation", "sigma", "1", "3", "--format", "csv").stdout == csv_row
