import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rlab import make_step, maximal, step_from_json
from rlab.cli import run

CHI_JSON = '{"breakpoints": [0.0, 0.25, 1.0], "values": [1.0, 0.0]}'
L22 = '{"kind": "lorentz_pq", "p": 2, "q": 2}'
GRAND22 = '{"kind": "grand_lorentz_pq", "p": 2, "q": 2}'
UNIT_MEASURE = '{"density": {"breakpoints": [0.0, 1.0], "values": [1.0]}}'


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- norm

def test_norm_prints_value(capsys):
    code, out, err = _run(capsys, ["norm", "--spec", L22, "--fn", CHI_JSON])
    assert code == 0
    assert out == "0.5\n"
    assert err == ""


def test_norm_out_file_payload(tmp_path, capsys):
    dest = tmp_path / "norm.json"
    code, out, _ = _run(capsys, ["norm", "--spec", GRAND22, "--fn", CHI_JSON,
                                 "--out", str(dest)])
    assert code == 0
    payload = json.loads(dest.read_text())
    assert sorted(payload) == ["endpoint_limit", "eps_star", "evals", "upper", "value"]
    assert payload["value"] == pytest.approx(float(out), rel=1e-15)
    assert 0.0 < payload["eps_star"] < 1.0
    assert payload["endpoint_limit"] is None


def test_norm_out_file_reports_the_bracket(tmp_path, capsys):
    # norm samples no profile; the bracket is there
    dest = tmp_path / "norm.json"
    code, out, _ = _run(capsys, ["norm", "--spec", GRAND22, "--fn", CHI_JSON,
                                 "--out", str(dest)])
    assert code == 0
    payload = json.loads(dest.read_text())
    assert payload["value"] == float(out) <= payload["upper"] <= payload["value"] * (1 + 1e-12)
    assert 0 < payload["evals"] <= 256
    code, out, _ = _run(capsys, ["eps-profile", "--fn", CHI_JSON, "--spec", GRAND22,
                                 "--grid", "16"])
    header = dict(kv.split("=") for kv in out.splitlines()[0][2:].split(" "))
    assert float(header["value"]) <= float(header["upper"])


def test_norm_reads_spec_and_fn_from_files(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    fn_path = tmp_path / "fn.json"
    spec_path.write_text(L22)
    fn_path.write_text(CHI_JSON)
    code, out, _ = _run(capsys, ["norm", "--spec", str(spec_path),
                                 "--fn", str(fn_path)])
    assert code == 0 and out == "0.5\n"


# ---------------------------------------------------------------- rearrange

def test_rearrange_example(capsys):
    fn = '{"breakpoints": [0.0, 0.2, 0.5, 1.0], "values": [3.0, 1.0, 2.0]}'
    code, out, _ = _run(capsys, ["rearrange", "--fn", fn])
    assert code == 0
    payload = json.loads(out)
    assert payload["breakpoints"] == [0.0, 0.2, 0.7, 1.0]
    assert payload["values"] == [3.0, 2.0, 1.0]
    # emitted JSON parses back into a valid step function
    assert step_from_json(payload) == make_step([0.0, 0.2, 0.7, 1.0],
                                                [3.0, 2.0, 1.0])


def test_rearrange_with_measure(capsys):
    fn = '{"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 2.0]}'
    measure = ('{"density": {"breakpoints": [0.0, 0.5, 1.0], '
               '"values": [2.0, 0.0]}}')
    code, out, _ = _run(capsys, ["rearrange", "--fn", fn,
                                 "--measure", measure])
    assert code == 0
    payload = json.loads(out)
    # only the first half carries mass (total 1), where f = 1
    assert payload["values"] == [1.0]
    assert payload["breakpoints"] == [0.0, 1.0]


# ---------------------------------------------------------------- maximal

def test_maximal_sampled_output(capsys):
    code, out, _ = _run(capsys, ["maximal", "--fn", CHI_JSON,
                                 "--samples", "8"])
    assert code == 0
    payload = json.loads(out)
    x = np.asarray(payload["x"])
    assert x.tolist() == [(i + 0.5) / 8 for i in range(8)]
    f = make_step([0.0, 0.25, 1.0], [1.0, 0.0])
    assert np.allclose(payload["values"], maximal(f)(x), rtol=1e-15)


# ---------------------------------------------------------------- embed-check

def test_embed_check_domination(capsys):
    nu = '{"density": {"breakpoints": [0.0, 1.0], "values": [2.0]}}'
    code, out, _ = _run(capsys, ["embed-check", "--check", "domination",
                                 "--mu", UNIT_MEASURE, "--nu", nu])
    assert code == 0
    payload = json.loads(out)
    assert payload["condition_value"] == 2.0
    assert payload["holds"] is True


def test_embed_check_mutual_ac(capsys):
    half = ('{"density": {"breakpoints": [0.0, 0.5, 1.0], '
            '"values": [1.0, 0.0]}}')
    code, out, _ = _run(capsys, ["embed-check", "--check", "mutual-ac",
                                 "--mu", UNIT_MEASURE, "--nu", half])
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["condition_value"] == "inf"


def test_embed_check_wholds(capsys):
    code, out, _ = _run(capsys, ["embed-check", "--check", "wholds",
                                 "--p", "2", "--q", "2",
                                 "--weight", '{"power_weight": {"alpha": 0.0}}'])
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["condition_value"] == 1.0


def test_embed_check_empirical_identity(capsys):
    code, out, _ = _run(capsys, [
        "embed-check", "--check", "empirical",
        "--source", GRAND22, "--target", GRAND22,
        "--corpus-size", "4", "--seed", "3", "--grid", "64"])
    assert code == 0
    payload = json.loads(out)
    assert payload["condition_value"] == 1.0
    assert payload["empirical_constant"] == 1.0
    assert payload["seed"] == 3
    assert payload["witness"].startswith("corpus[")


def test_embed_check_downward_prints_its_bracket(capsys):
    # step weights past upper = 1: the bracket [condition_value, upper] and
    # the node count are printed, and --grid is validated but not read
    argv = ["embed-check", "--check", "downward", "--p", "3", "--q", "1.5", "--upper", "2",
            "--weight", '{"breakpoints": [0, 0.4, 1], "values": [1.5, 0.7]}',
            "--target-weight", '{"power_weight": {"alpha": 0.0}}']
    runs = [_run(capsys, argv + ["--grid", n]) for n in ("8", "2048")]
    assert runs[0] == runs[1] and runs[0][0] == 0
    payload = json.loads(runs[0][1])
    assert list(payload) == ["condition_value", "holds", "empirical_constant", "witness",
                             "seed", "upper", "evals"]
    assert payload["holds"] is True and payload["evals"] >= 66
    assert payload["condition_value"] <= payload["upper"] <= payload["condition_value"] * (1 + 1e-9)
    divergent = argv[:9] + ["--weight", '{"power_weight": {"alpha": -0.9}}', "--target-weight", POW1]
    code, out, _ = _run(capsys, divergent)
    assert code == 0 and json.loads(out)["upper"] == "inf"


def test_embed_check_missing_parameters(capsys):
    code, _, err = _run(capsys, ["embed-check", "--check", "wholds",
                                 "--p", "2"])
    assert code == 1
    assert "required" in err


def test_embed_check_overflowing_sup_exits_2(capsys):
    # W(1) = 1e300 / 1.1e-16: the cross-weight sup, W(1) itself, is past the float range
    code, out, err = _run(capsys, [
        "embed-check", "--check", "cross-weight", "--p", "2", "--q", "2",
        "--weight", '{"power_weight": {"alpha": -0.9999999999999999, "coeff": 1e300}}',
        "--target-weight", '{"power_weight": {"alpha": 0.0}}'])
    assert code == 2 and out == ""
    assert "OverflowError" in err


# ---------------------------------------------------------------- embed-probe

def test_embed_probe_csv(capsys):
    code, out, _ = _run(capsys, ["embed-probe", "--p", "2", "--q", "2",
                                 "--r", "4", "--s", "4",
                                 "--a-list", "1e-4,1e-5,1e-6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# p=2 q=2 r=4 s=4"
    assert lines[1] == "a,source_norm,target_norm,ratio"
    assert len(lines) == 5
    ratios = [float(line.split(",")[3]) for line in lines[2:]]
    assert ratios[0] < ratios[1] < ratios[2]


def test_embed_probe_bad_a_list(capsys):
    code, _, err = _run(capsys, ["embed-probe", "--p", "2", "--q", "2",
                                 "--r", "4", "--s", "4",
                                 "--a-list", "0.1,zebra"])
    assert code == 1
    assert "validation error" in err


# ---------------------------------------------------------------- sweeps

def test_mollify_sweep_csv(capsys):
    code, out, _ = _run(capsys, [
        "mollify-sweep", "--fn", CHI_JSON,
        "--kernel", '{"kind": "box", "half_width": 1.0}',
        "--t-list", "0.2,0.1", "--cells", "256",
        "--spec", '{"kind": "lambda_grand", "p": 2,'
                  ' "weight": {"power_weight": {"alpha": 0.0}}}'])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# kernel=box"
    assert lines[1].startswith("# cells=256 max_err_drift=")
    assert lines[2] == "t,err,conv_norm,maximal_norm,ratio"
    assert len(lines) == 5
    first = [float(tok) for tok in lines[3].split(",")]
    second = [float(tok) for tok in lines[4].split(",")]
    assert first[0] == 0.2 and second[0] == 0.1
    assert second[1] < first[1]  # err decreasing
    assert max(first[4], second[4]) <= 1.0 + 1e-9


def test_eps_profile_csv_and_grid_header(capsys):
    code, out, _ = _run(capsys, ["eps-profile", "--fn", CHI_JSON,
                                 "--spec", GRAND22, "--grid", "64"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# grid=64 value=")
    assert "eps_star=" in lines[0]
    assert lines[1] == "eps,value"
    assert len(lines) == 2 + 64


def test_eps_profile_rejects_non_grand(capsys):
    code, _, err = _run(capsys, ["eps-profile", "--fn", CHI_JSON,
                                 "--spec", L22])
    assert code == 1
    assert "grand" in err


# ---------------------------------------------------------------- grid

POW1 = '{"power_weight": {"alpha": 1.0}}'
EVERY_VERB = (
    ["norm", "--spec", L22, "--fn", CHI_JSON],
    ["norm", "--spec", GRAND22, "--fn", CHI_JSON],
    ["rearrange", "--fn", CHI_JSON],
    ["maximal", "--fn", CHI_JSON, "--samples", "4"],
    ["embed-check", "--check", "wholds", "--p", "2", "--q", "3", "--weight", POW1],
    ["embed-check", "--check", "downward", "--p", "3", "--q", "1.5", "--weight", POW1,
     "--target-weight", POW1, "--grid", "64"],
    ["embed-probe", "--p", "2", "--q", "2", "--r", "4", "--s", "4", "--a-list", "0.5"],
    ["mollify-sweep", "--fn", CHI_JSON, "--kernel", '{"kind": "box"}', "--t-list", "0.1",
     "--spec", L22, "--cells", "64"],
    ["eps-profile", "--fn", CHI_JSON, "--spec", GRAND22],
)


def test_rlab_grid_env_changes_no_output(capsys, monkeypatch):
    # the grid is set by --grid alone; the environment variable is not read
    plain = [_run(capsys, argv) for argv in EVERY_VERB]
    monkeypatch.setenv("RLAB_GRID", "many")
    assert [_run(capsys, argv) for argv in EVERY_VERB] == plain
    assert all(code == 0 for code, _, _ in plain)
    assert plain[4][1] == '{"condition_value": 1.4142135623730951, "holds": true, ' \
        '"empirical_constant": null, "witness": "eps=1", "seed": null}\n'
    assert plain[-1][1].startswith("# grid=2048 ")


def test_grid_too_small(capsys):
    for argv in (["eps-profile", "--fn", CHI_JSON, "--spec", GRAND22, "--grid", "4"],
                 ["eps-profile", "--fn", CHI_JSON, "--spec", GRAND22, "--grid", "many"],
                 ["embed-check", "--check", "downward", "--p", "3", "--q", "1.5",
                  "--weight", POW1, "--target-weight", POW1, "--grid", "4"]):
        code, _, err = _run(capsys, argv)
        assert code == 1 and "at least 8" in err


def test_grid_only_on_verbs_that_read_one(capsys):
    code, _, err = _run(capsys, ["rearrange", "--fn", CHI_JSON, "--grid", "8"])
    assert code == 1
    assert "--grid" in err
    for argv in (["norm", "--spec", GRAND22, "--fn", CHI_JSON, "--grid", "8"],
                 ["maximal", "--fn", CHI_JSON, "--samples", "4", "--grid", "8"],
                 ["embed-probe", "--p", "2", "--q", "2", "--r", "4", "--s", "4",
                  "--a-list", "0.5", "--grid", "8"],
                 ["mollify-sweep", "--fn", CHI_JSON, "--kernel", '{"kind": "box"}',
                  "--t-list", "0.1", "--spec", L22, "--grid", "8"]):
        assert _run(capsys, argv)[0] == 1


# ---------------------------------------------------------------- determinism

def test_probe_output_is_deterministic(tmp_path, capsys):
    argv = ["embed-probe", "--p", "2", "--q", "1.5", "--r", "3", "--s", "3",
            "--a-list", "1e-2,1e-3"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- exit codes

def test_exit_code_on_malformed_json(capsys):
    code, _, err = _run(capsys, ["norm", "--spec", L22, "--fn", "{bad json"])
    assert code == 1
    assert "validation error" in err


def test_exit_code_on_unknown_space_kind(capsys):
    code, _, err = _run(capsys, ["norm", "--fn", CHI_JSON,
                                 "--spec", '{"kind": "banach", "p": 2}'])
    assert code == 1


def test_exit_code_on_missing_file(capsys):
    code, _, err = _run(capsys, ["norm", "--spec", L22,
                                 "--fn", "no-such-file.json"])
    assert code == 1


def test_exit_code_on_unknown_verb(capsys):
    assert run(["transmogrify"]) == 1
    capsys.readouterr()


def test_exit_code_on_missing_required_flag(capsys):
    assert run(["norm", "--fn", CHI_JSON]) == 1
    capsys.readouterr()


SWEEP_ARGS = ["mollify-sweep", "--fn", CHI_JSON, "--kernel", '{"kind": "box"}',
              "--t-list", "0.1", "--spec", L22]


@pytest.mark.parametrize("argv, message", [
    (["maximal", "--fn", CHI_JSON, "--samples", "0"], "at least one sample"),
    (["maximal", "--fn", CHI_JSON, "--samples", "-4"], "at least one sample"),
    (SWEEP_ARGS + ["--cells", "0"], "at least two cells"),
    (SWEEP_ARGS + ["--cells", "1"], "at least two cells"),
], ids=["samples-0", "samples-neg", "cells-0", "cells-1"])
def test_exit_code_on_non_positive_sizes(argv, message, capsys):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("validation error") and message in err


@pytest.mark.parametrize("kernel, t_list", [
    ('{"kind": "box", "half_width": 1e-310}', "1"),
    ('{"kind": "triangle"}', "1e-310"),
], ids=["half-width", "scale"])
def test_mollify_sweep_rejects_a_subnormal_half_width(kernel, t_list, capsys):
    code, out, err = _run(capsys, ["mollify-sweep", "--fn", CHI_JSON, "--kernel", kernel,
                                   "--t-list", t_list, "--spec", L22])
    assert code == 1 and out == ""
    assert err.startswith("validation error") and "float range" in err


# f** = f on (0, 1] and f/t past 1: the (2, 2) norm is 1.5e308 * sqrt(2),
# past the float range
HUGE_JSON = '{"breakpoints": [0.0, 1.0], "values": [1.5e308]}'
STAR22 = '{"kind": "lorentz_pq_star", "p": 2, "q": 2}'


def test_exit_code_on_overflow(capsys):
    code, out, err = _run(capsys, ["norm", "--spec", STAR22, "--fn", HUGE_JSON])
    assert code == 2
    assert out == ""
    assert err.startswith("computation error:")
    assert "Traceback" not in err


def test_exit_code_on_overflowing_grand_norm(capsys):
    # the grand sup is about 2e308; no numpy RuntimeWarning escapes on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _run(capsys, ["norm", "--spec", '{"kind": "grand_lorentz_pq", "p": 2, "q": 3}',
                                       "--fn", '{"breakpoints": [0.0, 1.0], "values": [1e308]}'])
    assert (code, out) == (2, "")
    assert err.startswith("computation error: OverflowError")


# 10**15 float64 values is petabytes: numpy refuses it before touching memory
@pytest.mark.parametrize("argv", [
    ["maximal", "--fn", CHI_JSON, "--samples", str(10**15)],
    SWEEP_ARGS + ["--cells", str(10**15)],
    ["eps-profile", "--fn", CHI_JSON, "--spec", GRAND22, "--grid", str(10**15)],
], ids=["maximal", "mollify-sweep", "eps-profile"])
def test_exit_code_on_memory_error(argv, capsys):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("computation error: MemoryError")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["norm", "--spec", L22, "--fn", CHI_JSON],
    ["norm", "--spec", STAR22, "--fn", HUGE_JSON],
], ids=["ok", "overflow"])
def test_python_dash_m_matches_in_process_run(argv, capsys):
    code, out, err = _run(capsys, argv)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rlab", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert proc.stdout == out
    assert (proc.stderr == "") == (err == "")
    assert "Traceback" not in proc.stderr


def test_python_dash_m_rlab_cli_runs_the_cli(capsys):
    argv = ["norm", "--spec", L22, "--fn", CHI_JSON]
    code, out, _ = _run(capsys, argv)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
    assert out == "0.5\n"


@pytest.mark.skipif(shutil.which("rlab") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(["rlab", "norm", "--spec", L22, "--fn", CHI_JSON],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "0.5\n"
