"""Golden outputs of every CLI verb on a small fixed corpus.

`rearrange` and `maximal` call no transcendental function, so their output
must match byte for byte.  Every other verb must keep the recorded layout
exactly (lines, keys and their order, header fields), with each number
within 1e-12 relative, since exp/log may differ by an ulp across platforms.

Regenerate the expected file (only when an output change is intended):
    PYTHONPATH=src python tests/test_cli_golden.py
"""
import json
import math
import re
from pathlib import Path

import pytest

from rlab.cli import run

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
EXACT = ("rearrange", "maximal")

FN = '{"breakpoints": [0.0, 0.15, 0.4, 0.7, 1.0], "values": [2.5, -1.0, 0.75, 3.0]}'
CHI = '{"breakpoints": [0.0, 0.25, 1.0], "values": [1.0, 0.0]}'
MEASURE = '{"density": {"breakpoints": [0.0, 0.3, 1.0], "values": [2.0, 0.5714285714285714]}}'
HALF = '{"density": {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 0.0]}}'
STEP_W = '{"breakpoints": [0, 0.4, 1], "values": [1.5, 0.7]}'
POW = '{"power_weight": {"alpha": -0.25, "coeff": 2.0}}'
POW0 = '{"power_weight": {"alpha": 0.0}}'
L23 = '{"kind": "lorentz_pq", "p": 2, "q": 3}'
GRAND = '{"kind": "grand_lorentz_pq", "p": 2, "q": 3}'
LAMBDA = '{"kind": "lambda_grand", "p": 2, "weight": {"power_weight": {"alpha": 0.0}}}'

# name -> (argv, whether the command writes --out to a file)
CORPUS = {
    "norm-plain": (["norm", "--spec", L23, "--fn", FN], True),
    "norm-grand": (["norm", "--spec", GRAND, "--fn", FN], True),
    "rearrange": (["rearrange", "--fn", FN], False),
    "rearrange-measure": (["rearrange", "--fn", FN, "--measure", MEASURE], False),
    "maximal": (["maximal", "--fn", FN, "--samples", "16"], False),
    "embed-check-wholds": (["embed-check", "--check", "wholds", "--p", "2", "--q", "3",
                            "--weight", POW], False),
    "embed-check-cross-weight": (["embed-check", "--check", "cross-weight", "--p", "2",
                                  "--q", "3", "--weight", POW, "--target-weight", STEP_W],
                                 False),
    "embed-check-downward": (["embed-check", "--check", "downward", "--p", "3", "--q", "1.5",
                              "--upper", "2", "--weight", STEP_W, "--target-weight", POW0],
                             False),
    "embed-check-domination": (["embed-check", "--check", "domination", "--mu", MEASURE,
                                "--nu", HALF], False),
    "embed-check-mutual-ac": (["embed-check", "--check", "mutual-ac", "--mu", MEASURE,
                               "--nu", HALF], False),
    "embed-check-empirical": (["embed-check", "--check", "empirical", "--source", GRAND,
                               "--target", L23, "--corpus-size", "6", "--seed", "4"], False),
    "embed-probe": (["embed-probe", "--p", "2", "--q", "1.5", "--r", "3", "--s", "3",
                     "--a-list", "1e-1,1e-3,1e-5"], False),
    "mollify-sweep-box": (["mollify-sweep", "--fn", FN, "--kernel", '{"kind": "box"}',
                           "--t-list", "0.2,0.05", "--spec", L23, "--cells", "64"], False),
    "mollify-sweep-triangle": (["mollify-sweep", "--fn", FN,
                                "--kernel", '{"kind": "triangle", "half_width": 0.5}',
                                "--t-list", "0.3,0.1,0.01", "--spec", LAMBDA,
                                "--cells", "64"], False),
    "mollify-sweep-bump": (["mollify-sweep", "--fn", CHI, "--kernel", '{"kind": "smooth_bump"}',
                            "--t-list", "0.2,0.1", "--spec", L23, "--cells", "64"], False),
    "eps-profile": (["eps-profile", "--fn", FN, "--spec", GRAND, "--grid", "16"], False),
}

_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")


def _outputs(name, tmp_dir, capsys):
    """{stream: text} of one corpus command: its stdout and, for a command
    that writes one, its --out file."""
    argv, out_file = CORPUS[name]
    got = {}
    if out_file:
        dest = Path(tmp_dir) / f"{name}.json"
        assert run(argv + ["--out", str(dest)]) == 0
        got["out"] = dest.read_text(encoding="utf-8")
    else:
        assert run(argv) == 0
    got["stdout"] = capsys.readouterr().out
    return got


def _same_layout(got: str, want: str) -> bool:
    """Equal text between the numbers, and each number within 1e-12 relative."""
    a, b = _NUMBER.split(got), _NUMBER.split(want)
    if len(a) != len(b) or a[::2] != b[::2]:
        return False
    return all(math.isclose(float(x), float(y), rel_tol=1e-12) for x, y in zip(a[1::2], b[1::2]))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_output_matches_the_golden_corpus(name, tmp_path, capsys):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = _outputs(name, tmp_path, capsys)
    assert sorted(got) == sorted(want)
    for stream in want:
        if name.startswith(EXACT):
            assert got[stream] == want[stream]
        else:
            assert _same_layout(got[stream], want[stream]), (stream, got[stream], want[stream])


if __name__ == "__main__":
    import argparse
    import contextlib
    import io
    import tempfile

    class _Stdout(io.StringIO):
        def readouterr(self):  # the one use of pytest's capsys above
            out = self.getvalue()
            self.seek(0)
            self.truncate()
            return argparse.Namespace(out=out)

    buf = _Stdout()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
        golden = {name: _outputs(name, tmp, buf) for name in sorted(CORPUS)}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
