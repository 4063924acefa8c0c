"""The stdout of the README commands, compared byte for byte with the
recorded outputs in tests/golden (regenerate one with
`python -m origamis.cli ARGS > tests/golden/NAME.json` after a deliberate
change of output). Outputs too large for a golden file are pinned by the
sha256 of their bytes. The help texts and one usage error are compared the
same way, from a fresh `python -m origamis` at 80 columns."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from origamis.cli import run
from test_cli import _src_env, _staircase_band

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "info": ["info", "--name", "ornithorynque", "--q", "5"],
    "veech": ["veech", "--name", "eierlegende-wollmilchsau",
              "--matrix", "[[1,1],[0,1]]"],
    "veech-orn5-contains": ["veech", "--name", "ornithorynque", "--q", "5",
                            "--matrix", "[[1,2],[0,1]]"],
    "veech-orn5-long-power": ["veech", "--name", "ornithorynque", "--q", "5",
                              "--matrix", "[[1,30000001],[0,1]]"],
    "homology": ["homology", "--name", "eierlegende-wollmilchsau"],
    "action": ["action", "--name", "ornithorynque", "--q", "3",
               "--matrix", "[[1,0],[1,1]]", "--basis", "H_rel"],
    "action-chain-matrix": ["action", "--name", "ornithorynque", "--q", "3",
                            "--matrix", "[[0,-1],[1,0]]"],
    "decompose": ["decompose", "--name", "ornithorynque", "--q", "3"],
    "group": ["group", "--name", "eierlegende-wollmilchsau",
              "--subspace", "H0", "--report"],
    "congruence": ["congruence", "--level", "4"],
    "growth": ["growth", "--name", "eierlegende-wollmilchsau", "--subspace",
               "H0", "--len", "1000", "--seed", "20100"],
    "cylinders": ["cylinders", "--name", "appendix-b", "--dir", "0,1"],
    "twist": ["twist", "--name", "appendix-b", "--dir", "1,1"],
    "cylinders-long": ["cylinders", "--name", "appendix-b", "--dir", "1000,1"],
    "twist-long": ["twist", "--name", "appendix-b", "--dir", "300,1"],
    "spin": ["spin", "--name", "ornithorynque", "--q", "3"],
    "supplement": ["supplement", "--name", "appendix-b",
                   "--probes", "vert,hor,diag"],
    "verify-theorem-a": ["verify", "theorem-a"],
    "verify-theorem-b": ["verify", "theorem-b"],
    "verify-theorem-b-q-5": ["verify", "theorem-b", "--q", "5"],
    "verify-appendix-a": ["verify", "appendix-a"],
    "verify-appendix-b": ["verify", "appendix-b"],
}


# the whole appendix-b orbit (1,344 surfaces) and its edge table: 611 KB;
# the spin bases of ornithorynque at q = 15 and q = 41 (122 classes at q = 41)
# and `group` on ornithorynque's H_tau at q = 41 and H_breve at q = 21, the
# largest closures the CLI runs within a test's time
PINNED_SHA256 = {
    # the odd-q family suite beyond the q = 5 golden file
    "verify-theorem-b-q-7": (
        ["verify", "theorem-b", "--q", "7"],
        "d2f3991248bc99cb71d9891bc42efcc3fc6f7972c0a7285ceb408db2dd88e54f"),
    "verify-theorem-b-q-15": (
        ["verify", "theorem-b", "--q", "15"],
        "262db939f1f88003e4c8095de2f0c10d2e073d747b8419a1d13830c438d1423e"),
    "verify-theorem-b-q-41": (
        ["verify", "theorem-b", "--q", "41"],
        "c6d35b32480282e0a13eb2cd676ec01398f3fa0943e4451d264d31d02b35ce9d"),
    "veech-appendix-b": (["veech", "--name", "appendix-b"],
                         "c2a27762be03ecd613e4ec15cc088d8d9e284079868befd65b417860171defa1"),
    "veech-appendix-b-long-power": (
        ["veech", "--name", "appendix-b", "--matrix", "[[1,30000000],[0,1]]"],
        "e5b1e064d0e528a50c546a8a9ee4aa4078f8b59bd1fad7d6fcb935b9f2d1a2ae"),
    "spin-orn-q-15": (["spin", "--name", "ornithorynque", "--q", "15"],
                      "a471c263c062e1902f66a319f8b22d7f434e408a92dd0375757df18a14803844"),
    "spin-orn-q-41": (["spin", "--name", "ornithorynque", "--q", "41"],
                      "47092ccd89e875c569fb39aad59a3672cd90d839c61211d77423fd31c741968f"),
    "group-orn-q-41-H_tau": (
        ["group", "--name", "ornithorynque", "--q", "41", "--subspace", "H_tau"],
        "3286610dfa343f5b0621a5f54ff8a91055fd4c901204166dbcecfc2a66777d05"),
    # a restricted matrix read off the canonical forms at the q cap
    "action-orn-q-41-S-H_breve": (
        ["action", "--name", "ornithorynque", "--q", "41", "--matrix", "[[0,-1],[1,0]]",
         "--basis", "H_breve"],
        "75169e8c81bb403c32436c6976ea6e908d8aaa87fc7dbcae9a090e2fad5e4ddb"),
    # the cycle lattices' reduced spans at the q cap, and a matrix_on block
    # read through one conversion of its basis
    "homology-orn-q-41": (
        ["homology", "--name", "ornithorynque", "--q", "41"],
        "cb4b92b3addad3f3daa25f6f8fdba0559c0793e8b63363162ad1aa354a296c83"),
    "action-orn-q-15-T2-H_tau": (
        ["action", "--name", "ornithorynque", "--q", "15", "--matrix", "[[1,2],[0,1]]",
         "--basis", "H_tau"],
        "59892f395ac89a6aaa5f0dad09dcb2e7b7270b2252cf3e76819cce004ac59a64"),
    # a multitwist and the decomposition at the q cap, read off the reducer
    "twist-orn-q-41-dir-3-2": (
        ["twist", "--name", "ornithorynque", "--q", "41", "--dir", "3,2"],
        "dbe0c36d803ac1215358b63946517fbce9465e1d1d3033f38556526535b95929"),
    "decompose-orn-q-41": (
        ["decompose", "--name", "ornithorynque", "--q", "41"],
        "3eaa403afb8a55f5e852fd7c7298f7a511233ec8d4639488f1e398a90c24f6a2"),
    "group-orn-q-21-Hbreve": (
        ["group", "--name", "ornithorynque", "--q", "21", "--subspace", "Hbreve"],
        "f70d9ac08935ca657367dc92c8c1d7de3f0472d2f9243b306690898f00a3e4bb"),
    # `supplement` in its three outcomes: feasible with a unique section,
    # feasible with a particular solution of an underdetermined system, and
    # infeasible at the last probe with s = (5/12, -5/24) forced
    "supplement-vert-hor": (
        ["supplement", "--name", "appendix-b", "--probes", "vert,hor"],
        "e3e58efcbfceb6e1231265f9efa8b7a3f25a35f4fd0dc400f5b66afd1350b8d6"),
    "supplement-hor": (
        ["supplement", "--name", "appendix-b", "--probes", "hor"],
        "883125d577cfe874b6cec2c413e3c00684dae81b2a54b5edfd543e9141eb4fdb"),
    "supplement-diag-vert-hor": (
        ["supplement", "--name", "appendix-b", "--probes", "diag,vert,hor"],
        "b4965439d8b2db970b00eda65782b8b1565040ff0633e03c812672ac3742afa2"),
}


# `spin --origami` on (n, r, u) files: odd parity in H(2), H(4) and H(2,2)
# and the even hyperelliptic H(4), each with a basis chain that is a sum of
# several closed walks
PINNED_SPIN_FILES = {
    "spin-h2-odd": ((4, [3, 1, 0, 2], [0, 3, 2, 1]),
                    "18c4c1ffdda86764cbac1a89c850781a1b7ab1b7d0707fef353c75ef8f5ea31d"),
    "spin-h4-odd": ((5, [3, 1, 0, 4, 2], [2, 3, 0, 1, 4]),
                    "5270d6033a654855ab32f8f992e80be8cf8303b2c36b87e3f81824b2f6a305f3"),
    "spin-h4-hyp-even": ((5, [3, 0, 2, 4, 1], [4, 1, 3, 2, 0]),
                         "47e1fc0bfdbe6e7306e20b1f17103975f6ca6ae67062253ae7f0a8f1b2dbe9ee"),
    "spin-h22-odd": ((6, [1, 3, 4, 2, 5, 0], [4, 3, 1, 5, 2, 0]),
                     "8af5fffd4e3e3188cb7fcf2096c721d7544ae6b74a475d12f92bccc8a4eae415"),
}


# `--origami` polygon files: the staircase band at the area cap (164
# squares, 330 sides) and two octagons in H(2), whose offsets are the third
# candidate (3/7, 2/7) and the fourth (5/11, 3/11)
OCT3 = [[0, 0], [2, 1], [5, 5], [5, 6], [4, 7], [2, 6], [-1, 2], [-1, 1]]
OCT4 = [[0, 0], [2, 1], [5, 3], [6, 4], [6, 5], [4, 4], [1, 2], [0, 1]]
PINNED_POLYGON_FILES = {
    "band-82-info": ((_staircase_band(82), ["info"]),
                     "253c954c532c1c58023ca42bf9ed2a2b90660db515f5c087a7f20c919a7a7e0c"),
    "oct3-info": ((OCT3, ["info"]),
                  "59b5493f5e61cc0489d7f75a7a283beb1cb29c69ecc4a088ba433e1b2e1e5556"),
    "oct3-cylinders": ((OCT3, ["cylinders", "--dir", "1,1"]),
                       "ace732ef8dc04564a3620567329780619b2baeb060e58e63166f87b505e00db8"),
    "oct4-info": ((OCT4, ["info"]),
                  "35e81c073d30e1ce7cc5a05472d3146b4f7bd4cc67b7322b5439f9a6af9ceb2e"),
    "oct4-cylinders": ((OCT4, ["cylinders", "--dir", "1,1"]),
                       "951402b79a9e61a0a06dffad484d69bc22bd644b9358b9013b5f4c3eb5667ff9"),
}


def _stdout(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(args)
    assert code == 0
    return out.getvalue().encode()


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(name):
    assert _stdout(COMMANDS[name]) == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_pinned_stdout_sha256(name):
    args, digest = PINNED_SHA256[name]
    assert hashlib.sha256(_stdout(args)).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED_SPIN_FILES))
def test_pinned_spin_file_sha256(name, tmp_path):
    (n, r, u), digest = PINNED_SPIN_FILES[name]
    path = tmp_path / "origami.json"
    path.write_text(json.dumps({"n": n, "r": r, "u": u}))
    assert hashlib.sha256(_stdout(["spin", "--origami", str(path)])).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED_POLYGON_FILES))
def test_pinned_polygon_file_sha256(name, tmp_path):
    (vertices, (command, *options)), digest = PINNED_POLYGON_FILES[name]
    path = tmp_path / "origami.json"
    path.write_text(json.dumps({"vertices": vertices}))
    stdout = _stdout([command, "--origami", str(path), *options])
    assert hashlib.sha256(stdout).hexdigest() == digest


# argv, the stream it writes, its exit code and the golden file of that text
HELP_TEXTS = {
    "help": (["--help"], "stdout", 0),
    "help-verify": (["verify", "--help"], "stdout", 0),
    "usage-verify-bad-suite": (["verify", "nosuch"], "stderr", 2),
}


@pytest.mark.parametrize("name", sorted(HELP_TEXTS))
def test_help_and_usage_texts(name):
    argv, stream, code = HELP_TEXTS[name]
    # argparse wraps at the terminal width
    proc = subprocess.run([sys.executable, "-m", "origamis", *argv],
                          capture_output=True, env=_src_env() | {"COLUMNS": "80"},
                          timeout=120)
    assert proc.returncode == code
    assert getattr(proc, stream) == (GOLDEN / f"{name}.txt").read_bytes()
    assert getattr(proc, "stderr" if stream == "stdout" else "stdout") == b""
