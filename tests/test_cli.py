import argparse
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from origamis.cli import _BOUNDS, build_parser, run


def capture(argv):
    old = sys.stdout
    sys.stdout = io.StringIO()
    try:
        code = run(argv)
        text = sys.stdout.getvalue()
    finally:
        sys.stdout = old
    return code, text


def test_info_ornithorynque():
    code, text = capture(["info", "--name", "ornithorynque", "--q", "5"])
    report = json.loads(text)
    assert code == 0
    assert report["genus"] == 7
    assert report["stratum"] == [4, 4, 4]
    assert report["veech_index"] == 3


def test_info_deterministic():
    runs = [capture(["info", "--name", "eierlegende-wollmilchsau"])
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_origami_file_roundtrip(tmp_path):
    path = tmp_path / "origami.json"
    data = {"n": 2, "r": [1, 0], "u": [0, 1], "base": 0}
    path.write_text(json.dumps(data))
    code, text = capture(["info", "--origami", str(path)])
    report = json.loads(text)
    assert code == 0 and report["n"] == 2
    assert report["r"] == [1, 0] and report["u"] == [0, 1]


def test_polygon_file(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    code, text = capture(["info", "--origami", str(path)])
    assert code == 0 and json.loads(text)["genus"] == 1


# sides (2,1), (5,3) and (3,2): each offset candidate o has a side (a, b)
# with b o_x - a o_y an integer, so a point of o + Z^2 on the boundary
NO_OFFSET_HEXAGON = [[0, 0], [2, 1], [7, 4], [10, 6], [8, 5], [3, 2]]


def test_polygon_without_a_generic_offset_is_domain_error(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"vertices": NO_OFFSET_HEXAGON}))
    code, text = capture(["info", "--origami", str(path)])
    assert code == 1
    assert json.loads(text) == {"error": "NotSimple",
                                "message": "no generic offset found"}


def test_vertex_on_a_later_side_is_domain_error(tmp_path):
    """Vertex (1,-3) lies on the later side from (-2,-2) to (4,-4) once the
    orientation is reversed."""
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [6, -2], [5, -3], [4, -4],
                                             [-2, -2], [0, -4], [1, -3], [2, -2]]}))
    code, text = capture(["info", "--origami", str(path)])
    assert code == 1
    assert json.loads(text) == {"error": "NotSimple",
                                "message": "vertex lies on a non-adjacent side"}


def test_malformed_file_is_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "r": [0, 0, 1], "u": [1, 2, 0]}))
    code, text = capture(["info", "--origami", str(path)])
    assert code == 1
    assert json.loads(text)["error"] == "NotPermutation"


def test_verify_exit_code():
    code, text = capture(["verify", "appendix-a"])
    assert code == 0
    assert json.loads(text)["pass"] is True


def test_verify_choices_are_the_suites():
    # the parser lists the suites without running `verification`
    from origamis.cli import SUITE_NAMES
    from origamis.verification import VERIFY_SUITES
    assert list(SUITE_NAMES) == sorted(VERIFY_SUITES)


def test_spin_error_exit_code():
    code, text = capture(["spin", "--name", "eierlegende-wollmilchsau"])
    assert code == 1
    assert json.loads(text)["error"] == "OddOrderZeros"


@pytest.mark.parametrize("argv", [
    ["decompose", "--origami", "FILE"],
    ["group", "--origami", "FILE"],
    ["growth", "--origami", "FILE"],
    ["action", "--origami", "FILE", "--matrix", "[[1,0],[0,1]]", "--basis", "H1_0"],
    ["decompose", "--name", "appendix-b"],
], ids=["decompose", "group", "growth", "action-basis", "decompose-appendix-b"])
def test_surface_without_a_named_decomposition_is_domain_error(tmp_path, argv):
    """A surface other than the two with named decompositions answers a
    JSON error with exit 1 that names what was asked and the two names."""
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"n": 1, "r": [0], "u": [0]}))
    code, text = capture([str(path) if x == "FILE" else x for x in argv])
    message = json.loads(text)["message"]
    assert code == 1
    assert "eierlegende-wollmilchsau" in message and "ornithorynque" in message
    assert "None" not in message
    assert (str(path) if "FILE" in argv else "appendix-b") in message


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        capture(["no-such-command"])
    assert info.value.code == 2


def test_twist_subcommand():
    code, text = capture(["twist", "--name", "appendix-b", "--dir", "0,1"])
    report = json.loads(text)
    assert code == 0
    assert report["linear"] == [[1, 0], [120, 1]]
    assert report["k"] == "120"


def test_cylinders_deterministic():
    args = ["cylinders", "--name", "appendix-b", "--dir", "1,1"]
    assert capture(args) == capture(args)


def test_congruence_subcommand():
    code, text = capture(["congruence", "--level", "2"])
    report = json.loads(text)
    assert code == 0 and report["level"] == 2
    assert all(all(x % 2 == 0 for x in (m[0][0] - 1, m[0][1], m[1][0],
                                        m[1][1] - 1))
               for m in report["matrices"])


def _src_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_python_dash_m_runs_the_cli():
    argv = ["congruence", "--level", "2"]
    proc = subprocess.run([sys.executable, "-m", "origamis", *argv],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["command"] == "congruence" and report["level"] == 2
    assert proc.stdout == capture(argv)[1]


def test_closed_stdout_is_a_quiet_exit():
    """A reader that stops after one line (as `| head -1` does) closes the
    pipe while the report, about 600 kB, is still being written: exit 1
    with nothing on stderr, not a BrokenPipeError traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "origamis", "veech", "--name", "appendix-b"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert stderr == b""


def test_action_restricted():
    code, text = capture(["action", "--name", "ornithorynque", "--q", "3",
                          "--matrix", "[[1,0],[1,1]]", "--basis", "H_rel"])
    assert code == 0
    report = json.loads(text)
    assert len(report["restricted"]) == 2


def test_supplement_subcommand():
    code, text = capture(["supplement", "--name", "appendix-b",
                          "--probes", "vert,hor,diag"])
    report = json.loads(text)
    assert code == 0
    assert report["feasible"] is False
    assert report["forced"] == {"s_0": "1/6", "s_1": "-5/24"}


def test_homology_subcommand():
    code, text = capture(["homology", "--name", "eierlegende-wollmilchsau"])
    report = json.loads(text)
    assert code == 0 and report["relation_rank"] == 7
    assert report["h1_0_abs_dim"] == 4


def test_decompose_subcommand():
    code, text = capture(["decompose", "--name", "ornithorynque", "--q", "3"])
    report = json.loads(text)
    assert code == 0 and report["pass"] is True
    assert report["subspace_dims"] == {"H1_st": 2, "H_rel": 2,
                                       "H_tau": 2, "H_breve": 4}


GENUS_ONE = {"n": 5, "r": [0, 1, 2, 3, 4], "u": [1, 3, 4, 2, 0]}


FILE = ["info", "--origami", "{path}"]
EW = ["--name", "eierlegende-wollmilchsau"]
AB = ["--name", "appendix-b"]


@pytest.mark.parametrize("argv,content,error", [
    (FILE, None, "BadInputFile"),                 # missing file
    (FILE, "directory", "BadInputFile"),          # unreadable: a directory
    (FILE, "{not json", "BadInputFile"),          # malformed JSON
    (FILE, json.dumps({"n": 2, "r": [1, 0]}), "BadInputFile"),  # missing "u"
    (FILE, json.dumps({"n": 2, "r": 7, "u": [0, 1]}), "BadInputFile"),
    (FILE, json.dumps([1, 2]), "BadInputFile"),   # not an object
    (["twist", *AB, "--dir", "1"], None, "BadArgument"),
    (["cylinders", *AB, "--dir", "a,b"], None, "BadArgument"),
    (["twist", *AB, "--dir", "0,0"], None, "BadArgument"),
    (["action", *EW, "--matrix", "[[1,1],[0,1]"], None, "BadArgument"),
    (["action", *EW, "--matrix", "[[1,1],[0]]"], None, "BadArgument"),
    (["veech", *EW, "--matrix", "[[1,0.5],[0,1]]"], None, "BadArgument"),
    (["veech", *EW, "--matrix", "[[2,0],[0,1]]"], None, "BadArgument"),
    (["action", *EW, "--matrix", "[[1,1],[1,1]]"], None, "BadArgument"),
    (["action", *EW, "--matrix", "[[1,1],[0,1]]", "--aut", "[0,"], None,
     "BadArgument"),
    (["group", *EW, "--cap", "-1"], None, "BadArgument"),
    (["growth", *EW, "--len", "0"], None, "BadArgument"),
    (["growth", *EW, "--trials", "0"], None, "BadArgument"),
    (["congruence", "--level", "1"], None, "BadArgument"),
    (["action", "--name", "ornithorynque", "--q", "3", "--matrix",
      "[[1,0],[1,1]]", "--basis", "nope"], None, "BadArgument"),
    (["group", *EW, "--subspace", "nope"], None, "BadArgument"),
    (["supplement", *AB, "--probes", "foo"], None, "BadArgument"),
    (["supplement", *AB, "--probes", ""], None, "BadArgument"),
    (["verify", "theorem-b", "--q", "0"], None, "EvenQ"),
    (["verify", "theorem-b", "--q", "1"], None, "EvenQ"),
    (["action", "--origami", "{path}", "--matrix", "[[1,1],[0,1]]"],
     json.dumps({"n": 1, "r": [0], "u": [0], "base": 5}), "BadInputFile"),
    (FILE, json.dumps({"n": 2, "r": [1, 0], "u": [0, 1], "base": -1}),
     "BadInputFile"),
    (FILE, json.dumps({"n": 2.0, "r": [1, 0], "u": [0, 1]}), "BadInputFile"),
    (FILE, json.dumps({"n": True, "r": [0], "u": [0]}), "BadInputFile"),
    (FILE, json.dumps({"n": 2, "r": [True, False], "u": [0, 1]}),
     "BadInputFile"),
    (FILE, json.dumps({"vertices": [[0, 0], [True, 0], [1, 1], [0, 1]]}),
     "BadInputFile"),
    (FILE, json.dumps({"vertices": [[0, 0], [2.0, 0], [2, 2], [0, 2]]}),
     "BadInputFile"),
    (FILE, json.dumps({"vertices": [[0, 0], [2.5, 0], [2, 2], [0, 2]]}),
     "BadInputFile"),
    (["verify", "theorem-a", "--q", "5"], None, "BadArgument"),
    (["verify", "appendix-a", "--q", "5"], None, "BadArgument"),
    (["verify", "appendix-b", "--q", "5"], None, "BadArgument"),
    (["info", *EW, "--q", "3"], None, "BadArgument"),
    (["decompose", *AB, "--q", "3"], None, "BadArgument"),
    ([*FILE, "--q", "3"], json.dumps({"n": 2, "r": [1, 0], "u": [0, 1]}),
     "BadArgument"),
], ids=["missing", "unreadable", "not-json", "missing-key", "wrong-type",
        "not-object", "dir-one-number", "dir-not-integers", "dir-zero",
        "matrix-not-json", "matrix-not-2x2", "matrix-not-integer",
        "veech-matrix-det-2", "action-matrix-det-0", "aut-not-json",
        "cap-negative", "len-zero", "trials-zero", "level-one",
        "basis-unknown", "subspace-unknown", "probes-unknown", "probes-empty",
        "verify-q-zero", "verify-q-one", "base-past-n", "base-negative",
        "n-float", "n-bool", "images-bool", "vertex-bool", "vertex-float",
        "vertex-fraction", "q-unread-theorem-a",
        "q-unread-appendix-a", "q-unread-appendix-b", "q-unread-ew",
        "q-unread-appendix-b-name", "q-unread-origami-file"])
def test_bad_origami_file_is_usage_error(tmp_path, argv, content, error):
    """Bad --origami files and bad option values answer a JSON error, not a
    traceback: exit code 2 for a usage error, 1 for a domain error such as
    an even or too small --q (0 is a value, not "not given")."""
    path = tmp_path / "origami.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    code, text = capture([str(path) if a == "{path}" else a for a in argv])
    assert code == (2 if error in ("BadArgument", "BadInputFile") else 1)
    assert json.loads(text)["error"] == error


SQUARES = 100_000


def _staircase_band(k):
    """k steps of (1,0),(0,1), then (0,1), then k steps of (-1,0),(0,-1),
    then (0,-1): 2k squares, 4k + 2 sides, k(k+1) bounding-box cells and
    k! (k+1)! side matchings."""
    pts = [[0, 0]]
    for dx, dy in [(1, 0), (0, 1)] * k + [(0, 1)] + [(-1, 0), (0, -1)] * k:
        pts.append([pts[-1][0] + dx, pts[-1][1] + dy])
    return pts


def _parallelogram(n):
    """A one-square unimodular parallelogram whose bounding box holds about
    4 n^2 cells."""
    return [[0, 0], [n, n + 1], [2 * n - 1, 2 * n + 1], [n - 1, n]]


@pytest.mark.parametrize("argv,content", [
    (["info", "--name", "ornithorynque", "--q", "10001"], None),
    (["verify", "theorem-b", "--q", "43"], None),
    (FILE, json.dumps({"n": SQUARES, "r": list(range(SQUARES)),
                       "u": list(range(SQUARES))})),
    (FILE, json.dumps({"vertices": [[0, 0], [1000, 0], [1000, 1000],
                                    [0, 1000]]})),
    (FILE, json.dumps({"vertices": [[0, 0], [15, 0], [15, 11], [0, 11]]})),
    (FILE, json.dumps({"vertices": _parallelogram(10_000)})),
    (["congruence", "--level", "33"], None),
    (["group", "--name", "ornithorynque", "--q", "41", "--subspace", "Hbreve",
      "--cap", "20001"], None),
    (["growth", "--name", "ornithorynque", "--q", "41", "--subspace", "Hbreve",
      "--len", "10001"], None),
    (["growth", "--name", "ornithorynque", "--q", "41", "--subspace", "Hbreve",
      "--trials", "101"], None),
], ids=["q-10001", "verify-q-43", "file-n", "polygon-area", "polygon-165",
        "polygon-bbox", "congruence-level-33", "group-cap-20001",
        "growth-len-10001", "growth-trials-101"])
def test_size_above_its_cap_is_usage_error_at_once(tmp_path, argv, content):
    """--q above 41, an --origami file of more than 164 squares (its n,
    or its polygon's area), a polygon whose bounding box holds more than
    10,000 cells, --level above 32, --cap above 20,000, --len above 10,000
    and --trials above 100 answer BadArgument with exit code 2 before any
    surface or group is built."""
    path = tmp_path / "origami.json"
    if content is not None:
        path.write_text(content)
    start = time.perf_counter()
    code, text = capture([str(path) if a == "{path}" else a for a in argv])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(text)["error"] == "BadArgument"


def test_every_integer_option_but_the_seed_has_an_upper_bound():
    """Each type=int option of every command, --seed aside, has a finite
    most value in _BOUNDS, so that no size comes back unbounded."""
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {a.dest for p in commands.values() for a in p._actions
               if a.type is int}
    assert {"cap", "len", "trials", "level", "q", "seed"} <= options
    for option in options - {"seed"}:
        assert option in _BOUNDS and _BOUNDS[option][1] is not None, option


def test_sizes_at_their_caps_are_accepted(tmp_path):
    code, text = capture(["info", "--name", "ornithorynque", "--q", "41"])
    assert code == 0 and json.loads(text)["n"] == 164
    report = json.loads(text)
    path = tmp_path / "origami.json"
    path.write_text(json.dumps({k: report[k] for k in ("n", "r", "u")}))
    code, text = capture(["info", "--origami", str(path)])
    assert code == 0 and json.loads(text) == report


@pytest.mark.parametrize("k", [4, 6, 8, 82])
def test_staircase_band_sides_are_paired_at_once(tmp_path, k):
    # k! (k+1)! matchings: 2,880, 3,628,800 and 14,631,321,600; k = 82 is
    # the area cap, 164 squares, 330 sides and 6,806 bounding-box cells,
    # with a bound of its own
    path = tmp_path / "origami.json"
    path.write_text(json.dumps({"vertices": _staircase_band(k)}))
    start = time.perf_counter()
    code, text = capture(["info", "--origami", str(path)])
    assert time.perf_counter() - start < (2 if k == 82 else 1)
    assert code == 0 and json.loads(text)["n"] == 2 * k


def test_small_slanted_parallelogram_is_accepted(tmp_path):
    path = tmp_path / "origami.json"
    path.write_text(json.dumps({"vertices": _parallelogram(3)}))
    code, text = capture(["info", "--origami", str(path)])
    report = json.loads(text)
    assert code == 0 and report["n"] == 1 and report["genus"] == 1


def test_level_at_its_cap_is_accepted(monkeypatch):
    """--level 32 passes the bound check; the command itself (seconds and
    megabytes of output) is replaced by a stub that records its level."""
    import origamis.cli as cli
    levels = []
    monkeypatch.setattr(cli, "cmd_congruence",
                        lambda args: levels.append(args.level) or {"ok": True})
    code, text = capture(["congruence", "--level", "32"])
    assert (code, json.loads(text), levels) == (0, {"ok": True}, [32])


def test_unknown_probe_names_the_known_ones():
    code, text = capture(["supplement", *AB, "--probes", "vert,foo"])
    assert code == 2
    message = json.loads(text)["message"]
    assert all(name in message for name in ("foo", "vert", "hor", "diag"))


def test_group_cap_below_finite_order():
    """The H0 image of the Wollmilchsau is finite, so a cap below its order
    finds no growing word: a JSON error with exit 1, not a traceback."""
    code, text = capture(["group", *EW, "--subspace", "H0", "--cap", "5"])
    assert code == 1
    assert json.loads(text)["error"] == "OrderExceedsCap"


def test_aut_of_wrong_size_is_domain_error():
    """An --aut permutation of another number of squares is no automorphism:
    a JSON error with exit 1, not a traceback."""
    code, text = capture(["action", *EW, "--matrix", "[[1,0],[0,1]]",
                          "--aut", "[0,1,2,3,4,5,6,7,8]"])
    assert code == 1
    assert json.loads(text)["error"] == "NotAutomorphism"


def test_twist_genus_one_file(tmp_path):
    path = tmp_path / "torus5.json"
    path.write_text(json.dumps(GENUS_ONE))
    code, text = capture(["twist", "--origami", str(path), "--dir", "1,0"])
    assert code == 0
    report = json.loads(text)
    assert report["direction"] == [1, 0]
    assert report["linear"][1][0] == 0 and report["linear"][0][1] > 0
