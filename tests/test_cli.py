"""End-to-end command line behaviour via main(argv)."""
import codecs
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latmod import bousfield
from latmod.cli import main


@pytest.fixture()
def cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def pentagon_model_file(tmp_path):
    return write_json(
        tmp_path / "model.json",
        {
            "weq": [["0", "A"], ["0", "B"], ["0", "C"], ["A", "C"]],
            "af": [["0", "A"], ["0", "B"], ["0", "C"]],
        },
    )


def test_lattice_check(cli):
    code, out, err = cli("lattice", "check", "--lattice", "builtin:square")
    assert (code, out, err) == (0, "OK: lattice, modular\n", "")
    code, out, _ = cli("lattice", "check", "--lattice", "builtin:n5")
    assert (code, out) == (0, "OK: lattice, nonmodular\n")


def test_lattice_check_rejects_non_lattices(cli, tmp_path):
    path = write_json(
        tmp_path / "poset.json", {"elements": ["a", "b"], "covers": []}
    )
    code, out, err = cli("lattice", "check", "--lattice", path)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_lattice_info(cli):
    code, out, _ = cli("lattice", "info", "--lattice", "builtin:n5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "elements: 5 (0, A, B, C, 1)"
    assert lines[2] == "arrows: 8"
    assert lines[3] == "bottom: 0  top: 1"
    assert lines[4] == "modular: no"


@pytest.mark.parametrize(
    "data",
    [
        {"elements": [0, 1, 2], "covers": [[0, 1], [1, 2]]},
        {"elements": ["a"], "covers": [["a"]]},
        {"elements": "ab", "covers": []},
    ],
    ids=["integer-labels", "one-element-cover", "string-elements"],
)
def test_malformed_lattice_json_is_invalid_input(cli, tmp_path, data):
    path = write_json(tmp_path / "bad.json", data)
    code, out, err = cli("lattice", "info", "--lattice", path)
    assert (code, out) == (3, "")
    assert err.startswith("error: lattice ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,data",
    [
        (("transfers", "generate", "--arrows"), {"arrows": "ab"}),
        (("transfers", "generate", "--arrows"), {"arrows": [["0", "A", "C"]]}),
        (("transfers", "generate", "--arrows"), {"arrows": 5}),
        (("localize", "--side", "left", "--at", "0,A", "--model"), {"weq": 5, "af": []}),
        (
            ("localize", "--side", "left", "--at", "0,A", "--model"),
            {"weq": [["0"]], "af": []},
        ),
    ],
    ids=["string-arrows", "triple", "integer-arrows", "integer-weq", "one-label-weq"],
)
def test_malformed_arrow_set_and_model_json_are_invalid_input(
    cli, tmp_path, argv, data
):
    path = write_json(tmp_path / "bad.json", data)
    code, out, err = cli(*argv, path, "--lattice", "builtin:n5")
    assert (code, out) == (3, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe", b"[" * 200_000, b"[" + b"1" * 5000 + b"]"],
    ids=["not-utf8", "too-deep", "long-integer"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("lattice", "check", "--lattice"),
        ("transfers", "generate", "--lattice", "builtin:n5", "--arrows"),
    ],
    ids=["lattice", "arrows"],
)
def test_unreadable_json_files_are_invalid_input(cli, tmp_path, argv, content):
    # Bytes that are no UTF-8, an array nested past the parser's recursion
    # limit and an integer past the interpreter's 4300-digit limit are
    # refused like malformed JSON: one error line.
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = cli(*argv, str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path} ")
    assert err.count("\n") == 1


def test_unknown_builtin_is_invalid_input(cli):
    code, _, err = cli("lattice", "check", "--lattice", "builtin:bogus")
    assert code == 3
    assert "bogus" in err


def test_transfers_count(cli):
    code, out, _ = cli(
        "transfers", "enumerate", "--lattice", "builtin:n5", "--format", "count"
    )
    assert (code, out) == (0, "26\n")


def test_transfers_json_catalog(cli):
    code, out, _ = cli("transfers", "enumerate", "--lattice", "builtin:n5")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 26
    assert len(data["systems"]) == 26
    assert data["systems"][0]["arrows"] == []
    assert len(data["systems"][-1]["arrows"]) == 8


def test_enumeration_takes_no_strategy_or_jobs(cli):
    code, out, _ = cli(
        "--jobs", "2", "transfers", "enumerate", "--lattice", "builtin:n5"
    )
    assert (code, out) == (2, "")
    code, out, _ = cli(
        "transfers", "enumerate", "--lattice", "builtin:n5",
        "--strategy", "exhaustive",
    )
    assert (code, out) == (2, "")


def test_transfers_dual(cli, tmp_path):
    arrows = write_json(tmp_path / "a.json", {"arrows": [["A", "C"]]})
    code, out, _ = cli(
        "transfers", "dual", "--lattice", "builtin:n5", "--arrows", arrows
    )
    assert code == 0
    data = json.loads(out)
    assert data["llp"] == [
        ["0", "A"],
        ["0", "B"],
        ["0", "1"],
        ["A", "1"],
        ["B", "1"],
        ["C", "1"],
    ]
    assert ["A", "C"] not in data["rlp"]


def test_transfers_generate(cli, tmp_path):
    arrows = write_json(tmp_path / "a.json", {"arrows": [["A", "1"]]})
    code, out, _ = cli(
        "transfers", "generate", "--lattice", "builtin:n5", "--arrows", arrows
    )
    assert code == 0
    assert json.loads(out) == {
        "arrows": [["0", "B"], ["A", "C"], ["A", "1"]]
    }


def test_models_count_only(cli):
    code, out, _ = cli(
        "models", "enumerate", "--lattice", "builtin:n5", "--count-only"
    )
    assert (code, out) == (0, "70\n")


def test_models_count_only_on_chain7(cli):
    code, out, _ = cli(
        "models", "enumerate", "--lattice", "builtin:chain7", "--count-only"
    )
    assert (code, out) == (0, "6435\n")


def test_models_json(cli):
    code, out, _ = cli("models", "enumerate", "--lattice", "builtin:square")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 23
    assert sorted(data["models"][0]) == [
        "acyclic_cofibrations",
        "af",
        "cofibrations",
        "fibrations",
        "weq",
    ]


def test_models_csv(cli):
    code, out, _ = cli(
        "models",
        "enumerate",
        "--lattice",
        "builtin:square",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weq,t_min,t_max,af_count,af_interval"
    assert len(lines) == 11  # header + one row per weak equivalence set
    assert lines[1].startswith("{}")


def test_models_dot(cli):
    code, out, _ = cli(
        "models", "enumerate", "--lattice", "builtin:chain1", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph model_structures {")


def test_models_verify(cli, tmp_path, pentagon_model_file):
    weq = write_json(
        tmp_path / "w.json",
        {"arrows": [["0", "A"], ["0", "B"], ["0", "C"], ["A", "C"]]},
    )
    good_af = write_json(
        tmp_path / "af.json", {"arrows": [["0", "A"], ["0", "B"], ["0", "C"]]}
    )
    bad_af = write_json(tmp_path / "bad.json", {"arrows": []})
    ok = cli(
        "models",
        "verify",
        "--lattice",
        "builtin:n5",
        "--weq",
        weq,
        "--af",
        good_af,
        "--expect-valid",
    )
    assert ok[0] == 0
    assert json.loads(ok[1]) == {"valid": True}
    # an AF below t_min is rejected but only fails with --expect-valid
    code, out, _ = cli(
        "models", "verify", "--lattice", "builtin:n5", "--weq", weq, "--af", bad_af
    )
    assert code == 0
    assert json.loads(out) == {"valid": False}
    code, out, _ = cli(
        "models",
        "verify",
        "--lattice",
        "builtin:n5",
        "--weq",
        weq,
        "--af",
        bad_af,
        "--expect-valid",
    )
    assert code == 1
    assert json.loads(out) == {"valid": False}


def test_models_interval(cli, tmp_path):
    every = write_json(
        tmp_path / "all.json",
        {
            "arrows": [
                ["0", "A"],
                ["0", "B"],
                ["0", "C"],
                ["0", "1"],
                ["A", "C"],
                ["A", "1"],
                ["B", "1"],
                ["C", "1"],
            ]
        },
    )
    code, out, _ = cli(
        "models",
        "interval",
        "--lattice",
        "builtin:n5",
        "--weq",
        every,
        "--format",
        "count",
    )
    assert (code, out) == (0, "26\n")
    code, out, _ = cli(
        "models", "interval", "--lattice", "builtin:n5", "--weq", every
    )
    data = json.loads(out)
    assert data["count"] == 26
    assert data["t_min"] == []
    assert len(data["t_max"]) == 8
    code, out, _ = cli(
        "models", "interval", "--lattice", "builtin:n5", "--weq", every,
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph af_interval {\n")
    assert sum(" [label=" in line for line in out.splitlines()) == 26


def test_models_interval_rejects_non_weq(cli, tmp_path):
    broken = write_json(
        tmp_path / "w.json", {"arrows": [["0", "A"], ["A", "C"]]}
    )
    code, _, err = cli(
        "models", "interval", "--lattice", "builtin:n5", "--weq", broken
    )
    assert code == 3
    assert err.startswith("error:")


def test_localize_right_reports_golden_arrows(cli, pentagon_model_file):
    code, out, _ = cli(
        "localize",
        "--lattice",
        "builtin:n5",
        "--model",
        pentagon_model_file,
        "--side",
        "right",
        "--at",
        "C,1",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["model"]["weq"]) == 8
    assert data["model"]["af"] == [
        ["0", "A"],
        ["0", "B"],
        ["0", "C"],
        ["0", "1"],
        ["B", "1"],
        ["C", "1"],
    ]
    assert len(data["golden_arrows"]) == 2
    for report in data["golden_arrows"]:
        assert report["arrows"] == [["B", "1"], ["C", "1"]]


def test_localize_right_runs_the_fixpoint_once(
    cli, monkeypatch, pentagon_model_file
):
    # The lattice is built anew, so its localization map starts empty; the
    # golden reports read the entry right localization left there.
    calls = []
    fixpoint = bousfield._weq_fixpoint

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return fixpoint(*args, **kwargs)

    monkeypatch.setattr(bousfield, "_weq_fixpoint", counted)
    code, out, _ = cli(
        "localize",
        "--lattice",
        "builtin:n5",
        "--model",
        pentagon_model_file,
        "--side",
        "right",
        "--at",
        "C,1",
    )
    assert code == 0 and len(json.loads(out)["golden_arrows"]) == 2
    assert len(calls) == 1


def test_localize_left_keeps_af(cli, pentagon_model_file):
    code, out, _ = cli(
        "localize",
        "--lattice",
        "builtin:n5",
        "--model",
        pentagon_model_file,
        "--side",
        "left",
        "--at",
        "C,1",
    )
    assert code == 0
    data = json.loads(out)
    assert "golden_arrows" not in data
    assert len(data["model"]["weq"]) == 8
    assert data["model"]["af"] == [["0", "A"], ["0", "B"], ["0", "C"]]


def test_localize_at_a_long_arrow_skips_golden_report(cli, tmp_path):
    model = write_json(tmp_path / "m.json", {"weq": [], "af": []})
    code, out, _ = cli(
        "localize",
        "--lattice",
        "builtin:n5",
        "--model",
        model,
        "--side",
        "right",
        "--at",
        "0,1",
    )
    assert code == 0
    data = json.loads(out)
    assert "golden_arrows" not in data
    assert ["0", "1"] in data["model"]["weq"]


def test_localize_at_handles_labels_with_commas(cli, tmp_path):
    model = write_json(tmp_path / "m.json", {"weq": [], "af": []})
    code, out, _ = cli(
        "localize",
        "--lattice",
        "builtin:square",
        "--model",
        model,
        "--side",
        "left",
        "--at",
        "(1,0),(1,1)",
    )
    assert code == 0
    assert ["(1,0)", "(1,1)"] in json.loads(out)["model"]["weq"]


def test_localize_at_rejects_unknown_and_ambiguous(cli, tmp_path):
    model = write_json(tmp_path / "m.json", {"weq": [], "af": []})
    code, _, err = cli(
        "localize",
        "--lattice",
        "builtin:n5",
        "--model",
        model,
        "--side",
        "left",
        "--at",
        "X,Y",
    )
    assert code == 3 and "does not name an arrow" in err
    # a chain whose labels make "s,t,u" readable as two different arrows
    tricky = write_json(
        tmp_path / "lat.json",
        {
            "elements": ["s", "t,u", "s,t", "u"],
            "covers": [["s", "t,u"], ["t,u", "s,t"], ["s,t", "u"]],
        },
    )
    code, _, err = cli(
        "localize",
        "--lattice",
        tricky,
        "--model",
        model,
        "--side",
        "left",
        "--at",
        "s,t,u",
    )
    assert code == 3 and "ambiguous" in err


def test_graph_reach(cli):
    code, out, _ = cli(
        "graph", "reach", "--lattice", "builtin:n5", "--expect-all"
    )
    assert code == 0
    assert out == "reachable from trivial: 70/70\nweakly connected: yes\n"
    code, out, _ = cli("graph", "reach", "--lattice", "builtin:grid2x1")
    assert code == 0
    assert out == "reachable from trivial: 167/182\nweakly connected: no\n"
    code, _, _ = cli(
        "graph", "reach", "--lattice", "builtin:grid2x1", "--expect-all"
    )
    assert code == 1


def test_graph_localizations_dot(cli):
    code, out, _ = cli("graph", "localizations", "--lattice", "builtin:square")
    assert code == 0
    assert out.startswith("digraph localizations {")
    assert "style=dashed" in out and "shape=box" in out


def test_graph_localizations_json(cli):
    code, out, _ = cli(
        "graph",
        "localizations",
        "--lattice",
        "builtin:chain2",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 10
    assert all(e["from"] != e["to"] for e in data["edges"])


def test_reproduce(cli):
    code, out, _ = cli("reproduce", "--paper-checks")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.endswith("PASS") for line in lines)
    code, _, err = cli("reproduce")
    assert code == 2
    assert "paper-checks" in err


def test_out_writes_file_instead_of_stdout(cli, tmp_path):
    target = tmp_path / "count.txt"
    code, out, _ = cli(
        "transfers",
        "enumerate",
        "--lattice",
        "builtin:n5",
        "--format",
        "count",
        "--out",
        str(target),
    )
    assert (code, out) == (0, "")
    assert target.read_text() == "26\n"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_invalid_input(cli, tmp_path, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = cli(
        "transfers", "enumerate", "--lattice", "builtin:n5", "--out", str(target)
    )
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


def test_usage_errors_exit_2(cli):
    assert cli()[0] == 2
    assert cli("transfers")[0] == 2
    assert cli("transfers", "enumerate")[0] == 2  # --lattice is required
    assert (
        cli(
            "transfers",
            "enumerate",
            "--lattice",
            "builtin:n5",
            "--format",
            "yaml",
        )[0]
        == 2
    )


def test_enumeration_output_is_deterministic(cli):
    first = cli("models", "enumerate", "--lattice", "builtin:n5")
    second = cli("models", "enumerate", "--lattice", "builtin:n5")
    assert first == second


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "reach", "--lattice", "builtin:n5"),
        ("models", "enumerate", "--lattice", "builtin:n5"),
    ],
    ids=["print", "write"],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    # The read end is closed before the child has finished importing, so
    # its first write to stdout fails with EPIPE.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "latmod.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce", "--paper-checks"),
        ("lattice", "info", "--lattice", "builtin:n5"),
        ("models", "enumerate", "--lattice", "builtin:n5"),
    ],
    ids=["reproduce", "info", "enumerate"],
)
def test_full_stdout_exits_3_with_one_error_line(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "latmod.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    assert proc.returncode == 3
    [line] = proc.stderr.decode().splitlines()
    assert line.startswith("error: cannot write standard output: [Errno 28]")


def test_output_is_utf8_in_files_and_a_failed_write_on_an_ascii_stdout(
    cli, tmp_path
):
    # Under the C locale without UTF-8 mode, stdout encodes ASCII only.
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        PYTHONCOERCECLOCALE="0",
        LC_ALL="C",
        PYTHONUTF8="0",
    )

    def run(*argv):
        return subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            env=env,
            cwd=tmp_path,
            timeout=120,
        )

    encoding = run(
        "-c", "import locale; print(locale.getpreferredencoding(False))"
    ).stdout.decode().strip()
    if codecs.lookup(encoding).name != "ascii":
        pytest.skip(f"the C locale encodes {encoding}, not ASCII")
    lattice = write_json(
        tmp_path / "omega.json",
        {"elements": ["0", "Ω", "1"], "covers": [["0", "Ω"], ["Ω", "1"]]},
    )
    info = run("-m", "latmod.cli", "lattice", "info", "--lattice", lattice)
    assert (info.returncode, info.stdout) == (3, b"")
    [line] = info.stderr.decode().splitlines()
    assert line.startswith("error: cannot write standard output: ")
    argv = ("transfers", "enumerate", "--lattice", lattice, "--format", "dot")
    dot = run("-m", "latmod.cli", *argv, "--out", "x.dot")
    assert (dot.returncode, dot.stdout, dot.stderr) == (0, b"", b"")
    _, text, _ = cli(*argv)
    assert "Ω" in text
    assert (tmp_path / "x.dot").read_text(encoding="utf-8") == text


# sha256 of the exports by format.  The JSON digests were taken from the
# implementation before the localization layer moved to mask operations,
# the DOT digests from the implementation before the lattice core moved
# from numpy to int masks, and the grid3x1 DOT digests (544 transfer
# systems, 1,483 models) from the all-pairs cover search; any change to
# the bytes of these outputs must be deliberate.
EXPORT_DIGESTS = {
    "json": {
        ("graph", "square"): "5721f8c837f212b61e5a2596590df0bd95d4950645accfcfd62c3fb33a91014d",
        ("graph", "grid2x1"): "a0aae34c7d6b38ae65f371a2f550fad8d95bb32defd7b65570d448e748d99915",
        ("graph", "chain4"): "a0103d55ee85f92887453920aacab562c09090bb653fbcceffd03a4d29617be1",
        ("graph", "n5"): "7e8906453c0cde78a52456895b9c5f719b7fef1741dea5ea59b0a3f58d42af9a",
        ("graph", "grid3x1"): "0ecc4760b4970920c8e9f2613551a86372317759a38383af64a89e2290877ef7",
        ("models", "square"): "7a35729fdc09da2d2a7265030e8fe4480b8a3aecb4081736ec6a820528517aa2",
        ("models", "grid2x1"): "1e29e6ae4638c31b1e83b97f4d88f6ef969165e144787ef0112822ae563626c3",
        ("models", "chain4"): "d356380da18fea2828216941efe5cb19683e0f9526cef4db309c3c681ce1bb4d",
    },
    "dot": {
        ("transfers", "square"): "e69aa80d44307fe04da428aebc9f4d3b0e9356474d505854563fc0776a1c07a7",
        ("transfers", "grid2x1"): "ee3c2d89ee1b0001fb9d61e829192dc353e5727eab96c2b47506c636a01a5beb",
        ("transfers", "chain4"): "ee594d2a196c2564be8805c4bacdcb8b6318f73d6eb5f49aef7009986166c1fa",
        ("transfers", "grid3x1"): "537635a2010d838d11dfe100a9efae505ba05a30678a280c9d5399949794b004",
        ("models", "square"): "34d33789630406beac04517f0a270eb0fde5fdf483d7d39e087fe4ed256ef3fd",
        ("models", "grid2x1"): "2c2986445e6965523a8fed4339d038e60e1390cfaa4ca90ba9ff958af72dc338",
        ("models", "chain4"): "1b968108a412f071c7e5821997ec7ef9d76d8d011728d3d708e204d4e2b66f98",
        ("models", "grid3x1"): "dc6b978907a2e2f15942402e745b60f3ab7736f98ebdf4b0220c0b8d3942c11c",
        ("graph", "square"): "4a37aaef964c66ac1322e287b81880b58f0ae5eb177817732b7ab1f60f0b9565",
        ("graph", "grid2x1"): "502cff81278e3566cebe5d2686b55db9b7003963ddbfcb076dbf49018760997f",
        ("graph", "chain4"): "ec697aceefa64bf5d53a170e4d64f3d28c6b18a5a52bd0b1cb48bc28b546db67",
    },
}
EXPORT_COMMANDS = {
    "transfers": ("transfers", "enumerate"),
    "graph": ("graph", "localizations"),
    "models": ("models", "enumerate"),
}
EXPORT_CASES = sorted(
    (fmt, kind, name) for fmt, table in EXPORT_DIGESTS.items() for kind, name in table
)


def _export_id(case):
    fmt, kind, name = case
    # The JSON cases keep the ids they were first collected under, which
    # spell out every character.
    return "-".join(kind + name) if fmt == "json" else f"{fmt}-{kind}-{name}"


@pytest.mark.parametrize("case", EXPORT_CASES, ids=_export_id)
def test_json_exports_are_byte_identical(cli, tmp_path, case):
    fmt, kind, name = case
    target = tmp_path / f"out.{fmt}"
    code, _, _ = cli(
        *EXPORT_COMMANDS[kind],
        "--lattice",
        f"builtin:{name}",
        "--format",
        fmt,
        "--out",
        str(target),
    )
    assert code == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == EXPORT_DIGESTS[fmt][(kind, name)]


# Input files for CLI_OUTPUTS, written into the working directory.
CLI_INPUTS = {
    "g22-dual.json": '{"arrows": [["(0,0)", "(0,1)"], ["(1,0)", "(2,1)"], ["(1,1)", "(2,2)"]]}\n',
    "g22-weq.json": '{"arrows": [["(0,1)", "(0,2)"], ["(1,0)", "(1,1)"], ["(1,0)", "(1,2)"], ["(1,0)", "(2,0)"], ["(1,0)", "(2,1)"], ["(1,1)", "(1,2)"], ["(1,1)", "(2,1)"], ["(2,0)", "(2,1)"]]}\n',
    "g22-af.json": '{"arrows": [["(0,1)", "(0,2)"], ["(1,0)", "(2,0)"], ["(1,1)", "(1,2)"], ["(1,1)", "(2,1)"]]}\n',
    "trivial.json": '{"weq": [], "af": []}\n',
    "c1.json": '{"weq": [["C", "1"]], "af": []}\n',
    "outside.json": '{"weq": [["0", "A"]], "af": [["0", "B"]]}\n',
    "weq.json": '{"arrows": [["0", "A"]]}\n',
    "af.json": '{"arrows": [["0", "B"]]}\n',
    "empty.json": '{"arrows": []}\n',
}
N5 = ("--lattice", "builtin:n5")
GRID22 = ("--lattice", "builtin:grid2x2")
# argv -> (id, exit code, stdout, stderr).  The stdout entry is the text
# itself or the sha256 of its bytes.  grid2x2 has 27 arrows, so its
# lifting tables have three chunks: dual reads every AF interval and both
# duals of a set spread over the chunks, verify a W that meets all three.
CLI_OUTPUTS = {
    ("reproduce", "--paper-checks"): (
        "reproduce", 0,
        "8c150d99b733b80d7b545591e0fbcd9f39b1320e2234d01b1375169ef3c62614", ""),
    ("graph", "reach", "--lattice", "builtin:chain7", "--expect-all"): (
        "reach-chain7-expect-all", 0,
        "reachable from trivial: 6435/6435\nweakly connected: yes\n", ""),
    ("models", "enumerate", *N5, "--format", "json"): (
        "models-n5-json", 0,
        "dad7c152169bf1d5922014efa4b670d35a42f35853261c8de4399bc758bc9a14", ""),
    ("models", "enumerate", *N5, "--format", "dot"): (
        "models-n5-dot", 0,
        "89217f8e542afa21770a5a34389cf71ff71f8d1cb60470b9da9f02eae88c18ad", ""),
    ("transfers", "enumerate", *N5, "--format", "dot"): (
        "transfers-n5-dot", 0,
        "39db6d01fc97ce87d2de67826449cc8e68251ea0f596f4ae53a6d53bec54564d", ""),
    ("models", "enumerate", *GRID22, "--format", "csv"): (
        "models-grid2x2-csv", 0,
        "6c5de2e06200b6a60d4ef9085de2b8f18928484456e5538813ae611c7a2b82cf", ""),
    ("models", "enumerate", *GRID22, "--count-only"): (
        "models-grid2x2-count", 0, "3249\n", ""),
    ("transfers", "dual", *GRID22, "--arrows", "g22-dual.json"): (
        "dual-grid2x2", 0,
        "0d3cafa251c878e3daa0b25ab7e2587d0beacf5d9b6f318c861729ab22e7c01f", ""),
    ("models", "verify", *GRID22, "--weq", "g22-weq.json", "--af", "g22-af.json",
     "--expect-valid"): (
        "verify-grid2x2", 0,
        "ff965d1b75e95c9b936295f68f0dbeb21fa38dce342feaed073ffa6bef3cfc9a", ""),
    ("localize", *N5, "--model", "trivial.json", "--side", "right", "--at", "0,A"): (
        "localize-trivial-right-0A", 0,
        "7d5a4f4bd6844b0adb06f5ffb1ea6cd16f78dd968f98e1b89663e6bf010013c1", ""),
    ("localize", *N5, "--model", "trivial.json", "--side", "right", "--at", "C,1"): (
        "localize-trivial-right-C1", 0,
        "8e74606a6ca72331775959ae8629aed059f4937bbb6497b304dcc1004d0aa1bb", ""),
    ("localize", *N5, "--model", "trivial.json", "--side", "left", "--at", "0,A"): (
        "localize-trivial-left-0A", 0,
        "864ebf2fdf24047dd0a7e95459810848799d23827b116505a29ee801bff7d806", ""),
    # Four golden reports from a W whose C and 1 share a block.
    ("localize", *N5, "--model", "c1.json", "--side", "right", "--at", "B,1"): (
        "localize-c1-right-B1", 0,
        "e8f8e1645b44d41500b1f77f58a99a6b3d6a76d663d517c6457e66de2c1034a5", ""),
    ("localize", *N5, "--model", "outside.json", "--side", "right", "--at", "0,A"): (
        "localize-outside-refused", 3, "",
        "error: AF={0->B} is outside the admissible interval of W={0->A}\n"),
    ("models", "verify", *N5, "--weq", "weq.json", "--af", "af.json", "--expect-valid"): (
        "verify-n5-outside-fails", 1, '{\n  "valid": false\n}\n', ""),
    ("models", "verify", *N5, "--weq", "empty.json", "--af", "empty.json",
     "--expect-valid"): (
        "verify-n5-trivial", 0, '{\n  "valid": true\n}\n', ""),
}


@pytest.mark.parametrize(
    "argv", CLI_OUTPUTS, ids=[case[0] for case in CLI_OUTPUTS.values()]
)
def test_cli_output_matches_its_pin(cli, tmp_path, monkeypatch, argv):
    for name, text in CLI_INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    _, code, stdout, stderr = CLI_OUTPUTS[argv]
    got_code, out, err = cli(*argv)
    assert (got_code, err) == (code, stderr)
    assert stdout in (out, hashlib.sha256(out.encode()).hexdigest())
