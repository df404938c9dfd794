import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from toruslb import __version__ as VERSION
from toruslb.cli import main
from toruslb.evaluate import edge_loads, worst_case_load
from toruslb.lpexport import parse_lp
from toruslb.policy import edge_entries
from toruslb.schemes import build_ecmp, build_ring_lb
from toruslb.torus import TorusSpec
from toruslb.traffic import gen_hotspot


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out.read_text() if out.exists() else ""


def test_table1_small(tmp_path):
    rc, text = run_cli(["table1", "--n", "6", "--k", "2", "--r", "1", "--trials", "3"],
                       tmp_path, "t1.csv")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "traffic,ecmp,vlb,llb,o_opt,opt"
    assert lines[1].startswith("split-diamond,")
    assert lines[-1].startswith("# seed=")
    assert ",version=" in lines[-1]


def test_table2_small(tmp_path):
    rc, text = run_cli(["table2", "--n", "6", "--k", "2", "--r", "1", "--trials", "3"],
                       tmp_path, "t2.csv")
    assert rc == 0
    assert text.splitlines()[0] == "traffic,ecmp,vlb,llb"


def test_determinism_byte_identical(tmp_path):
    args = ["table1", "--n", "6", "--k", "2", "--r", "1", "--trials", "4", "--seed", "99"]
    _, first = run_cli(args, tmp_path, "a.csv")
    _, second = run_cli(args, tmp_path, "b.csv")
    assert first == second


# sha256 of the CSV bytes, recorded while edge_loads still rolled one slab
# per demand entry and gen_random_sparse walked Node lists.  The footer
# carries the package version, so a version bump re-records them.
TABLE_DIGESTS = {
    "table1": "91925ead63290dbc09853bd50f49b4df88507946f48d9dba1421cd1470b49c58",
    "table2": "2da95dc1e806d3847e14e7548c0e52e2a70751543d13c0c69132bd7835382ad8",
}


@pytest.mark.parametrize("command", sorted(TABLE_DIGESTS))
def test_table_bytes_pinned(tmp_path, command):
    rc, text = run_cli([command, "--n", "8", "--k", "12", "--trials", "200"],
                       tmp_path, f"{command}.csv")
    assert rc == 0
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[command]


def test_evaluate_stdout_pinned(capsys):
    # sha256 of stdout, recorded while load_report_to_csv still sorted the
    # per_edge dict; the footer carries the package version
    assert main(["evaluate", "--n", "6", "--scheme", "ecmp", "--traffic", "hotspot", "--k", "4"]) == 0
    text = capsys.readouterr().out
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "eaf98576925f01192fbbb38103ad990acc4619663874ce19e9832d1b80353885"
    )


# sha256 of the --out file and the stderr line of one run of each command
# that no other pin covers, recorded before the commands shared one writer;
# the worst-case pins again once the witness block ended its lines in \n
COMMAND_DIGESTS = {
    "bounds": (["bounds", "--n", "8", "--k", "18"],
               "4c78304f3be19fad66d90e6549e4f5aa1a09d8e47458e13f70c2b99cfd2b005d", ""),
    "worst-case-llb": (["worst-case", "--n", "10", "--scheme", "llb", "--r", "3", "--k", "18"],
                       "c4612080d3a6f32ed58614fbc760ca728263ff0fcb28ad6b915b9a2a86e67030", ""),
    "worst-case-gllb": (["worst-case", "--n", "8", "--m", "10", "--c1", "2", "--scheme", "gllb", "--k", "8"],
                        "6435a2d7096ad753c2b95e321e67945ea0e03de4e2e6ac36ae512856d6ad692a", ""),
    "evaluate": (["evaluate", "--n", "8", "--scheme", "vlb", "--traffic", "random", "--k", "5", "--seed", "3"],
                 "2d16aeb36489033b550edeaec16f6b4a2ea99ee872e0f64ab907a96b338e3c59", ""),
    # vertical capacity 2: the evaluator's capacity division runs
    "evaluate-c1-2": (["evaluate", "--n", "6", "--m", "8", "--c1", "2", "--scheme", "vlb",
                       "--traffic", "random", "--k", "5", "--seed", "3"],
                      "e3ce420df8477450ceb4a4cd08ebdadecc710dd6899de0269c627a2dd89cabdc", ""),
    "export-lp": (["export-lp", "--n", "5", "--k", "3"],
                  "858c7abafa15064a86f79bf55dedc7915ab98ae5ef6247a1ed543c62f9c38b8d",
                  "variables=652 constraints=801 flow_variables=600\n"),
    "export-opt": (["export-opt", "--n", "6", "--traffic", "split-diamond", "--r", "2"],
                   "02c0bccf22342734b084b3a075bba86be365c655b27d6d15cf3d623a8ad936c8",
                   "variables=1153 constraints=432\n"),
}


@pytest.mark.parametrize("name", sorted(COMMAND_DIGESTS))
def test_command_bytes_pinned(tmp_path, capsys, name):
    argv, digest, stderr = COMMAND_DIGESTS[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)


def test_worst_case_ring(tmp_path):
    rc, text = run_cli(["worst-case", "--n", "6", "--scheme", "ring", "--k", "2"], tmp_path, "r.csv")
    assert rc == 0
    assert text.splitlines()[0] == "scheme,k,value,edge_tail_x,edge_tail_y,dir"
    exact = worst_case_load(build_ring_lb(TorusSpec(6, 6)), 2)
    tail, d = exact.edge
    assert text.splitlines()[1] == f"ring,2,{exact.value!r},{tail.x},{tail.y},{d.token}"


def test_bounds_sweep(tmp_path):
    rc, text = run_cli(["bounds", "--n", "8", "--k", "8"], tmp_path, "b.csv")
    assert rc == 0
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "k,cut_lb,oblivious_lb,measured_llb,llb_ub"
    rows = [l.split(",") for l in lines[1:]]
    measured = [float(r[3]) for r in rows]
    assert measured == sorted(measured)
    for r in rows:
        assert float(r[1]) <= float(r[2]) <= float(r[3]) + 1e-9
        assert float(r[3]) <= float(r[4]) + 1e-9


def test_bounds_odd_torus_uses_radius_up_to_half(tmp_path):
    # on 7x7 LLB allows r = 3, which k = 17 prefers: 3/4 + 17/24 = 35/24
    rc, text = run_cli(["bounds", "--n", "7", "--k", "17"], tmp_path, "b7.csv")
    assert rc == 0
    rows = [l.split(",") for l in text.splitlines()[1:] if not l.startswith("#")]
    assert all(float(r[3]) <= float(r[4]) + 1e-9 for r in rows)
    assert rows[-1][0] == "17"
    assert float(rows[-1][3]) == pytest.approx(35 / 24, abs=1e-12)
    assert float(rows[-1][4]) == pytest.approx(35 / 24, abs=1e-12)


def test_worst_case_and_evaluate(tmp_path):
    rc, text = run_cli(
        ["worst-case", "--n", "6", "--scheme", "llb", "--r", "1", "--k", "2"],
        tmp_path, "w.csv",
    )
    assert rc == 0
    assert float(text.splitlines()[1].split(",")[2]) == pytest.approx(0.5, abs=1e-9)
    rc, text = run_cli(
        ["evaluate", "--n", "6", "--scheme", "ecmp", "--traffic", "hotspot", "--k", "4"],
        tmp_path, "e.csv",
    )
    assert rc == 0
    assert "max_load=" in text
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows[0] == "edge_tail_x,edge_tail_y,dir,load"
    report = edge_loads(build_ecmp(TorusSpec(6, 6)), gen_hotspot(TorusSpec(6, 6), 4))
    assert len(rows) == len(edge_entries(report.load)) + 1


def test_export_lp_roundtrips(tmp_path):
    rc, text = run_cli(["export-lp", "--n", "6", "--k", "2"], tmp_path, "r.lp")
    assert rc == 0
    model = parse_lp(text)
    assert model.objective == {"th": 1.0}
    rc, text = run_cli(
        ["export-opt", "--n", "6", "--traffic", "split-diamond", "--r", "2"],
        tmp_path, "o.lp",
    )
    assert rc == 0
    assert parse_lp(text).sense == "min"


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["table1", "--bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    # each command accepts only the flags it reads
    for argv in (
        ["export-lp", "--trials", "3"],
        ["bounds", "--r", "2"],
        # table1, table2 and bounds build LLB, which needs a square torus, and
        # their columns assume unit capacity, so they take no --m, --c1, --c2
        ["bounds", "--n", "6", "--c1", "2", "--c2", "2"],
        ["table2", "--m", "8"],
        # LLB (the default scheme) and split-diamond (the default traffic)
        # never run on a torus that is not square with equal capacities
        ["worst-case", "--n", "10", "--m", "12"],
        ["evaluate", "--n", "10", "--m", "12", "--scheme", "ecmp"],
        ["export-opt", "--n", "10", "--m", "12"],
        ["evaluate", "--n", "10", "--c1", "2", "--scheme", "ecmp"],
        # --k and --trials below 1 are usage errors in every command
        ["worst-case", "--k", "0"],
        ["table1", "--k", "0"],
        ["table2", "--k", "-1"],
        ["bounds", "--k", "0"],
        ["evaluate", "--k", "0"],
        ["export-lp", "--k", "0"],
        ["export-opt", "--k", "0"],
        ["table1", "--trials", "0"],
        ["table2", "--trials", "0"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "never.csv")])
        assert err.value.code == 2, argv
        assert not (tmp_path / "never.csv").exists(), argv
    for argv in (
        ["evaluate", "--n", "10", "--m", "12", "--scheme", "ecmp", "--traffic", "hotspot"],
        ["export-opt", "--n", "10", "--m", "12", "--traffic", "random"],
    ):
        assert run_cli(argv, tmp_path, "ok.txt")[0] == 0, argv


def test_negative_seed_is_a_usage_error(tmp_path):
    """--seed below 0 exits 2 while parsing, before any scheme is built, and
    leaves no output file."""
    for argv in (
        ["table1", "--n", "6", "--k", "4", "--trials", "3", "--seed", "-5"],
        ["table2", "--n", "6", "--k", "4", "--trials", "3", "--seed", "-1"],
        ["evaluate", "--n", "6", "--k", "4", "--traffic", "random", "--seed", "-1"],
        ["export-opt", "--n", "6", "--k", "4", "--traffic", "random", "--seed", "-1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "never.csv")])
        assert err.value.code == 2, argv
        assert not (tmp_path / "never.csv").exists(), argv
    rc, text = run_cli(
        ["evaluate", "--n", "6", "--k", "4", "--traffic", "random", "--seed", "0"],
        tmp_path, "seed0.csv",
    )
    assert rc == 0 and text.endswith(f"# seed=0,version={VERSION}\n")


def test_runtime_error_exit_code(tmp_path):
    rc = main(["bounds", "--n", "6", "--k", "30", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    # split-diamond on an odd square torus fails when the demand is built
    rc = main(["evaluate", "--n", "9", "--scheme", "ecmp", "--out", str(tmp_path / "y.csv")])
    assert rc == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toruslb.cli", "export-lp", "--n", "4", "--k", "1"],
        capture_output=True,
        text=True,
        cwd=pathlib.Path(__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0
    assert "variables=" in proc.stderr
    assert proc.stdout.startswith("\\ reduced oblivious routing program")


def test_table1_with_k8_diamond_row_at_least_one(tmp_path):
    rc, text = run_cli(["table1", "--k", "8", "--trials", "2"], tmp_path, "k8.csv")
    assert rc == 0
    row = next(l for l in text.splitlines() if l.startswith("split-diamond"))
    values = [float(x) for x in row.split(",")[1:4]]
    assert all(v >= 1.0 - 1e-9 for v in values)


def test_worst_case_gllb_caps_radii_at_half_extent(tmp_path):
    # gllb_radii caps its (4, 4) on 4x10 at k=20 at half of each extent, (2, 4),
    # and the bisection-limited geometry routes by ring load balancing
    rc, text = run_cli(
        ["worst-case", "--scheme", "gllb", "--n", "4", "--m", "10", "--k", "20"],
        tmp_path, "g.csv",
    )
    assert rc == 0
    assert float(text.splitlines()[1].split(",")[2]) == pytest.approx(2.5, abs=1e-6)


def test_failed_run_leaves_no_output_file(tmp_path, monkeypatch):
    import toruslb.cli as cli

    def broken_export(spec, k, sink):
        sink.write("\\ partial\n")
        raise RuntimeError("export failed")

    monkeypatch.setattr(cli, "export_reduced_oblivious_lp", broken_export)
    out = tmp_path / "r.lp"
    assert main(["export-lp", "--n", "4", "--k", "1", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_stale_temp_file_does_not_block_out(tmp_path, capsys):
    """A killed run leaves its temporary file behind; a later run with the
    same pid still writes --out, with the mode a plain open gives a new file,
    and a failed run still leaves neither an output nor a temporary file."""
    stale = tmp_path / f".t.csv.{os.getpid()}.tmp"
    stale.write_text("partial")
    argv = ["bounds", "--n", "6", "--k", "4"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    out = tmp_path / "t.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected
    with open(tmp_path / "plain", "w"):
        pass
    assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode
    os.remove(out)
    os.remove(tmp_path / "plain")
    assert main(["bounds", "--n", "6", "--k", "30", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == [stale]


def test_non_finite_capacity_exits_1_without_output(tmp_path):
    for argv in (
        ["worst-case", "--n", "6", "--c1", "nan", "--c2", "nan", "--scheme", "ecmp", "--k", "2"],
        ["export-lp", "--n", "4", "--c1", "nan", "--k", "2"],
        ["export-lp", "--n", "4", "--c2", "inf", "--k", "2"],
        ["evaluate", "--n", "6", "--c1", "inf", "--c2", "inf", "--scheme", "vlb",
         "--traffic", "hotspot", "--k", "2"],
    ):
        out = tmp_path / "never.txt"
        assert main(argv + ["--out", str(out)]) == 1, argv
        assert not out.exists(), argv
