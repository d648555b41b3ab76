import pytest

import latticekit as lk
from latticekit.cli import main
from conftest import DIAMOND_TEXT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.trg"
    path.write_text(DIAMOND_TEXT)
    return str(path)


def test_validate_ok(capsys, diamond_file):
    code, out, _ = run_cli(capsys, "validate", diamond_file)
    assert code == 0
    assert out.strip() == "ok"


def test_validate_violation_exit_1(capsys, tmp_path):
    path = tmp_path / "butterfly.trg"
    path.write_text("lattice v1\n4 4\n0 2\n0 3\n1 2\n1 3\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "violated" in out


def test_validate_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.trg"
    path.write_text("lattice v1\n4 4\n0 1\n")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "line" in err


def test_validate_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/path.trg")
    assert code == 2


def test_gen_then_validate(capsys, tmp_path):
    out_path = tmp_path / "b3.trg"
    code, _, _ = run_cli(capsys, "gen", "--family", "boolean", "--size", "3",
                         "--out", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "validate", str(out_path))
    assert code == 0 and out.strip() == "ok"


def test_gen_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "gen", "--family", "random_distributive",
                             "--size", "60", "--seed", "9")
    code2, out2, _ = run_cli(capsys, "gen", "--family", "random_distributive",
                             "--size", "60", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_grid_pair_size(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "grid", "--size", "3,4")
    assert code == 0
    assert lk.parse_trg(out).n == 12


def test_gen_dot_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "chain", "--size", "3",
                           "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_gen_out_of_limits_exit_2(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "random_poset_completion",
                           "--size", "65")
    assert code == 2


def test_query_meet_divisor60(capsys, tmp_path):
    path = tmp_path / "d60.trg"
    path.write_text(lk.format_trg(lk.generate(lk.FamilySpec("divisor", 60))))
    values = sorted(d for d in range(1, 61) if 60 % d == 0)
    ids = {v: i for i, v in enumerate(values)}
    code, out, _ = run_cli(capsys, "query", str(path), "meet",
                           str(ids[12]), str(ids[10]))
    assert code == 0
    assert out.strip() == str(ids[2])


def test_query_leq_false(capsys, diamond_file):
    code, out, _ = run_cli(capsys, "query", diamond_file, "leq", "1", "2")
    assert code == 0
    assert out.strip() == "false"


def test_query_join_null(capsys, tmp_path):
    path = tmp_path / "anti.trg"
    path.write_text("lattice v1\n2 0\n")
    for structure in ("blocked", "simple", "recursive"):
        code, out, _ = run_cli(capsys, "query", str(path), "join", "0", "1",
                               "--structure", structure)
        assert code == 0
        assert out.strip() == "null"


def test_query_structures_agree(capsys, tmp_path):
    g = lk.generate(lk.FamilySpec("random_distributive", 60, seed=2))
    path = tmp_path / "rd.trg"
    path.write_text(lk.format_trg(g))
    for kind in ("meet", "join"):
        answers = set()
        for structure in ("blocked", "simple", "recursive"):
            code, out, _ = run_cli(capsys, "query", str(path), kind, "5", "17",
                                   "--structure", structure)
            assert code == 0
            answers.add(out.strip())
        assert len(answers) == 1


def test_query_bad_ids_exit_2(capsys, diamond_file):
    code, _, err = run_cli(capsys, "query", diamond_file, "meet", "0", "9")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("build-info", "{}", "--c", "0.3"),
    ("query", "{}", "meet", "1", "2", "--c", "2"),
    ("query", "{}", "join", "1", "2", "--c", "nan"),
    ("bench", "--sizes", "8", "--c-list", "0.3"),
    ("bench", "--sizes", "8", "--c-list", "0.5,x"),
])
def test_c_outside_range_exit_2(capsys, diamond_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(diamond_file) for a in argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("gen", "--family", "chain", "--size", "abc"),
    ("gen", "--family", "grid", "--size", "3,"),
    ("bench", "--sizes", "x"),
    ("bench", "--sizes", "8,1e3"),
])
def test_non_integer_sizes_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_validate_non_utf8_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.trg"
    path.write_bytes(b"lattice v1\n2 1\n0 \xff1\n")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "line 3" in err and "UTF-8" in err


@pytest.mark.parametrize("argv", [
    ("build-info", "--structure", "blocked"),
    ("build-info", "--structure", "order"),
    ("build-info", "--structure", "simple"),
    ("build-info", "--structure", "recursive"),
    ("query", "leq", "0", "1"),
    ("query", "meet", "0", "1"),
    ("query", "join", "0", "1", "--structure", "simple"),
    ("query", "meet", "0", "1", "--structure", "recursive"),
])
def test_cycle_invalid_exit_1(capsys, tmp_path, argv):
    path = tmp_path / "cyc.trg"
    path.write_text("lattice v1\n3 3\n0 1\n1 2\n2 0\n")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out.startswith("invalid: ") and "cycle" in out
    assert not err


def test_query_stats_line(capsys, diamond_file):
    code, out, _ = run_cli(capsys, "query", diamond_file, "meet", "1", "2",
                           "--stats")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0"
    assert lines[1].startswith("stats: order_tests=")


def test_build_info(capsys, diamond_file):
    code, out, _ = run_cli(capsys, "build-info", diamond_file)
    assert code == 0
    assert "total entries" in out
    code, out, _ = run_cli(capsys, "build-info", diamond_file,
                           "--structure", "order")
    assert code == 0
    assert "downset entries   6" in out


def test_bench_row_count_contract(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--families", "boolean", "--sizes", "64,128,256,512,1024",
        "--structures", "blocked", "--queries", "20",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 5  # header plus one row per size
    header = lines[0].split(",")
    assert header[0] == "family" and "mean_order_tests" in header


def test_bench_multiple_structures_and_jobs(capsys):
    def strip_wall(csv_text):
        rows = [line.split(",") for line in csv_text.strip().splitlines()]
        col = rows[0].index("wall_ms")
        return [r[:col] + r[col + 1:] for r in rows]

    args = ["bench", "--families", "boolean", "--sizes", "16,64",
            "--structures", "blocked,simple,recursive", "--queries", "10"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    # identical modulo wall time: same rows, same order, same counters
    assert strip_wall(out1) == strip_wall(out2)
    assert len(out1.strip().splitlines()) == 1 + 2 * 3


def test_bench_error_rows_nonzero_exit(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--families", "random_distributive",
        "--sizes", "50000", "--structures", "blocked", "--queries", "5",
    )
    # target beyond the generator cap: row carries the error, exit nonzero
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0].split(",")[-1] == "error"
    assert lines[1].split(",")[-1] != ""


def test_demo_dummy(capsys):
    code, out, _ = run_cli(capsys, "demo-dummy")
    assert code == 0
    assert "lattice property: ok" in out
    assert "VIOLATED" in out
    assert "(x, y, c3, d)" in out
    assert "meet(c3, d): not well-defined" in out


def test_demo_dummy_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "demo-dummy")
    _, out2, _ = run_cli(capsys, "demo-dummy")
    assert out1 == out2
