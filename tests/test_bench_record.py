import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def perfbench_output(correct):
    """Canned stdout of one perfbench run, in the format perfbench/run.py prints."""
    return "\n".join([
        "perfbench: workload=asv_tables seed=7 trace=0 scale=full attempted=12 "
        "failed=0 fail_ratio=0",
        "  ops_per_s = 412.5 1/s",
        "  op_ms_p50 = 2.31 ms",
        "perfbench-detail: " + json.dumps({"env": {"nproc": 2}}),
        json.dumps({"correct": correct, "attempted": 12, "failed": 0,
                    "metrics": {"ops_per_s": {"value": 412.5, "unit": "1/s"}}}),
    ]) + "\n"


@pytest.mark.parametrize("correct", [True, False])
def test_parse_run_keeps_the_verdict(correct):
    run = bench_record.parse_run(perfbench_output(correct))
    assert run["correct"] is correct
    assert (run["attempted"], run["failed"]) == (12, 0)
    assert run["metrics"] == {"ops_per_s": 412.5, "op_ms_p50": 2.31}
    assert run["detail"] == {"env": {"nproc": 2}}


def test_parse_run_needs_the_result_line():
    text = perfbench_output(True).splitlines()[:-1]
    with pytest.raises(ValueError, match="no perfbench result"):
        bench_record.parse_run("\n".join(text))


def test_source_lines_counts_each_trees_library_modules(tmp_path):
    # wc -l counts newlines: a last line without one is not counted, and only
    # the .py files directly in src/sobikit are read
    for side, files in {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3"},
                        "change": {"a.py": "x = 1\n", "README": "one\ntwo\n",
                                   "sub/c.py": "w = 4\n"}}.items():
        for name, text in files.items():
            path = tmp_path / side / "src" / "sobikit" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    assert bench_record.source_lines(tmp_path / "parent") == 2
    assert bench_record.source_lines(tmp_path / "change") == 1


_AB_PATH = _PATH.parent / "ab_inprocess.py"
_AB_SPEC = importlib.util.spec_from_file_location("ab_inprocess", _AB_PATH)
ab_inprocess = importlib.util.module_from_spec(_AB_SPEC)
_AB_SPEC.loader.exec_module(ab_inprocess)


def test_ab_inprocess_a_a_run_is_correct_on_both_sides():
    # the same tree on both sides, imported under two package names
    root = _PATH.parent.parent
    record = ab_inprocess.compare({"parent": root, "change": root}, "asv_tables", "tiny",
                                  seed=0, rounds=2)
    assert record["correct"] == {"parent": True, "change": True}
    assert record["failures"] == {"parent": [], "change": []}
    assert record["unit_ops"] == 4
    for side in ("parent", "change"):
        times = record["unit_ms"][side]
        assert {"median", "q1", "q3"} <= times.keys() and len(times["runs"]) == 2
        assert all(t > 0 for t in times["runs"])
    assert {"median", "q1", "q3"} <= record["ratio"].keys() and len(record["ratio"]["runs"]) == 2
    assert 0 <= record["change_won"] <= 2


_PARITY_PATH = _PATH.parent / "cli_parity.py"
_PARITY_SPEC = importlib.util.spec_from_file_location("cli_parity", _PARITY_PATH)
cli_parity = importlib.util.module_from_spec(_PARITY_SPEC)
_PARITY_SPEC.loader.exec_module(cli_parity)


def test_cli_parity_a_a_run_is_the_same_and_a_changed_tree_is_named(tmp_path):
    named = {"asv:a": ["asv", "--preset", "a", "--lags", "1-3"],
             "asv:d": ["asv", "--preset", "d", "--lags", "1-3", "--output", "t.csv"]}
    root = cli_parity.ROOT
    assert cli_parity.compare({"parent": root, "change": root}, named, tmp_path / "aa") == {}
    # a copy whose asv prints one digit fewer differs in what it prints and writes
    changed = tmp_path / "changed"
    shutil.copytree(root / "src" / "sobikit", changed / "src" / "sobikit")
    cli = changed / "src" / "sobikit" / "cli.py"
    cli.write_text(cli.read_text().replace("{crit:.17g}", "{crit:.16g}"))
    assert cli_parity.compare({"parent": root, "change": changed}, {"asv:d": named["asv:d"]},
                              tmp_path / "ab") == {"asv:d": ["stdout", "files"]}
