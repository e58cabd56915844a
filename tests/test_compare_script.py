import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_algorithms.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_algorithms", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_and_oracle_columns(capsys):
    assert load_script().main(["--trials", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["instance", "ppz", "del", "delppz", "ppz*", "del*"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:8]}
    assert len(rows) == 6 and lines[8] == ""
    for name in ("xor_m1", "xor_m2", "rand_n5_m12", "rand_n6_m14"):
        assert 0.0 <= float(rows[name][3]) <= 1.0
    for name in ("rand_n7_m16", "rand_n8_m18"):
        assert rows[name][3] == "-"
    for cells in rows.values():
        assert all(0.0 <= float(x) <= 1.0 for x in cells[:3])
