"""tools/bench_summary.py: the summary file it writes."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_second_summary_on_the_same_date_keeps_the_first(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    records = []
    for side, wall in (("parent", 2.0), ("change", 1.0)):
        record = {"workload": "w", "seed": 1, "attempted": 3, "failed": 0, "correct": True,
                  "machine": {"cores": 2}, "metrics": {"wall_s": wall}, "trace": 0}
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(record))
        records.append(str(path))
    argv = ["--parent", records[0], "--change", records[1]]
    assert tool.main(argv) == 0
    assert tool.main(argv) == 0
    first, second = (Path(line) for line in capsys.readouterr().out.splitlines())
    assert first != second and first.exists() and second.exists()
    assert second.name == first.stem + "-2.json"
    for path in (first, second):
        assert json.loads(path.read_text())["workloads"]["w"]["metrics"]["wall_s"]["change_over_parent"] == 0.5
