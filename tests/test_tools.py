import importlib.util
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_times_prints_cpu_and_queries(capsys):
    entry_times = _load("entry_times")
    start = time.process_time()
    assert entry_times.main(["--seed", "0", "--entry", "rt_product"]) == 0
    assert time.process_time() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["entry", "cpu_s", "queries"]
    name, cpu, queries = lines[1].split()
    assert name == "rt_product" and float(cpu) >= 0 and int(queries) > 0
    assert lines[2].split()[0] == "total" and lines[2].split()[2] == queries
    assert len(lines) == 3
