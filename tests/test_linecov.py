import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("linecov", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_linecov_reports_unexecuted_statements(tmp_path, capsys):
    target = tmp_path / "target.py"
    target.write_text('"""Docstring."""\n'
                      "\n"
                      "\n"
                      "@staticmethod\n"
                      "def pick(x):\n"
                      "    if x:\n"
                      "        return 1\n"
                      "    return 2\n")
    script = tmp_path / "run.py"
    script.write_text("import runpy, sys\n"
                      "ns = runpy.run_path(sys.argv[1])\n"
                      "ns['pick'].__func__(True)\n")
    linecov = _load_tool()
    assert linecov.main([str(target), "--script", str(script), "--",
                         str(target)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{target}: 1 of 5 statement lines never executed",
                   f"{target}:8: return 2"]
