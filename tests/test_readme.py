"""README's library example runs as written, so it follows the library's signatures."""

import re
from pathlib import Path


def test_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    exec(compile(code, "README.md", "exec"), {})
    err_l2 = float(capsys.readouterr().out)
    assert 0.0 <= err_l2 < 0.05     # 8 terms reach about 0.005
