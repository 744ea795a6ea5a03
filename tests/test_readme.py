"""README.md's library example runs against the current API."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    phase, damping, magnitude = map(float, capsys.readouterr().out.split())
    # the printed comment promises phase eps*S, damping and |K|
    eps, S = namespace["eps"], namespace["point"].S
    assert math.isclose(phase, eps * S, rel_tol=1e-4)
    assert damping <= 0.0 and 0.0 < magnitude <= 1.0
