"""The package namespace: what `import autophagy_tumor` exports, and the
README quick start that uses it."""

import importlib
import pkgutil
import re
from pathlib import Path

import autophagy_tumor

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_every_name_in_each_module_all():
    # every module but the command line contributes its whole __all__
    names = [m.name for m in pkgutil.iter_modules(autophagy_tumor.__path__) if m.name != "cli"]
    assert names
    for name in names:
        module = importlib.import_module(f"autophagy_tumor.{name}")
        for public in module.__all__:
            assert getattr(autophagy_tumor, public) is getattr(module, public), (name, public)


def test_readme_quick_start_runs(capsys):
    section = README.read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    radius = float(capsys.readouterr().out)
    assert radius > 0.0
    assert namespace["state"] is namespace["result"].final_state
