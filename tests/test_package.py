import pkgutil
import re
from pathlib import Path

import primehull

BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_package_exports_exactly_what_the_benchmark_calls():
    # The benchmark reaches the program through ``ph.<name>``; every other
    # caller imports from a submodule.
    used = set(re.findall(r"\bph\.(\w+)", BENCH.read_text()))
    submodules = {m.name for m in pkgutil.iter_modules(primehull.__path__)}
    assert set(primehull.__all__) == used - submodules - {"__file__"}
    assert all(hasattr(primehull, name) for name in used)
