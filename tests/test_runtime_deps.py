"""The runtime depends on the standard library only.

numpy, sympy and hypothesis are installed for the tests and benchmarks;
importing the package and its CLI must not load them or anything else
outside the standard library.  The import runs in a fresh isolated
interpreter (`-I` ignores PYTHONPATH, so the command puts src/ on the
path itself), and only the modules that the import loads are checked:
the interpreter's own start-up may load others through .pth files.
"""

import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, "src")
import homsuper, homsuper.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_standard_library_modules():
    out = subprocess.run([sys.executable, "-I", "-c", PROBE], cwd=REPO_ROOT,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    loaded = json.loads(out)
    assert "homsuper.cli" in loaded
    outside = [m for m in loaded if m.split(".")[0] != "homsuper"
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
