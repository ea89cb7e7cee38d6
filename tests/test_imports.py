"""Import hygiene: ``src/`` runs on the standard library alone.

The one third-party runtime import the tree ever had (a graph library,
for ~10 calls) was 362 of the 525 modules ``import repro.soc,
repro.sweep`` loaded and about a third of every workload's peak RSS.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

TOP_LEVEL = (
    "import json, sys; "
    "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"
)


def top_level_modules(statement):
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", f"{statement}; {TOP_LEVEL}"],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return set(json.loads(result.stdout))


def test_importing_the_simulator_loads_the_standard_library_only():
    # What a bare interpreter already holds (site hooks such as
    # _distutils_hack) is the host's business, not this tree's.
    bare = top_level_modules("pass")
    loaded = top_level_modules("import repro.soc, repro.sweep, repro.workloads")
    # __mp_main__ is multiprocessing's alias of __main__ (repro.sweep).
    foreign = loaded - bare - sys.stdlib_module_names - {"repro", "__mp_main__"}
    assert not foreign, f"third-party modules imported by repro: {sorted(foreign)}"
