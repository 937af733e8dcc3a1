"""Drive the batch front-end from Python: config in, CSV + report out.

Writes a problem definition with randomized diagonal generators, solves
it, compares against the companion oracle, and shows that the pipeline is
deterministic for a fixed seed.
"""

import json
import pathlib
import tempfile

from factored_evolution.cli import main

CONFIG = {
    "backend": {"family": "spectral", "dimension": 6},
    "operators": {
        "A": {"eigenvalues": {"random-uniform": {"low": -2.0, "high": -1.2}}},
        "B": {"eigenvalues": {"random-uniform": {"low": -0.8, "high": -0.2}}},
    },
    "factors": ["A", "A", "B"],
    "initial_data": [
        {"profile": "random-normal"},
        {"profile": "random-normal"},
        {"profile": "random-normal"},
    ],
    "forcing": "cos(t)",
    "time": {"t_end": 1.5, "samples": 7},
    "quadrature": {"panels": 16, "nodes_per_panel": 8},
    "oracle": {"steps_per_unit": 2000},
}

with tempfile.TemporaryDirectory() as wd:
    wd = pathlib.Path(wd)
    cfg = wd / "problem.json"
    cfg.write_text(json.dumps(CONFIG, indent=2))

    print("== compare-oracle ==")
    code = main(["compare-oracle", str(cfg), "--seed", "7", "--out", str(wd / "trace.csv")])
    print(f"exit code: {code}")

    print("\n== CSV head ==")
    for line in (wd / "trace.csv").read_text().splitlines()[:4]:
        print(" ", line)

    main(["solve", str(cfg), "--seed", "7", "--out", str(wd / "again.csv")])
    a = (wd / "trace.csv").read_text().splitlines()
    b = (wd / "again.csv").read_text().splitlines()
    same = all(x.startswith(y.split(",")[0]) for x, y in zip(a[1:], b[1:]))
    solve_cols = [line.rsplit(",", 1)[0] for line in a[1:]]  # drop oracle_dev column
    print("\nsolve output deterministic and consistent with compare-oracle:",
          solve_cols == b[1:] and same)
