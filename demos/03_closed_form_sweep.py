"""Every closed form against the exact solver, over its default range.

The sweep builds each derived graph, evaluates the formula, solves
exactly, regenerates the explicit witness where one exists, and marks
the row ok only when all three numbers agree.

Run:  python demos/03_closed_form_sweep.py
"""

from tokengraphs.verify import FAMILIES, RunConfig, run_sweep, rows_to_table, sweep_exit_code

config = RunConfig(families=tuple(FAMILIES), m_range=None)
rows = run_sweep(config)
print(rows_to_table(rows), end="")

bad = [r for r in rows if r.status != "ok"]
print(f"\n{len(rows)} rows, {len(bad)} not ok, exit code {sweep_exit_code(rows)}")

# The same sweep is scriptable as CSV/JSON with byte-stable output:
#   tokengraphs verify --families all --format csv --out report.csv
