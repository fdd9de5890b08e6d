#!/usr/bin/env python3
"""Fig. 2 companion: the measurement-point layout Extra-P style modeling
needs, and where the evaluation points P+ sit.

Prints the one- and two-parameter experiment designs of the paper's Fig. 2
as ASCII diagrams, then shows how the library derives per-parameter lines
and continuation points from an experiment.

Run:  python examples/experiment_design.py
"""

import numpy as np

from repro.experiment.experiment import Experiment
from repro.experiment.lines import parameter_lines
from repro.synthesis.evaluation_points import evaluation_points
from repro.synthesis.measurements import grid_coordinates

X1 = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
X2 = np.array([10.0, 20.0, 30.0, 40.0, 50.0])

# ------------------------------------------------------- two-parameter grid
print("Two-parameter design (o = modeling grid, * = evaluation points P+):\n")
eval_pts = evaluation_points([X1, X2], 4)
x1_all = list(X1) + [p[0] for p in eval_pts]
x2_all = list(X2) + [p[1] for p in eval_pts]
for x2 in reversed(x2_all):
    row = [f"{x2:7.0f} |"]
    for x1 in x1_all:
        if (x1, x2) in [(p[0], p[1]) for p in eval_pts]:
            row.append("  *")
        elif x1 in X1 and x2 in X2:
            row.append("  o")
        else:
            row.append("   ")
    print(" ".join(row))
print("        " + "-" * (4 * len(x1_all)))
print("         " + " ".join(f"{x1:3.0f}" for x1 in x1_all))

# -------------------------------------------------- line extraction demo
print("\nPer-parameter measurement lines found by the library:")
exp = Experiment(["p", "n"])
coords = grid_coordinates([X1, X2])
kern = exp.create_kernel("demo")
kern.add_rows(coords, [[c[0] + c[1]] for c in coords])
for line in parameter_lines(kern, 2):
    print(
        f"  parameter {exp.parameters[line.parameter]}: "
        f"{len(line)} points, other parameters fixed at {line.fixed}"
    )

print("\nEvaluation points (diagonal continuation of both sequences):")
for k, p in enumerate(eval_pts, start=1):
    print(f"  P+{k} = {tuple(p)}")
